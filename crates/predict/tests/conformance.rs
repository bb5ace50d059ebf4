//! Shared conformance suite for every predictor family.
//!
//! `simtune-core` treats all four model families interchangeably
//! through [`PredictorKind::build`], so this suite pins what every model
//! must do: (a) learn a known linear set well enough to rank it, (b) cope
//! with a quadratic set at least as well as predicting the mean, (c) be
//! bit-identical under a fixed seed, and (d) refuse queries before `fit`
//! and of the wrong width. The GP surrogate's variance, which Bayes-opt
//! explores by, must grow away from the training data.

use simtune_linalg::Matrix;
use simtune_predict::{GpKernel, GpRegressor, PredictError, PredictorKind, Regressor};

/// y = 3 x0 - 2 x1 + 0.5 over a deterministic grid.
fn linear_set() -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(48, 2, |i, j| ((i * (7 + j) + j * 3) % 13) as f64 / 6.5);
    let y = (0..48)
        .map(|i| 3.0 * x[(i, 0)] - 2.0 * x[(i, 1)] + 0.5)
        .collect();
    (x, y)
}

/// y = x0² - x1, the curvature that separates LinReg from the rest.
fn quadratic_set() -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(48, 2, |i, j| ((i * (5 + 2 * j)) % 17) as f64 / 8.5 - 1.0);
    let y = (0..48).map(|i| x[(i, 0)] * x[(i, 0)] - x[(i, 1)]).collect();
    (x, y)
}

fn mse(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64
}

fn variance(y: &[f64]) -> f64 {
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / y.len() as f64
}

#[test]
fn every_model_learns_the_linear_set() {
    let (x, y) = linear_set();
    for kind in PredictorKind::all() {
        let mut model = kind.build(11);
        model.fit(&x, &y).unwrap();
        let pred = model.predict(&x).unwrap();
        let err = mse(&y, &pred);
        let var = variance(&y);
        assert!(
            err < var * 0.2,
            "{}: training mse {err:.4} vs variance {var:.4}",
            kind.label()
        );
    }
}

#[test]
fn every_model_beats_the_mean_on_the_quadratic_set() {
    let (x, y) = quadratic_set();
    for kind in PredictorKind::all() {
        let mut model = kind.build(11);
        model.fit(&x, &y).unwrap();
        let pred = model.predict(&x).unwrap();
        let err = mse(&y, &pred);
        // Predicting the mean scores exactly the variance; every family
        // (even LinReg, thanks to the -x1 term) must do better.
        let var = variance(&y);
        assert!(
            err < var,
            "{}: quadratic mse {err:.4} vs variance {var:.4}",
            kind.label()
        );
    }
}

#[test]
fn every_model_is_deterministic_under_a_fixed_seed() {
    let (x, y) = linear_set();
    for kind in PredictorKind::all() {
        let run = |seed: u64| {
            let mut model = kind.build(seed);
            model.fit(&x, &y).unwrap();
            model.predict(&x).unwrap()
        };
        assert_eq!(run(42), run(42), "{} not deterministic", kind.label());
    }
}

#[test]
fn every_model_rejects_queries_before_fit_and_after_mismatch() {
    let (x, y) = linear_set();
    for kind in PredictorKind::all() {
        let model = kind.build(0);
        assert!(
            matches!(model.predict(&x), Err(PredictError::NotFitted)),
            "{}",
            kind.label()
        );
        let mut fitted = kind.build(0);
        fitted.fit(&x, &y).unwrap();
        assert!(
            matches!(
                fitted.predict(&Matrix::zeros(1, 5)),
                Err(PredictError::DimensionMismatch { .. })
            ),
            "{}",
            kind.label()
        );
    }
}

#[test]
fn gp_uncertainty_grows_away_from_training_data() {
    // Bayes-opt's acquisition leans on this qualitative property of its
    // GP surrogate: queries far from everything observed must look
    // *less* certain.
    let x = Matrix::from_fn(20, 1, |i, _| i as f64 / 4.0);
    let y: Vec<f64> = (0..20).map(|i| (i as f64 / 4.0).sin()).collect();
    let mut gp = GpRegressor::new(GpKernel::default());
    gp.fit(&x, &y).unwrap();
    let near = Matrix::from_vec(1, 1, vec![2.0]).unwrap();
    let far = Matrix::from_vec(1, 1, vec![500.0]).unwrap();
    let v_near = gp.predict_variance(&near).unwrap()[0];
    let v_far = gp.predict_variance(&far).unwrap()[0];
    assert!(
        v_far > v_near,
        "far {v_far:.4} must exceed near {v_near:.4}"
    );
}
