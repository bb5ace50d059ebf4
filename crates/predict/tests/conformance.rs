//! Shared conformance suite for every predictor family.
//!
//! The uncertainty escalation policy in `simtune-core` treats all four
//! model families interchangeably through [`PredictorKind::build`], so
//! this suite pins the behaviour that policy relies on: every model
//! (a) learns a known linear set well enough to rank it, (b) copes with
//! a quadratic set at least as well as predicting the mean, (c) is
//! bit-identical under a fixed seed, and (d) reports finite,
//! non-negative uncertainties aligned with its predictions.

use simtune_linalg::Matrix;
use simtune_predict::{PredictError, PredictorKind};

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
fn every_model_reports_aligned_finite_uncertainty() {
    let (x, y) = linear_set();
    for kind in PredictorKind::all() {
        let mut model = kind.build(11);
        model.fit(&x, &y).unwrap();
        let (means, stds) = model.predict_with_uncertainty(&x).unwrap();
        assert_eq!(means.len(), x.rows(), "{}", kind.label());
        assert_eq!(stds.len(), x.rows(), "{}", kind.label());
        assert!(
            stds.iter().all(|s| s.is_finite() && *s >= 0.0),
            "{}: bad stds",
            kind.label()
        );
        // The uncertain path must agree with the plain one on the mean.
        assert_eq!(means, model.predict(&x).unwrap(), "{}", kind.label());
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
        assert!(
            matches!(
                model.predict_with_uncertainty(&x),
                Err(PredictError::NotFitted)
            ),
            "{}",
            kind.label()
        );
        let mut fitted = kind.build(0);
        fitted.fit(&x, &y).unwrap();
        assert!(
            matches!(
                fitted.predict_with_uncertainty(&Matrix::zeros(1, 5)),
                Err(PredictError::DimensionMismatch { .. })
            ),
            "{}",
            kind.label()
        );
    }
}

#[test]
fn gp_uncertainty_grows_away_from_training_data() {
    // The escalation policy leans on this qualitative property: queries
    // far from everything observed must look *less* certain.
    let x = Matrix::from_fn(20, 1, |i, _| i as f64 / 4.0);
    let y: Vec<f64> = (0..20).map(|i| (i as f64 / 4.0).sin()).collect();
    let mut gp = PredictorKind::Bayes.build(5);
    gp.fit(&x, &y).unwrap();
    let near = Matrix::from_vec(1, 1, vec![2.0]).unwrap();
    let far = Matrix::from_vec(1, 1, vec![500.0]).unwrap();
    let (_, s_near) = gp.predict_with_uncertainty(&near).unwrap();
    let (_, s_far) = gp.predict_with_uncertainty(&far).unwrap();
    assert!(
        s_far[0] > s_near[0],
        "far {:.4} must exceed near {:.4}",
        s_far[0],
        s_near[0]
    );
}
