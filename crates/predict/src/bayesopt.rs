use crate::model::check_fit_input;
use crate::{GpKernel, GpRegressor, Loss, PredictError, Regressor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtune_linalg::Matrix;

/// Configuration of the Bayesian hyperparameter optimization wrapped
/// around the Gaussian-process predictor (the paper's Listing 6: fit a
/// GP per hyperparameter candidate, score `-loss` on a held-out split,
/// and let a Bayesian optimizer propose the next candidate).
#[derive(Debug, Clone, PartialEq)]
pub struct BayesOptConfig {
    /// Random candidates evaluated before the surrogate takes over.
    pub init_points: usize,
    /// Surrogate-guided iterations.
    pub iterations: usize,
    /// Loss scored on the validation split (MSE in the paper).
    pub loss: Loss,
    /// Fraction of the training data held out for scoring.
    pub holdout: f64,
    /// log10 bounds for the constant factor `C`.
    pub log_c: (f64, f64),
    /// log10 bounds for the RBF length scale.
    pub log_length: (f64, f64),
    /// log10 bounds for the white-noise level.
    pub log_noise: (f64, f64),
    /// Cap on the training subset used per candidate fit (Cholesky is
    /// cubic; the paper's group sizes make this necessary on any substrate).
    pub max_fit_samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BayesOptConfig {
    fn default() -> Self {
        BayesOptConfig {
            init_points: 6,
            iterations: 15,
            loss: Loss::Mse,
            holdout: 0.25,
            log_c: (-2.0, 2.0),
            log_length: (-1.0, 1.5),
            log_noise: (-6.0, -0.5),
            max_fit_samples: 600,
            seed: 0,
        }
    }
}

/// The paper's "Bayes" predictor: a Gaussian process whose kernel
/// hyperparameters are selected by Bayesian optimization with an
/// expected-improvement acquisition over a GP surrogate of the validation
/// loss, then refitted on the full training set.
///
/// # Example
///
/// ```
/// use simtune_linalg::Matrix;
/// use simtune_predict::{BayesGpRegressor, Regressor};
///
/// # fn main() -> Result<(), simtune_predict::PredictError> {
/// let x = Matrix::from_fn(40, 1, |i, _| i as f64 / 8.0);
/// let y: Vec<f64> = (0..40).map(|i| (i as f64 / 8.0).sin()).collect();
/// let mut m = BayesGpRegressor::paper_config(7);
/// m.fit(&x, &y)?;
/// let p = m.predict(&x)?;
/// assert!((p[10] - y[10]).abs() < 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BayesGpRegressor {
    config: BayesOptConfig,
    inner: Option<GpRegressor>,
    best_kernel: Option<GpKernel>,
}

impl BayesGpRegressor {
    /// Paper configuration (MSE loss) with a seed.
    pub fn paper_config(seed: u64) -> Self {
        Self::new(BayesOptConfig {
            seed,
            ..BayesOptConfig::default()
        })
    }

    /// Builds from an explicit configuration.
    pub fn new(config: BayesOptConfig) -> Self {
        BayesGpRegressor {
            config,
            inner: None,
            best_kernel: None,
        }
    }

    /// The kernel chosen by the optimization, if fitted.
    pub fn best_kernel(&self) -> Option<&GpKernel> {
        self.best_kernel.as_ref()
    }

    /// The objective of the paper's Listing 6: fit a GP with `kernel` on
    /// the train split, predict the validation split, return `-loss`.
    fn objective(
        kernel: GpKernel,
        x_train: &Matrix,
        y_train: &[f64],
        x_val: &Matrix,
        y_val: &[f64],
        loss: Loss,
    ) -> f64 {
        let mut gp = GpRegressor::new(kernel);
        match gp.fit(x_train, y_train).and_then(|_| gp.predict(x_val)) {
            Ok(pred) => -loss.compute(y_val, &pred),
            Err(_) => f64::NEG_INFINITY, // numerically infeasible kernel
        }
    }
}

/// A point in log10 hyperparameter space.
type LogPoint = [f64; 3];

fn kernel_of(p: LogPoint) -> GpKernel {
    GpKernel {
        constant: 10f64.powf(p[0]),
        length_scale: 10f64.powf(p[1]),
        noise: 10f64.powf(p[2]),
    }
}

fn sample_point(cfg: &BayesOptConfig, rng: &mut StdRng) -> LogPoint {
    [
        rng.gen_range(cfg.log_c.0..=cfg.log_c.1),
        rng.gen_range(cfg.log_length.0..=cfg.log_length.1),
        rng.gen_range(cfg.log_noise.0..=cfg.log_noise.1),
    ]
}

/// Standard normal pdf/cdf for expected improvement.
fn phi(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

fn big_phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Abramowitz–Stegun erf approximation (|error| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

impl Regressor for BayesGpRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), PredictError> {
        check_fit_input(x, y)?;
        let cfg = self.config.clone();
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xBA7E5));

        // Subsample + split train/validation.
        let n = x.rows();
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            idx.swap(i, rng.gen_range(0..=i));
        }
        idx.truncate(cfg.max_fit_samples.max(8).min(n));
        let n_val = ((idx.len() as f64 * cfg.holdout) as usize).clamp(1, idx.len() - 1);
        let (val_idx, train_idx) = idx.split_at(n_val);
        let take = |rows: &[usize]| -> (Matrix, Vec<f64>) {
            let m = Matrix::from_fn(rows.len(), x.cols(), |i, j| x[(rows[i], j)]);
            let t = rows.iter().map(|&r| y[r]).collect();
            (m, t)
        };
        let (x_train, y_train) = take(train_idx);
        let (x_val, y_val) = take(val_idx);

        // Evaluated (point, objective) history.
        let mut history: Vec<(LogPoint, f64)> = Vec::new();
        for _ in 0..cfg.init_points {
            let p = sample_point(&cfg, &mut rng);
            let obj = Self::objective(kernel_of(p), &x_train, &y_train, &x_val, &y_val, cfg.loss);
            history.push((p, obj));
        }

        // Surrogate loop: GP over the history, expected improvement over
        // a random candidate pool.
        for _ in 0..cfg.iterations {
            let finite: Vec<&(LogPoint, f64)> =
                history.iter().filter(|(_, o)| o.is_finite()).collect();
            let next = if finite.len() < 3 {
                sample_point(&cfg, &mut rng)
            } else {
                let hx = Matrix::from_fn(finite.len(), 3, |i, j| finite[i].0[j]);
                let hy: Vec<f64> = finite.iter().map(|(_, o)| *o).collect();
                let mut surrogate = GpRegressor::new(GpKernel {
                    constant: 1.0,
                    length_scale: 1.0,
                    noise: 1e-4,
                });
                if surrogate.fit(&hx, &hy).is_err() {
                    history.push((sample_point(&cfg, &mut rng), f64::NEG_INFINITY));
                    continue;
                }
                let best = hy.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut best_ei = f64::NEG_INFINITY;
                let mut best_p = sample_point(&cfg, &mut rng);
                for _ in 0..256 {
                    let cand = sample_point(&cfg, &mut rng);
                    let cm = Matrix::from_vec(1, 3, cand.to_vec())?;
                    let mu = surrogate.predict(&cm)?[0];
                    let var = surrogate.predict_variance(&cm)?[0];
                    let sigma = var.sqrt().max(1e-9);
                    let z = (mu - best) / sigma;
                    let ei = (mu - best) * big_phi(z) + sigma * phi(z);
                    if ei > best_ei {
                        best_ei = ei;
                        best_p = cand;
                    }
                }
                best_p
            };
            let obj = Self::objective(
                kernel_of(next),
                &x_train,
                &y_train,
                &x_val,
                &y_val,
                cfg.loss,
            );
            history.push((next, obj));
        }

        let (best_p, best_obj) = history
            .iter()
            .filter(|(_, o)| o.is_finite())
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite objectives"))
            .copied()
            .ok_or(PredictError::Diverged)?;
        let _ = best_obj;
        let kernel = kernel_of(best_p);

        // Refit on the full (subsampled) data with the chosen kernel.
        let (x_all, y_all) = take(&idx);
        let mut inner = GpRegressor::new(kernel);
        inner.fit(&x_all, &y_all)?;
        self.best_kernel = Some(kernel);
        self.inner = Some(inner);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, PredictError> {
        self.inner
            .as_ref()
            .ok_or(PredictError::NotFitted)?
            .predict(x)
    }

    fn name(&self) -> &'static str {
        "bayes"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(seed: u64) -> BayesOptConfig {
        BayesOptConfig {
            init_points: 4,
            iterations: 6,
            max_fit_samples: 120,
            seed,
            ..BayesOptConfig::default()
        }
    }

    #[test]
    fn fits_nonlinear_function_better_than_constant() {
        let x = Matrix::from_fn(60, 1, |i, _| i as f64 / 10.0);
        let y: Vec<f64> = (0..60).map(|i| (i as f64 / 10.0).sin()).collect();
        let mut m = BayesGpRegressor::new(quick_config(1));
        m.fit(&x, &y).unwrap();
        let p = m.predict(&x).unwrap();
        let mse = Loss::Mse.compute(&y, &p);
        let var = simtune_linalg::stats::variance(&y);
        assert!(mse < var * 0.2, "mse {mse} vs variance {var}");
        assert!(m.best_kernel().is_some());
    }

    #[test]
    fn deterministic_per_seed() {
        let x = Matrix::from_fn(40, 2, |i, j| ((i * (j + 2)) % 11) as f64);
        let y: Vec<f64> = (0..40).map(|i| (i % 7) as f64).collect();
        let run = |seed| {
            let mut m = BayesGpRegressor::new(quick_config(seed));
            m.fit(&x, &y).unwrap();
            m.predict(&x).unwrap()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-9);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((big_phi(0.0) - 0.5).abs() < 1e-9);
        assert!(big_phi(5.0) > 0.999);
    }

    #[test]
    fn subsampling_caps_fit_size() {
        // 500 rows but max_fit_samples 50: must not blow up.
        let x = Matrix::from_fn(500, 2, |i, j| ((i + j) % 23) as f64);
        let y: Vec<f64> = (0..500).map(|i| (i % 23) as f64).collect();
        let mut cfg = quick_config(2);
        cfg.max_fit_samples = 50;
        let mut m = BayesGpRegressor::new(cfg);
        m.fit(&x, &y).unwrap();
        assert_eq!(m.predict(&x).unwrap().len(), 500);
    }
}
