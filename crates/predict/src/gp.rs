use crate::model::{check_features, check_fit_input};
use crate::{PredictError, Regressor, Standardizer};
use simtune_linalg::{Cholesky, Matrix};

/// The paper's Gaussian-process kernel (its Listing 6):
/// `k(x, x') = C · exp(-‖x−x'‖² / 2ℓ²) + σ²·δ(x, x')` —
/// a constant kernel times an RBF plus a white-noise kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpKernel {
    /// Constant (signal variance) factor `C`.
    pub constant: f64,
    /// RBF length scale `ℓ`.
    pub length_scale: f64,
    /// White-noise level `σ²`.
    pub noise: f64,
}

impl Default for GpKernel {
    fn default() -> Self {
        GpKernel {
            constant: 1.0,
            length_scale: 1.0,
            noise: 1e-4,
        }
    }
}

impl GpKernel {
    /// Kernel value between two points (without the white-noise term,
    /// which only applies on the diagonal of the training matrix).
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        self.constant * (-d2 / (2.0 * self.length_scale * self.length_scale)).exp()
    }
}

/// Gaussian-process regression with a fixed kernel.
///
/// Fitting computes the Cholesky factorization of the kernel matrix and
/// the weight vector `α = K⁻¹ y` (targets centered, inputs standardized).
/// [`BayesGpRegressor`](crate::BayesGpRegressor) tunes the kernel
/// hyperparameters on top of this type.
///
/// # Example
///
/// ```
/// use simtune_linalg::Matrix;
/// use simtune_predict::{GpKernel, GpRegressor, Regressor};
///
/// # fn main() -> Result<(), simtune_predict::PredictError> {
/// let x = Matrix::from_fn(20, 1, |i, _| i as f64 / 5.0);
/// let y: Vec<f64> = (0..20).map(|i| (i as f64 / 5.0).sin()).collect();
/// let mut gp = GpRegressor::new(GpKernel { constant: 1.0, length_scale: 0.8, noise: 1e-6 });
/// gp.fit(&x, &y)?;
/// let p = gp.predict(&x)?;
/// assert!((p[3] - y[3]).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GpRegressor {
    kernel: GpKernel,
    state: Option<Fitted>,
}

#[derive(Debug, Clone)]
struct Fitted {
    standardizer: Standardizer,
    x_train: Matrix,
    alpha: Vec<f64>,
    y_mean: f64,
    chol: Cholesky,
}

impl GpRegressor {
    /// GP with an explicit kernel.
    pub fn new(kernel: GpKernel) -> Self {
        GpRegressor {
            kernel,
            state: None,
        }
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &GpKernel {
        &self.kernel
    }

    /// Log marginal likelihood of the fitted training data (used to
    /// sanity-check hyperparameter choices).
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::NotFitted`] before `fit`.
    pub fn log_marginal_likelihood(&self, y: &[f64]) -> Result<f64, PredictError> {
        let st = self.state.as_ref().ok_or(PredictError::NotFitted)?;
        let n = st.x_train.rows();
        if y.len() != n {
            return Err(PredictError::DimensionMismatch {
                expected: n,
                got: y.len(),
                what: "targets",
            });
        }
        let centered: Vec<f64> = y.iter().map(|v| v - st.y_mean).collect();
        let fit_term: f64 = centered.iter().zip(&st.alpha).map(|(a, b)| a * b).sum();
        Ok(-0.5 * fit_term
            - 0.5 * st.chol.log_det()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln())
    }

    /// Predictive variance at each row of `x` (diagonal of the posterior
    /// covariance).
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::NotFitted`] before `fit` and
    /// [`PredictError::DimensionMismatch`] on feature mismatch.
    pub fn predict_variance(&self, x: &Matrix) -> Result<Vec<f64>, PredictError> {
        let st = self.state.as_ref().ok_or(PredictError::NotFitted)?;
        check_features(st.standardizer.features(), x)?;
        let xs = st.standardizer.transform(x);
        let mut out = Vec::with_capacity(xs.rows());
        for i in 0..xs.rows() {
            let q = xs.row(i);
            let kstar: Vec<f64> = (0..st.x_train.rows())
                .map(|j| self.kernel.eval(q, st.x_train.row(j)))
                .collect();
            let v = st.chol.solve_lower(&kstar)?;
            let prior = self.kernel.constant + self.kernel.noise;
            let var = prior - v.iter().map(|x| x * x).sum::<f64>();
            out.push(var.max(0.0));
        }
        Ok(out)
    }
}

impl Regressor for GpRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), PredictError> {
        check_fit_input(x, y)?;
        let standardizer = Standardizer::fit(x);
        let xs = standardizer.transform(x);
        let n = xs.rows();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let centered: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        let mut k = Matrix::from_fn(n, n, |i, j| self.kernel.eval(xs.row(i), xs.row(j)));
        // White kernel on the diagonal + numeric jitter.
        k.add_diagonal(self.kernel.noise + 1e-10);
        let chol = k.cholesky()?;
        let alpha = chol.solve(&centered)?;
        self.state = Some(Fitted {
            standardizer,
            x_train: xs,
            alpha,
            y_mean,
            chol,
        });
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, PredictError> {
        let st = self.state.as_ref().ok_or(PredictError::NotFitted)?;
        check_features(st.standardizer.features(), x)?;
        let xs = st.standardizer.transform(x);
        Ok((0..xs.rows())
            .map(|i| {
                let q = xs.row(i);
                let mut acc = st.y_mean;
                for (j, a) in st.alpha.iter().enumerate() {
                    acc += a * self.kernel.eval(q, st.x_train.row(j));
                }
                acc
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "gp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Loss;

    #[test]
    fn interpolates_smooth_function() {
        let x = Matrix::from_fn(30, 1, |i, _| i as f64 / 5.0);
        let y: Vec<f64> = (0..30).map(|i| (i as f64 / 5.0).sin()).collect();
        let mut gp = GpRegressor::new(GpKernel {
            constant: 1.0,
            length_scale: 1.0,
            noise: 1e-6,
        });
        gp.fit(&x, &y).unwrap();
        // Predict off-grid points.
        let xq = Matrix::from_fn(10, 1, |i, _| i as f64 / 5.0 + 0.1);
        let p = gp.predict(&xq).unwrap();
        for (i, pi) in p.iter().enumerate() {
            let want = (i as f64 / 5.0 + 0.1).sin();
            assert!((pi - want).abs() < 0.05, "at {i}: {pi} vs {want}");
        }
    }

    #[test]
    fn variance_small_at_train_points_large_far_away() {
        let x = Matrix::from_fn(10, 1, |i, _| i as f64);
        let y: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
        let mut gp = GpRegressor::new(GpKernel {
            constant: 1.0,
            length_scale: 1.0,
            noise: 1e-6,
        });
        gp.fit(&x, &y).unwrap();
        let at_train = gp.predict_variance(&x).unwrap();
        let far = gp
            .predict_variance(&Matrix::from_vec(1, 1, vec![1000.0]).unwrap())
            .unwrap();
        assert!(at_train.iter().all(|&v| v < 1e-3));
        assert!(far[0] > 0.5, "far-away variance {}", far[0]);
    }

    #[test]
    fn noise_kernel_smooths_noisy_targets() {
        // Same inputs, contradictory targets: only a noisy kernel fits.
        let x = Matrix::from_fn(20, 1, |i, _| (i / 2) as f64);
        let y: Vec<f64> = (0..20)
            .map(|i| (i / 2) as f64 + if i % 2 == 0 { 0.3 } else { -0.3 })
            .collect();
        let mut gp = GpRegressor::new(GpKernel {
            constant: 1.0,
            length_scale: 1.0,
            noise: 0.1,
        });
        gp.fit(&x, &y).unwrap();
        let p = gp.predict(&x).unwrap();
        // Predictions approach the pairwise means, not the raw targets.
        let mae = Loss::Mae.compute(&y, &p);
        assert!(mae > 0.1, "noise must prevent interpolation: {mae}");
        assert!(mae < 0.4);
    }

    #[test]
    fn log_marginal_likelihood_prefers_reasonable_scale() {
        let x = Matrix::from_fn(25, 1, |i, _| i as f64 / 4.0);
        let y: Vec<f64> = (0..25).map(|i| (i as f64 / 4.0).sin()).collect();
        let fit_ll = |ls: f64| {
            let mut gp = GpRegressor::new(GpKernel {
                constant: 1.0,
                length_scale: ls,
                noise: 1e-4,
            });
            gp.fit(&x, &y).unwrap();
            gp.log_marginal_likelihood(&y).unwrap()
        };
        let good = fit_ll(1.0);
        let bad = fit_ll(0.01); // absurdly short length scale
        assert!(good > bad, "ll {good} should beat {bad}");
    }

    #[test]
    fn unfitted_errors() {
        let gp = GpRegressor::new(GpKernel::default());
        assert!(matches!(
            gp.predict(&Matrix::zeros(1, 1)),
            Err(PredictError::NotFitted)
        ));
        assert!(matches!(
            gp.predict_variance(&Matrix::zeros(1, 1)),
            Err(PredictError::NotFitted)
        ));
    }
}
