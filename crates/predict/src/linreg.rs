use crate::model::{check_features, check_fit_input};
use crate::{PredictError, Regressor};
use simtune_linalg::Matrix;

/// The stabilizing ridge added to the normal equations' diagonal.
const RIDGE: f64 = 1e-8;

/// Multiple linear regression fitted by minimizing the residual sum of
/// squares (ordinary least squares through the normal equations), the
/// paper's simplest predictor: `y = b0 + b1·x1 + … + bn·xn`.
///
/// A tiny ridge term (1e-8) keeps the normal equations solvable when
/// features are collinear — which happens in practice, since the raw and
/// group-normalized feature variants are affinely related within a group.
///
/// # Example
///
/// ```
/// use simtune_linalg::Matrix;
/// use simtune_predict::{LinearRegression, Regressor};
///
/// # fn main() -> Result<(), simtune_predict::PredictError> {
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
/// let mut lr = LinearRegression::new();
/// lr.fit(&x, &[1.0, 3.0, 5.0])?; // y = 2x + 1
/// let p = lr.predict(&Matrix::from_rows(&[vec![10.0]]).unwrap())?;
/// assert!((p[0] - 21.0).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinearRegression {
    /// `[intercept, b1, …, bn]` once fitted.
    coefficients: Option<Vec<f64>>,
}

impl LinearRegression {
    /// An unfitted regressor; the same as [`LinearRegression::default`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Fitted coefficients `[intercept, b1, …, bn]`, if fitted.
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coefficients.as_deref()
    }
}

fn with_bias_column(x: &Matrix) -> Matrix {
    Matrix::from_fn(x.rows(), x.cols() + 1, |i, j| {
        if j == 0 {
            1.0
        } else {
            x[(i, j - 1)]
        }
    })
}

impl Regressor for LinearRegression {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), PredictError> {
        check_fit_input(x, y)?;
        let xb = with_bias_column(x);
        // Normal equations: (XᵀX + ridge·I) b = Xᵀ y.
        let mut gram = xb.gram();
        gram.add_diagonal(RIDGE);
        let xty = xb.transpose().mat_vec(y);
        let b = gram.solve(&xty)?;
        self.coefficients = Some(b);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, PredictError> {
        let b = self.coefficients.as_ref().ok_or(PredictError::NotFitted)?;
        check_features(b.len() - 1, x)?;
        Ok((0..x.rows())
            .map(|i| {
                b[0] + x
                    .row(i)
                    .iter()
                    .zip(&b[1..])
                    .map(|(xi, bi)| xi * bi)
                    .sum::<f64>()
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "linreg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relation() {
        // y = 3 x0 - 2 x1 + 0.5
        let x = Matrix::from_fn(30, 2, |i, j| ((i * 7 + j * 3) % 13) as f64);
        let y: Vec<f64> = (0..30)
            .map(|i| 3.0 * x[(i, 0)] - 2.0 * x[(i, 1)] + 0.5)
            .collect();
        let mut lr = LinearRegression::new();
        lr.fit(&x, &y).unwrap();
        let c = lr.coefficients().unwrap();
        assert!((c[0] - 0.5).abs() < 1e-6);
        assert!((c[1] - 3.0).abs() < 1e-6);
        assert!((c[2] + 2.0).abs() < 1e-6);
    }

    #[test]
    fn handles_collinear_features_via_ridge() {
        // x1 == 2 * x0: rank-deficient without the ridge.
        let x = Matrix::from_fn(20, 2, |i, j| if j == 0 { i as f64 } else { 2.0 * i as f64 });
        let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
        for mut lr in [LinearRegression::new(), LinearRegression::default()] {
            lr.fit(&x, &y).unwrap();
            let p = lr.predict(&x).unwrap();
            for (pi, yi) in p.iter().zip(&y) {
                assert!((pi - yi).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn unfitted_prediction_fails() {
        let lr = LinearRegression::new();
        assert!(matches!(
            lr.predict(&Matrix::zeros(1, 1)),
            Err(PredictError::NotFitted)
        ));
    }

    #[test]
    fn feature_mismatch_detected() {
        let mut lr = LinearRegression::new();
        lr.fit(&Matrix::zeros(4, 2), &[0.0; 4]).unwrap();
        assert!(matches!(
            lr.predict(&Matrix::zeros(1, 3)),
            Err(PredictError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn residuals_orthogonal_to_features() {
        // OLS property: Xᵀ(y - ŷ) ≈ 0.
        let x = Matrix::from_fn(40, 3, |i, j| ((i * (j + 2) * 31) % 17) as f64 / 17.0);
        let y: Vec<f64> = (0..40)
            .map(|i| (i as f64).sin() + x[(i, 1)] * 2.0)
            .collect();
        let mut lr = LinearRegression::new();
        lr.fit(&x, &y).unwrap();
        let p = lr.predict(&x).unwrap();
        let resid: Vec<f64> = y.iter().zip(&p).map(|(a, b)| a - b).collect();
        let xt_r = x.transpose().mat_vec(&resid);
        for v in xt_r {
            assert!(v.abs() < 1e-6, "residual correlation {v}");
        }
    }
}
