//! Score predictors, from scratch: the paper's four model families.
//!
//! Section III-D of the paper trains and compares multiple predictors
//! that map instruction-accurate simulator statistics to performance
//! scores: Multiple Linear Regression, a regression DNN, a Gaussian
//! process whose kernel hyperparameters are chosen by Bayesian
//! optimization, and XGBoost. This crate implements all four (and their
//! loss functions) on top of `simtune-linalg`, with no external ML
//! dependencies.
//!
//! The tuned configurations from Section IV-C are the defaults:
//!
//! | predictor | configuration |
//! |---|---|
//! | [`LinearRegression`] | RSS loss (ordinary least squares) |
//! | [`DnnRegressor`] | 6 dense layers (128, 128, 64, 32, 16, 1), tanh hidden, linear output, MAE loss, Adam |
//! | [`BayesGpRegressor`] | `Constant × RBF + White` kernel, hyperparameters maximizing −MSE via Bayesian optimization |
//! | [`GbtRegressor`] | colsample 0.6, lr 0.05, depth 3, α 0, λ 0.1, 300 trees, min-child-weight 1, subsample 0.8, MSE |
//!
//! # Example
//!
//! ```
//! use simtune_linalg::Matrix;
//! use simtune_predict::{PredictorKind, Regressor};
//!
//! # fn main() -> Result<(), simtune_predict::PredictError> {
//! // y = 2 x0 - x1 + 1, learnable by every predictor.
//! let x = Matrix::from_fn(64, 2, |i, j| ((i * (j + 3)) % 17) as f64 / 17.0);
//! let y: Vec<f64> = (0..64).map(|i| 2.0 * x[(i, 0)] - x[(i, 1)] + 1.0).collect();
//! let mut model = PredictorKind::LinReg.build(42);
//! model.fit(&x, &y)?;
//! let pred = model.predict(&x)?;
//! assert!((pred[0] - y[0]).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

mod bayesopt;
mod dnn;
mod error;
mod gbt;
mod gp;
mod linreg;
mod loss;
mod model;
mod standardize;

pub use bayesopt::{BayesGpRegressor, BayesOptConfig};
pub use dnn::{DnnConfig, DnnRegressor};
pub use error::PredictError;
pub use gbt::{GbtConfig, GbtRegressor};
pub use gp::{GpKernel, GpRegressor};
pub use linreg::LinearRegression;
pub use loss::Loss;
pub use model::{PredictorKind, Regressor};
pub use standardize::Standardizer;
