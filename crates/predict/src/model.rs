use crate::{BayesGpRegressor, DnnRegressor, GbtRegressor, LinearRegression, PredictError};
use simtune_linalg::Matrix;

/// Common interface of all score predictors.
///
/// Implementations are deterministic given their construction seed, so
/// experiment runs are reproducible.
pub trait Regressor: Send {
    /// Fits the model to `x` (one row per sample) and targets `y`.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError`] on empty or inconsistent input and when
    /// numeric optimization fails.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), PredictError>;

    /// Predicts targets for `x`.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::NotFitted`] before `fit`, and
    /// [`PredictError::DimensionMismatch`] on feature-count mismatch.
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, PredictError>;

    /// Short predictor label ("linreg", "dnn", "bayes", "xgboost").
    fn name(&self) -> &'static str;
}

/// The paper's four predictor families with their tuned configurations
/// (Section IV-C), as a factory enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// Multiple linear regression, RSS loss.
    LinReg,
    /// Regression DNN: 128-128-64-32-16-1, tanh, MAE, Adam.
    Dnn,
    /// Bayesian-optimized Gaussian process (Constant×RBF+White, MSE).
    Bayes,
    /// XGBoost-style gradient-boosted trees (tuned hyperparameters).
    Xgboost,
}

impl PredictorKind {
    /// All kinds in the column order of the paper's result tables.
    pub fn all() -> [PredictorKind; 4] {
        [
            PredictorKind::LinReg,
            PredictorKind::Dnn,
            PredictorKind::Bayes,
            PredictorKind::Xgboost,
        ]
    }

    /// Table-header label.
    pub fn label(self) -> &'static str {
        match self {
            PredictorKind::LinReg => "LinReg",
            PredictorKind::Dnn => "DNN",
            PredictorKind::Bayes => "Bayes",
            PredictorKind::Xgboost => "XGBoost",
        }
    }

    /// Builds a fresh predictor with the paper's tuned configuration and
    /// the given seed for its stochastic parts.
    pub fn build(self, seed: u64) -> Box<dyn Regressor> {
        match self {
            PredictorKind::LinReg => Box::new(LinearRegression::new()),
            PredictorKind::Dnn => Box::new(DnnRegressor::paper_config(seed)),
            PredictorKind::Bayes => Box::new(BayesGpRegressor::paper_config(seed)),
            PredictorKind::Xgboost => Box::new(GbtRegressor::paper_config(seed)),
        }
    }

    /// Parses a label (case-insensitive).
    pub fn parse(s: &str) -> Option<PredictorKind> {
        match s.to_ascii_lowercase().as_str() {
            "linreg" | "lr" | "linear" => Some(PredictorKind::LinReg),
            "dnn" | "mlp" => Some(PredictorKind::Dnn),
            "bayes" | "gp" => Some(PredictorKind::Bayes),
            "xgboost" | "xgb" | "gbt" => Some(PredictorKind::Xgboost),
            _ => None,
        }
    }
}

impl std::fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Validates fit() preconditions shared by all predictors.
pub(crate) fn check_fit_input(x: &Matrix, y: &[f64]) -> Result<(), PredictError> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(PredictError::EmptyTrainingSet);
    }
    if x.rows() != y.len() {
        return Err(PredictError::DimensionMismatch {
            expected: x.rows(),
            got: y.len(),
            what: "rows vs targets",
        });
    }
    Ok(())
}

/// Validates predict() feature counts shared by all predictors.
pub(crate) fn check_features(fitted: usize, x: &Matrix) -> Result<(), PredictError> {
    if x.cols() != fitted {
        return Err(PredictError::DimensionMismatch {
            expected: fitted,
            got: x.cols(),
            what: "feature count",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_parse_roundtrip() {
        for k in PredictorKind::all() {
            assert_eq!(PredictorKind::parse(k.label()), Some(k));
        }
        assert_eq!(PredictorKind::parse("GBT"), Some(PredictorKind::Xgboost));
        assert_eq!(PredictorKind::parse("nope"), None);
    }

    #[test]
    fn factory_builds_every_kind() {
        for k in PredictorKind::all() {
            let m = k.build(1);
            assert!(!m.name().is_empty());
        }
    }

    #[test]
    fn fit_input_checks() {
        let x = Matrix::zeros(3, 2);
        assert!(check_fit_input(&x, &[1.0, 2.0, 3.0]).is_ok());
        assert!(matches!(
            check_fit_input(&x, &[1.0]),
            Err(PredictError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            check_fit_input(&Matrix::zeros(0, 0), &[]),
            Err(PredictError::EmptyTrainingSet)
        ));
    }
}
