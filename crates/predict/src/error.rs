use simtune_linalg::LinalgError;
use std::error::Error;
use std::fmt;

/// Errors raised while fitting or evaluating predictors.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictError {
    /// Fitting requires at least one sample and one feature.
    EmptyTrainingSet,
    /// `x.rows() != y.len()`, or prediction features disagree with the
    /// fitted feature count.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        got: usize,
        /// Context ("rows vs targets", "feature count").
        what: &'static str,
    },
    /// The model has not been fitted yet.
    NotFitted,
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
    /// Training diverged (NaN in weights or loss).
    Diverged,
    /// A tree deeper than the ensemble layout holds: a fitted tree's
    /// leaves are the bits of one `u64`, so depth is at most `limit`.
    DepthLimit {
        /// The configured maximum depth.
        max_depth: usize,
        /// The deepest supported tree.
        limit: usize,
    },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::EmptyTrainingSet => write!(f, "training set is empty"),
            PredictError::DimensionMismatch {
                expected,
                got,
                what,
            } => write!(
                f,
                "dimension mismatch ({what}): expected {expected}, got {got}"
            ),
            PredictError::NotFitted => write!(f, "model has not been fitted"),
            PredictError::Linalg(e) => write!(f, "linear algebra failed: {e}"),
            PredictError::Diverged => write!(f, "training diverged (NaN encountered)"),
            PredictError::DepthLimit { max_depth, limit } => {
                write!(f, "max_depth {max_depth} exceeds the supported {limit}")
            }
        }
    }
}

impl Error for PredictError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PredictError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for PredictError {
    fn from(e: LinalgError) -> Self {
        PredictError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_context() {
        let e = PredictError::DimensionMismatch {
            expected: 3,
            got: 5,
            what: "feature count",
        };
        assert!(e.to_string().contains("feature count"));
        assert!(PredictError::NotFitted.to_string().contains("fitted"));
        let deep = PredictError::DepthLimit {
            max_depth: 7,
            limit: 6,
        };
        assert!(deep.to_string().contains("max_depth 7"));
    }
}
