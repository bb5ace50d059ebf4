use crate::backend::BackendError;
use simtune_isa::SimError;
use simtune_predict::PredictError;
use simtune_tensor::{CodegenError, ScheduleError};
use std::error::Error;
use std::fmt;

/// Unified error type of the autotuning/prediction pipeline.
///
/// Marked `#[non_exhaustive]`: the pipeline keeps growing (backends,
/// remote runners), so downstream matches must carry a
/// wildcard arm.
///
/// `Clone` because the simulator is deterministic: when the worker pool
/// deduplicates identical in-flight candidates, a failed leader's error
/// is replayed verbatim to its followers — exactly what re-executing
/// them would have produced.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum CoreError {
    /// A schedule failed validation.
    Schedule(ScheduleError),
    /// Building an executable failed.
    Codegen(CodegenError),
    /// A simulation aborted.
    Sim(SimError),
    /// A predictor failed to fit or predict.
    Predict(PredictError),
    /// A simulator backend was misconfigured.
    Backend {
        /// Which backend rejected its configuration.
        backend: String,
        /// What was wrong.
        message: String,
    },
    /// The pipeline was used inconsistently.
    Pipeline(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Schedule(e) => write!(f, "schedule error: {e}"),
            CoreError::Codegen(e) => write!(f, "codegen error: {e}"),
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::Predict(e) => write!(f, "predictor error: {e}"),
            CoreError::Backend { backend, message } => {
                write!(f, "backend {backend:?} misconfigured: {message}")
            }
            CoreError::Pipeline(msg) => write!(f, "pipeline error: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Schedule(e) => Some(e),
            CoreError::Codegen(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Predict(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for CoreError {
    fn from(e: ScheduleError) -> Self {
        CoreError::Schedule(e)
    }
}

impl From<CodegenError> for CoreError {
    fn from(e: CodegenError) -> Self {
        CoreError::Codegen(e)
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<PredictError> for CoreError {
    fn from(e: PredictError) -> Self {
        CoreError::Predict(e)
    }
}

impl From<BackendError> for CoreError {
    fn from(e: BackendError) -> Self {
        match e {
            BackendError::Sim(s) => CoreError::Sim(s),
            BackendError::Config { backend, message } => CoreError::Backend { backend, message },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = CoreError::Pipeline("no groups".into());
        assert!(e.to_string().contains("no groups"));
        let e: CoreError = SimError::PcOutOfRange { pc: 3 }.into();
        assert!(e.to_string().contains("simulation"));
        let e = CoreError::Backend {
            backend: "gem5".into(),
            message: "no such cpu".into(),
        };
        assert!(e.to_string().contains("gem5") && e.to_string().contains("no such cpu"));
    }
}
