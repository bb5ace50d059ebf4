//! The paper's contribution: a simulator interface for autotuning
//! workloads (Contribution I) and score predictors that make
//! instruction-accurate simulators usable for performance estimation
//! (Contribution II).
//!
//! The pieces map onto the paper as follows:
//!
//! | paper artifact | module |
//! |---|---|
//! | "any simulator can be plugged in" (Section II-C) | `impl` [`SimBackend`] + [`SimSessionBuilder::backend`], [`SimSession`] |
//! | repeated performance queries made cheap (the paper's throughput argument) | [`SimCache`] memoization + pre-decoded execution ([`simtune_isa::DecodedProgram`]) |
//! | runner on `n_parallel` simulators / `local_run` override (Listings 3–4, Fig. 1-I) | [`SimSession`], `impl` [`SimBackend`] + [`SimSessionBuilder::backend`] |
//! | fidelity/speed trade-off across simulators (Fig. 1) | [`FidelitySpec`], [`AccurateBackend`], [`PipelinedBackend`], [`FastCountBackend`], [`tune_with_fidelity_escalation`] |
//! | simulator statistics → predictor inputs (Eqs. 1–2) | [`raw_sample`], [`GroupMeans`] |
//! | static/dynamic window mean approximation (Section III-E) | [`WindowNormalizer`] |
//! | predictor training / execution workflow (Fig. 4) | [`ScorePredictor`], [`collect_group_data`] |
//! | evaluation metrics `E_top1`, `R_top1`, `Q` and Eq. 4 | [`prediction_metrics`], [`parallel_speedup_k`] |
//! | batch-wise candidate search (Fig. 2) | [`tune_with_predictor`], [`tune_template_space`] |
//! | "selectable tuning algorithms" (Section II-A) | [`SearchStrategy`], [`StrategySpec`], [`search`] |
//!
//! # Quickstart
//!
//! ```no_run
//! use simtune_core::{collect_group_data, evaluate_predictor, CollectOptions, FeatureConfig};
//! use simtune_hw::TargetSpec;
//! use simtune_predict::PredictorKind;
//! use simtune_tensor::{conv2d_bias_relu, Conv2dShape};
//!
//! # fn main() -> Result<(), simtune_core::CoreError> {
//! let spec = TargetSpec::riscv_u74();
//! let shape = Conv2dShape { n: 1, h: 14, w: 14, co: 8, ci: 4, kh: 3, kw: 3,
//!                           stride: (1, 1), pad: (1, 1) };
//! let def = conv2d_bias_relu(&shape);
//! let data = collect_group_data(&def, &spec, 0, &CollectOptions::default())?;
//! let report = evaluate_predictor(
//!     PredictorKind::Xgboost, &[data], "riscv", "conv2d_bias_relu",
//!     25, 10, 42, FeatureConfig::default())?;
//! println!("E_top1 = {:.1} %", report.per_group[0].e_top1);
//! # Ok(())
//! # }
//! ```

mod autotune;
mod backend;
mod board;
pub mod diffharness;
mod error;
mod features;
mod fidelity;
pub mod log;
mod memo;
mod metrics;
mod pipelined;
mod pool;
mod runner;
mod score;
pub mod search;
mod service;
mod snapshot;
mod workflow;

pub use autotune::{
    tune_on_hardware, tune_template_space, tune_with_fidelity_escalation, tune_with_predictor,
    tune_with_predictor_on, EscalatedTuneResult, EscalationOptions, TuneOptions, TuneRecord,
    TuneResult,
};
pub use backend::{
    AccurateBackend, BackendError, FastCountBackend, SimBackend, SimReport, SimSession,
    SimSessionBuilder, ACCURATE, FAST_COUNT,
};
pub use error::CoreError;
pub use features::{
    feature_names, group_training_data, raw_sample, FeatureConfig, GroupMeans, RawSample,
    WindowKind, WindowNormalizer,
};
pub use fidelity::{FidelitySpec, DEFAULT_BTB_ENTRIES, DEFAULT_RAS_DEPTH};
pub use memo::{fingerprint as memo_fingerprint, SimCache};
pub use metrics::{
    e_top1, parallel_speedup_k, prediction_metrics, quality_score, r_top1, ConvergenceStats,
    MemoCacheStats, PredictionMetrics, SnapshotStats, StageTimings, TenantStats, WorkerPoolStats,
};
pub use pipelined::{PipelinedBackend, PIPELINED};
pub use pool::BatchTicket;
pub use runner::{HardwareRunner, KernelBuilder};
pub use score::{GroupData, ScorePredictor};
pub use search::{
    Annealing, CustomStrategyFactory, Evaluation, Evolutionary, GridSearch, HillClimb,
    RandomSearch, SearchSpace, SearchStrategy, SketchSpace, StrategySpec, TemplateSpace,
};
pub use service::{SimService, SimServiceBuilder, TenantSession};
// The pipelined tier's cycle accounting is part of `SimReport`, so the
// breakdown struct is re-exported for callers inspecting reports
// without a direct `simtune_hw` dependency.
pub use simtune_hw::CycleBreakdown;
// Replay-engine selection is part of the session/tuning surface, so the
// kind enum is re-exported for callers configuring `TuneOptions` or
// `SimSessionBuilder` without a direct `simtune_isa` dependency.
pub use simtune_isa::EngineKind;
pub use snapshot::{atomic_write, SnapshotLoad, SNAPSHOT_SCHEMA};
pub use workflow::{
    collect_group_data, collect_group_data_on, evaluate_predictor, holdout_group_curves,
    sample_group_schedules, split_train_test, CollectOptions, EvalReport, SortedPrediction,
};
