//! # simtune
//!
//! A reproduction of *"Introducing Instruction-Accurate Simulators for
//! Performance Estimation of Autotuning Workloads"* (DAC 2025): a simulator
//! interface that lets autotuning workloads run on instruction-accurate
//! simulators instead of real hardware, plus trained score predictors that
//! map simulator statistics to performance scores for x86-, ARM- and
//! RISC-V-like targets.
//!
//! This crate is a façade that re-exports the workspace crates under short
//! module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`linalg`] | `simtune-linalg` | dense matrices, Cholesky/LU, statistics |
//! | [`cache`] | `simtune-cache` | set-associative cache hierarchy model |
//! | [`isa`] | `simtune-isa` | virtual ISA + instruction-accurate simulator |
//! | [`tensor`] | `simtune-tensor` | kernels, schedules, codegen, search spaces |
//! | [`hw`] | `simtune-hw` | timing-accurate targets + measurement harness |
//! | [`predict`] | `simtune-predict` | MLR, DNN, GP/Bayes, gradient-boosted trees |
//! | [`core`] | `simtune-core` | simulator interface + score-predictor workflow |
//!
//! # Simulator backends
//!
//! The simulator-integration surface is the [`SimBackend`] trait: any
//! instruction-accurate simulator can be plugged in behind the
//! autotuning runner. Three fidelity tiers ship in-tree —
//! [`AccurateBackend`] (full cache model), [`FastCountBackend`]
//! (instruction/access counting only) and [`core::PipelinedBackend`]
//! (in-order pipeline timing) — and [`SimSession`] is the builder-style
//! entry point that runs candidate batches on whichever tier a tuning
//! round needs. Every session pre-decodes candidates once
//! ([`isa::DecodedProgram`]) and can attach a shared [`SimCache`] so
//! revisited candidates skip simulation entirely:
//!
//! ```no_run
//! use simtune::{cache::HierarchyConfig, core::FidelitySpec, SimSession};
//!
//! # fn main() -> Result<(), simtune::core::CoreError> {
//! let session = SimSession::builder()
//!     .fidelity(&FidelitySpec::FastCount, &HierarchyConfig::riscv_u74())
//!     .n_parallel(8)
//!     .build()?;
//! # let exes = vec![];
//! let reports = session.run(&exes);
//! # let _ = reports;
//! # Ok(())
//! # }
//! ```
//!
//! # Search strategies
//!
//! Which candidate to simulate next is pluggable: every tuning loop
//! takes a [`SearchStrategy`] selected through
//! [`core::TuneOptions::strategy`] as a [`StrategySpec`] — uniform
//! random (the default, bit-identical to the historical tuner),
//! exhaustive grid, hill climbing with restarts, evolutionary search,
//! simulated annealing, or any user-provided boxed strategy. All are
//! deterministic under [`core::TuneOptions::seed`] and report
//! [`ConvergenceStats`] on the result:
//!
//! ```no_run
//! use simtune::core::{tune_with_predictor, ScorePredictor, TuneOptions};
//! use simtune::StrategySpec;
//! # use simtune::predict::PredictorKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let def = simtune::tensor::matmul(16, 16, 16);
//! let spec = simtune::hw::TargetSpec::riscv_u74();
//! # let trained_predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
//! let opts = TuneOptions {
//!     strategy: StrategySpec::Evolutionary,
//!     seed: 7,
//!     ..TuneOptions::default()
//! };
//! let result = tune_with_predictor(&def, &spec, &trained_predictor, &opts)?;
//! println!("{} converged after {} trials", result.strategy,
//!          result.convergence.trials_to_best);
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end run: define a kernel,
//! generate schedule candidates, simulate them in parallel, train a score
//! predictor and pick the best implementation. `docs/ARCHITECTURE.md` in
//! the repository maps the full dataflow and every paper section to its
//! module.

// The backend and search APIs are the crate's headline surface; lift
// them to the root so `simtune::SimSession` / `simtune::SearchStrategy`
// work without spelling out the core crate.
pub use simtune_core::{
    tune_with_fidelity_escalation, AccurateBackend, BackendError, BatchTicket, ConvergenceStats,
    EscalatedTuneResult, EscalationOptions, Evaluation, FastCountBackend, MemoCacheStats,
    SearchSpace, SearchStrategy, SimBackend, SimCache, SimReport, SimSession, SimSessionBuilder,
    SketchSpace, StageTimings, StrategySpec, TemplateSpace, WorkerPoolStats,
};

pub use simtune_cache as cache;
pub use simtune_core as core;
pub use simtune_hw as hw;
pub use simtune_isa as isa;
pub use simtune_linalg as linalg;
pub use simtune_predict as predict;
pub use simtune_tensor as tensor;
