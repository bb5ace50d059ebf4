//! Target-hardware substitute: timing-accurate CPU models plus a
//! measurement harness.
//!
//! The paper measures reference run times `t_ref` on three physical
//! machines (Ryzen 7 5800X, Cortex-A72, SiFive U74-MC) with `N_exe = 15`
//! repetitions, 1 s cooldowns, cache flushes and median extraction
//! (Section IV). This crate replaces those machines:
//!
//! * [`TimingModel`] is the hook of a replay on the production engine
//!   over its own cache hierarchy, accumulating cycles from an
//!   issue-width pipeline model, partially-overlapped miss latencies, a
//!   PC-indexed stride prefetcher and a 2-bit branch predictor —
//!   mechanisms deliberately *invisible* to the instruction-accurate
//!   statistics the predictor sees, so that the prediction problem keeps
//!   its structure (scores correlate with, but do not equal, runtime).
//! * [`measure`] wraps the deterministic base time with a measurement
//!   noise model — load jitter, absolute timer floor, outlier spikes,
//!   thermal throttling with cooldown recovery; a pure post-pass,
//!   [`Measurement::from_base`] — and reports the median of `N_exe`
//!   noisy repetitions, exactly like the paper's benchmarking protocol.
//!
//! # Example
//!
//! ```
//! use simtune_hw::{measure, MeasureConfig, TargetSpec};
//! use simtune_isa::{Executable, Gpr, Inst, ProgramBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = TargetSpec::riscv_u74();
//! let mut b = ProgramBuilder::new();
//! b.push(Inst::Li { rd: Gpr(1), imm: 1 });
//! b.push(Inst::Halt);
//! let exe = Executable::new("tiny", b.build()?, spec.isa.clone());
//! let m = measure(&exe, &spec, &MeasureConfig::default(), 42)?;
//! assert!(m.t_ref > 0.0);
//! assert_eq!(m.samples.len(), 15);
//! # Ok(())
//! # }
//! ```

mod branch;
mod measure;
mod noise;
mod pipeline;
mod prefetch;
mod targets;
mod timing;

pub use branch::BranchPredictor;
pub use measure::{
    measure, measure_base_seconds, native_benchmark_seconds, MeasureConfig, Measurement,
};
pub use noise::{NoiseModel, NoiseParams, ThermalState};
pub use pipeline::PipelineModel;
pub use prefetch::StridePrefetcher;
pub use targets::{TargetSpec, TimingParams};
pub use timing::{CycleBreakdown, TimingModel};
