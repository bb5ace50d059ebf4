//! The paper's experiments, the tuning service and the differential
//! fuzzer of simtune.
//!
//! * [`repro`] regenerates every table and figure of the paper from one
//!   collection per target (the `repro` binary);
//! * [`serve`] frames a [`simtune_core::SimService`] over a byte stream
//!   (the `simtune_serve` binary);
//! * [`fuzz`] diffs torture programs across engines and tiers (the
//!   `torture_fuzz` binary);
//! * [`Scale`] selects the conv group shapes (DESIGN.md §7).

pub mod fuzz;
pub mod repro;
pub mod scale;
pub mod serve;

pub use fuzz::{replay_case, run_fuzz, FuzzOptions, FuzzSummary, FUZZ_SCHEMA};
pub use scale::Scale;
