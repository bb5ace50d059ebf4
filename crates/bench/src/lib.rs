//! Shared experiment engine for the `simtune-bench` binaries.
//!
//! Every table and figure of the paper is regenerated by a binary in
//! `src/bin/`; this library provides the pieces they share: workload
//! scaling (DESIGN.md §7), dataset collection with on-disk caching,
//! simple CLI parsing, and table/CSV formatting.

pub mod cache_io;
pub mod cli;
pub mod engine;
pub mod format;
pub mod fuzz;
pub mod scale;
pub mod serve;

pub use cache_io::{load_groups, store_groups};
pub use cli::{Args, FidelityMode};
pub use engine::{collect_arch_datasets, dataset_cache_path, ExperimentConfig};
pub use format::{ascii_plot, format_metric_table, write_csv};
pub use fuzz::{replay_case, run_fuzz, FuzzOptions, FuzzSummary, FUZZ_SCHEMA};
pub use scale::Scale;
