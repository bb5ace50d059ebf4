//! The reference oracle: what every timed trial's report is compared to.
//!
//! Set-up runs each program once on `EngineKind::Interp` — the engine
//! that re-inspects the raw program every step and shares no decode
//! state with the engines the workloads time — through a direct backend
//! call (no session, pool or memo) and keeps a digest of everything a
//! report states about the modelled machine. Timed reps must reproduce
//! the digest exactly, faults included.

use simtune_cache::HierarchyStats;
use simtune_core::{CoreError, CycleBreakdown, EngineKind, SimBackend, SimReport};
use simtune_isa::{Executable, InstMix, RunLimits, SimStats};

/// Everything deterministic in one trial's outcome.
// A workload keeps at most 40 digests and nearly all are `Report`s, so
// boxing the large variant would only add an indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Digest {
    Report {
        inst_mix: InstMix,
        cache: HierarchyStats,
        /// Bit patterns of the cycle breakdown (pipeline, memory,
        /// control) when the tier reports one.
        cycles: Option<[u64; 3]>,
    },
    /// Error identity: the rendered error (kind and position).
    Fault(String),
}

impl Digest {
    pub fn of(outcome: &Result<SimReport, CoreError>) -> Digest {
        match outcome {
            Ok(r) => Digest::report(&r.stats, r.cycles),
            Err(e) => Digest::Fault(e.to_string()),
        }
    }

    /// The digest of a trial that ran to the end.
    pub fn report(stats: &SimStats, cycles: Option<CycleBreakdown>) -> Digest {
        Digest::Report {
            inst_mix: stats.inst_mix,
            cache: stats.cache,
            cycles: cycles.map(|c| {
                [
                    c.pipeline.to_bits(),
                    c.memory.to_bits(),
                    c.control.to_bits(),
                ]
            }),
        }
    }

    /// Retired instructions (0 for a faulted trial, whose statistics
    /// are never delivered).
    pub fn insts(&self) -> u64 {
        match self {
            Digest::Report { inst_mix, .. } => inst_mix.total(),
            Digest::Fault(_) => 0,
        }
    }
}

/// Runs `exe` on the interpreter engine of `backend`, outside any
/// session.
pub fn reference_outcome(
    backend: &dyn SimBackend,
    exe: &Executable,
) -> Result<SimReport, CoreError> {
    let decoded = exe.decode()?;
    Ok(backend.run_one_decoded_on(exe, &decoded, &RunLimits::default(), EngineKind::Interp)?)
}

/// Reference digests of a whole program set.
pub fn reference_digests(backend: &dyn SimBackend, exes: &[Executable]) -> Vec<Digest> {
    exes.iter()
        .map(|exe| Digest::of(&reference_outcome(backend, exe)))
        .collect()
}

/// Counts the outcomes that differ from their reference.
pub fn mismatches(reference: &[Digest], outcomes: &[Result<SimReport, CoreError>]) -> u64 {
    let differing = reference
        .iter()
        .zip(outcomes)
        .filter(|(want, got)| **want != Digest::of(got))
        .count();
    (differing + reference.len().abs_diff(outcomes.len())) as u64
}
