//! Replay-engine selection: which [`crate::ExecEngine`] drives a run.
//!
//! Two engines have code:
//!
//! 1. [`crate::InterpEngine`] — re-inspects the raw program each step;
//!    the oracle;
//! 2. [`crate::DecodedEngine`] — replays the pre-decoded µop array a
//!    basic block at a time; the production engine.
//!
//! Both are observationally identical (same statistics, registers and
//! memory, bit for bit); the choice only moves host time.
//! [`EngineKind`] carries two more names, [`EngineKind::Threaded`] and
//! [`EngineKind::Batch`], that are labels with no engine of their own.

use std::fmt;

/// Names a replay engine. Carried by tuning sessions so every
/// simulation — and every memoization fingerprint — knows which engine
/// produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Re-decoding interpreter ([`crate::InterpEngine`]): the reference
    /// loop, right for one-shot runs where decoding would not amortize.
    Interp,
    /// Pre-decoded block replay ([`crate::DecodedEngine`]): the default.
    #[default]
    Decoded,
    /// A label with no engine of its own: its trials replay on
    /// [`crate::DecodedEngine`] and return `Decoded`'s bits. The name
    /// stays while memo fingerprints and the benchmark ledger row
    /// `isa.mips.threaded` carry it, and leaves with that row.
    Threaded,
    /// A label like [`EngineKind::Threaded`], carried for the ledger row
    /// `isa.mips.batch`.
    Batch,
}

impl EngineKind {
    /// Every engine name: the two engines, then the two labels.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Interp,
        EngineKind::Decoded,
        EngineKind::Threaded,
        EngineKind::Batch,
    ];

    /// Stable lowercase name, used in perf summaries and memo
    /// fingerprints.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Interp => "interp",
            EngineKind::Decoded => "decoded",
            EngineKind::Threaded => "threaded",
            EngineKind::Batch => "batch",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        // Labels key memo fingerprints, so they stay distinct and are
        // what `Display` prints.
        for (i, e) in EngineKind::ALL.into_iter().enumerate() {
            assert_eq!(format!("{e}"), e.label());
            assert!(EngineKind::ALL[..i].iter().all(|o| o.label() != e.label()));
        }
    }

    #[test]
    fn default_is_decoded() {
        assert_eq!(EngineKind::default(), EngineKind::Decoded);
    }
}
