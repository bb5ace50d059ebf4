//! Replay-engine selection: which [`crate::ExecEngine`] drives a run.
//!
//! The ladder, from most general to fastest on repeated replay:
//!
//! 1. [`crate::InterpEngine`] — re-inspects the raw program each step;
//! 2. [`crate::DecodedEngine`] — replays the pre-decoded µop array;
//! 3. [`crate::ThreadedEngine`] — threaded-code dispatch over pre-bound
//!    handler pointers with pre-resolved successors.
//!
//! All three are observationally identical (same statistics, registers
//! and memory, bit for bit); the choice only moves host time.
//! [`EngineKind`] carries a fourth name, [`EngineKind::Batch`], that has
//! no engine of its own.

use std::fmt;

/// Names one rung of the replay-engine ladder. Carried by tuning
/// sessions so every simulation — and every memoization fingerprint —
/// knows which engine produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Re-decoding interpreter ([`crate::InterpEngine`]): the reference
    /// loop, right for one-shot runs where decoding would not amortize.
    Interp,
    /// Pre-decoded µop replay ([`crate::DecodedEngine`]): the default.
    #[default]
    Decoded,
    /// Threaded-code dispatch ([`crate::ThreadedEngine`]): lowers the
    /// µop array once into pre-bound handler pointers.
    Threaded,
    /// A label with no engine of its own: its trials replay on
    /// [`crate::DecodedEngine`] and return `Decoded`'s bits. The name
    /// stays while memo fingerprints and the benchmark ledger row
    /// `isa.mips.batch` carry it, and leaves with that row.
    Batch,
}

impl EngineKind {
    /// Every engine, in ladder order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Interp,
        EngineKind::Decoded,
        EngineKind::Threaded,
        EngineKind::Batch,
    ];

    /// Stable lowercase name, used in CLI flags, perf summaries and
    /// memo fingerprints.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Interp => "interp",
            EngineKind::Decoded => "decoded",
            EngineKind::Threaded => "threaded",
            EngineKind::Batch => "batch",
        }
    }

    /// Parses a [`EngineKind::label`] back into the engine.
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL.into_iter().find(|e| e.label() == s)
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
        for e in EngineKind::ALL {
            assert_eq!(EngineKind::parse(e.label()), Some(e));
            assert_eq!(format!("{e}"), e.label());
        }
        assert_eq!(EngineKind::parse("jit"), None);
    }

    #[test]
    fn default_is_decoded() {
        assert_eq!(EngineKind::default(), EngineKind::Decoded);
    }
}
