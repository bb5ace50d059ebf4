use crate::ReplacementPolicy;
use std::error::Error;
use std::fmt;

/// Geometry of a single cache (one row of the paper's Table I).
///
/// The invariant `size_bytes == num_sets * associativity * line_bytes` is
/// enforced by [`CacheConfig::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable label used in statistics dumps ("L1D", "L2", ...).
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Number of sets (must be a power of two so the index is a bit-slice).
    pub num_sets: u64,
    /// Ways per set.
    pub associativity: u64,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
    /// Replacement policy for this cache.
    pub policy: ReplacementPolicy,
}

/// Errors raised when validating cache or hierarchy configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `size != sets * assoc * line`.
    InconsistentGeometry {
        /// The offending configuration's name.
        name: String,
        /// Declared total size.
        size_bytes: u64,
        /// Size implied by `sets * assoc * line`, `u64::MAX` when the
        /// product does not fit 64 bits.
        implied_bytes: u64,
    },
    /// Sets or line size is not a power of two, or a field is zero.
    InvalidField {
        /// The offending configuration's name.
        name: String,
        /// Description of the violated constraint.
        reason: &'static str,
    },
    /// Hierarchy levels disagree on the line size.
    LineSizeMismatch,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InconsistentGeometry {
                name,
                size_bytes,
                implied_bytes,
            } => write!(
                f,
                "cache {name}: declared size {size_bytes} B but sets*assoc*line = {implied_bytes} B"
            ),
            ConfigError::InvalidField { name, reason } => {
                write!(f, "cache {name}: {reason}")
            }
            ConfigError::LineSizeMismatch => {
                write!(f, "all hierarchy levels must share one line size")
            }
        }
    }
}

impl Error for ConfigError {}

/// Bits of a way's packed word that hold the tag; the other two are the
/// valid and dirty flags (see `cache.rs`).
pub(crate) const TAG_BITS: u32 = 62;

impl CacheConfig {
    /// Creates a validated cache configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any field is zero, `num_sets` or
    /// `line_bytes` is not a power of two, `num_sets * line_bytes` is
    /// below 4 (index and offset must take at least two address bits, so
    /// that the tag packs into one word with its valid and dirty flags),
    /// or the geometry is inconsistent — including a `num_sets *
    /// associativity * line_bytes` that does not fit 64 bits.
    pub fn new(
        name: impl Into<String>,
        size_bytes: u64,
        num_sets: u64,
        associativity: u64,
        line_bytes: u64,
        policy: ReplacementPolicy,
    ) -> Result<Self, ConfigError> {
        let config = CacheConfig {
            name: name.into(),
            size_bytes,
            num_sets,
            associativity,
            line_bytes,
            policy,
        };
        config.validate()?;
        Ok(config)
    }

    /// The checks behind [`CacheConfig::new`]; [`crate::Cache::new`]
    /// repeats them because the fields are public.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let invalid = |reason| {
            Err(ConfigError::InvalidField {
                name: self.name.clone(),
                reason,
            })
        };
        let &CacheConfig {
            size_bytes,
            num_sets,
            associativity,
            line_bytes,
            ..
        } = self;
        if size_bytes == 0 || num_sets == 0 || associativity == 0 || line_bytes == 0 {
            return invalid("all geometry fields must be non-zero");
        }
        if !num_sets.is_power_of_two() {
            return invalid("num_sets must be a power of two");
        }
        if !line_bytes.is_power_of_two() {
            return invalid("line_bytes must be a power of two");
        }
        if num_sets.trailing_zeros() + line_bytes.trailing_zeros() < u64::BITS - TAG_BITS {
            return invalid("num_sets * line_bytes must be at least 4");
        }
        // A product past 64 bits can equal no declared size.
        let implied = num_sets
            .checked_mul(associativity)
            .and_then(|lines| lines.checked_mul(line_bytes));
        if implied != Some(size_bytes) {
            return Err(ConfigError::InconsistentGeometry {
                name: self.name.clone(),
                size_bytes,
                implied_bytes: implied.unwrap_or(u64::MAX),
            });
        }
        Ok(())
    }

    /// Returns a copy with a different replacement policy (useful for the
    /// replacement-policy ablation experiment).
    pub fn with_policy(&self, policy: ReplacementPolicy) -> Self {
        CacheConfig {
            policy,
            ..self.clone()
        }
    }
}

/// Configuration of a full hierarchy: split L1, unified L2 and optional L3.
///
/// The presets mirror Table I of the paper exactly; all line sizes are
/// 64 B as stated there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Short target label ("x86", "arm", "riscv").
    pub name: String,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Optional last-level cache (present on the x86 target only).
    pub l3: Option<CacheConfig>,
}

const KIB: u64 = 1024;

impl HierarchyConfig {
    /// Validates that all levels share one line size.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::LineSizeMismatch`] when levels disagree.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let line = self.l1d.line_bytes;
        let mut ok = self.l1i.line_bytes == line && self.l2.line_bytes == line;
        if let Some(l3) = &self.l3 {
            ok &= l3.line_bytes == line;
        }
        if ok {
            Ok(())
        } else {
            Err(ConfigError::LineSizeMismatch)
        }
    }

    /// Shared line size of the hierarchy in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.l1d.line_bytes
    }

    /// Table I, x86 row: AMD Ryzen 7 5800X.
    /// L1D 32K/64s/8w, L1I 32K/64s/8w, L2 512K/1024s/8w, L3 32768K/32768s/16w.
    pub fn x86_ryzen_5800x() -> Self {
        let p = ReplacementPolicy::Lru;
        HierarchyConfig {
            name: "x86".into(),
            l1d: CacheConfig::new("L1D", 32 * KIB, 64, 8, 64, p).expect("preset"),
            l1i: CacheConfig::new("L1I", 32 * KIB, 64, 8, 64, p).expect("preset"),
            l2: CacheConfig::new("L2", 512 * KIB, 1024, 8, 64, p).expect("preset"),
            l3: Some(CacheConfig::new("L3", 32768 * KIB, 32768, 16, 64, p).expect("preset")),
        }
    }

    /// Table I, ARM row: Raspberry Pi 4 (Cortex-A72).
    /// L1D 32K/256s/2w, L1I 48K/256s/3w, L2 1024K/1024s/16w, no L3.
    pub fn arm_cortex_a72() -> Self {
        let p = ReplacementPolicy::Lru;
        HierarchyConfig {
            name: "arm".into(),
            l1d: CacheConfig::new("L1D", 32 * KIB, 256, 2, 64, p).expect("preset"),
            l1i: CacheConfig::new("L1I", 48 * KIB, 256, 3, 64, p).expect("preset"),
            l2: CacheConfig::new("L2", 1024 * KIB, 1024, 16, 64, p).expect("preset"),
            l3: None,
        }
    }

    /// Table I, RISC-V row: SiFive U74-MC.
    /// L1D 32K/64s/8w, L1I 32K/64s/8w, L2 2048K/2048s/16w, no L3.
    pub fn riscv_u74() -> Self {
        let p = ReplacementPolicy::Lru;
        HierarchyConfig {
            name: "riscv".into(),
            l1d: CacheConfig::new("L1D", 32 * KIB, 64, 8, 64, p).expect("preset"),
            l1i: CacheConfig::new("L1I", 32 * KIB, 64, 8, 64, p).expect("preset"),
            l2: CacheConfig::new("L2", 2048 * KIB, 2048, 16, 64, p).expect("preset"),
            l3: None,
        }
    }

    /// All three paper presets, in the order used by the result tables.
    pub fn paper_presets() -> Vec<HierarchyConfig> {
        vec![
            Self::x86_ryzen_5800x(),
            Self::arm_cortex_a72(),
            Self::riscv_u74(),
        ]
    }

    /// A tiny hierarchy for fast unit tests (not a paper target).
    pub fn tiny_for_tests() -> Self {
        let p = ReplacementPolicy::Lru;
        HierarchyConfig {
            name: "tiny".into(),
            l1d: CacheConfig::new("L1D", KIB, 4, 4, 64, p).expect("preset"),
            l1i: CacheConfig::new("L1I", KIB, 4, 4, 64, p).expect("preset"),
            l2: CacheConfig::new("L2", 8 * KIB, 32, 4, 64, p).expect("preset"),
            l3: None,
        }
    }

    /// Returns a copy with every level switched to `policy` (for the
    /// replacement-policy ablation).
    pub fn with_policy(&self, policy: ReplacementPolicy) -> Self {
        HierarchyConfig {
            name: self.name.clone(),
            l1d: self.l1d.with_policy(policy),
            l1i: self.l1i.with_policy(policy),
            l2: self.l2.with_policy(policy),
            l3: self.l3.as_ref().map(|c| c.with_policy(policy)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_must_be_consistent() {
        let err = CacheConfig::new("bad", 32 * KIB, 64, 4, 64, ReplacementPolicy::Lru);
        assert!(matches!(err, Err(ConfigError::InconsistentGeometry { .. })));
    }

    #[test]
    fn rejects_non_power_of_two_sets() {
        let err = CacheConfig::new("bad", 3 * 64 * 64, 3, 64, 64, ReplacementPolicy::Lru);
        assert!(matches!(err, Err(ConfigError::InvalidField { .. })));
    }

    #[test]
    fn rejects_a_size_product_past_64_bits() {
        // 2^40 sets x 2^40 ways x 64 B does not fit 64 bits.
        let err = CacheConfig::new("big", 64, 1 << 40, 1 << 40, 64, ReplacementPolicy::Lru);
        assert_eq!(
            err,
            Err(ConfigError::InconsistentGeometry {
                name: "big".into(),
                size_bytes: 64,
                implied_bytes: u64::MAX,
            })
        );
        // The largest product that does fit is still compared exactly.
        let err = CacheConfig::new(
            "big",
            64,
            1 << 32,
            (1 << 26) - 1,
            64,
            ReplacementPolicy::Lru,
        );
        assert!(matches!(
            err,
            Err(ConfigError::InconsistentGeometry { implied_bytes, .. })
                if implied_bytes == ((1u64 << 26) - 1) << 38
        ));
    }

    #[test]
    fn rejects_a_tag_wider_than_the_packed_word() {
        // One set of 1- or 2-byte lines leaves a 64- or 63-bit tag, and a
        // way's word has 62 bits for it.
        for line in [1, 2] {
            let err = CacheConfig::new("thin", 8 * line, 1, 8, line, ReplacementPolicy::Lru);
            assert!(
                matches!(err, Err(ConfigError::InvalidField { reason, .. })
                    if reason.contains("at least 4")),
                "{line}-byte lines: {err:?}"
            );
        }
        // Two address bits between index and offset are enough, however
        // they are split.
        for (sets, line) in [(4, 1), (2, 2), (1, 4)] {
            CacheConfig::new("ok", sets * line, sets, 1, line, ReplacementPolicy::Lru)
                .expect("62-bit tag fits");
        }
    }

    #[test]
    fn rejects_zero_fields() {
        let err = CacheConfig::new("bad", 0, 0, 0, 0, ReplacementPolicy::Lru);
        assert!(matches!(err, Err(ConfigError::InvalidField { .. })));
    }

    #[test]
    fn paper_presets_match_table_i() {
        let x86 = HierarchyConfig::x86_ryzen_5800x();
        assert_eq!(x86.l1d.size_bytes, 32 * KIB);
        assert_eq!(x86.l1d.num_sets, 64);
        assert_eq!(x86.l1d.associativity, 8);
        let l3 = x86.l3.as_ref().expect("x86 has an L3");
        assert_eq!(l3.size_bytes, 32768 * KIB);
        assert_eq!(l3.num_sets, 32768);
        assert_eq!(l3.associativity, 16);

        let arm = HierarchyConfig::arm_cortex_a72();
        assert_eq!(arm.l1d.associativity, 2);
        assert_eq!(arm.l1i.size_bytes, 48 * KIB);
        assert_eq!(arm.l1i.associativity, 3);
        assert_eq!(arm.l2.size_bytes, 1024 * KIB);
        assert!(arm.l3.is_none());

        let riscv = HierarchyConfig::riscv_u74();
        assert_eq!(riscv.l2.size_bytes, 2048 * KIB);
        assert_eq!(riscv.l2.num_sets, 2048);
        assert!(riscv.l3.is_none());
    }

    #[test]
    fn all_presets_validate_with_64b_lines() {
        for preset in HierarchyConfig::paper_presets() {
            preset.validate().expect("preset must validate");
            assert_eq!(preset.line_bytes(), 64);
        }
    }

    #[test]
    fn with_policy_switches_every_level() {
        let h = HierarchyConfig::x86_ryzen_5800x().with_policy(ReplacementPolicy::Fifo);
        assert_eq!(h.l1d.policy, ReplacementPolicy::Fifo);
        assert_eq!(h.l2.policy, ReplacementPolicy::Fifo);
        assert_eq!(h.l3.unwrap().policy, ReplacementPolicy::Fifo);
    }
}
