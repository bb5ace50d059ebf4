use simtune_cache::HierarchyStats;

/// Counts of executed (retired) instructions by class.
///
/// The paper's predictor consumes "the number of the executed
/// load/store/branch instructions divided by the total number of
/// instructions" (Section III-D); the finer classes are kept for ablation
/// experiments and debugging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstMix {
    /// Integer ALU operations (address arithmetic, loop counters).
    pub int_alu: u64,
    /// Scalar floating-point operations (FMA counts once).
    pub fp_alu: u64,
    /// Vector ALU operations.
    pub vec_alu: u64,
    /// Loads of any width (scalar int, scalar float, vector).
    pub loads: u64,
    /// Stores of any width.
    pub stores: u64,
    /// Control-flow instructions (conditional and unconditional).
    pub branches: u64,
    /// Conditional branches whose condition held (subset of `branches`).
    pub branches_taken: u64,
    /// Everything else (moves, converts, ecalls, halt).
    pub other: u64,
}

impl InstMix {
    /// Total retired instructions.
    pub fn total(&self) -> u64 {
        self.int_alu
            + self.fp_alu
            + self.vec_alu
            + self.loads
            + self.stores
            + self.branches
            + self.other
    }

    /// Loads / total (0 when nothing retired).
    pub fn load_ratio(&self) -> f64 {
        ratio(self.loads, self.total())
    }

    /// Stores / total (0 when nothing retired).
    pub fn store_ratio(&self) -> f64 {
        ratio(self.stores, self.total())
    }

    /// Branches / total (0 when nothing retired).
    pub fn branch_ratio(&self) -> f64 {
        ratio(self.branches, self.total())
    }

    /// Element-wise sum (aggregation across program phases).
    pub fn merged(&self, other: &InstMix) -> InstMix {
        InstMix {
            int_alu: self.int_alu + other.int_alu,
            fp_alu: self.fp_alu + other.fp_alu,
            vec_alu: self.vec_alu + other.vec_alu,
            loads: self.loads + other.loads,
            stores: self.stores + other.stores,
            branches: self.branches + other.branches,
            branches_taken: self.branches_taken + other.branches_taken,
            other: self.other + other.other,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything the instruction-accurate simulator reports for one run:
/// the gem5-statistics stand-in consumed by the feature extractor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Retired-instruction mix.
    pub inst_mix: InstMix,
    /// Cache hierarchy counters.
    pub cache: HierarchyStats,
    /// Host wall-clock nanoseconds spent simulating (the `t_simulator` of
    /// the paper's Equation 4). Zero when not measured.
    pub host_nanos: u64,
}

impl SimStats {
    /// Host wall-clock seconds spent simulating.
    pub fn host_seconds(&self) -> f64 {
        self.host_nanos as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_all_classes() {
        let m = InstMix {
            int_alu: 1,
            fp_alu: 2,
            vec_alu: 3,
            loads: 4,
            stores: 5,
            branches: 6,
            branches_taken: 4,
            other: 7,
        };
        assert_eq!(m.total(), 28);
        assert!((m.load_ratio() - 4.0 / 28.0).abs() < 1e-15);
        assert!((m.store_ratio() - 5.0 / 28.0).abs() < 1e-15);
        assert!((m.branch_ratio() - 6.0 / 28.0).abs() < 1e-15);
    }

    #[test]
    fn empty_mix_has_zero_ratios() {
        let m = InstMix::default();
        assert_eq!(m.total(), 0);
        assert_eq!(m.load_ratio(), 0.0);
    }

    #[test]
    fn merged_adds_componentwise() {
        let a = InstMix {
            loads: 2,
            branches: 1,
            ..Default::default()
        };
        let b = InstMix {
            loads: 3,
            stores: 7,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.loads, 5);
        assert_eq!(m.stores, 7);
        assert_eq!(m.branches, 1);
    }

    #[test]
    fn host_seconds_converts_nanos() {
        let s = SimStats {
            host_nanos: 1_500_000_000,
            ..Default::default()
        };
        assert!((s.host_seconds() - 1.5).abs() < 1e-12);
    }
}
