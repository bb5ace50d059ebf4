//! Property suite for the [`SimCache`] fingerprint on torture programs
//! — the collision contract behind the snapshot schema.
//!
//! The memo layer replays stored reports whenever two requests share a
//! fingerprint, so the fingerprint function carries the entire
//! correctness burden: two requests may collide **iff** they are the
//! same simulation — same program (by disassembly), same data bits,
//! same target, same fidelity digest, same limits, same engine.
//! Torture programs make good probes because near-identical variants
//! (one instruction changed, one data bit flipped) are easy to derive
//! from a seed.

use proptest::prelude::*;
use simtune_core::{memo_fingerprint, SimCache, SimReport};
use simtune_isa::{
    torture_program_with, EngineKind, Executable, RunLimits, SimStats, TargetIsa, TortureConfig,
    DATA_BASE,
};

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn torture_exe(seed: u64, name: &str, data: Vec<f32>) -> Executable {
    let program = torture_program_with(&TortureConfig::baseline(), seed);
    let target = TargetIsa::paper_targets()[(seed % 3) as usize].clone();
    Executable::new(name, program, target).with_segment(DATA_BASE, data)
}

fn key(exe: &Executable, digest: &str, max_insts: u64, engine: EngineKind) -> Vec<u8> {
    memo_fingerprint(exe, digest, &RunLimits { max_insts }, engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// Identical simulations collide, whatever the executable's *name*:
    /// trial labels must not fragment the cache.
    #[test]
    fn equal_requests_collide_across_names(seed in any::<u64>(), data_word in any::<u32>()) {
        let data = vec![f32::from_bits(data_word), 2.0, -0.0];
        let a = torture_exe(seed, "trial-1", data.clone());
        let b = torture_exe(seed, "trial-2", data);
        let ka = key(&a, "accurate @ cfg", 1_000, EngineKind::Decoded);
        let kb = key(&b, "accurate @ cfg", 1_000, EngineKind::Decoded);
        prop_assert_eq!(ka, kb);
    }

    /// Any differing component misses: program, data bits, engine,
    /// fidelity digest (tier, parameters or configuration), limits,
    /// target.
    #[test]
    fn any_differing_component_misses(seed in any::<u64>()) {
        let base = torture_exe(seed, "t", vec![1.0, 2.0]);
        let k0 = key(&base, "accurate @ cfg", 1_000, EngineKind::Decoded);

        // Different program (next seed -- generator decorrelation is
        // pinned by the isa contract suite).
        let other_prog = torture_exe(seed.wrapping_add(1), "t", vec![1.0, 2.0]);
        prop_assume!(other_prog.program != base.program);
        prop_assert_ne!(
            &k0,
            &key(&other_prog, "accurate @ cfg", 1_000, EngineKind::Decoded)
        );

        // One data bit flipped (0.0 vs -0.0 differ only in sign bit).
        let bitflip = torture_exe(seed, "t", vec![1.0, 2.0 + 1e-6]);
        prop_assert_ne!(
            &k0,
            &key(&bitflip, "accurate @ cfg", 1_000, EngineKind::Decoded)
        );

        // Engine, fidelity tier, tier parameters, configuration, limits.
        prop_assert_ne!(
            &k0,
            &key(&base, "accurate @ cfg", 1_000, EngineKind::Batch)
        );
        prop_assert_ne!(
            &k0,
            &key(&base, "fast-count @ cfg", 1_000, EngineKind::Decoded)
        );
        prop_assert_ne!(
            &k0,
            &key(&base, "pipelined:btb=512,ras=8 @ cfg", 1_000, EngineKind::Decoded)
        );
        prop_assert_ne!(
            &key(&base, "pipelined:btb=512,ras=8 @ cfg", 1_000, EngineKind::Decoded),
            &key(&base, "pipelined:btb=256,ras=8 @ cfg", 1_000, EngineKind::Decoded)
        );
        prop_assert_ne!(
            &k0,
            &key(&base, "accurate @ cfg2", 1_000, EngineKind::Decoded)
        );
        prop_assert_ne!(
            &k0,
            &key(&base, "accurate @ cfg", 2_000, EngineKind::Decoded)
        );

        // Different target ISA.
        let mut retargeted = base.clone();
        retargeted.target = if base.target.name == TargetIsa::riscv_u74().name {
            TargetIsa::arm_cortex_a72()
        } else {
            TargetIsa::riscv_u74()
        };
        prop_assert_ne!(
            &k0,
            &key(&retargeted, "accurate @ cfg", 1_000, EngineKind::Decoded)
        );
    }

    /// End-to-end through the cache: a planted report is replayed for
    /// the colliding request and invisible to a differing one.
    #[test]
    fn cache_replays_collisions_only(seed in any::<u64>()) {
        let cache = SimCache::new();
        let exe = torture_exe(seed, "plant", vec![3.0]);
        let k = key(&exe, "accurate @ cfg", 1_000, EngineKind::Decoded);
        let planted = SimReport {
            stats: SimStats::default(),
            backend: "accurate".into(),
            cycles: None,
        };
        cache.insert(k.clone(), planted.clone());
        prop_assert_eq!(cache.lookup(&k), Some(planted));
        let miss = key(&exe, "accurate @ cfg", 999, EngineKind::Decoded);
        prop_assert_eq!(cache.lookup(&miss), None);
    }
}
