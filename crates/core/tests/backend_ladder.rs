//! Backend fidelity-ladder contracts on the torture corpus.
//!
//! The tiers' stated relationships to [`AccurateBackend`], pinned over
//! structured torture programs (loop nests, irregular branches,
//! pathological strides — not just well-behaved kernels):
//!
//! * [`FastCountBackend`]: the retired-instruction mix and the
//!   line-granular fetch/access *totals* are bit-identical to accurate;
//!   only the hit/miss split is absent.
//! * [`PipelinedBackend`]: architectural statistics identical to the
//!   interp reference on every corpus scenario, and the extra
//!   [`simtune_core::CycleBreakdown`] byte-identical across replay
//!   engines and `n_parallel` 1/2/4.

use simtune_cache::HierarchyConfig;
use simtune_core::diffharness::DiffHarness;
use simtune_core::{
    AccurateBackend, FastCountBackend, FidelitySpec, PipelinedBackend, SimBackend, SimSession,
    DEFAULT_BTB_ENTRIES, DEFAULT_RAS_DEPTH,
};
use simtune_isa::{EngineKind, RunLimits, TortureConfig};

fn hier() -> HierarchyConfig {
    HierarchyConfig::tiny_for_tests()
}

/// (executable, decoded) torture pairs across the corpus; skips seeds
/// whose programs fault (fault agreement is the diffharness suite's
/// job — here we compare statistics of completed runs).
fn corpus_cases() -> Vec<(String, simtune_isa::Executable, simtune_isa::DecodedProgram)> {
    let accurate = AccurateBackend::new(hier());
    let mut cases = Vec::new();
    for (name, cfg) in TortureConfig::corpus() {
        for seed in 0..6 {
            let exe = DiffHarness::make_executable(name, &cfg, seed, seed + 17);
            let decoded = exe.decode().expect("torture programs decode");
            if accurate.run_one(&exe, &RunLimits::default()).is_ok() {
                cases.push((format!("{name}/{seed}"), exe, decoded));
            }
        }
    }
    assert!(cases.len() > 40, "corpus sweep too small: {}", cases.len());
    cases
}

#[test]
fn fast_count_matches_accurate_instruction_and_access_totals() {
    let accurate = AccurateBackend::new(hier());
    let fast = FastCountBackend::matching(&hier());
    let limits = RunLimits::default();
    for (ctx, exe, decoded) in corpus_cases() {
        let a = accurate
            .run_one_decoded_on(&exe, &decoded, &limits, EngineKind::Decoded)
            .unwrap();
        let f = fast
            .run_one_decoded_on(&exe, &decoded, &limits, EngineKind::Decoded)
            .unwrap();
        assert_eq!(a.stats.inst_mix, f.stats.inst_mix, "{ctx}: inst mix");
        let ac = &a.stats.cache;
        let fc = &f.stats.cache;
        assert_eq!(
            ac.l1i.read_hits + ac.l1i.read_misses,
            fc.l1i.read_hits + fc.l1i.read_misses,
            "{ctx}: fetch totals"
        );
        assert_eq!(
            ac.l1d.read_hits + ac.l1d.read_misses,
            fc.l1d.read_hits + fc.l1d.read_misses,
            "{ctx}: data-read totals"
        );
        assert_eq!(
            ac.l1d.write_hits + ac.l1d.write_misses,
            fc.l1d.write_hits + fc.l1d.write_misses,
            "{ctx}: data-write totals"
        );
        // The counting tier models no cache: every access is a miss.
        assert_eq!(fc.l1i.read_hits, 0, "{ctx}");
        assert_eq!(fc.l1d.read_hits + fc.l1d.write_hits, 0, "{ctx}");
    }
}

#[test]
fn pipelined_matches_interp_architectural_statistics_on_the_corpus() {
    // The timing tier replays the same functional semantics as the
    // interp reference; only the cache statistics may move (the
    // prefetcher shares the trial's hierarchy) and cycles appear.
    let accurate = AccurateBackend::new(hier());
    let pipelined = PipelinedBackend::new(hier(), DEFAULT_BTB_ENTRIES, DEFAULT_RAS_DEPTH);
    let limits = RunLimits::default();
    for (ctx, exe, decoded) in corpus_cases() {
        let a = accurate
            .run_one_decoded_on(&exe, &decoded, &limits, EngineKind::Interp)
            .unwrap();
        let p = pipelined
            .run_one_decoded_on(&exe, &decoded, &limits, EngineKind::Decoded)
            .unwrap();
        assert_eq!(a.stats.inst_mix, p.stats.inst_mix, "{ctx}: inst mix");
        let cycles = p.cycles.expect("pipelined tier reports a breakdown");
        assert!(
            cycles.total() >= p.stats.inst_mix.total() as f64,
            "{ctx}: an in-order pipeline retires at most one inst/cycle"
        );
    }
}

#[test]
fn pipelined_cycles_are_byte_identical_across_parallelism_and_engines() {
    // Every (engine, n_parallel) session over the same corpus slice
    // must report bit-equal cycle breakdowns — the determinism contract
    // that makes the timing tier usable under memoization.
    let cases = corpus_cases();
    let exes: Vec<simtune_isa::Executable> = cases
        .iter()
        .step_by(5)
        .map(|(_, exe, _)| exe.clone())
        .collect();
    let spec = FidelitySpec::Pipelined {
        btb: DEFAULT_BTB_ENTRIES,
        ras: DEFAULT_RAS_DEPTH,
    };
    let mut reference: Option<Vec<[u64; 3]>> = None;
    for engine in EngineKind::ALL {
        for n_parallel in [1, 2, 4] {
            let session = SimSession::builder()
                .fidelity(&spec, &hier())
                .n_parallel(n_parallel)
                .engine(engine)
                .build()
                .unwrap();
            let bits: Vec<[u64; 3]> = session
                .run(&exes)
                .into_iter()
                .map(|r| {
                    let c = r.unwrap().cycles.expect("pipelined session reports cycles");
                    [
                        c.pipeline.to_bits(),
                        c.memory.to_bits(),
                        c.control.to_bits(),
                    ]
                })
                .collect();
            match &reference {
                None => reference = Some(bits),
                Some(first) => assert_eq!(
                    first, &bits,
                    "{engine} at n_parallel = {n_parallel} moved the cycle counts"
                ),
            }
        }
    }
}

#[test]
fn every_tier_honors_engine_selection_identically() {
    // The same report must come back whatever replay engine a tier is
    // pinned to — the property that lets sessions treat the engine as a
    // pure host-speed knob.
    let tiers: Vec<Box<dyn SimBackend>> = vec![
        Box::new(AccurateBackend::new(hier())),
        Box::new(FastCountBackend::matching(&hier())),
        Box::new(PipelinedBackend::new(
            hier(),
            DEFAULT_BTB_ENTRIES,
            DEFAULT_RAS_DEPTH,
        )),
    ];
    let limits = RunLimits::default();
    for (ctx, exe, decoded) in corpus_cases().into_iter().step_by(7) {
        for tier in &tiers {
            let mut reports = EngineKind::ALL.iter().map(|&engine| {
                let mut r = tier
                    .run_one_decoded_on(&exe, &decoded, &limits, engine)
                    .unwrap();
                r.stats.host_nanos = 0;
                r
            });
            let first = reports.next().unwrap();
            for r in reports {
                assert_eq!(first, r, "{ctx}: {} disagrees across engines", tier.name());
            }
        }
    }
}

#[test]
fn raw_entry_equals_the_decoded_entry_for_every_tier_and_engine() {
    // The trait's two run methods are one run body: `run_one` (decode
    // inside, default engine) must report what `run_one_decoded_on`
    // reports on any engine, for every tier of the roster.
    let limits = RunLimits::default();
    for spec in FidelitySpec::all() {
        let tier = spec.build(&hier()).unwrap();
        for (ctx, exe, decoded) in corpus_cases().into_iter().step_by(7) {
            let raw = tier.run_one(&exe, &limits).unwrap();
            for engine in EngineKind::ALL {
                let got = tier
                    .run_one_decoded_on(&exe, &decoded, &limits, engine)
                    .unwrap();
                let ctx = format!("{ctx}: {spec} on {engine}");
                assert_eq!(raw.stats.inst_mix, got.stats.inst_mix, "{ctx}");
                assert_eq!(raw.stats.cache, got.stats.cache, "{ctx}");
                assert_eq!(raw.cycles, got.cycles, "{ctx}");
            }
        }
    }
}
