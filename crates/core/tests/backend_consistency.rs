//! Cross-backend consistency: the reduced-fidelity tiers must stay
//! anchored to the reference simulator.
//!
//! * `FastCountBackend` executes the same functional CPU as
//!   `AccurateBackend`, so retired-instruction mixes must agree
//!   *exactly* on every kernel of the paper's workload set;
//! * a predictor trained on accurate data must be able to score the
//!   counting tier on every paper target, so `FastCountBackend` reports
//!   keep the accurate feature width — on x86, the one target with an
//!   L3, too.

use rand::rngs::StdRng;
use rand::SeedableRng;
use simtune_core::{
    collect_group_data, raw_sample, tune_with_fidelity_escalation, AccurateBackend, CollectOptions,
    EscalationOptions, FastCountBackend, FeatureConfig, KernelBuilder, ScorePredictor, SimBackend,
    TuneOptions, WindowKind, WindowNormalizer,
};
use simtune_hw::TargetSpec;
use simtune_isa::{Executable, RunLimits};
use simtune_predict::PredictorKind;
use simtune_tensor::{conv2d_bias_relu, matmul, ComputeDef, Schedule, SketchGenerator};

/// The paper's five Conv2D+Bias+ReLU groups (Table II) at smoke scale
/// (spatial/8, channels/8 — the CI-sized variant), plus the matmul
/// kernel used for cross-kernel-type experiments.
fn workload_set() -> Vec<ComputeDef> {
    let mut defs: Vec<ComputeDef> = simtune_tensor::Conv2dShape::paper_groups()
        .iter()
        .map(|g| conv2d_bias_relu(&g.scaled(8, 8)))
        .collect();
    defs.push(matmul(12, 12, 12));
    defs
}

/// One default-schedule executable plus one randomly scheduled variant
/// per kernel, so layout-sensitive code paths (tiling, vectorization)
/// are exercised too.
fn candidates(def: &ComputeDef, spec: &TargetSpec, seed: u64) -> Vec<Executable> {
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let mut out = vec![builder
        .build(
            &Schedule::default_for(def),
            &format!("{}-default", def.name),
        )
        .expect("default schedule builds")];
    let generator = SketchGenerator::new(def, spec.isa.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    for attempt in 0..50 {
        let schedule = generator.schedule(&generator.random(&mut rng));
        if let Ok(exe) = builder.build(&schedule, &format!("{}-r{attempt}", def.name)) {
            out.push(exe);
            break;
        }
    }
    out
}

#[test]
fn fast_count_matches_accurate_on_paper_workloads() {
    let spec = TargetSpec::riscv_u74();
    let accurate = AccurateBackend::new(spec.hierarchy.clone());
    let fast = FastCountBackend::matching(&spec.hierarchy);
    let limits = RunLimits::default();
    for def in workload_set() {
        for exe in candidates(&def, &spec, 0xC0DE) {
            let a = accurate.run_one(&exe, &limits).expect("accurate runs");
            let f = fast.run_one(&exe, &limits).expect("fast-count runs");
            assert_eq!(
                a.stats.inst_mix, f.stats.inst_mix,
                "retired-instruction mix diverged on {}",
                exe.name
            );
            // The raw access volume is preserved: every fast-count access
            // is an L1 "miss", so L1 accesses match the accurate run's.
            assert_eq!(
                a.stats.cache.l1d.read_accesses(),
                f.stats.cache.l1d.read_misses,
                "data-read volume diverged on {}",
                exe.name
            );
            assert_eq!(
                a.stats.cache.l1d.write_accesses(),
                f.stats.cache.l1d.write_misses,
                "data-write volume diverged on {}",
                exe.name
            );
        }
    }
}

#[test]
fn fast_count_is_scorable_and_escalation_completes_on_every_paper_target() {
    let def = matmul(8, 8, 8);
    let config = FeatureConfig::default();
    for spec in TargetSpec::paper_targets() {
        let arch = spec.name();
        let exe = &candidates(&def, &spec, 0xFEA7)[0];
        let width = |backend: &dyn SimBackend| {
            let report = backend.run_one(exe, &RunLimits::default()).expect("runs");
            let raw = raw_sample(&report.stats, &config);
            let mut norm = WindowNormalizer::new(WindowKind::Dynamic);
            norm.feed(&raw);
            norm.features(&raw, &config).len()
        };
        assert_eq!(
            width(&FastCountBackend::matching(&spec.hierarchy)),
            width(&AccurateBackend::new(spec.hierarchy.clone())),
            "{arch}: fast-count and accurate feature widths"
        );

        let data = collect_group_data(
            &def,
            &spec,
            0,
            &CollectOptions {
                n_impls: 12,
                n_parallel: 2,
                seed: 5,
                max_attempts_factor: 40,
                ..CollectOptions::default()
            },
        )
        .expect("collects");
        let mut predictor = ScorePredictor::new(PredictorKind::LinReg, arch, "matmul", 1);
        predictor
            .train(std::slice::from_ref(&data))
            .expect("trains");
        let opts = TuneOptions {
            n_trials: 12,
            batch_size: 4,
            n_parallel: 2,
            seed: 3,
            ..TuneOptions::default()
        };
        // The default exploration tier: fast-count.
        let esc = EscalationOptions {
            top_k: 4,
            ..EscalationOptions::default()
        };
        let out = tune_with_fidelity_escalation(&def, &spec, &predictor, &opts, &esc)
            .unwrap_or_else(|e| panic!("{arch}: escalated tune failed: {e}"));
        assert_eq!(out.explore_backend, "fast-count", "{arch}");
        assert!(out.result.best().score.is_finite(), "{arch}");
    }
}
