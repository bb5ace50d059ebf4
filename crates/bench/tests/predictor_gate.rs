//! Fidelity escalation against the accurate-only baseline, on one
//! fixed-seed experiment over the paper's smoke-scale Conv2D group.
//! Two tuning modes share the strategy, seed and trial budget:
//!
//! 1. **accurate-only** — every trial simulates accurately (the
//!    paper's baseline; `n_trials` accurate simulations);
//! 2. **top-k** — exploration on the default fast-count tier, the
//!    top-k finalists re-simulate accurately.
//!
//! The offline score predictor must rank a held-out slice of its
//! training group with Spearman ≥ 0.8; the two modes must spend
//! exactly 48 / 8 accurate simulations (the whole experiment is
//! seed-deterministic); and the top-k winner's noise-free target
//! runtime (`simtune_hw::measure_base_seconds`, independent of any
//! score-normalization stream) must be within 5 % of the accurate-only
//! winner's.

use simtune_bench::Scale;
use simtune_core::{
    collect_group_data, tune_with_fidelity_escalation, tune_with_predictor, CollectOptions,
    EscalationOptions, GroupData, KernelBuilder, ScorePredictor, StrategySpec, TuneOptions,
    TuneRecord,
};
use simtune_hw::{measure_base_seconds, TargetSpec};
use simtune_linalg::stats::spearman;
use simtune_predict::PredictorKind;
use simtune_tensor::{conv2d_bias_relu, ComputeDef};

/// Splits one collected group into train/held-out halves by index.
fn split(data: &GroupData, train: usize) -> (GroupData, GroupData) {
    let cut = train.min(data.len());
    let part = |lo: usize, hi: usize| GroupData {
        group_id: data.group_id,
        stats: data.stats[lo..hi].to_vec(),
        t_ref: data.t_ref[lo..hi].to_vec(),
        base_seconds: data.base_seconds[lo..hi].to_vec(),
        sim_seconds: data.sim_seconds[lo..hi].to_vec(),
        descriptions: data.descriptions[lo..hi].to_vec(),
    };
    (part(0, cut), part(cut, data.len()))
}

/// The winner's noise-free target runtime. Each mode's own best
/// *score* comes from a different normalizer stream, so scores are not
/// comparable across modes; rebuilt runtimes are.
fn winner_seconds(def: &ComputeDef, spec: &TargetSpec, winner: &TuneRecord) -> f64 {
    let exe = KernelBuilder::new(def.clone(), spec.isa.clone())
        .build(&winner.schedule, "winner")
        .expect("winner builds");
    measure_base_seconds(&exe, spec).expect("winner measures")
}

#[test]
fn top_k_escalation_matches_the_accurate_winner_on_eight_accurate_simulations() {
    let arch = "riscv";
    let seed = 42u64;
    let spec = TargetSpec::by_name(arch).expect("known arch");
    let def = conv2d_bias_relu(&Scale::Smoke.conv_groups()[1]);

    let data = collect_group_data(
        &def,
        &spec,
        1,
        &CollectOptions {
            n_impls: 32,
            n_parallel: 2,
            seed,
            max_attempts_factor: 40,
            ..CollectOptions::default()
        },
    )
    .expect("collection");
    let (train, held) = split(&data, 24);
    let mut predictor = ScorePredictor::new(PredictorKind::Xgboost, arch, "conv2d_bias_relu", 1);
    predictor
        .train(std::slice::from_ref(&train))
        .expect("training");
    let predicted = predictor.score_group(&held.stats).expect("held-out scores");
    let rho = spearman(&predicted, &held.t_ref);
    assert!(
        rho >= 0.8,
        "held-out Spearman {rho:.3} over {} impls is below 0.8",
        held.len()
    );

    let opts = TuneOptions {
        n_trials: 48,
        batch_size: 12,
        n_parallel: 2,
        seed,
        strategy: StrategySpec::Evolutionary,
        ..TuneOptions::default()
    };
    let accurate = tune_with_predictor(&def, &spec, &predictor, &opts).expect("accurate tune");
    let topk = tune_with_fidelity_escalation(
        &def,
        &spec,
        &predictor,
        &opts,
        &EscalationOptions::default(),
    )
    .expect("top-k tune");
    assert_eq!(
        (accurate.simulations, topk.accurate_runs),
        (48, 8),
        "accurate simulations: accurate-only / top-k"
    );

    let acc_best = winner_seconds(&def, &spec, accurate.best());
    let topk_best = winner_seconds(&def, &spec, topk.result.best());
    assert!(
        topk_best <= acc_best * 1.05,
        "top-k winner {topk_best:.3e} s is outside the 5 % band of the accurate-only {acc_best:.3e} s"
    );
}
