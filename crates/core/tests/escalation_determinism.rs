//! The determinism contract of fidelity escalation: same seed + same
//! options ⇒ bit-identical [`TuneResult`] at every `n_parallel`, the
//! cheap-tier exploration and the top-k finalists alike.

use simtune_core::{
    collect_group_data, tune_with_fidelity_escalation, CollectOptions, EscalatedTuneResult,
    EscalationOptions, ScorePredictor, StrategySpec, TuneOptions,
};
use simtune_hw::TargetSpec;
use simtune_predict::PredictorKind;
use simtune_tensor::{matmul, ComputeDef};

fn workload() -> (ComputeDef, TargetSpec) {
    (matmul(8, 8, 8), TargetSpec::riscv_u74())
}

fn trained_predictor(def: &ComputeDef, spec: &TargetSpec) -> ScorePredictor {
    let data = collect_group_data(
        def,
        spec,
        0,
        &CollectOptions {
            n_impls: 16,
            n_parallel: 4,
            seed: 5,
            max_attempts_factor: 40,
            ..CollectOptions::default()
        },
    )
    .expect("training data collects");
    let mut predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
    predictor
        .train(std::slice::from_ref(&data))
        .expect("predictor trains");
    predictor
}

fn run(
    def: &ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    esc: &EscalationOptions,
    n_parallel: usize,
) -> EscalatedTuneResult {
    // A guided strategy makes the test sharp: evolutionary proposals
    // depend on observed scores, so any score divergence across
    // parallelism degrees would cascade into different candidates.
    let opts = TuneOptions {
        n_trials: 24,
        batch_size: 8,
        n_parallel,
        seed: 9,
        strategy: StrategySpec::Evolutionary,
        ..TuneOptions::default()
    };
    tune_with_fidelity_escalation(def, spec, predictor, &opts, esc).expect("escalated tune runs")
}

/// Everything except wall-clock timings must match bit-for-bit.
fn assert_identical(a: &EscalatedTuneResult, b: &EscalatedTuneResult, label: &str) {
    assert_eq!(
        a.result.history.len(),
        b.result.history.len(),
        "{label}: history length"
    );
    for (i, (ra, rb)) in a.result.history.iter().zip(&b.result.history).enumerate() {
        assert_eq!(ra.description, rb.description, "{label}: candidate {i}");
        assert_eq!(
            ra.score.to_bits(),
            rb.score.to_bits(),
            "{label}: score of candidate {i} ({} vs {})",
            ra.score,
            rb.score
        );
    }
    assert_eq!(
        a.result.best_index, b.result.best_index,
        "{label}: best index"
    );
    assert_eq!(a.explore_runs, b.explore_runs, "{label}: explore runs");
    assert_eq!(a.accurate_runs, b.accurate_runs, "{label}: accurate runs");
}

#[test]
fn topk_escalation_is_identical_at_every_parallelism() {
    let (def, spec) = workload();
    let predictor = trained_predictor(&def, &spec);
    let esc = EscalationOptions::default();
    let base = run(&def, &spec, &predictor, &esc, 1);
    for n_parallel in [2, 4] {
        let other = run(&def, &spec, &predictor, &esc, n_parallel);
        assert_identical(&base, &other, &format!("top-k n_parallel={n_parallel}"));
    }
}
