//! Acceptance tests for the `SimBackend` API as seen through the
//! `simtune` façade: one candidate batch on all three fidelity tiers,
//! and the fidelity-escalation autotune mode matching accurate-only
//! tuning at a fraction of the accurate-simulation cost.

use simtune::core::{
    collect_group_data, tune_with_fidelity_escalation, tune_with_predictor, CollectOptions,
    EscalationOptions, FidelitySpec, KernelBuilder, ScorePredictor, SimCache, TuneOptions,
};
use simtune::hw::TargetSpec;
use simtune::predict::PredictorKind;
use simtune::tensor::{matmul, ComputeDef, Schedule};
use simtune::SimSession;
use std::sync::Arc;

fn matmul_workload() -> (ComputeDef, TargetSpec) {
    (matmul(8, 8, 8), TargetSpec::riscv_u74())
}

#[test]
fn sim_session_runs_one_batch_on_all_three_backends() {
    let (def, spec) = matmul_workload();
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let schedule = Schedule::default_for(&def);
    let exes: Vec<_> = (0..4)
        .map(|i| builder.build(&schedule, &format!("mm{i}")).unwrap())
        .collect();

    let sessions = [
        SimSession::builder().accurate(&spec.hierarchy),
        SimSession::builder().fidelity(&FidelitySpec::FastCount, &spec.hierarchy),
        SimSession::builder().fidelity(&"pipelined".parse().unwrap(), &spec.hierarchy),
    ];
    let mut seen_backends = Vec::new();
    let mut totals = Vec::new();
    for b in sessions {
        let session = b.n_parallel(2).build().expect("session builds");
        let reports = session.run(&exes);
        assert_eq!(reports.len(), exes.len());
        for r in &reports {
            let r = r.as_ref().expect("candidate simulates");
            assert_eq!(r.backend, session.backend_name());
            assert!(r.stats.inst_mix.total() > 0);
        }
        seen_backends.push(session.backend_name().to_string());
        totals.push(reports[0].as_ref().unwrap().stats.inst_mix.total());
    }
    assert_eq!(seen_backends, ["accurate", "fast-count", "pipelined"]);
    // All tiers execute the same functional program: identical candidate,
    // identical retired-instruction count.
    assert_eq!(totals[0], totals[1]);
    assert_eq!(totals[0], totals[2]);
}

#[test]
fn fidelity_escalation_matches_accurate_only_with_fewer_accurate_runs() {
    let (def, spec) = matmul_workload();
    let data = collect_group_data(
        &def,
        &spec,
        0,
        &CollectOptions {
            n_impls: 16,
            n_parallel: 4,
            seed: 5,
            max_attempts_factor: 40,
            ..CollectOptions::default()
        },
    )
    .unwrap();
    let mut predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
    predictor.train(std::slice::from_ref(&data)).unwrap();

    // Same seed + default RandomSearch strategy ⇒ both flows see the
    // identical candidate stream (random search ignores feedback).
    let opts = TuneOptions {
        n_trials: 24,
        batch_size: 8,
        n_parallel: 4,
        seed: 9,
        ..Default::default()
    };
    let accurate_only =
        tune_with_predictor(&def, &spec, &predictor, &opts).expect("accurate-only tuning runs");

    let esc = EscalationOptions {
        top_k: 8,
        ..EscalationOptions::default()
    };
    let escalated = tune_with_fidelity_escalation(&def, &spec, &predictor, &opts, &esc)
        .expect("escalated tuning runs");

    assert_eq!(escalated.explore_backend, "fast-count");
    assert_eq!(escalated.final_backend, "accurate");
    // Fewer accurate simulations than the accurate-only flow's n_trials…
    assert!(escalated.accurate_runs <= esc.top_k);
    assert!(escalated.accurate_runs < opts.n_trials);
    // …while landing on the same best schedule.
    assert_eq!(
        escalated.result.best().schedule,
        accurate_only.best().schedule,
        "escalated best {:?} vs accurate-only best {:?}",
        escalated.result.best().description,
        accurate_only.best().description
    );
}

#[test]
fn memo_cache_dedupes_revisited_candidates_without_changing_results() {
    let (def, spec) = matmul_workload();
    let data = collect_group_data(
        &def,
        &spec,
        0,
        &CollectOptions {
            n_impls: 16,
            n_parallel: 4,
            seed: 5,
            max_attempts_factor: 40,
            ..CollectOptions::default()
        },
    )
    .unwrap();
    let mut predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
    predictor.train(std::slice::from_ref(&data)).unwrap();

    let base = TuneOptions {
        n_trials: 16,
        batch_size: 8,
        n_parallel: 2,
        seed: 11,
        ..TuneOptions::default()
    };
    let run = |opts: &TuneOptions| {
        // Same seed ⇒ the default RandomSearch strategy proposes the
        // identical candidate stream on every invocation.
        tune_with_predictor(&def, &spec, &predictor, opts).expect("tuning runs")
    };

    // Two identical tuning runs without memoization: the reference.
    let cold_a = run(&base);
    let cold_b = run(&base);

    // The same two runs sharing one memo cache: the second run revisits
    // every candidate the first one simulated.
    let cache = Arc::new(SimCache::new());
    let memo_opts = TuneOptions {
        memo_cache: Some(cache.clone()),
        ..base.clone()
    };
    let warm_a = run(&memo_opts);
    let first_pass = cache.stats();
    let warm_b = run(&memo_opts);
    let second_pass = cache.stats();

    // Strictly fewer backend executions: every simulation of the second
    // run was answered from the cache (misses did not grow).
    assert_eq!(
        second_pass.misses, first_pass.misses,
        "revisited candidates must not execute the backend again"
    );
    assert!(
        second_pass.hits >= first_pass.hits + base.n_trials as u64,
        "each revisited trial must be a cache hit ({} -> {})",
        first_pass.hits,
        second_pass.hits
    );

    // Identical tuning results with the cache on and off.
    for (cold, warm) in [(&cold_a, &warm_a), (&cold_b, &warm_b)] {
        assert_eq!(cold.best_index, warm.best_index);
        assert_eq!(cold.history.len(), warm.history.len());
        for (x, y) in cold.history.iter().zip(&warm.history) {
            assert_eq!(x.description, y.description);
            assert_eq!(x.schedule, y.schedule);
            assert_eq!(x.score, y.score, "memoized stats must score identically");
        }
    }
}
