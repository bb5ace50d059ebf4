//! The multi-tenant contract, end to end:
//!
//! * **Isolation** — two tenants tuning concurrently on one shared
//!   `SimService` each reproduce, bit for bit, the result they would
//!   have gotten tuning alone, at every pool width. Fair round-robin
//!   scheduling changes *when* a batch runs, never *what* it computes.
//! * **Warm start** — tunes over a cache restored from a snapshot
//!   reproduce the cold runs' results exactly while executing zero
//!   simulations: every submission of every strategy is answered by the
//!   memo.
//! * **One pool** — an escalated tune runs both of its tiers on the
//!   tenant's lane of the shared pool and shows up in its counters.

use simtune_core::{
    collect_group_data, tune_with_fidelity_escalation, tune_with_predictor, CollectOptions,
    EscalationOptions, ScorePredictor, SimCache, SimService, SnapshotLoad, StrategySpec,
    TenantSession, TuneOptions, TuneResult,
};
use simtune_hw::TargetSpec;
use simtune_predict::PredictorKind;
use simtune_tensor::{matmul, ComputeDef};
use std::sync::Arc;

struct Workload {
    def: ComputeDef,
    spec: TargetSpec,
    predictor: ScorePredictor,
    opts: TuneOptions,
}

fn workload(dim: usize, seed: u64) -> Workload {
    let def = matmul(dim, dim, dim);
    let spec = TargetSpec::riscv_u74();
    let data = collect_group_data(
        &def,
        &spec,
        0,
        &CollectOptions {
            n_impls: 14,
            n_parallel: 4,
            seed,
            max_attempts_factor: 40,
            ..CollectOptions::default()
        },
    )
    .expect("collects");
    let mut predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", seed);
    predictor
        .train(std::slice::from_ref(&data))
        .expect("trains");
    let opts = TuneOptions {
        n_trials: 10,
        batch_size: 3,
        seed,
        ..TuneOptions::default()
    };
    Workload {
        def,
        spec,
        predictor,
        opts,
    }
}

/// Everything in a `TuneResult` that must be reproducible. Timings are
/// wall clock and deliberately excluded.
fn digest(r: &TuneResult) -> (Vec<(String, f64)>, usize, String, usize) {
    (
        r.history
            .iter()
            .map(|t| (t.description.clone(), t.score))
            .collect(),
        r.best_index,
        r.best().description.clone(),
        r.simulations,
    )
}

#[test]
fn concurrent_tenants_reproduce_their_solo_results_at_every_pool_width() {
    // The ground truth: each workload tuned alone, sequentially.
    // `ScorePredictor` is not `Sync` (it boxes a regressor), so each
    // concurrent tenant rebuilds its workload in its own thread;
    // collection and training are seed-deterministic, so the rebuilt
    // predictor scores identically to these baseline ones.
    let solo_a = {
        let a = workload(8, 11);
        digest(&tune_with_predictor(&a.def, &a.spec, &a.predictor, &a.opts).expect("a"))
    };
    let solo_b = {
        let b = workload(6, 23);
        digest(&tune_with_predictor(&b.def, &b.spec, &b.predictor, &b.opts).expect("b"))
    };
    let hierarchy = TargetSpec::riscv_u74().hierarchy;

    for n_parallel in [1usize, 2, 4] {
        let service = SimService::builder().n_parallel(n_parallel).build();
        let ta = service.open_accurate("alice", &hierarchy).expect("alice");
        let tb = service.open_accurate("bob", &hierarchy).expect("bob");

        let (ra, rb) = std::thread::scope(|s| {
            let ja = s.spawn(|| {
                let a = workload(8, 11);
                ta.tune(&a.def, &a.spec, &a.predictor, &a.opts)
                    .expect("alice")
            });
            let jb = s.spawn(|| {
                let b = workload(6, 23);
                tb.tune(&b.def, &b.spec, &b.predictor, &b.opts)
                    .expect("bob")
            });
            (
                ja.join().expect("alice thread"),
                jb.join().expect("bob thread"),
            )
        });

        assert_eq!(
            digest(&ra),
            solo_a,
            "alice diverged from her solo run at n_parallel={n_parallel}"
        );
        assert_eq!(
            digest(&rb),
            solo_b,
            "bob diverged from his solo run at n_parallel={n_parallel}"
        );

        // Per-tenant accounting is deterministic too: every submission
        // was a memo miss the first time its config appeared, and both
        // tenants did real work on the shared pool.
        let sa = ta.stats();
        let sb = tb.stats();
        assert!(sa.pool.trials > 0, "alice executed on the shared pool");
        assert!(sb.pool.trials > 0, "bob executed on the shared pool");
        assert_eq!(
            sa.memo.hits + sa.memo.misses,
            ra.simulations as u64,
            "alice's memo counters cover exactly her submissions"
        );
        assert_eq!(
            sb.memo.hits + sb.memo.misses,
            rb.simulations as u64,
            "bob's memo counters cover exactly his submissions"
        );
    }
}

#[test]
fn warm_loaded_snapshot_reproduces_the_cold_tune_with_zero_executions() {
    let w = workload(8, 42);
    let snap = std::env::temp_dir().join(format!("simtune_warm_tune_{}.json", std::process::id()));
    // Every built-in strategy, one after another on one tenant, so the
    // snapshot holds what five strategies sharing a cache simulated.
    let tune_all = |tenant: &TenantSession| -> Vec<_> {
        StrategySpec::all()
            .iter()
            .map(|strategy| {
                let opts = TuneOptions {
                    strategy: strategy.clone(),
                    ..w.opts.clone()
                };
                let r = tenant
                    .tune(&w.def, &w.spec, &w.predictor, &opts)
                    .expect("tune");
                (strategy.label(), digest(&r))
            })
            .collect()
    };

    // Cold: tune on a fresh service, snapshot the cache it filled.
    let cold_service = SimService::builder().n_parallel(2).build();
    let cold = cold_service
        .open_accurate("cold", &w.spec.hierarchy)
        .expect("cold tenant");
    let cold_results = tune_all(&cold);
    assert!(cold.stats().pool.trials > 0, "cold run must execute");
    let written = cold_service.save_snapshot(&snap).expect("snapshot");
    assert!(written > 0);

    // Warm: a brand-new service whose only knowledge is the snapshot.
    let cache = Arc::new(SimCache::new());
    assert_eq!(
        cache.load_from(&snap).expect("load"),
        SnapshotLoad::Loaded(written)
    );
    let warm_service = SimService::builder().n_parallel(2).cache(cache).build();
    let warm = warm_service
        .open_accurate("warm", &w.spec.hierarchy)
        .expect("warm tenant");
    let warm_results = tune_all(&warm);

    assert_eq!(
        warm_results, cold_results,
        "warm tunes must be bit-identical to the cold ones"
    );
    let stats = warm.stats();
    assert_eq!(stats.pool.trials, 0, "warm tunes must execute nothing");
    assert_eq!(stats.memo.misses, 0, "every submission must hit the memo");
    let simulations: usize = warm_results.iter().map(|(_, d)| d.3).sum();
    assert_eq!(stats.memo.hits, simulations as u64);
    std::fs::remove_file(&snap).ok();
}

#[test]
fn escalated_tunes_run_on_the_tenants_lane_of_the_shared_pool() {
    let w = workload(8, 17);
    let esc = EscalationOptions {
        top_k: 3,
        ..EscalationOptions::default()
    };
    let solo = tune_with_fidelity_escalation(&w.def, &w.spec, &w.predictor, &w.opts, &esc)
        .expect("stand-alone escalation");

    let service = SimService::builder().n_parallel(2).build();
    let tenant = service
        .open_accurate("esc", &w.spec.hierarchy)
        .expect("tenant");
    let before = service.pool_stats().trials;
    let out = tenant
        .tune_escalated(&w.def, &w.spec, &w.predictor, &w.opts, &esc)
        .expect("escalated tune");

    assert_eq!(
        digest(&out.result),
        digest(&solo.result),
        "the served tune must match the stand-alone one"
    );
    assert_eq!(
        (out.explore_runs, out.accurate_runs),
        (solo.explore_runs, solo.accurate_runs)
    );

    // Both tiers ran on the shared pool, under this tenant: every
    // submission is either a memo hit or one pool trial.
    let stats = tenant.stats();
    let submitted = (out.explore_runs + out.accurate_runs) as u64;
    assert!(submitted > 0 && stats.memo.misses > 0);
    assert_eq!(stats.pool.trials, submitted - stats.memo.hits);
    assert_eq!(
        service.pool_stats().trials - before,
        submitted - stats.memo.hits,
        "the shared pool executed the escalated tune"
    );
}
