//! Determinism of the persistent worker-pool pipeline: a fixed-seed
//! tuning sweep must produce a bit-identical `TuneResult` — same
//! candidates, same visit order, same scores, same best — at every
//! `n_parallel`, and with an (unbounded) memo cache attached the
//! cache's hit/miss counters must match too, because the hit/miss
//! decision is made on the submitting thread in submission order, never
//! by racing workers.
//!
//! This is the acceptance gate for the pool + pipelining tentpole: if
//! overlap or chunked work-stealing ever leaks into results or memo
//! accounting, these tests catch it.

use simtune_core::{
    collect_group_data, tune_with_predictor, CollectOptions, EngineKind, ScorePredictor, SimCache,
    SimSession, StrategySpec, TuneOptions, TuneResult,
};
use simtune_hw::TargetSpec;
use simtune_predict::PredictorKind;
use simtune_tensor::{matmul, ComputeDef, Schedule, TargetIsa};
use std::sync::Arc;

const PARALLELISMS: [usize; 4] = [1, 2, 4, 8];

fn workload() -> (ComputeDef, TargetSpec, ScorePredictor) {
    let def = matmul(8, 8, 8);
    let spec = TargetSpec::riscv_u74();
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
    .expect("collects");
    let mut predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
    predictor
        .train(std::slice::from_ref(&data))
        .expect("trains");
    (def, spec, predictor)
}

/// Everything observable about a tuning run except wall-clock timings.
fn digest(r: &TuneResult) -> (Vec<(String, u64)>, usize, String, u64, u64, usize) {
    (
        r.history
            .iter()
            .map(|rec| (rec.description.clone(), rec.score.to_bits()))
            .collect(),
        r.best_index,
        r.strategy.clone(),
        r.convergence.observed,
        r.convergence.trials_to_best,
        r.simulations,
    )
}

#[test]
fn memoized_sweep_is_bit_identical_at_every_parallelism() {
    let (def, spec, predictor) = workload();
    let mut reference = None;
    for n_parallel in PARALLELISMS {
        // A fresh cache per parallelism level: the counters themselves
        // are part of the contract being compared.
        let cache = Arc::new(SimCache::new());
        let result = tune_with_predictor(
            &def,
            &spec,
            &predictor,
            &TuneOptions {
                n_trials: 24,
                batch_size: 6,
                n_parallel,
                seed: 17,
                memo_cache: Some(cache.clone()),
                ..TuneOptions::default()
            },
        )
        .expect("tunes");
        let d = (digest(&result), cache.stats().hits, cache.stats().misses);
        match &reference {
            None => reference = Some(d),
            Some(first) => assert_eq!(
                first, &d,
                "n_parallel = {n_parallel} diverged from the serial run"
            ),
        }
    }
    // Sanity: the sweep actually produced work and counters.
    let (digest, hits, misses) = reference.unwrap();
    assert_eq!(digest.0.len(), 24);
    assert_eq!(hits + misses, 24, "every trial consults the cache once");
}

#[test]
fn label_sweeps_are_bit_identical_to_decoded_at_every_parallelism() {
    // `EngineKind::Threaded` and `EngineKind::Batch` are labels: their
    // trials replay on the decoded loop, so a sweep under either must
    // reproduce the decoded-engine sweep bit-for-bit at every
    // parallelism. This is the one place that equivalence is pinned.
    let (def, spec, predictor) = workload();
    let mut reference = None;
    for engine in [EngineKind::Decoded, EngineKind::Threaded, EngineKind::Batch] {
        for n_parallel in [1, 2, 4] {
            let result = tune_with_predictor(
                &def,
                &spec,
                &predictor,
                &TuneOptions {
                    n_trials: 24,
                    batch_size: 6,
                    n_parallel,
                    seed: 17,
                    engine,
                    ..TuneOptions::default()
                },
            )
            .expect("tunes");
            assert!(
                result.replay_nanos > 0,
                "scored trials must accumulate replay time"
            );
            let d = digest(&result);
            match &reference {
                None => reference = Some(d),
                Some(first) => assert_eq!(
                    first, &d,
                    "{engine} at n_parallel = {n_parallel} diverged from the decoded serial run"
                ),
            }
        }
    }

    // And below the tuning loop: the reports themselves, wall time aside.
    let builder = simtune_core::KernelBuilder::new(def.clone(), TargetIsa::riscv_u74());
    let schedule = Schedule::default_for(&def);
    let exes: Vec<_> = (0..3)
        .map(|i| builder.build(&schedule, &format!("t{i}")).unwrap())
        .collect();
    let reports = |engine| -> Vec<_> {
        SimSession::builder()
            .accurate(&simtune_cache::HierarchyConfig::riscv_u74())
            .engine(engine)
            .n_parallel(2)
            .build()
            .unwrap()
            .run(&exes)
            .into_iter()
            .map(|r| {
                let mut r = r.expect("simulates");
                r.stats.host_nanos = 0;
                r
            })
            .collect()
    };
    let decoded = reports(EngineKind::Decoded);
    for label in [EngineKind::Threaded, EngineKind::Batch] {
        assert_eq!(reports(label), decoded, "{label}");
    }
}

#[test]
fn guided_strategies_stay_deterministic_under_the_pool() {
    // Evolutionary search is not pipeline-safe: the loop must fall back
    // to strict sequencing and still match across thread counts.
    let (def, spec, predictor) = workload();
    for strategy in [StrategySpec::Evolutionary, StrategySpec::Annealing] {
        let mut reference = None;
        for n_parallel in PARALLELISMS {
            let result = tune_with_predictor(
                &def,
                &spec,
                &predictor,
                &TuneOptions {
                    n_trials: 16,
                    batch_size: 4,
                    n_parallel,
                    seed: 23,
                    strategy: strategy.clone(),
                    ..TuneOptions::default()
                },
            )
            .expect("tunes");
            let d = digest(&result);
            match &reference {
                None => reference = Some(d),
                Some(first) => assert_eq!(
                    first,
                    &d,
                    "{} at n_parallel = {n_parallel} diverged",
                    strategy.label()
                ),
            }
        }
    }
}

#[test]
fn duplicate_heavy_batches_keep_deterministic_memo_counts() {
    // One schedule under many names, submitted as one batch: the first
    // trial executes (miss), every other rides along as a follower
    // (hit) — at every parallelism, including the duplicates racing the
    // leader's completion.
    let def = matmul(6, 6, 6);
    let builder = simtune_core::KernelBuilder::new(def.clone(), TargetIsa::riscv_u74());
    let schedule = Schedule::default_for(&def);
    let exes: Vec<_> = (0..12)
        .map(|i| builder.build(&schedule, &format!("dup{i}")).unwrap())
        .collect();
    for n_parallel in PARALLELISMS {
        let cache = Arc::new(SimCache::new());
        let session = SimSession::builder()
            .accurate(&simtune_cache::HierarchyConfig::riscv_u74())
            .n_parallel(n_parallel)
            .memo_cache(cache.clone())
            .build()
            .unwrap();
        let reports: Vec<_> = session
            .run(&exes)
            .into_iter()
            .map(|r| r.expect("simulates"))
            .collect();
        assert_eq!(cache.stats().misses, 1, "n_parallel = {n_parallel}");
        assert_eq!(cache.stats().hits, 11, "n_parallel = {n_parallel}");
        assert_eq!(cache.len(), 1);
        for r in &reports[1..] {
            assert_eq!(r, &reports[0], "followers replay the leader's report");
        }
        let pool = session.pool_stats();
        assert_eq!(pool.trials, 1, "only the leader executed");
    }
}

#[test]
fn submit_overlaps_with_caller_work_and_preserves_order() {
    // The async path: submit two batches back to back, do "producer
    // work" in between, then drain both — results must line up with
    // submission order, and the session must keep serving afterwards.
    let def = matmul(6, 8, 5);
    let builder = simtune_core::KernelBuilder::new(def.clone(), TargetIsa::riscv_u74());
    let schedule = Schedule::default_for(&def);
    let batch_a: Vec<_> = (0..5)
        .map(|i| builder.build(&schedule, &format!("a{i}")).unwrap())
        .collect();
    let batch_b: Vec<_> = (0..5)
        .map(|i| builder.build(&schedule, &format!("b{i}")).unwrap())
        .collect();
    let session = SimSession::builder()
        .fidelity(
            &simtune_core::FidelitySpec::FastCount,
            &simtune_cache::HierarchyConfig::riscv_u74(),
        )
        .n_parallel(4)
        .build()
        .unwrap();
    let ticket_a = session.submit(batch_a.clone());
    let ticket_b = session.submit(batch_b.clone());
    let serial: Vec<_> = session.run(&batch_a);
    let a = ticket_a.wait();
    let b = ticket_b.wait();
    for ((x, y), z) in a.iter().zip(&b).zip(&serial) {
        let (x, y, z) = (
            x.as_ref().unwrap(),
            y.as_ref().unwrap(),
            z.as_ref().unwrap(),
        );
        assert_eq!(x.stats.inst_mix, y.stats.inst_mix);
        assert_eq!(x.stats.inst_mix, z.stats.inst_mix);
    }
    let stats = session.pool_stats();
    assert_eq!(stats.trials, 15);
    assert_eq!(stats.batches, 3);
    assert!(stats.busy_nanos > 0);
    assert!(stats.utilization() <= 1.0);
}
