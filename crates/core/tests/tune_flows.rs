//! Pins the four tuning fronts across refactors of the loop they share.
//!
//! The determinism suites compare a run with itself at another
//! `n_parallel`, so a change that moves every flow the same way passes
//! them. This file compares against *committed* values instead:
//!
//! * [`flows_match_their_pinned_outcomes`] — five strategies × four
//!   fronts on one fixed workload; the discrete outcome of every cell
//!   (visit order, winner, run counts, convergence counters) is checked
//!   against [`PINNED`]. Each cell also prints one
//!   `tune_flows: <flow> <strategy> <fnv>` line hashing descriptions
//!   *and* score bits; run with `--nocapture` on two trees and diff the
//!   output to compare scores bit for bit (they are not committed, so a
//!   libm difference between hosts cannot fail CI).
//! * [`failed_builds_trail_their_batch`] — every front driven through
//!   batches that contain an unbuildable candidate: built candidates
//!   come first in proposal order, failed ones follow with `INFINITY`,
//!   only built candidates count as simulations, and the strategy's
//!   `observe` sees the same order.

use simtune_core::{
    collect_group_data, tune_on_hardware, tune_template_space, tune_with_fidelity_escalation,
    tune_with_predictor, CollectOptions, ConvergenceStats, EscalationOptions, Evaluation,
    HardwareRunner, KernelBuilder, RandomSearch, ScorePredictor, SearchStrategy, SketchSpace,
    StrategySpec, TuneOptions, TuneResult,
};
use simtune_hw::TargetSpec;
use simtune_predict::PredictorKind;
use simtune_tensor::{matmul, ComputeDef, ConfigSpace, Schedule, SketchParams};
use std::sync::{Arc, Mutex};

const FLOWS: [&str; 4] = ["predictor", "top_k", "hardware", "template"];

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

fn options(strategy: StrategySpec) -> TuneOptions {
    TuneOptions {
        n_trials: 12,
        batch_size: 4,
        n_parallel: 2,
        seed: 9,
        strategy,
        ..TuneOptions::default()
    }
}

fn top_k() -> EscalationOptions {
    EscalationOptions {
        top_k: 3,
        ..EscalationOptions::default()
    }
}

/// One front's result plus the escalation run counts (`0, 0` for the
/// fronts that do not escalate).
struct Outcome {
    result: TuneResult,
    explore_runs: usize,
    accurate_runs: usize,
}

fn run_flow(
    flow: &str,
    def: &ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
) -> Outcome {
    let plain = |result: TuneResult| Outcome {
        result,
        explore_runs: 0,
        accurate_runs: 0,
    };
    let escalated = |esc: EscalationOptions| {
        let out = tune_with_fidelity_escalation(def, spec, predictor, opts, &esc)
            .expect("escalated tune");
        Outcome {
            result: out.result,
            explore_runs: out.explore_runs,
            accurate_runs: out.accurate_runs,
        }
    };
    match flow {
        "predictor" => plain(tune_with_predictor(def, spec, predictor, opts).expect("tunes")),
        "top_k" => escalated(top_k()),
        "hardware" => plain(tune_on_hardware(def, spec, opts).expect("tunes")),
        "template" => {
            let space = ConfigSpace::matmul(def, &spec.isa);
            plain(tune_template_space(def, spec, &space, predictor, opts).expect("tunes"))
        }
        other => unreachable!("unknown flow {other}"),
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the description sequence (`with_scores`: and every
/// record's score bits).
fn history_fnv(result: &TuneResult, with_scores: bool) -> u64 {
    let mut hash = FNV_OFFSET;
    for record in &result.history {
        fnv1a(&mut hash, record.description.as_bytes());
        fnv1a(&mut hash, &[0xff]);
        if with_scores {
            fnv1a(&mut hash, &record.score.to_bits().to_le_bytes());
        }
    }
    hash
}

/// The discrete outcome of one cell, captured on the tree before the
/// four loops became one driver: `(flow, strategy, FNV-1a of the
/// description sequence, best_index, simulations, explore_runs,
/// accurate_runs, convergence.proposed, convergence.observed)`.
type Pin = (
    &'static str,
    &'static str,
    u64,
    usize,
    usize,
    usize,
    usize,
    u64,
    u64,
);

#[rustfmt::skip]
const PINNED: [Pin; 20] = [
    ("predictor", "random", 0x91ad_0270_83d2_6b47, 11, 12, 0, 0, 12, 12),
    ("predictor", "grid", 0x1e3f_edf3_3a73_3ea4, 11, 12, 0, 0, 12, 12),
    ("predictor", "hill_climb", 0x89c1_6b2f_2e83_2310, 11, 12, 0, 0, 12, 12),
    ("predictor", "evolutionary", 0x7cfe_b280_a2ef_e63b, 4, 12, 0, 0, 12, 12),
    ("predictor", "annealing", 0x5833_29c3_8026_4546, 9, 12, 0, 0, 12, 12),
    ("top_k", "random", 0x91ad_0270_83d2_6b47, 11, 15, 12, 3, 12, 12),
    ("top_k", "grid", 0x1e3f_edf3_3a73_3ea4, 3, 15, 12, 3, 12, 12),
    ("top_k", "hill_climb", 0xc362_b57c_de79_ab80, 5, 15, 12, 3, 12, 12),
    ("top_k", "evolutionary", 0xaefb_a9cf_ac8e_3573, 5, 15, 12, 3, 12, 12),
    ("top_k", "annealing", 0x5833_29c3_8026_4546, 10, 15, 12, 3, 12, 12),
    ("hardware", "random", 0x91ad_0270_83d2_6b47, 0, 12, 0, 0, 12, 12),
    ("hardware", "grid", 0x1e3f_edf3_3a73_3ea4, 0, 12, 0, 0, 12, 12),
    ("hardware", "hill_climb", 0x195d_f468_4a2a_568d, 0, 12, 0, 0, 12, 12),
    ("hardware", "evolutionary", 0xc092_dfb9_222d_94b5, 0, 12, 0, 0, 12, 12),
    ("hardware", "annealing", 0x5833_29c3_8026_4546, 0, 12, 0, 0, 12, 12),
    ("template", "random", 0xf63d_902f_2605_5870, 6, 12, 0, 0, 12, 12),
    ("template", "grid", 0x8d74_555c_b131_082d, 11, 12, 0, 0, 12, 12),
    ("template", "hill_climb", 0x8ded_8d09_a096_c295, 8, 12, 0, 0, 12, 12),
    ("template", "evolutionary", 0x4395_e5d6_2350_f33b, 5, 12, 0, 0, 12, 12),
    ("template", "annealing", 0xbab0_c329_dced_9d95, 2, 12, 0, 0, 12, 12),
];

#[test]
fn flows_match_their_pinned_outcomes() {
    let (def, spec) = (matmul(8, 8, 8), TargetSpec::riscv_u74());
    let predictor = trained_predictor(&def, &spec);
    let mut cells = Vec::new();
    for flow in FLOWS {
        for strategy in StrategySpec::all() {
            let label = strategy.label();
            let out = run_flow(flow, &def, &spec, &predictor, &options(strategy));
            let r = &out.result;
            assert_eq!(r.strategy, label);
            println!("tune_flows: {flow} {label} {:016x}", history_fnv(r, true));
            cells.push((
                flow,
                label,
                history_fnv(r, false),
                r.best_index,
                r.simulations,
                out.explore_runs,
                out.accurate_runs,
                r.convergence.proposed,
                r.convergence.observed,
            ));
        }
    }
    for (got, want) in cells.iter().zip(&PINNED) {
        assert_eq!(got, want, "{} / {} moved", got.0, got.1);
    }
    assert_eq!(cells.len(), PINNED.len());
}

/// What the sabotaging strategy saw, shared with the test body.
#[derive(Default)]
struct Log {
    proposed: Vec<Vec<String>>,
    observed: Vec<(String, u64)>,
}

/// Random search whose every batch carries one unbuildable genotype in
/// slot 1 (a spatial tile that does not divide its extent), so "kept
/// then failed" differs from proposal order.
struct Saboteur {
    inner: RandomSearch<SketchSpace>,
    log: Arc<Mutex<Log>>,
}

/// Non-divisors of 8, one per batch so descriptions stay distinct.
const BAD_TILES: [usize; 4] = [3, 5, 6, 7];

impl SearchStrategy<SketchParams> for Saboteur {
    fn propose(&mut self, history: &[Evaluation<SketchParams>], n: usize) -> Vec<SketchParams> {
        let mut batch = self.inner.propose(history, n);
        let mut log = self.log.lock().expect("log");
        if batch.len() > 1 {
            batch[1].spatial_tiles[0] = BAD_TILES[log.proposed.len()];
        }
        log.proposed
            .push(batch.iter().map(|p| format!("{p:?}")).collect());
        batch
    }

    fn observe(&mut self, results: &[Evaluation<SketchParams>]) {
        self.inner.observe(results);
        let mut log = self.log.lock().expect("log");
        for r in results {
            log.observed
                .push((format!("{:?}", r.point), r.score.to_bits()));
        }
    }

    fn name(&self) -> &'static str {
        "saboteur"
    }

    fn convergence(&self) -> ConvergenceStats {
        self.inner.convergence()
    }

    // Proposals never depend on scores, so the overlapping fronts stage
    // batch k+1 while batch k simulates — the order must not care.
    fn pipeline_safe(&self) -> bool {
        true
    }
}

fn saboteur(log: &Arc<Mutex<Log>>) -> StrategySpec {
    let log = Arc::clone(log);
    StrategySpec::Custom(Arc::new(move |space, seed| {
        Box::new(Saboteur {
            inner: RandomSearch::new(space, seed),
            log: Arc::clone(&log),
        })
    }))
}

/// Each proposed batch with its unbuildable members moved to the end.
fn kept_then_failed<T: Clone>(batches: &[Vec<T>], builds: impl Fn(&T) -> bool) -> Vec<T> {
    let mut out = Vec::new();
    for batch in batches {
        out.extend(batch.iter().filter(|c| builds(c)).cloned());
        out.extend(batch.iter().filter(|c| !builds(c)).cloned());
    }
    out
}

#[test]
fn failed_builds_trail_their_batch() {
    let (def, spec) = (matmul(8, 8, 8), TargetSpec::riscv_u74());
    let predictor = trained_predictor(&def, &spec);
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());

    // The three sketch fronts, through the sabotaging custom strategy.
    for flow in ["predictor", "top_k", "hardware"] {
        let log = Arc::new(Mutex::new(Log::default()));
        let opts = options(saboteur(&log));
        let out = run_flow(flow, &def, &spec, &predictor, &opts);
        let r = &out.result;
        let log = log.lock().expect("log");

        assert_eq!(r.history.len(), opts.n_trials, "{flow}: short history");
        let n_failed = log.proposed.len();
        assert_eq!(n_failed, 3, "{flow}: one sabotaged slot per batch");
        let built = opts.n_trials - n_failed;
        let is_bad = |d: &str| log.proposed.iter().any(|b| b[1] == d);
        let want = kept_then_failed(&log.proposed, |d| !is_bad(d));
        let got: Vec<&str> = r.history.iter().map(|t| t.description.as_str()).collect();
        assert_eq!(got, want, "{flow}: kept-then-failed record order");
        for (i, record) in r.history.iter().enumerate() {
            if is_bad(&record.description) {
                assert_eq!(record.score, f64::INFINITY, "{flow}: record {i}");
                assert_eq!(record.schedule, Schedule::default(), "{flow}: record {i}");
            } else {
                assert!(record.score.is_finite(), "{flow}: record {i}");
            }
        }

        // Only built candidates reach the evaluator.
        match flow {
            "predictor" | "hardware" => assert_eq!(r.simulations, built, "{flow}"),
            _ => {
                assert_eq!(out.explore_runs, built, "{flow}: explore runs");
                assert_eq!(r.simulations, built + out.accurate_runs, "{flow}");
            }
        }

        // `observe` saw the records in history order; the escalation
        // front re-scores finalists afterwards, so only the fronts
        // without a post-pass compare score bits too.
        let seen: Vec<&str> = log.observed.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(seen, got, "{flow}: observe order");
        assert_eq!(r.convergence.observed, opts.n_trials as u64, "{flow}");
        if matches!(flow, "predictor" | "hardware") {
            for (record, (_, bits)) in r.history.iter().zip(&log.observed) {
                assert_eq!(record.score.to_bits(), *bits, "{flow}: observed score");
            }
        }

        // The hardware front draws record i's measurement noise from
        // index i — its position in the history, not in the proposal.
        if flow == "hardware" {
            let hw = HardwareRunner {
                noise_seed: opts.seed ^ 0x7A11,
                ..HardwareRunner::new(spec.clone())
            };
            for (i, record) in r.history.iter().enumerate() {
                let Ok(exe) = builder.build(&record.schedule, "again") else {
                    continue;
                };
                let again = hw.run_one(&exe, i).expect("measures").t_ref;
                assert_eq!(
                    record.score.to_bits(),
                    again.to_bits(),
                    "hardware: record {i} measured under noise index {i}"
                );
            }
        }
    }

    // The template front: on a vector target a quarter of the matmul
    // template (vectorize on, tile_j below the lane count) is invalid.
    let spec = TargetSpec::arm_cortex_a72();
    let space = ConfigSpace::matmul(&def, &spec.isa);
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let opts = options(StrategySpec::Random);
    let builds = |cfg: &[usize]| {
        space
            .schedule(&def, cfg)
            .is_ok_and(|s| builder.build(&s, "probe").is_ok())
    };
    // Random proposals never depend on scores: replay them stand-alone.
    let mut replay = opts
        .strategy
        .build_template(space.clone(), opts.seed)
        .expect("template strategy");
    let batches: Vec<Vec<Vec<usize>>> = (0..3).map(|_| replay.propose(&[], 4)).collect();
    let want = kept_then_failed(&batches, |c| builds(c));
    let n_failed = want.iter().filter(|c| !builds(c)).count();
    assert!(n_failed > 0, "the seed must hit an invalid config");
    assert!(
        batches.iter().any(|b| {
            let first_bad = b.iter().position(|c| !builds(c));
            first_bad.is_some_and(|i| b[i..].iter().any(|c| builds(c)))
        }),
        "some failed config must precede a built one in its proposal batch"
    );

    let r = tune_template_space(&def, &spec, &space, &predictor, &opts).expect("tunes");
    assert_eq!(r.history.len(), opts.n_trials);
    assert_eq!(r.simulations, opts.n_trials - n_failed);
    assert_eq!(r.convergence.observed, opts.n_trials as u64);
    for (record, cfg) in r.history.iter().zip(&want) {
        assert_eq!(record.description, format!("config {cfg:?}"));
        assert_eq!(record.score.is_finite(), builds(cfg), "{cfg:?}");
    }
}
