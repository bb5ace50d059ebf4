//! End-to-end workflows: data collection, the paper's evaluation
//! protocol, and the held-out-group experiment of Figure 5.

use crate::backend::SimSession;
use crate::features::FeatureConfig;
use crate::metrics::{prediction_metrics, PredictionMetrics};
use crate::runner::{HardwareRunner, KernelBuilder};
use crate::score::{GroupData, ScorePredictor};
use crate::search::{RandomSearch, SearchStrategy, SketchSpace};
use crate::{CoreError, FidelitySpec, SimReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtune_hw::TargetSpec;
use simtune_linalg::stats::{argsort, median};
use simtune_predict::PredictorKind;
use simtune_tensor::{ComputeDef, SketchGenerator};

/// Options for collecting one group's dataset (training phase of
/// Fig. 4: run every implementation on the simulator *and* the target).
#[derive(Debug, Clone)]
pub struct CollectOptions {
    /// Implementations to gather (the paper uses 500 per group).
    pub n_impls: usize,
    /// Parallel simulator instances.
    pub n_parallel: usize,
    /// Base seed (sketch sampling, measurement noise).
    pub seed: u64,
    /// Give up after this many sketch attempts per accepted one.
    pub max_attempts_factor: usize,
    /// Simulation memo cache shared with other workflow phases; see
    /// [`crate::TuneOptions::memo_cache`]. `None` disables memoization.
    pub memo_cache: Option<std::sync::Arc<crate::SimCache>>,
}

impl Default for CollectOptions {
    fn default() -> Self {
        CollectOptions {
            n_impls: 100,
            n_parallel: 8,
            seed: 1,
            max_attempts_factor: 30,
            memo_cache: None,
        }
    }
}

/// Generates, builds, simulates and measures `n_impls` distinct
/// implementations of `def` for the target `spec`.
///
/// # Errors
///
/// Returns [`CoreError::Pipeline`] when not enough distinct valid
/// schedules can be generated, and propagates build/run errors that
/// affect every candidate.
pub fn collect_group_data(
    def: &ComputeDef,
    spec: &TargetSpec,
    group_id: usize,
    opts: &CollectOptions,
) -> Result<GroupData, CoreError> {
    let session = SimSession::builder()
        .accurate(&spec.hierarchy)
        .n_parallel(opts.n_parallel)
        .memo_cache_opt(opts.memo_cache.clone())
        .build()?;
    collect_group_data_on(def, spec, group_id, opts, &session)
}

/// [`collect_group_data`] on a caller-provided session instead of a
/// freshly built one — what a [`crate::SimService`] tenant uses, so its
/// training collection runs on its own lane of the shared pool and
/// shows in its counters. `opts.n_parallel` and `opts.memo_cache` are
/// ignored in favor of the session's pool and cache. The samples are
/// simulated on the accurate tier, with the session's limits and engine,
/// whatever backend the session itself drives: predictors are fit
/// against accurate cache statistics. Their labels come from the
/// emulated board, whose timing runs are trials on the same pool and
/// memo: the tenant's memo counters and the pool's trial count include
/// them.
///
/// # Errors
///
/// Same conditions as [`collect_group_data`].
pub fn collect_group_data_on(
    def: &ComputeDef,
    spec: &TargetSpec,
    group_id: usize,
    opts: &CollectOptions,
    session: &SimSession,
) -> Result<GroupData, CoreError> {
    let generator = SketchGenerator::new(def, spec.isa.clone());
    // Sample distinct, valid schedules through the shared RandomSearch
    // strategy — the same sampling loop that used to live inline here,
    // extracted so collection, tuning and template search all draw
    // candidates through one subsystem. Seed derivation, deduplication
    // key and rng stream are unchanged, so datasets collected before the
    // extraction reproduce bit-identically.
    let mut sampler = RandomSearch::new(
        SketchSpace::new(generator.clone()),
        opts.seed.wrapping_add(group_id as u64 * 7919),
    )
    .with_attempts_factor(opts.max_attempts_factor);
    let mut schedules = Vec::with_capacity(opts.n_impls);
    // The historical give-up bound: at most n_impls * factor raw draws
    // in total, however many of them deduplication or schedule
    // validation rejects (checked between batches, so one in-flight
    // batch may overshoot slightly).
    let max_attempts = opts.n_impls * opts.max_attempts_factor;
    while schedules.len() < opts.n_impls && sampler.attempts() < max_attempts {
        let want = opts.n_impls - schedules.len();
        let batch = sampler.propose(&[], want);
        if batch.is_empty() {
            break; // space exhausted or per-batch attempt budget spent
        }
        for params in batch {
            let schedule = generator.schedule(&params);
            if schedule.apply(def, &spec.isa).is_ok() {
                schedules.push((format!("{params:?}"), schedule));
            }
        }
    }
    if schedules.len() < opts.n_impls.min(8) {
        return Err(CoreError::Pipeline(format!(
            "only {} valid schedules after {} attempts",
            schedules.len(),
            sampler.attempts()
        )));
    }

    // Build, simulate and measure, pipelined: each chunk of executables
    // is submitted to the session's persistent pool twice — once to the
    // accurate tier, once to the emulated board — so chunk k simulates
    // and measures in parallel (Contribution I) while chunk k+1 is still
    // being built on this thread. Both go through the session's memo,
    // lane and counters; the board's noise protocol is a post-pass, and
    // candidate i is measured under noise index i, so running the board
    // on the pool changes no number.
    let accurate = FidelitySpec::Accurate.build(&spec.hierarchy)?;
    let sim = session.on_backend(accurate, session.engine());
    let hw = HardwareRunner {
        noise_seed: opts.seed ^ 0xAB5E,
        ..HardwareRunner::new(spec.clone())
    };
    let board = session.on_backend(hw.board(), session.engine());
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let chunk_len = (sim.n_parallel() * 4).max(8);
    let mut descriptions = Vec::new();
    let mut tickets = Vec::new();
    let mut chunk = Vec::new();
    let mut submit = |chunk: Vec<_>| tickets.push((sim.submit(chunk.clone()), board.submit(chunk)));
    for (i, (desc, schedule)) in schedules.iter().enumerate() {
        match builder.build(schedule, &format!("{}g{group_id}i{i}", def.name)) {
            Ok(e) => {
                chunk.push(e);
                descriptions.push(desc.clone());
            }
            Err(_) => continue, // failed builds are dropped, like in TVM
        }
        if chunk.len() >= chunk_len {
            submit(std::mem::take(&mut chunk));
        }
    }
    if !chunk.is_empty() {
        submit(chunk);
    }
    let (mut sim_results, mut board_reports) = (Vec::new(), Vec::new());
    for (sim_ticket, board_ticket) in tickets {
        sim_results.extend(sim_ticket.wait());
        board_reports.extend(board_ticket.wait());
    }
    let measurements = board_reports
        .into_iter()
        .enumerate()
        .map(|(i, report)| hw.measurement(report, i));

    let mut data = GroupData {
        group_id,
        ..GroupData::default()
    };
    for ((sim_r, hw_r), desc) in sim_results.into_iter().zip(measurements).zip(descriptions) {
        let (Ok(SimReport { stats, .. }), Ok(m)) = (sim_r, hw_r) else {
            continue;
        };
        data.sim_seconds.push(stats.host_seconds());
        data.stats.push(stats);
        data.t_ref.push(m.t_ref);
        data.base_seconds.push(m.base_seconds);
        data.descriptions.push(desc);
    }
    if data.is_empty() {
        return Err(CoreError::Pipeline("no implementation survived".into()));
    }
    Ok(data)
}

/// Deterministic train/test split: returns `(train, test)` index sets
/// with exactly `test_count` test samples.
///
/// # Panics
///
/// Panics if `test_count >= n`.
pub fn split_train_test(n: usize, test_count: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(test_count < n, "test split must leave training data");
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        idx.swap(i, rng.gen_range(0..=i));
    }
    let test = idx[..test_count].to_vec();
    let train = idx[test_count..].to_vec();
    (train, test)
}

/// Result of the paper's evaluation protocol for one predictor on one
/// architecture: per-group metrics, median over the random splits.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Which predictor was evaluated.
    pub kind: PredictorKind,
    /// Median metrics per group, in group order.
    pub per_group: Vec<PredictionMetrics>,
}

impl EvalReport {
    /// Mean `E_top1` across groups (used in the paper's prose).
    pub fn mean_e_top1(&self) -> f64 {
        self.per_group.iter().map(|m| m.e_top1).sum::<f64>() / self.per_group.len() as f64
    }

    /// Maximum `R_top1` across groups.
    pub fn max_r_top1(&self) -> f64 {
        self.per_group
            .iter()
            .map(|m| m.r_top1)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Runs the Tables III–V protocol: `rounds` random train/test splits;
/// each round trains one predictor per architecture on the training
/// parts of *all* groups and scores the test part of each group; the
/// reported metric per group is the median over rounds.
///
/// # Errors
///
/// Propagates training failures.
#[allow(clippy::too_many_arguments)] // mirrors the paper's protocol knobs 1:1
pub fn evaluate_predictor(
    kind: PredictorKind,
    groups: &[GroupData],
    arch: &str,
    kernel_type: &str,
    test_count: usize,
    rounds: usize,
    seed: u64,
    feature_config: FeatureConfig,
) -> Result<EvalReport, CoreError> {
    let mut per_round: Vec<Vec<PredictionMetrics>> = vec![Vec::new(); groups.len()];
    for round in 0..rounds {
        let round_seed = seed.wrapping_add(round as u64 * 0x1009);
        let splits: Vec<(Vec<usize>, Vec<usize>)> = groups
            .iter()
            .map(|g| {
                split_train_test(
                    g.len(),
                    test_count.min(g.len().saturating_sub(1)).max(1),
                    round_seed.wrapping_add(g.group_id as u64),
                )
            })
            .collect();
        let train_groups: Vec<GroupData> = groups
            .iter()
            .zip(&splits)
            .map(|(g, (train, _))| g.subset(train))
            .collect();
        let mut predictor = ScorePredictor::new(kind, arch, kernel_type, round_seed)
            .with_feature_config(feature_config);
        predictor.train(&train_groups)?;
        for ((g, (_, test)), slot) in groups.iter().zip(&splits).zip(per_round.iter_mut()) {
            let test_data = g.subset(test);
            let scores = predictor.score_group(&test_data.stats)?;
            slot.push(prediction_metrics(&test_data.t_ref, &scores));
        }
    }
    let per_group = per_round
        .into_iter()
        .map(|ms| PredictionMetrics {
            e_top1: median(&ms.iter().map(|m| m.e_top1).collect::<Vec<_>>()),
            q_low: median(&ms.iter().map(|m| m.q_low).collect::<Vec<_>>()),
            q_high: median(&ms.iter().map(|m| m.q_high).collect::<Vec<_>>()),
            r_top1: median(&ms.iter().map(|m| m.r_top1).collect::<Vec<_>>()),
        })
        .collect();
    Ok(EvalReport { kind, per_group })
}

/// One data series of Figure 5: reference times sorted ascending and
/// the same times ordered by predicted score.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedPrediction {
    /// `t_ref` sorted ascending (the black reference line).
    pub sorted_ref: Vec<f64>,
    /// `t_ref` ordered by ascending predicted score (`t_pred` series).
    pub prediction_ordered: Vec<f64>,
}

/// The Figure 5 experiment: train a predictor on `train_groups`
/// (optionally *excluding* the evaluation group, Section IV-A) and
/// produce the sorted-prediction curves for `eval_group`'s test subset.
///
/// # Errors
///
/// Propagates training failures.
pub fn holdout_group_curves(
    kind: PredictorKind,
    train_groups: &[GroupData],
    eval_group: &GroupData,
    eval_indices: &[usize],
    arch: &str,
    kernel_type: &str,
    seed: u64,
) -> Result<SortedPrediction, CoreError> {
    let mut predictor = ScorePredictor::new(kind, arch, kernel_type, seed);
    predictor.train(train_groups)?;
    let test = eval_group.subset(eval_indices);
    let scores = predictor.score_group(&test.stats)?;
    let mut sorted_ref = test.t_ref.clone();
    sorted_ref.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let order = argsort(&scores);
    let prediction_ordered = order.iter().map(|&i| test.t_ref[i]).collect();
    Ok(SortedPrediction {
        sorted_ref,
        prediction_ordered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtune_tensor::{matmul, Conv2dShape};
    use std::collections::HashSet;

    fn tiny_conv_def() -> ComputeDef {
        simtune_tensor::conv2d_bias_relu(&Conv2dShape {
            n: 1,
            h: 6,
            w: 8,
            co: 4,
            ci: 3,
            kh: 3,
            kw: 3,
            stride: (1, 1),
            pad: (1, 1),
        })
    }

    fn tiny_opts(n: usize) -> CollectOptions {
        CollectOptions {
            n_impls: n,
            n_parallel: 4,
            seed: 11,
            max_attempts_factor: 40,
            ..CollectOptions::default()
        }
    }

    #[test]
    fn collect_produces_consistent_group_data() {
        let def = tiny_conv_def();
        let spec = TargetSpec::riscv_u74();
        let data = collect_group_data(&def, &spec, 0, &tiny_opts(12)).unwrap();
        assert!(data.len() >= 8, "collected {}", data.len());
        assert_eq!(data.stats.len(), data.t_ref.len());
        assert_eq!(data.stats.len(), data.sim_seconds.len());
        assert!(data.t_ref.iter().all(|&t| t > 0.0));
        assert!(data.sim_seconds.iter().all(|&t| t > 0.0));
        // Implementations differ: instruction totals are not all equal.
        let totals: HashSet<u64> = data.stats.iter().map(|s| s.inst_mix.total()).collect();
        assert!(totals.len() > 1);
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let (train, test) = split_train_test(50, 10, 3);
        assert_eq!(train.len(), 40);
        assert_eq!(test.len(), 10);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
        // Deterministic per seed.
        assert_eq!(split_train_test(50, 10, 3), (train, test));
    }

    #[test]
    fn evaluate_predictor_end_to_end_small() {
        let def = matmul(8, 8, 8);
        let spec = TargetSpec::riscv_u74();
        let data = collect_group_data(&def, &spec, 0, &tiny_opts(20)).unwrap();
        let report = evaluate_predictor(
            PredictorKind::LinReg,
            std::slice::from_ref(&data),
            "riscv",
            "matmul",
            5,
            3,
            7,
            FeatureConfig::default(),
        )
        .unwrap();
        assert_eq!(report.per_group.len(), 1);
        let m = &report.per_group[0];
        assert!(m.r_top1 > 0.0 && m.r_top1 <= 100.0);
        assert!(m.e_top1 >= 0.0);
    }

    #[test]
    fn holdout_curves_have_matching_lengths() {
        let def = matmul(8, 8, 8);
        let spec = TargetSpec::riscv_u74();
        let data = collect_group_data(&def, &spec, 0, &tiny_opts(16)).unwrap();
        let (_, test) = split_train_test(data.len(), 5, 1);
        let curves = holdout_group_curves(
            PredictorKind::LinReg,
            std::slice::from_ref(&data),
            &data,
            &test,
            "riscv",
            "matmul",
            2,
        )
        .unwrap();
        assert_eq!(curves.sorted_ref.len(), 5);
        assert_eq!(curves.prediction_ordered.len(), 5);
        // sorted_ref is ascending.
        for w in curves.sorted_ref.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Both are permutations of the same multiset.
        let mut a = curves.sorted_ref.clone();
        let mut b = curves.prediction_ordered.clone();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    }
}
