//! Evaluation metrics of the paper (Section IV-B), the parallel-
//! simulation speedup bound (Equation 4), and operational counters of
//! the simulation memo cache, the persistent worker pool and the
//! pipelined tuning loop.
//!
//! The prediction metrics operate on a set of implementations of one
//! group with measured reference run times `t_ref` and predicted scores;
//! lower is better for every metric.

use simtune_linalg::stats::argsort;

/// Hit/miss counters of a [`crate::SimCache`], the cross-loop simulation
/// memoization layer: every hit is one backend execution the session
/// skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCacheStats {
    /// Lookups answered from the cache (backend executions avoided).
    pub hits: u64,
    /// Lookups that fell through to a backend execution.
    pub misses: u64,
}

impl MemoCacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Counters of a [`crate::SimCache`]'s disk-persistence path, surfaced
/// through [`crate::SimCache::snapshot_stats`]. A rejected snapshot is
/// not an error: the cache degrades to a cold start and the rejection is
/// recorded here (and logged), so a corrupt file on disk can never keep
/// a service from starting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Entries restored from snapshots over the cache's lifetime.
    pub loaded_entries: u64,
    /// Snapshots refused (corrupt, truncated or version-mismatched),
    /// each degrading to a cold start instead of failing the caller.
    pub rejected_snapshots: u64,
    /// Snapshots successfully written to disk.
    pub saved_snapshots: u64,
}

/// Per-tenant view of a multi-tenant [`crate::SimService`]: one tenant's
/// share of the shared memo cache and worker pool, surfaced through
/// [`crate::TenantSession::stats`] and [`crate::SimService::tenant_stats`].
///
/// `memo` counts only this tenant's submissions (the shared cache's own
/// [`MemoCacheStats`] aggregates all tenants), and `pool.trials` /
/// `pool.busy_nanos` count only worker time spent on this tenant's
/// batches. `pool.workers` and `pool.wall_nanos` describe the shared
/// pool, so `pool.utilization()` reads as "fraction of the whole pool's
/// capacity this tenant consumed".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// The tenant's registered name.
    pub tenant: String,
    /// This tenant's memo hits/misses on the shared cache.
    pub memo: MemoCacheStats,
    /// This tenant's share of the shared pool's execution counters.
    pub pool: WorkerPoolStats,
}

/// Lifetime execution counters of a [`crate::SimSession`]'s persistent
/// worker pool, surfaced through [`crate::SimSession::pool_stats`].
///
/// `busy_nanos` accumulates wall time workers spent *executing* trials;
/// `wall_nanos` is the pool's lifetime. Their ratio (normalized by the
/// worker count) is the pool's utilization — low utilization on a busy
/// sweep means the producer (propose/build/score) is the bottleneck,
/// not simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerPoolStats {
    /// Worker threads the pool spawned (the session's `n_parallel`).
    pub workers: usize,
    /// Batches that reached the execution queue (all-hit batches are
    /// resolved at submission and never enqueue).
    pub batches: u64,
    /// Trials executed by workers (memo hits and followers excluded).
    pub trials: u64,
    /// Cumulative wall time workers spent executing trials.
    pub busy_nanos: u64,
    /// Wall time since the pool was spawned.
    pub wall_nanos: u64,
}

impl WorkerPoolStats {
    /// Fraction of the pool's capacity spent executing trials, in
    /// `[0, 1]` (0 when nothing ran yet).
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall_nanos.saturating_mul(self.workers as u64);
        if capacity == 0 {
            0.0
        } else {
            (self.busy_nanos as f64 / capacity as f64).min(1.0)
        }
    }
}

/// Producer-side wall time of one tuning run, split by pipeline stage
/// and surfaced on [`crate::TuneResult::timings`].
///
/// With a pipeline-safe strategy the loop lowers batch *k+1* while
/// batch *k* simulates, so `sim_nanos` — the time the producer spent
/// submitting and actually *blocked* on simulation tickets — shrinks as
/// overlap improves; the
/// simulation cost hidden behind the build stage never appears here.
/// Compare with [`WorkerPoolStats::busy_nanos`] to see how much
/// simulation ran in the shadow of other stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Time spent in [`crate::SearchStrategy::propose`].
    pub propose_nanos: u64,
    /// Time spent lowering/building candidates into executables.
    pub build_nanos: u64,
    /// Time the producer spent submitting to, and blocked on, the
    /// simulator: memo planning, fingerprints and enqueueing at submit,
    /// then the wait for results.
    pub sim_nanos: u64,
    /// Time spent scoring results and feeding strategies back.
    pub score_nanos: u64,
}

impl StageTimings {
    /// Sum over all stages — the producer-side critical path.
    pub fn total_nanos(&self) -> u64 {
        self.propose_nanos + self.build_nanos + self.sim_nanos + self.score_nanos
    }
}

/// Convergence counters of one [`crate::SearchStrategy`] run, surfaced
/// on [`crate::TuneResult::convergence`].
///
/// The counters describe how the strategy spent its budget: how many
/// candidates it handed out, how often an observation improved the best
/// score, and how early the final best was found. A strategy that
/// reaches the same `best_score` with a smaller `trials_to_best`
/// converged faster at equal fidelity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceStats {
    /// Candidates the strategy proposed.
    pub proposed: u64,
    /// Evaluations fed back through `observe`.
    pub observed: u64,
    /// Observations that improved the best score so far.
    pub improvements: u64,
    /// Best (lowest) score observed; `INFINITY` before any observation.
    pub best_score: f64,
    /// 1-based observation index at which the current best arrived
    /// (0 before any observation).
    pub trials_to_best: u64,
    /// Random restarts taken (hill climbing; 0 for other strategies).
    pub restarts: u64,
}

impl Default for ConvergenceStats {
    fn default() -> Self {
        ConvergenceStats {
            proposed: 0,
            observed: 0,
            improvements: 0,
            best_score: f64::INFINITY,
            trials_to_best: 0,
            restarts: 0,
        }
    }
}

/// The four per-group prediction metrics of Tables III–V.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionMetrics {
    /// Eq. 5: relative error (%) between the truly fastest measured time
    /// and the measured time of the top-ranked prediction.
    pub e_top1: f64,
    /// Eq. 7 over the faster half of the prediction-ordered sequence (%).
    pub q_low: f64,
    /// Eq. 7 over the slower half (%).
    pub q_high: f64,
    /// Eq. 6: relative rank (%) the predictor assigned to the truly
    /// fastest implementation.
    pub r_top1: f64,
}

/// Computes all Table III–V metrics from measured times and predicted
/// scores (parallel arrays over the same implementations).
///
/// # Panics
///
/// Panics if the slices are empty or differ in length.
pub fn prediction_metrics(t_ref: &[f64], scores: &[f64]) -> PredictionMetrics {
    assert_eq!(t_ref.len(), scores.len(), "metrics: length mismatch");
    assert!(!t_ref.is_empty(), "metrics of empty set");
    let order = argsort(scores); // predictor's ranking, best first
    let ordered_times: Vec<f64> = order.iter().map(|&i| t_ref[i]).collect();
    PredictionMetrics {
        e_top1: e_top1(t_ref, &ordered_times),
        q_low: quality_score(&ordered_times[..ordered_times.len() / 2 + 1]),
        q_high: quality_score(&ordered_times[ordered_times.len() / 2..]),
        r_top1: r_top1(t_ref, &order),
    }
}

/// Eq. 5: `E_top1 = |1 − t_ref[0] / t_pred[0]| · 100 %` where `t_ref[0]`
/// is the fastest measured time and `t_pred[0]` the measured time of the
/// implementation the predictor ranked first.
///
/// # Panics
///
/// Panics if either slice is empty.
pub fn e_top1(t_ref: &[f64], prediction_ordered_times: &[f64]) -> f64 {
    let best_measured = t_ref.iter().cloned().fold(f64::INFINITY, f64::min);
    let top_predicted = prediction_ordered_times[0];
    (1.0 - best_measured / top_predicted).abs() * 100.0
}

/// Eq. 6: `R_top1 = 100 % / |t_ref| · (argmin_x(t_pred[x] == t_ref[0]) + 1)`
/// — the 1-based position of the truly fastest implementation within the
/// predictor's ranking, as a percentage of the set size.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the indices of `t_ref`.
pub fn r_top1(t_ref: &[f64], order: &[usize]) -> f64 {
    assert_eq!(t_ref.len(), order.len(), "order must cover t_ref");
    let best = simtune_linalg::stats::argmin(t_ref);
    let pos = order
        .iter()
        .position(|&i| i == best)
        .expect("order must contain the best index");
    100.0 * (pos + 1) as f64 / t_ref.len() as f64
}

/// Eq. 7: the sorting-quality score
/// `Q = 100 % / |t| · Σ_i (t[i] − min(t[i], t[i+1])) / t[i]`
/// over a prediction-ordered sequence of measured times. Zero for a
/// perfectly monotone ordering; each inversion contributes its relative
/// magnitude.
///
/// # Panics
///
/// Panics if `prediction_ordered_times` is empty.
pub fn quality_score(prediction_ordered_times: &[f64]) -> f64 {
    let t = prediction_ordered_times;
    assert!(!t.is_empty(), "quality score of empty sequence");
    let mut sum = 0.0;
    for i in 0..t.len() - 1 {
        sum += (t[i] - t[i].min(t[i + 1])) / t[i];
    }
    100.0 * sum / t.len() as f64
}

/// Eq. 4: the number of parallel simulators needed to match native
/// benchmarking throughput,
/// `K = ⌈t_simulator / ((t_cooldown + t_ref) · N_exe)⌉`.
///
/// # Panics
///
/// Panics on non-positive native benchmarking time.
pub fn parallel_speedup_k(t_simulator: f64, t_ref: f64, t_cooldown: f64, n_exe: usize) -> u64 {
    let native = (t_cooldown + t_ref) * n_exe as f64;
    assert!(native > 0.0, "native benchmark time must be positive");
    (t_simulator / native).ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_zero_error() {
        let t = vec![1.0, 2.0, 3.0, 4.0];
        let scores = vec![0.1, 0.2, 0.3, 0.4]; // same order
        let m = prediction_metrics(&t, &scores);
        assert_eq!(m.e_top1, 0.0);
        assert_eq!(m.q_low, 0.0);
        assert_eq!(m.q_high, 0.0);
        assert_eq!(m.r_top1, 25.0, "best ranked first out of 4 = 25 %");
    }

    #[test]
    fn e_top1_measures_relative_miss() {
        // Predictor ranks the 1.2 s sample first; the true best is 1.0 s.
        let t = vec![1.0, 1.2, 2.0];
        let scores = vec![0.5, 0.1, 0.9];
        let m = prediction_metrics(&t, &scores);
        assert!((m.e_top1 - (1.0 - 1.0 / 1.2f64).abs() * 100.0).abs() < 1e-9);
        // True best sits at position 2 of 3.
        assert!((m.r_top1 - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn quality_score_counts_inversions_proportionally() {
        // Ordered: zero.
        assert_eq!(quality_score(&[1.0, 2.0, 3.0]), 0.0);
        // One inversion of relative size 0.5 among 2 entries.
        let q = quality_score(&[2.0, 1.0]);
        assert!((q - 100.0 * 0.5 / 2.0).abs() < 1e-9);
        // Reversed order scores worse than a single swap.
        let rev = quality_score(&[4.0, 3.0, 2.0, 1.0]);
        let swap = quality_score(&[1.0, 2.0, 4.0, 3.0]);
        assert!(rev > swap);
    }

    #[test]
    fn q_low_high_split_is_half_and_half() {
        // First half perfectly ordered, second half reversed.
        let t = vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0];
        let scores: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let m = prediction_metrics(&t, &scores);
        assert_eq!(m.q_low, 0.0);
        assert!(m.q_high > 0.0);
    }

    #[test]
    fn r_top1_bounds() {
        let t = vec![5.0, 1.0, 3.0];
        // Worst case: true best ranked last.
        let m = prediction_metrics(&t, &[0.0, 2.0, 1.0]);
        assert_eq!(m.r_top1, 100.0);
        // Best case: ranked first.
        let m = prediction_metrics(&t, &[2.0, 0.0, 1.0]);
        assert!((m.r_top1 - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn equation_4_reproduces_paper_arithmetic() {
        // t_sim = 97 * (1 + t_ref) * 15 exactly -> K = 97.
        let t_ref = 0.02;
        let native = (1.0 + t_ref) * 15.0;
        assert_eq!(parallel_speedup_k(97.0 * native, t_ref, 1.0, 15), 97);
        assert_eq!(parallel_speedup_k(96.5 * native, t_ref, 1.0, 15), 97);
        assert_eq!(parallel_speedup_k(0.0001, t_ref, 1.0, 15), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        prediction_metrics(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn worker_pool_utilization_bounds() {
        let idle = WorkerPoolStats::default();
        assert_eq!(idle.utilization(), 0.0);
        let half = WorkerPoolStats {
            workers: 2,
            batches: 3,
            trials: 12,
            busy_nanos: 1_000,
            wall_nanos: 1_000,
        };
        assert!((half.utilization() - 0.5).abs() < 1e-12);
        // Measurement jitter can push busy past capacity; clamp at 1.
        let over = WorkerPoolStats {
            workers: 1,
            busy_nanos: 2_000,
            wall_nanos: 1_000,
            ..half
        };
        assert_eq!(over.utilization(), 1.0);
    }

    #[test]
    fn stage_timings_total() {
        let t = StageTimings {
            propose_nanos: 1,
            build_nanos: 2,
            sim_nanos: 3,
            score_nanos: 4,
        };
        assert_eq!(t.total_nanos(), 10);
        assert_eq!(StageTimings::default().total_nanos(), 0);
    }

    #[test]
    fn memo_cache_stats_ratios() {
        let empty = MemoCacheStats::default();
        assert_eq!(empty.lookups(), 0);
        assert_eq!(empty.hit_ratio(), 0.0);
        let s = MemoCacheStats { hits: 3, misses: 1 };
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }
}
