//! Feature extraction from instruction-accurate statistics
//! (paper Section III-D).
//!
//! The predictor inputs are, per implementation `I_x` of a group:
//!
//! 1. load/store/branch instruction counts divided by total instructions;
//! 2. per cache level, read/write hits/misses/replacements divided by
//!    read/write accesses of that cache (Eq. 1);
//! 3. every ratio additionally in group-normalized form
//!    `(P(I_x) − mean_P) / mean_P` (Eq. 2);
//! 4. the total instruction count normalized to the group mean.
//!
//! Group means are exact at training time; at inference the
//! Auto-Scheduler produces implementations batch-wise, so means are
//! approximated with *static* or *dynamic* windows (Section III-E).

use simtune_isa::SimStats;
use simtune_linalg::Matrix;

/// Which feature families to include (the full set is the paper's; the
/// subsets exist for the feature-ablation experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureConfig {
    /// Include the instruction-mix ratios.
    pub inst_mix: bool,
    /// Include the per-cache ratios.
    pub cache: bool,
    /// Append the group-normalized variant of every ratio.
    pub normalized: bool,
    /// Append the group-normalized total instruction count.
    pub total_insts: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            inst_mix: true,
            cache: true,
            normalized: true,
            total_insts: true,
        }
    }
}

/// Raw (pre-normalization) feature ratios plus the total instruction
/// count of one implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct RawSample {
    /// Ratio features in a fixed order.
    pub ratios: Vec<f64>,
    /// Total retired instructions.
    pub total_insts: f64,
}

/// Extracts the raw ratio vector from simulator statistics.
pub fn raw_sample(stats: &SimStats, config: &FeatureConfig) -> RawSample {
    let mut ratios = Vec::with_capacity(32);
    if config.inst_mix {
        ratios.push(stats.inst_mix.load_ratio());
        ratios.push(stats.inst_mix.store_ratio());
        ratios.push(stats.inst_mix.branch_ratio());
    }
    if config.cache {
        for (_, level) in stats.cache.levels() {
            ratios.extend_from_slice(&level.ratio_vector());
        }
    }
    RawSample {
        ratios,
        total_insts: stats.inst_mix.total() as f64,
    }
}

/// Human-readable names of the feature columns produced for `has_l3`
/// hierarchies under `config` (diagnostics and reports).
pub fn feature_names(has_l3: bool, config: &FeatureConfig) -> Vec<String> {
    let mut base = Vec::new();
    if config.inst_mix {
        for n in ["load_ratio", "store_ratio", "branch_ratio"] {
            base.push(n.to_string());
        }
    }
    if config.cache {
        let mut levels = vec!["l1d", "l1i", "l2"];
        if has_l3 {
            levels.push("l3");
        }
        for l in levels {
            for m in [
                "rd_hit", "rd_miss", "rd_repl", "wr_hit", "wr_miss", "wr_repl",
            ] {
                base.push(format!("{l}_{m}"));
            }
        }
    }
    let mut names = base.clone();
    if config.normalized {
        names.extend(base.iter().map(|n| format!("{n}_norm")));
    }
    if config.total_insts {
        names.push("total_insts_norm".into());
    }
    names
}

/// Eq. 2 of the paper with a guard for zero means.
fn normalize(value: f64, mean: f64) -> f64 {
    if mean.abs() < 1e-12 {
        0.0
    } else {
        (value - mean) / mean
    }
}

/// Group statistics used for normalization: the mean of each ratio and
/// of the total instruction count.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMeans {
    /// Mean of each raw ratio.
    pub ratio_means: Vec<f64>,
    /// Mean total instruction count.
    pub insts_mean: f64,
}

impl GroupMeans {
    /// Exact means over a complete group (training time).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn exact(samples: &[RawSample]) -> Self {
        assert!(!samples.is_empty(), "group means need samples");
        let d = samples[0].ratios.len();
        let mut ratio_means = vec![0.0; d];
        let mut insts_mean = 0.0;
        for s in samples {
            for (m, r) in ratio_means.iter_mut().zip(&s.ratios) {
                *m += r;
            }
            insts_mean += s.total_insts;
        }
        let n = samples.len() as f64;
        for m in &mut ratio_means {
            *m /= n;
        }
        GroupMeans {
            ratio_means,
            insts_mean: insts_mean / n,
        }
    }

    /// Final feature vector for one sample under these means.
    pub fn features(&self, sample: &RawSample, config: &FeatureConfig) -> Vec<f64> {
        features_under(
            sample,
            self.ratio_means.iter().copied(),
            self.insts_mean,
            config,
        )
    }
}

/// The feature vector of `sample` under the given ratio means and mean
/// instruction count.
fn features_under(
    sample: &RawSample,
    ratio_means: impl Iterator<Item = f64>,
    insts_mean: f64,
    config: &FeatureConfig,
) -> Vec<f64> {
    let mut out = sample.ratios.clone();
    if config.normalized {
        out.extend(
            sample
                .ratios
                .iter()
                .zip(ratio_means)
                .map(|(&v, m)| normalize(v, m)),
        );
    }
    if config.total_insts {
        out.push(normalize(sample.total_insts, insts_mean));
    }
    out
}

/// Mean-approximation strategy at inference time (Section III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Use exact means of everything fed (training-time behavior).
    Exact,
    /// Freeze means after the first `w` samples.
    Static(usize),
    /// Keep updating means with every sample.
    Dynamic,
}

/// Streaming estimator of group means for batch-wise inference.
///
/// Feed raw samples as the Auto-Scheduler produces them, then ask for
/// feature vectors; the window policy controls how the means evolve.
///
/// # Example
///
/// ```
/// use simtune_core::{RawSample, WindowKind, WindowNormalizer};
///
/// let mut w = WindowNormalizer::new(WindowKind::Static(2));
/// for v in [1.0, 3.0, 100.0] {
///     w.feed(&RawSample { ratios: vec![v], total_insts: 1.0 });
/// }
/// // Means froze at (1+3)/2 = 2 before the outlier arrived.
/// assert_eq!(w.means().unwrap().ratio_means[0], 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct WindowNormalizer {
    kind: WindowKind,
    count: usize,
    ratio_sums: Vec<f64>,
    insts_sum: f64,
    frozen: Option<GroupMeans>,
}

impl WindowNormalizer {
    /// Creates an empty estimator.
    pub fn new(kind: WindowKind) -> Self {
        WindowNormalizer {
            kind,
            count: 0,
            ratio_sums: Vec::new(),
            insts_sum: 0.0,
            frozen: None,
        }
    }

    /// Number of samples fed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feeds one raw sample.
    pub fn feed(&mut self, sample: &RawSample) {
        if let WindowKind::Static(w) = self.kind {
            if self.frozen.is_some() {
                return; // means already frozen
            }
            self.accumulate(sample);
            if self.count >= w {
                self.frozen = Some(self.current_means().expect("count > 0"));
            }
            return;
        }
        self.accumulate(sample);
    }

    fn accumulate(&mut self, sample: &RawSample) {
        if self.ratio_sums.is_empty() {
            self.ratio_sums = vec![0.0; sample.ratios.len()];
        }
        for (s, r) in self.ratio_sums.iter_mut().zip(&sample.ratios) {
            *s += r;
        }
        self.insts_sum += sample.total_insts;
        self.count += 1;
    }

    fn current_means(&self) -> Option<GroupMeans> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        Some(GroupMeans {
            ratio_means: self.ratio_sums.iter().map(|s| s / n).collect(),
            insts_mean: self.insts_sum / n,
        })
    }

    /// The means currently in effect (frozen for saturated static
    /// windows, running otherwise). `None` before any sample.
    pub fn means(&self) -> Option<GroupMeans> {
        match (&self.kind, &self.frozen) {
            (WindowKind::Static(_), Some(m)) => Some(m.clone()),
            _ => self.current_means(),
        }
    }

    /// Feature vector for `sample` under the current means, read from the
    /// frozen means or the running sums without building a
    /// [`GroupMeans`].
    ///
    /// # Panics
    ///
    /// Panics if no sample has been fed yet.
    pub fn features(&self, sample: &RawSample, config: &FeatureConfig) -> Vec<f64> {
        if let (WindowKind::Static(_), Some(frozen)) = (&self.kind, &self.frozen) {
            return frozen.features(sample, config);
        }
        assert!(
            self.count > 0,
            "feed at least one sample before extracting features"
        );
        let n = self.count as f64;
        let ratio_means = self.ratio_sums.iter().map(|s| s / n);
        features_under(sample, ratio_means, self.insts_sum / n, config)
    }
}

/// Builds the training feature matrix and normalized labels for one
/// group with exact means: returns `(X, y)` where
/// `y = (t_ref − mean_t) / mean_t` (the paper's training scores).
///
/// # Panics
///
/// Panics if inputs are empty or lengths differ.
pub fn group_training_data(
    stats: &[SimStats],
    t_ref: &[f64],
    config: &FeatureConfig,
) -> (Matrix, Vec<f64>) {
    assert_eq!(stats.len(), t_ref.len(), "stats vs labels");
    assert!(!stats.is_empty(), "empty group");
    let raws: Vec<RawSample> = stats.iter().map(|s| raw_sample(s, config)).collect();
    let means = GroupMeans::exact(&raws);
    let rows: Vec<Vec<f64>> = raws.iter().map(|r| means.features(r, config)).collect();
    let x = Matrix::from_rows(&rows).expect("consistent feature rows");
    let t_mean = t_ref.iter().sum::<f64>() / t_ref.len() as f64;
    let y = t_ref.iter().map(|&t| normalize(t, t_mean)).collect();
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtune_cache::{CacheStats, HierarchyStats};
    use simtune_isa::InstMix;

    fn stats(loads: u64, hits: u64, misses: u64) -> SimStats {
        SimStats {
            inst_mix: InstMix {
                loads,
                stores: loads / 2,
                branches: loads / 4,
                int_alu: loads * 2,
                ..Default::default()
            },
            cache: HierarchyStats {
                l1d: CacheStats {
                    read_hits: hits,
                    read_misses: misses,
                    ..Default::default()
                },
                ..Default::default()
            },
            host_nanos: 0,
        }
    }

    #[test]
    fn raw_sample_layout_matches_names() {
        let cfg = FeatureConfig::default();
        let s = stats(100, 90, 10);
        let raw = raw_sample(&s, &cfg);
        // 3 inst ratios + 3 levels x 6 cache ratios (no L3 here).
        assert_eq!(raw.ratios.len(), 3 + 18);
        let names = feature_names(false, &cfg);
        // ratios + normalized ratios + total.
        assert_eq!(names.len(), 21 * 2 + 1);
        assert_eq!(names[0], "load_ratio");
        assert!(names.last().unwrap().contains("total_insts"));
    }

    #[test]
    fn l3_extends_the_vector() {
        let cfg = FeatureConfig::default();
        let mut s = stats(10, 5, 5);
        s.cache.l3 = Some(CacheStats::default());
        assert_eq!(raw_sample(&s, &cfg).ratios.len(), 3 + 24);
        assert_eq!(feature_names(true, &cfg).len(), 27 * 2 + 1);
    }

    #[test]
    fn ablation_configs_shrink_the_vector() {
        let cache_only = FeatureConfig {
            inst_mix: false,
            ..Default::default()
        };
        let s = stats(10, 5, 5);
        assert_eq!(raw_sample(&s, &cache_only).ratios.len(), 18);
        let raw_only = FeatureConfig {
            normalized: false,
            total_insts: false,
            ..Default::default()
        };
        let raw = raw_sample(&s, &raw_only);
        let means = GroupMeans::exact(std::slice::from_ref(&raw));
        assert_eq!(means.features(&raw, &raw_only).len(), 21);
    }

    #[test]
    fn eq2_normalization_properties() {
        // Sample equal to the mean maps to 0; double the mean maps to 1.
        let samples = vec![
            RawSample {
                ratios: vec![0.2],
                total_insts: 100.0,
            },
            RawSample {
                ratios: vec![0.4],
                total_insts: 300.0,
            },
        ];
        let cfg = FeatureConfig {
            inst_mix: true,
            cache: false,
            normalized: true,
            total_insts: true,
        };
        let means = GroupMeans::exact(&samples);
        assert!((means.ratio_means[0] - 0.3).abs() < 1e-12);
        let f = means.features(
            &RawSample {
                ratios: vec![0.6],
                total_insts: 200.0,
            },
            &cfg,
        );
        // [raw, normalized, insts_norm]
        assert_eq!(f.len(), 3);
        assert!((f[1] - 1.0).abs() < 1e-12); // (0.6-0.3)/0.3
        assert!((f[2] - 0.0).abs() < 1e-12); // 200 == mean(100,300)
    }

    #[test]
    fn zero_mean_guard() {
        let samples = vec![RawSample {
            ratios: vec![0.0],
            total_insts: 0.0,
        }];
        let means = GroupMeans::exact(&samples);
        let f = means.features(&samples[0], &FeatureConfig::default());
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn static_window_freezes_dynamic_keeps_updating() {
        let mk = |v: f64| RawSample {
            ratios: vec![v],
            total_insts: v,
        };
        let mut stat = WindowNormalizer::new(WindowKind::Static(2));
        let mut dyn_ = WindowNormalizer::new(WindowKind::Dynamic);
        for v in [1.0, 3.0, 50.0, 70.0] {
            stat.feed(&mk(v));
            dyn_.feed(&mk(v));
        }
        assert_eq!(stat.means().unwrap().ratio_means[0], 2.0);
        assert_eq!(dyn_.means().unwrap().ratio_means[0], 31.0);
    }

    #[test]
    fn exact_window_matches_group_means() {
        let raws: Vec<RawSample> = (0..10)
            .map(|i| RawSample {
                ratios: vec![i as f64],
                total_insts: (i * i) as f64,
            })
            .collect();
        let mut w = WindowNormalizer::new(WindowKind::Exact);
        for r in &raws {
            w.feed(r);
        }
        let exact = GroupMeans::exact(&raws);
        assert_eq!(w.means().unwrap(), exact);
    }

    #[test]
    #[should_panic(expected = "group means need samples")]
    fn exact_means_reject_an_empty_group() {
        GroupMeans::exact(&[]);
    }

    #[test]
    #[should_panic(expected = "feed at least one sample")]
    fn window_features_before_any_feed_panic() {
        WindowNormalizer::new(WindowKind::Dynamic).features(
            &RawSample {
                ratios: vec![0.1],
                total_insts: 1.0,
            },
            &FeatureConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn training_data_rejects_an_empty_group() {
        group_training_data(&[], &[], &FeatureConfig::default());
    }

    #[test]
    #[should_panic(expected = "stats vs labels")]
    fn training_data_rejects_mismatched_labels() {
        group_training_data(&[stats(10, 5, 5)], &[1.0, 2.0], &FeatureConfig::default());
    }

    #[test]
    fn normalize_guards_tiny_means_and_keeps_eq2_elsewhere() {
        assert_eq!(normalize(5.0, 0.0), 0.0);
        assert_eq!(normalize(5.0, 1e-13), 0.0, "below the 1e-12 guard");
        assert_eq!(normalize(2.0, 2.0), 0.0, "sample at the mean");
        assert!((normalize(3.0, 2.0) - 0.5).abs() < 1e-12);
        // Negative means stay Eq. 2: (1 - (-2)) / (-2).
        assert!((normalize(1.0, -2.0) + 1.5).abs() < 1e-12);
    }

    #[test]
    fn no_l3_target_keeps_vector_names_and_means_consistent() {
        let cfg = FeatureConfig::default();
        let group: Vec<RawSample> = (1..=3)
            .map(|i| raw_sample(&stats(i * 100, i * 90, i * 10), &cfg))
            .collect();
        assert!(group.iter().all(|r| r.ratios.len() == 21));
        let means = GroupMeans::exact(&group);
        assert_eq!(means.ratio_means.len(), 21);
        let f = means.features(&group[0], &cfg);
        assert_eq!(f.len(), feature_names(false, &cfg).len());
        assert!(f.iter().all(|v| v.is_finite()));
        assert!(feature_names(false, &cfg).iter().all(|n| !n.contains("l3")));
        assert!(feature_names(true, &cfg)
            .iter()
            .any(|n| n.starts_with("l3_")));
    }

    #[test]
    fn dynamic_window_keeps_all_zero_columns_finite() {
        let sample = RawSample {
            ratios: vec![0.0, 0.5],
            total_insts: 10.0,
        };
        let mut w = WindowNormalizer::new(WindowKind::Dynamic);
        for _ in 0..3 {
            w.feed(&sample);
        }
        assert_eq!(w.count(), 3);
        let f = w.features(&sample, &FeatureConfig::default());
        assert!(f.iter().all(|v| v.is_finite()));
        // The zero-mean column normalizes to the guard value, not NaN.
        assert_eq!(f[2], 0.0);
    }

    #[test]
    fn zero_width_static_window_freezes_on_the_first_sample() {
        let mk = |v: f64| RawSample {
            ratios: vec![v],
            total_insts: 1.0,
        };
        let mut w = WindowNormalizer::new(WindowKind::Static(0));
        w.feed(&mk(2.0));
        w.feed(&mk(100.0));
        assert_eq!(w.means().unwrap().ratio_means[0], 2.0);
        assert_eq!(w.count(), 1, "frozen windows stop accumulating");
    }

    #[test]
    fn group_training_data_shapes_and_labels() {
        let group: Vec<SimStats> = (1..=4).map(|i| stats(i * 100, i * 90, i * 10)).collect();
        let t = vec![1.0, 2.0, 3.0, 4.0];
        let (x, y) = group_training_data(&group, &t, &FeatureConfig::default());
        assert_eq!(x.rows(), 4);
        assert_eq!(x.cols(), 21 * 2 + 1);
        // Labels are group-normalized: mean 2.5 -> (1-2.5)/2.5 = -0.6.
        assert!((y[0] + 0.6).abs() < 1e-12);
        assert!((y[3] - 0.6).abs() < 1e-12);
        assert!((y.iter().sum::<f64>()).abs() < 1e-12);
    }
}
