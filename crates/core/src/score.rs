//! The score predictor: training and inference workflow (paper Fig. 4).
//!
//! One [`ScorePredictor`] is trained per *(architecture, kernel type)*
//! pair and applies to any group (shape/parameter combination) of that
//! kernel type. During training both simulator statistics and measured
//! reference times exist; at execution time only the simulator runs and
//! group means are approximated with windows (Section III-E).

use crate::features::{
    group_training_data, raw_sample, FeatureConfig, GroupMeans, RawSample, WindowKind,
    WindowNormalizer,
};
use crate::CoreError;
use simtune_isa::SimStats;
use simtune_linalg::Matrix;
use simtune_predict::{PredictorKind, Regressor};

/// Everything measured for one kernel group during the training phase.
#[derive(Debug, Clone, Default)]
pub struct GroupData {
    /// Group identifier (index into Table II for the paper's kernels).
    pub group_id: usize,
    /// Instruction-accurate statistics per implementation.
    pub stats: Vec<SimStats>,
    /// Measured reference times per implementation (median of `N_exe`).
    pub t_ref: Vec<f64>,
    /// Noise-free model times (diagnostics only; never used for training).
    pub base_seconds: Vec<f64>,
    /// Host wall-clock seconds each simulation took (`t_simulator`).
    pub sim_seconds: Vec<f64>,
    /// Human-readable schedule descriptions per implementation.
    pub descriptions: Vec<String>,
}

impl GroupData {
    /// Number of implementations collected.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True when no implementations were collected.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Returns a copy containing only the selected indices.
    pub fn subset(&self, indices: &[usize]) -> GroupData {
        GroupData {
            group_id: self.group_id,
            stats: indices.iter().map(|&i| self.stats[i].clone()).collect(),
            t_ref: indices.iter().map(|&i| self.t_ref[i]).collect(),
            base_seconds: indices
                .iter()
                .filter_map(|&i| self.base_seconds.get(i).copied())
                .collect(),
            sim_seconds: indices
                .iter()
                .filter_map(|&i| self.sim_seconds.get(i).copied())
                .collect(),
            descriptions: indices
                .iter()
                .filter_map(|&i| self.descriptions.get(i).cloned())
                .collect(),
        }
    }
}

/// A trainable score predictor for one architecture and kernel type.
///
/// # Example
///
/// See `examples/predictor_comparison.rs` for the end-to-end flow; unit
/// usage:
///
/// ```
/// use simtune_core::{GroupData, ScorePredictor};
/// use simtune_isa::{InstMix, SimStats};
/// use simtune_predict::PredictorKind;
///
/// # fn main() -> Result<(), simtune_core::CoreError> {
/// // Synthetic group: runtime proportional to load ratio.
/// let mk = |loads: u64| SimStats {
///     inst_mix: InstMix { loads, int_alu: 100, ..Default::default() },
///     ..Default::default()
/// };
/// let group = GroupData {
///     group_id: 0,
///     stats: (1..40).map(|i| mk(i * 10)).collect(),
///     t_ref: (1..40).map(|i| i as f64).collect(),
///     ..Default::default()
/// };
/// let mut p = ScorePredictor::new(PredictorKind::LinReg, "riscv", "demo", 1);
/// p.train(&[group.clone()])?;
/// let scores = p.score_group(&group.stats)?;
/// assert!(scores[0] < scores[30], "scores must follow runtimes");
/// # Ok(())
/// # }
/// ```
pub struct ScorePredictor {
    kind: PredictorKind,
    arch: String,
    kernel_type: String,
    feature_config: FeatureConfig,
    model: Box<dyn Regressor>,
    trained: bool,
}

impl std::fmt::Debug for ScorePredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScorePredictor")
            .field("kind", &self.kind)
            .field("arch", &self.arch)
            .field("kernel_type", &self.kernel_type)
            .field("trained", &self.trained)
            .finish()
    }
}

impl ScorePredictor {
    /// Creates an untrained predictor of `kind` for one architecture and
    /// kernel type, with the paper's tuned model configuration.
    pub fn new(kind: PredictorKind, arch: &str, kernel_type: &str, seed: u64) -> Self {
        ScorePredictor {
            kind,
            arch: arch.to_string(),
            kernel_type: kernel_type.to_string(),
            feature_config: FeatureConfig::default(),
            model: kind.build(seed),
            trained: false,
        }
    }

    /// Replaces the feature configuration (ablation experiments).
    pub fn with_feature_config(mut self, config: FeatureConfig) -> Self {
        self.feature_config = config;
        self
    }

    /// The predictor family.
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }

    /// The architecture this predictor is trained for.
    pub fn arch(&self) -> &str {
        &self.arch
    }

    /// The kernel type this predictor is trained for.
    pub fn kernel_type(&self) -> &str {
        &self.kernel_type
    }

    /// True once [`ScorePredictor::train`] succeeded.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// The feature configuration in use.
    pub fn feature_config(&self) -> &FeatureConfig {
        &self.feature_config
    }

    /// Trains on complete groups: features use exact group means, labels
    /// are group-normalized reference times (training phase of Fig. 4).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Pipeline`] for empty input and propagates
    /// model fitting failures.
    pub fn train(&mut self, groups: &[GroupData]) -> Result<(), CoreError> {
        if groups.iter().all(|g| g.is_empty()) {
            return Err(CoreError::Pipeline(
                "training requires at least one non-empty group".into(),
            ));
        }
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut labels: Vec<f64> = Vec::new();
        for g in groups.iter().filter(|g| !g.is_empty()) {
            let (x, y) = group_training_data(&g.stats, &g.t_ref, &self.feature_config);
            for i in 0..x.rows() {
                rows.push(x.row(i).to_vec());
            }
            labels.extend(y);
        }
        let x = Matrix::from_rows(&rows)
            .map_err(|e| CoreError::Pipeline(format!("feature matrix: {e}")))?;
        self.model.fit(&x, &labels)?;
        self.trained = true;
        Ok(())
    }

    /// Scores a complete group using exact means over the given set (the
    /// evaluation setting of Tables III–V).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Predict`] for an untrained model.
    pub fn score_group(&self, stats: &[SimStats]) -> Result<Vec<f64>, CoreError> {
        let raws: Vec<RawSample> = stats
            .iter()
            .map(|s| raw_sample(s, &self.feature_config))
            .collect();
        if raws.is_empty() {
            return Ok(Vec::new());
        }
        let means = GroupMeans::exact(&raws);
        let rows: Vec<Vec<f64>> = raws
            .iter()
            .map(|r| means.features(r, &self.feature_config))
            .collect();
        let x = Matrix::from_rows(&rows)
            .map_err(|e| CoreError::Pipeline(format!("feature matrix: {e}")))?;
        Ok(self.model.predict(&x)?)
    }

    /// Scores a stream of implementations as the Auto-Scheduler delivers
    /// them, approximating group means with the given window (execution
    /// phase of Fig. 4, Section III-E). Each sample is scored with the
    /// means in effect when it arrives.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Predict`] for an untrained model.
    pub fn score_with_window(
        &self,
        stats: &[SimStats],
        window: WindowKind,
    ) -> Result<Vec<f64>, CoreError> {
        let mut normalizer = WindowNormalizer::new(window);
        stats
            .iter()
            .map(|s| self.score_streaming(s, &mut normalizer))
            .collect()
    }

    /// Scores a single new implementation against an externally owned
    /// window normalizer (the incremental form of
    /// [`ScorePredictor::score_with_window`] used by the tuning loop,
    /// which interleaves batches from the tuner).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Predict`] for an untrained model.
    pub fn score_streaming(
        &self,
        stats: &SimStats,
        normalizer: &mut WindowNormalizer,
    ) -> Result<f64, CoreError> {
        let raw = raw_sample(stats, &self.feature_config);
        normalizer.feed(&raw);
        let features = normalizer.features(&raw, &self.feature_config);
        let x = Matrix::from_vec(1, features.len(), features)
            .map_err(|e| CoreError::Pipeline(format!("feature row: {e}")))?;
        Ok(self.model.predict(&x)?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtune_isa::InstMix;

    fn synthetic_group(n: usize, slope: f64, seed: u64) -> GroupData {
        // Runtime depends nonlinearly on two "ratios" we control through
        // loads and branches.
        let mut stats = Vec::new();
        let mut t = Vec::new();
        for i in 0..n {
            let x = ((i as u64).wrapping_mul(seed * 2 + 1) % 97) as f64 / 97.0;
            let loads = (x * 1000.0) as u64 + 10;
            let branches = ((1.0 - x) * 300.0) as u64 + 5;
            stats.push(SimStats {
                inst_mix: InstMix {
                    loads,
                    branches,
                    int_alu: 2000,
                    ..Default::default()
                },
                ..Default::default()
            });
            t.push(1.0 + slope * x + 0.3 * x * x);
        }
        GroupData {
            group_id: 0,
            stats,
            t_ref: t,
            ..Default::default()
        }
    }

    #[test]
    fn train_and_score_orders_by_runtime() {
        let g = synthetic_group(60, 2.0, 3);
        let mut p = ScorePredictor::new(PredictorKind::Xgboost, "x86", "synthetic", 1);
        p.train(std::slice::from_ref(&g)).unwrap();
        assert!(p.is_trained());
        let scores = p.score_group(&g.stats).unwrap();
        let rho = simtune_linalg::stats::spearman(&scores, &g.t_ref);
        assert!(rho > 0.9, "rank correlation {rho}");
    }

    #[test]
    fn window_scoring_approaches_exact_scoring() {
        let g = synthetic_group(80, 1.5, 5);
        let mut p = ScorePredictor::new(PredictorKind::LinReg, "arm", "synthetic", 2);
        p.train(std::slice::from_ref(&g)).unwrap();
        let exact = p.score_group(&g.stats).unwrap();
        let dynamic = p.score_with_window(&g.stats, WindowKind::Dynamic).unwrap();
        let static_w = p
            .score_with_window(&g.stats, WindowKind::Static(20))
            .unwrap();
        // Orders agree strongly even if absolute scores differ slightly.
        let rho_d = simtune_linalg::stats::spearman(&exact, &dynamic);
        let rho_s = simtune_linalg::stats::spearman(&exact, &static_w);
        assert!(rho_d > 0.85, "dynamic window correlation {rho_d}");
        assert!(rho_s > 0.85, "static window correlation {rho_s}");
    }

    #[test]
    fn untrained_predictor_errors() {
        let p = ScorePredictor::new(PredictorKind::LinReg, "x86", "t", 0);
        let g = synthetic_group(5, 1.0, 1);
        assert!(p.score_group(&g.stats).is_err());
    }

    #[test]
    fn empty_training_is_a_pipeline_error() {
        let mut p = ScorePredictor::new(PredictorKind::LinReg, "x86", "t", 0);
        assert!(matches!(
            p.train(&[GroupData::default()]),
            Err(CoreError::Pipeline(_))
        ));
    }

    #[test]
    fn subset_extracts_matching_slices() {
        let g = synthetic_group(10, 1.0, 2);
        let s = g.subset(&[1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.t_ref[1], g.t_ref[3]);
        assert_eq!(s.stats[2].inst_mix, g.stats[5].inst_mix);
    }

    #[test]
    fn generalizes_across_groups_of_same_kernel_type() {
        // Train on one group, score a *different* group (different
        // runtime scale): rank correlation must survive because features
        // and labels are group-normalized.
        let train = synthetic_group(60, 2.0, 3);
        let mut other = synthetic_group(60, 2.0, 9);
        for t in &mut other.t_ref {
            *t *= 50.0; // a much slower group
        }
        let mut p = ScorePredictor::new(PredictorKind::Xgboost, "x86", "synthetic", 4);
        p.train(std::slice::from_ref(&train)).unwrap();
        let scores = p.score_group(&other.stats).unwrap();
        let rho = simtune_linalg::stats::spearman(&scores, &other.t_ref);
        assert!(rho > 0.8, "cross-group correlation {rho}");
    }
}
