use crate::model::{check_features, check_fit_input};
use crate::{PredictError, Regressor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtune_linalg::Matrix;

/// XGBoost-style gradient-boosted-trees configuration.
///
/// The defaults are the paper's grid-searched values (Section IV-C):
/// column subsample 0.6, learning rate 0.05, max depth 3, α = 0,
/// λ = 0.1, 300 trees, min child weight 1, row subsample 0.8, MSE loss.
#[derive(Debug, Clone, PartialEq)]
pub struct GbtConfig {
    /// Number of boosting rounds (trees).
    pub n_trees: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Maximum tree depth, at most 6 (a fitted tree's leaves are the
    /// bits of one `u64`).
    pub max_depth: usize,
    /// L1 regularization on leaf weights (XGBoost `alpha`).
    pub alpha: f64,
    /// L2 regularization on leaf weights (XGBoost `lambda`).
    pub lambda: f64,
    /// Minimum sum of hessians per child (XGBoost `min_child_weight`).
    pub min_child_weight: f64,
    /// Row subsample ratio per tree.
    pub subsample: f64,
    /// Column subsample ratio per tree.
    pub colsample: f64,
    /// RNG seed for the subsampling.
    pub seed: u64,
}

impl Default for GbtConfig {
    fn default() -> Self {
        GbtConfig {
            n_trees: 300,
            learning_rate: 0.05,
            max_depth: 3,
            alpha: 0.0,
            lambda: 0.1,
            min_child_weight: 1.0,
            subsample: 0.8,
            colsample: 0.6,
            seed: 0,
        }
    }
}

/// The deepest tree a fitted ensemble holds: its leaves are the bits
/// of one `u64` (2⁶ = 64). The paper's configuration is depth 3.
const MAX_DEPTH: usize = 6;

/// A node of a regression tree under construction, in a flat arena.
/// Trees take this form only inside [`GbtRegressor::fit`]; the fitted
/// model keeps the [`Ensemble`] tables instead.
#[derive(Debug, Clone)]
enum Node {
    Split {
        feature: u32,
        threshold: f64,
        left: u32,
        right: u32,
    },
    Leaf {
        weight: f64,
    },
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// The node walk: the leaf a row reaches, going left on
    /// `row[feature] < threshold` and right otherwise (NaN goes right).
    fn predict(&self, row: &[f64]) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if row[*feature as usize] < *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Appends the leaves under `at` to `leaves` left to right and one
    /// `(feature, threshold, tree, mask)` split per internal node; the
    /// mask clears the bits of the node's left subtree, numbered from
    /// the tree's first leaf at `leaves[first]`.
    fn flatten(
        &self,
        at: usize,
        tree: u32,
        first: usize,
        leaves: &mut Vec<f64>,
        splits: &mut Vec<(u32, f64, u32, u64)>,
    ) {
        match self.nodes[at] {
            Node::Leaf { weight } => leaves.push(weight),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let lo = leaves.len() - first;
                self.flatten(left as usize, tree, first, leaves, splits);
                let hi = leaves.len() - first;
                // A left subtree holds at most 32 of a tree's 64 leaves.
                let mask = !(((1u64 << (hi - lo)) - 1) << lo);
                splits.push((feature, threshold, tree, mask));
                self.flatten(right as usize, tree, first, leaves, splits);
            }
        }
    }
}

/// A fitted ensemble in QuickScorer layout (Lucchese et al., SIGIR
/// 2015): the splits of all trees grouped by feature, each group sorted
/// ascending by threshold.
///
/// A row starts every tree at all-ones and, feature by feature, ANDs in
/// the mask of each split whose test `x < threshold` fails, stopping at
/// the first that holds — every later split of that feature holds too.
/// A tree's exit leaf is then its lowest set bit: the leftmost leaf no
/// failed test ruled out, the leaf the node walk reaches. NaN, ±∞ and a
/// value equal to a threshold take the walk's branch, because the same
/// `<` decides both. Splits with a NaN threshold (from ±∞ training
/// values) sort first: their test never holds.
#[derive(Debug, Clone, Default)]
struct Ensemble {
    /// Feature `f`'s splits are `feature_start[f]..feature_start[f + 1]`.
    feature_start: Box<[u32]>,
    thresholds: Box<[f64]>,
    /// The tree each split belongs to.
    trees: Box<[u32]>,
    /// ANDed into the tree's bits when the split's test fails.
    masks: Box<[u64]>,
    /// Index in `leaves` of each tree's leftmost leaf.
    first_leaf: Box<[u32]>,
    /// Every tree's leaf values, left to right, tree after tree.
    leaves: Box<[f64]>,
}

impl Ensemble {
    fn new(trees: &[Tree], n_features: usize) -> Self {
        let mut leaves = Vec::new();
        let mut splits = Vec::new();
        let mut first_leaf = Vec::with_capacity(trees.len());
        for (t, tree) in trees.iter().enumerate() {
            let first = leaves.len();
            first_leaf.push(first as u32);
            tree.flatten(0, t as u32, first, &mut leaves, &mut splits);
            debug_assert!(leaves.len() - first <= 64, "tree deeper than MAX_DEPTH");
        }
        splits.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then(b.1.is_nan().cmp(&a.1.is_nan()))
                .then(a.1.total_cmp(&b.1))
        });
        let mut feature_start = vec![0u32; n_features + 1];
        for &(f, ..) in &splits {
            feature_start[f as usize + 1] += 1;
        }
        for f in 0..n_features {
            feature_start[f + 1] += feature_start[f];
        }
        Ensemble {
            feature_start: feature_start.into(),
            thresholds: splits.iter().map(|s| s.1).collect(),
            trees: splits.iter().map(|s| s.2).collect(),
            masks: splits.iter().map(|s| s.3).collect(),
            first_leaf: first_leaf.into(),
            leaves: leaves.into(),
        }
    }

    fn tree_count(&self) -> usize {
        self.first_leaf.len()
    }

    /// Sets `bits[t]` to tree `t`'s leaf bits for `row`.
    fn exits(&self, row: &[f64], bits: &mut [u64]) {
        bits.fill(u64::MAX);
        for (f, &x) in row.iter().enumerate() {
            let span = self.feature_start[f] as usize..self.feature_start[f + 1] as usize;
            let splits = self.thresholds[span.clone()]
                .iter()
                .zip(&self.trees[span.clone()])
                .zip(&self.masks[span]);
            for ((&threshold, &tree), &mask) in splits {
                if x < threshold {
                    break;
                }
                bits[tree as usize] &= mask;
            }
        }
    }

    /// Tree `t`'s exit leaf value under its `bits`.
    fn leaf(&self, t: usize, bits: u64) -> f64 {
        self.leaves[self.first_leaf[t] as usize + bits.trailing_zeros() as usize]
    }
}

/// Gradient-boosted regression trees with XGBoost's second-order
/// regularized objective.
///
/// For squared loss the gradient is `pred − y` and the hessian is 1; a
/// split's gain is
/// `½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)]` with L1 soft-thresholding
/// of the gradient sums by `α`, and leaves weigh `−G/(H+λ)`.
///
/// `fit` grows each tree as a node arena and walks it for the residual
/// update; the fitted model keeps only QuickScorer tables (one threshold,
/// tree index and `u64` leaf mask per split, grouped by feature, plus the
/// leaf values), and scores a row with a forward scan per feature and a
/// lowest-set-bit per tree. The leaf values are summed in tree order, so
/// a score is bit-identical to the node walk's. Trees are at most 6
/// deep; `fit` refuses a deeper `max_depth` with
/// [`PredictError::DepthLimit`].
///
/// # Example
///
/// ```
/// use simtune_linalg::Matrix;
/// use simtune_predict::{GbtRegressor, Regressor};
///
/// # fn main() -> Result<(), simtune_predict::PredictError> {
/// // A step function: trees nail this, lines cannot.
/// let x = Matrix::from_fn(64, 1, |i, _| i as f64);
/// let y: Vec<f64> = (0..64).map(|i| if i < 32 { 0.0 } else { 1.0 }).collect();
/// let mut m = GbtRegressor::paper_config(1);
/// m.fit(&x, &y)?;
/// let p = m.predict(&x)?;
/// assert!(p[0] < 0.2 && p[63] > 0.8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GbtRegressor {
    config: GbtConfig,
    ensemble: Ensemble,
    base_score: f64,
    n_features: usize,
}

impl GbtRegressor {
    /// The paper's tuned configuration with a seed.
    pub fn paper_config(seed: u64) -> Self {
        Self::new(GbtConfig {
            seed,
            ..GbtConfig::default()
        })
    }

    /// Builds from an explicit configuration.
    pub fn new(config: GbtConfig) -> Self {
        GbtRegressor {
            config,
            ensemble: Ensemble::default(),
            base_score: 0.0,
            n_features: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GbtConfig {
        &self.config
    }

    /// Number of fitted trees.
    pub fn tree_count(&self) -> usize {
        self.ensemble.tree_count()
    }

    fn leaf_weight(&self, g: f64, h: f64) -> f64 {
        let g = soft_threshold(g, self.config.alpha);
        -g / (h + self.config.lambda)
    }

    fn split_score(&self, g: f64, h: f64) -> f64 {
        let g = soft_threshold(g, self.config.alpha);
        g * g / (h + self.config.lambda)
    }

    /// Recursively grows one tree over `rows`, returns the root index.
    #[allow(clippy::too_many_arguments)]
    fn grow(
        &self,
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        features: &[usize],
        depth: usize,
        nodes: &mut Vec<Node>,
    ) -> usize {
        let gsum: f64 = rows.iter().map(|&r| grad[r]).sum();
        let hsum: f64 = rows.iter().map(|&r| hess[r]).sum();

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                weight: self.leaf_weight(gsum, hsum),
            });
            nodes.len() - 1
        };

        if depth >= self.config.max_depth || rows.len() < 2 {
            return make_leaf(nodes);
        }

        // Exact greedy split search over the sampled feature set.
        let parent_score = self.split_score(gsum, hsum);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let mut sorted = rows.to_vec();
        for &f in features {
            sorted.sort_by(|&a, &b| x[(a, f)].partial_cmp(&x[(b, f)]).expect("finite feature"));
            let mut gl = 0.0;
            let mut hl = 0.0;
            for w in 0..sorted.len() - 1 {
                let r = sorted[w];
                gl += grad[r];
                hl += hess[r];
                let (gr, hr) = (gsum - gl, hsum - hl);
                if hl < self.config.min_child_weight || hr < self.config.min_child_weight {
                    continue;
                }
                let (xa, xb) = (x[(sorted[w], f)], x[(sorted[w + 1], f)]);
                if xa == xb {
                    continue; // cannot split between equal values
                }
                let gain =
                    0.5 * (self.split_score(gl, hl) + self.split_score(gr, hr) - parent_score);
                if gain > 1e-12 && best.map(|(bg, _, _)| gain > bg).unwrap_or(true) {
                    best = Some((gain, f, 0.5 * (xa + xb)));
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            return make_leaf(nodes);
        };
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&r| x[(r, feature)] < threshold);
        let slot = nodes.len();
        nodes.push(Node::Leaf { weight: 0.0 }); // placeholder
        let left = self.grow(x, grad, hess, &left_rows, features, depth + 1, nodes);
        let right = self.grow(x, grad, hess, &right_rows, features, depth + 1, nodes);
        nodes[slot] = Node::Split {
            feature: feature as u32,
            threshold,
            left: left as u32,
            right: right as u32,
        };
        slot
    }

    /// The boosting rounds: the base score, the trees as node arenas and
    /// the training rows' final predictions.
    fn boost(&self, x: &Matrix, y: &[f64]) -> (f64, Vec<Tree>, Vec<f64>) {
        let (n, d) = x.shape();
        let base_score = y.iter().sum::<f64>() / n as f64;
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(0x9B7));
        let mut pred = vec![base_score; n];
        let mut trees = Vec::with_capacity(self.config.n_trees);

        for _ in 0..self.config.n_trees {
            // Squared-loss gradients/hessians.
            let grad: Vec<f64> = pred.iter().zip(y).map(|(p, t)| p - t).collect();
            let hess = vec![1.0; n];

            // Row subsample.
            let rows: Vec<usize> = (0..n)
                .filter(|_| rng.gen_bool(self.config.subsample.clamp(0.01, 1.0)))
                .collect();
            let rows = if rows.len() < 2 {
                (0..n).collect()
            } else {
                rows
            };
            // Column subsample.
            let k = ((d as f64 * self.config.colsample).ceil() as usize).clamp(1, d);
            let mut feats: Vec<usize> = (0..d).collect();
            for i in (1..d).rev() {
                feats.swap(i, rng.gen_range(0..=i));
            }
            feats.truncate(k);

            let mut nodes = Vec::new();
            let root = self.grow(x, &grad, &hess, &rows, &feats, 0, &mut nodes);
            debug_assert_eq!(root, 0);
            let tree = Tree { nodes };
            for (i, p) in pred.iter_mut().enumerate() {
                *p += self.config.learning_rate * tree.predict(x.row(i));
            }
            trees.push(tree);
        }
        (base_score, trees, pred)
    }

    fn check_input(&self, x: &Matrix) -> Result<(), PredictError> {
        if self.ensemble.tree_count() == 0 {
            return Err(PredictError::NotFitted);
        }
        check_features(self.n_features, x)
    }

    /// The score of a row whose exit bits are `bits`: its leaf values
    /// summed in tree order.
    fn score(&self, bits: &[u64]) -> f64 {
        self.base_score
            + self.config.learning_rate
                * bits
                    .iter()
                    .enumerate()
                    .map(|(t, &b)| self.ensemble.leaf(t, b))
                    .sum::<f64>()
    }
}

fn soft_threshold(g: f64, alpha: f64) -> f64 {
    if g > alpha {
        g - alpha
    } else if g < -alpha {
        g + alpha
    } else {
        0.0
    }
}

impl Regressor for GbtRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), PredictError> {
        check_fit_input(x, y)?;
        if self.config.max_depth > MAX_DEPTH {
            return Err(PredictError::DepthLimit {
                max_depth: self.config.max_depth,
                limit: MAX_DEPTH,
            });
        }
        let (base_score, trees, pred) = self.boost(x, y);
        self.n_features = x.cols();
        self.base_score = base_score;
        self.ensemble = Ensemble::new(&trees, self.n_features);
        if pred.iter().any(|p| !p.is_finite()) {
            return Err(PredictError::Diverged);
        }
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, PredictError> {
        self.check_input(x)?;
        let mut bits = vec![0u64; self.ensemble.tree_count()];
        Ok((0..x.rows())
            .map(|i| {
                self.ensemble.exits(x.row(i), &mut bits);
                self.score(&bits)
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "xgboost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Loss;

    /// Tree `t`'s leaf values, left to right.
    fn leaves(m: &GbtRegressor, t: usize) -> &[f64] {
        let e = &m.ensemble;
        let end = e
            .first_leaf
            .get(t + 1)
            .map_or(e.leaves.len(), |&i| i as usize);
        &e.leaves[e.first_leaf[t] as usize..end]
    }

    fn quick(seed: u64) -> GbtConfig {
        GbtConfig {
            n_trees: 80,
            learning_rate: 0.1,
            subsample: 1.0,
            colsample: 1.0,
            seed,
            ..GbtConfig::default()
        }
    }

    #[test]
    fn fits_piecewise_function() {
        let x = Matrix::from_fn(100, 1, |i, _| i as f64 / 10.0);
        let y: Vec<f64> = (0..100)
            .map(|i| {
                if i < 30 {
                    1.0
                } else if i < 70 {
                    -1.0
                } else {
                    0.5
                }
            })
            .collect();
        let mut m = GbtRegressor::new(quick(1));
        m.fit(&x, &y).unwrap();
        let p = m.predict(&x).unwrap();
        assert!(Loss::Mse.compute(&y, &p) < 0.05);
    }

    #[test]
    fn fits_interaction_term() {
        // y = x0 * x1: requires depth >= 2 interactions.
        let x = Matrix::from_fn(200, 2, |i, j| (((i * (j + 13)) % 29) as f64 / 14.5) - 1.0);
        let y: Vec<f64> = (0..200).map(|i| x[(i, 0)] * x[(i, 1)]).collect();
        let mut m = GbtRegressor::new(quick(2));
        m.fit(&x, &y).unwrap();
        let p = m.predict(&x).unwrap();
        let var = simtune_linalg::stats::variance(&y);
        assert!(Loss::Mse.compute(&y, &p) < var * 0.3);
    }

    #[test]
    fn respects_max_depth() {
        let mut cfg = quick(3);
        cfg.max_depth = 1; // stumps
        cfg.n_trees = 5;
        let x = Matrix::from_fn(50, 1, |i, _| i as f64);
        let y: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut m = GbtRegressor::new(cfg);
        m.fit(&x, &y).unwrap();
        // A stump has one split and two leaves at most.
        assert!(m.ensemble.thresholds.len() <= m.tree_count());
        for t in 0..m.tree_count() {
            let n = leaves(&m, t).len();
            assert!(n <= 2, "stump with {n} leaves");
        }
    }

    #[test]
    fn a_tree_deeper_than_a_u64_of_leaves_is_refused() {
        let mut cfg = quick(3);
        cfg.max_depth = 7;
        let x = Matrix::from_fn(50, 1, |i, _| i as f64);
        let y: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut m = GbtRegressor::new(cfg);
        assert_eq!(
            m.fit(&x, &y),
            Err(PredictError::DepthLimit {
                max_depth: 7,
                limit: 6
            })
        );
        assert_eq!(m.predict(&x), Err(PredictError::NotFitted));
    }

    #[test]
    fn l2_regularization_shrinks_leaves() {
        let x = Matrix::from_fn(40, 1, |i, _| (i % 2) as f64);
        let y: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let fit_first_leaf_mag = |lambda: f64| {
            let mut cfg = quick(4);
            cfg.lambda = lambda;
            cfg.n_trees = 1;
            let mut m = GbtRegressor::new(cfg);
            m.fit(&x, &y).unwrap();
            leaves(&m, 0).iter().map(|w| w.abs()).fold(0.0, f64::max)
        };
        assert!(fit_first_leaf_mag(10.0) < fit_first_leaf_mag(0.0));
    }

    #[test]
    fn min_child_weight_blocks_tiny_splits() {
        let mut cfg = quick(5);
        cfg.min_child_weight = 100.0; // larger than any subset
        cfg.n_trees = 3;
        let x = Matrix::from_fn(30, 1, |i, _| i as f64);
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let mut m = GbtRegressor::new(cfg);
        m.fit(&x, &y).unwrap();
        assert!(m.ensemble.thresholds.is_empty(), "no split may form");
        for t in 0..m.tree_count() {
            assert_eq!(leaves(&m, t).len(), 1, "root must stay a leaf");
        }
    }

    #[test]
    fn soft_threshold_behaviour() {
        assert_eq!(soft_threshold(5.0, 1.0), 4.0);
        assert_eq!(soft_threshold(-5.0, 1.0), -4.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
    }

    #[test]
    fn deterministic_per_seed_and_unfitted_errors() {
        let x = Matrix::from_fn(50, 3, |i, j| ((i * (j + 7)) % 19) as f64);
        let y: Vec<f64> = (0..50).map(|i| (i % 19) as f64).collect();
        let run = |seed| {
            let mut m = GbtRegressor::new(GbtConfig {
                seed,
                n_trees: 30,
                ..GbtConfig::default()
            });
            m.fit(&x, &y).unwrap();
            m.predict(&x).unwrap()
        };
        assert_eq!(run(1), run(1));
        let m = GbtRegressor::new(quick(0));
        assert!(matches!(
            m.predict(&Matrix::zeros(1, 1)),
            Err(PredictError::NotFitted)
        ));
    }

    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The node walk over the same boosting rounds — the oracle for the
    /// tables: `predict` as the per-tree arenas computed it.
    fn walk(m: &GbtRegressor, x: &Matrix, y: &[f64], q: &Matrix) -> Vec<f64> {
        let (base, trees, _) = m.boost(x, y);
        let lr = m.config.learning_rate;
        (0..q.rows())
            .map(|i| base + lr * trees.iter().map(|t| t.predict(q.row(i))).sum::<f64>())
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(cases(64)))]

        /// Any fit of depth 1–6, 1–40 trees and 1–8 features (constant
        /// and duplicated columns among them) scores every row — NaN,
        /// ±∞, ±0.0, values on a threshold and one ulp either side —
        /// bit for bit as the per-tree node walk does.
        #[test]
        fn the_ensemble_tables_score_bit_for_bit_as_the_node_walk(
            seed in proptest::prelude::any::<u64>(),
            depth in 1usize..=6,
            n_trees in 1usize..=40,
            d in 1usize..=8,
            n in 2usize..=40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Column kinds: coarse values (ties), constant, a copy of
            // column 0, wide values.
            let kinds: Vec<u32> = (0..d).map(|_| rng.gen_range(0..4u32)).collect();
            let mut x = Matrix::zeros(n, d);
            for i in 0..n {
                for (j, &kind) in kinds.iter().enumerate() {
                    x[(i, j)] = match kind {
                        0 => rng.gen_range(-2i32..=2) as f64 * 0.5,
                        1 => 3.0,
                        2 => x[(i, 0)],
                        _ => rng.gen_range(-1e3..1e3),
                    };
                }
            }
            let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let mut m = GbtRegressor::new(GbtConfig {
                n_trees,
                learning_rate: rng.gen_range(0.05..0.5),
                max_depth: depth,
                alpha: rng.gen_range(0.0..0.2),
                lambda: rng.gen_range(0.0..1.0),
                min_child_weight: rng.gen_range(0.0..2.0),
                subsample: rng.gen_range(0.5..1.0),
                colsample: rng.gen_range(0.3..1.0),
                seed: rng.gen_range(0..1000u64),
            });
            m.fit(&x, &y).unwrap();

            let mut pool = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
            for &t in m.ensemble.thresholds.iter() {
                pool.extend([t, t.next_up(), t.next_down()]);
            }
            pool.extend(x.row(0));
            let q = Matrix::from_fn(16, d, |_, _| pool[rng.gen_range(0..pool.len())]);

            let got = m.predict(&q).unwrap();
            proptest::prop_assert_eq!(bits(&got), bits(&walk(&m, &x, &y, &q)));
        }
    }
}
