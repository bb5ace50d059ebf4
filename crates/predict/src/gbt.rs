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
    /// Maximum tree depth.
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

/// A node of a regression tree, stored in a flat arena. Indices are
/// `u32` so a node takes 24 bytes, not 40: a fitted 300-tree model is
/// resident for as long as it scores, and a tree never nears 2³² nodes.
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
    nodes: Box<[Node]>,
}

impl Tree {
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
}

/// Gradient-boosted regression trees with XGBoost's second-order
/// regularized objective.
///
/// For squared loss the gradient is `pred − y` and the hessian is 1; a
/// split's gain is
/// `½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)]` with L1 soft-thresholding
/// of the gradient sums by `α`, and leaves weigh `−G/(H+λ)`.
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
    trees: Vec<Tree>,
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
            trees: Vec::new(),
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
        self.trees.len()
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
        let (n, d) = x.shape();
        self.n_features = d;
        self.base_score = y.iter().sum::<f64>() / n as f64;
        self.trees.clear();

        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(0x9B7));
        let mut pred = vec![self.base_score; n];

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
            // Exactly sized: the growth slack of 300 trees adds up.
            let tree = Tree {
                nodes: nodes.into_boxed_slice(),
            };
            for (i, p) in pred.iter_mut().enumerate() {
                *p += self.config.learning_rate * tree.predict(x.row(i));
            }
            self.trees.push(tree);
        }
        if pred.iter().any(|p| !p.is_finite()) {
            return Err(PredictError::Diverged);
        }
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, PredictError> {
        if self.trees.is_empty() {
            return Err(PredictError::NotFitted);
        }
        check_features(self.n_features, x)?;
        Ok((0..x.rows())
            .map(|i| {
                let row = x.row(i);
                self.base_score
                    + self.config.learning_rate
                        * self.trees.iter().map(|t| t.predict(row)).sum::<f64>()
            })
            .collect())
    }

    /// Sub-ensemble spread: the trees are split round-robin into up to
    /// four folds, each fold's rescaled prediction is an independent
    /// estimate, and the reported uncertainty is the standard deviation
    /// across folds. The mean stays the full ensemble's prediction.
    fn predict_with_uncertainty(&self, x: &Matrix) -> Result<(Vec<f64>, Vec<f64>), PredictError> {
        if self.trees.is_empty() {
            return Err(PredictError::NotFitted);
        }
        check_features(self.n_features, x)?;
        let n_trees = self.trees.len();
        let folds = 4.min(n_trees);
        let means = self.predict(x)?;
        let stds = (0..x.rows())
            .map(|i| {
                let row = x.row(i);
                let mut fold_sums = vec![0.0f64; folds];
                let mut fold_counts = vec![0usize; folds];
                for (t, tree) in self.trees.iter().enumerate() {
                    fold_sums[t % folds] += tree.predict(row);
                    fold_counts[t % folds] += 1;
                }
                // Each fold rescaled as if it were the full ensemble.
                let estimates: Vec<f64> = fold_sums
                    .iter()
                    .zip(&fold_counts)
                    .map(|(s, &c)| {
                        self.base_score
                            + self.config.learning_rate * s * n_trees as f64 / c.max(1) as f64
                    })
                    .collect();
                let mean = estimates.iter().sum::<f64>() / folds as f64;
                let var = estimates
                    .iter()
                    .map(|e| (e - mean) * (e - mean))
                    .sum::<f64>()
                    / folds as f64;
                var.sqrt()
            })
            .collect();
        Ok((means, stds))
    }

    fn name(&self) -> &'static str {
        "xgboost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Loss;

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
        for t in &m.trees {
            // A stump has at most 3 nodes.
            assert!(t.nodes.len() <= 3, "stump with {} nodes", t.nodes.len());
        }
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
            m.trees[0]
                .nodes
                .iter()
                .filter_map(|n| match n {
                    Node::Leaf { weight } => Some(weight.abs()),
                    _ => None,
                })
                .fold(0.0, f64::max)
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
        for t in &m.trees {
            assert_eq!(t.nodes.len(), 1, "root must stay a leaf");
        }
    }

    #[test]
    fn sub_ensemble_uncertainty_keeps_the_full_mean() {
        let x = Matrix::from_fn(60, 1, |i, _| i as f64 / 6.0);
        let y: Vec<f64> = (0..60).map(|i| (i as f64 / 6.0).sin()).collect();
        let mut m = GbtRegressor::new(quick(7));
        m.fit(&x, &y).unwrap();
        let plain = m.predict(&x).unwrap();
        let (means, stds) = m.predict_with_uncertainty(&x).unwrap();
        assert_eq!(means, plain);
        assert!(stds.iter().all(|s| s.is_finite() && *s >= 0.0));
        // With subsampling on, the folds must actually disagree somewhere.
        let mut cfg = quick(8);
        cfg.subsample = 0.5;
        let mut m2 = GbtRegressor::new(cfg);
        m2.fit(&x, &y).unwrap();
        let (_, stds2) = m2.predict_with_uncertainty(&x).unwrap();
        assert!(stds2.iter().any(|s| *s > 0.0));
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
}
