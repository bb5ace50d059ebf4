//! The online model behind the uncertainty escalation policy
//! ([`crate::EscalationPolicy::Uncertainty`]).
//!
//! The learned tier is not a backend: candidates explore on any cheap
//! [`crate::FidelitySpec`] tier, exactly as under top-k, and this model
//! — trained **online** on the accurate scores the sweep itself
//! produces — decides which of them are worth an accurate simulation.
//! Every model behind [`simtune_predict::PredictorKind`] reports a
//! per-query uncertainty
//! ([`simtune_predict::Regressor::predict_with_uncertainty`]), so the
//! policy knows *when not to trust the model*: it only pays for an
//! accurate simulation while the confidence band around a candidate
//! still overlaps the incumbent best.
//!
//! Determinism: the model is deterministic under a fixed seed (see the
//! conformance suite in `simtune-predict`), and the tuning loop trains
//! and queries it **only on the producer thread, in submission order**
//! — so the policy composes with `n_parallel` workers without
//! perturbing results.

use simtune_linalg::Matrix;
use simtune_predict::{PredictorKind, Regressor};

/// After the first fit, the model refits once this many new
/// observations have accumulated.
const REFIT_EVERY: usize = 4;

/// A learned score estimate: posterior mean plus a one-sigma
/// uncertainty (GP posterior std, sub-ensemble spread or training
/// residual, depending on the model family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Prediction {
    /// Predicted score (lower = better, same scale as the accurate
    /// tier's scores).
    pub mean: f64,
    /// One-sigma uncertainty around `mean`; non-negative and finite.
    pub std: f64,
}

impl Prediction {
    /// Lower confidence bound `mean − beta·std` — the optimistic score
    /// the escalation policy compares against the incumbent best.
    pub fn lower(&self, beta: f64) -> f64 {
        self.mean - beta * self.std
    }
}

/// Any [`PredictorKind`] model behind a min-train / refit schedule.
///
/// * No fit happens before `min_train` observations — a cold model
///   answers `None` and the escalation policy simulates everything,
///   which is exactly the behavior that produces its first training
///   set.
/// * After the first fit, the model refits once [`REFIT_EVERY`] new
///   observations have accumulated (always on the *full* history, so
///   early noisy fits cannot lock in).
///
/// Identical observation sequences (same order, same values) and
/// identical refit points yield bit-identical predictions.
pub(crate) struct OnlinePredictor {
    model: Box<dyn Regressor>,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    min_train: usize,
    unfitted: usize,
    ready: bool,
}

impl OnlinePredictor {
    /// A fresh online model of the given family. `min_train` is clamped
    /// to at least 2 (no model fits on fewer points).
    pub fn new(kind: PredictorKind, seed: u64, min_train: usize) -> Self {
        OnlinePredictor {
            model: kind.build(seed),
            xs: Vec::new(),
            ys: Vec::new(),
            min_train: min_train.max(2),
            unfitted: 0,
            ready: false,
        }
    }

    /// Number of `(features, score)` pairs observed so far.
    pub fn observations(&self) -> usize {
        self.ys.len()
    }

    /// Records one training pair. Does **not** refit — call
    /// [`OnlinePredictor::refit`] at batch boundaries so training cost
    /// stays amortized and the refit schedule stays deterministic.
    pub fn observe(&mut self, features: &[f64], score: f64) {
        // A non-finite score (failed candidate) would poison every
        // model family's loss; the pair is dropped, not stored.
        if !score.is_finite() || features.iter().any(|v| !v.is_finite()) {
            return;
        }
        if let Some(first) = self.xs.first() {
            if first.len() != features.len() {
                return;
            }
        }
        self.xs.push(features.to_vec());
        self.ys.push(score);
        self.unfitted += 1;
    }

    /// Refits the model on everything observed so far if the refit
    /// schedule says it is due. Returns `true` when a fit actually
    /// happened. A failed fit (degenerate data) leaves the previous
    /// model in place and returns `false` — the policy degrades to
    /// escalating everything rather than erroring out of a sweep.
    pub fn refit(&mut self) -> bool {
        let n = self.ys.len();
        if n < self.min_train {
            return false;
        }
        if self.ready && self.unfitted < REFIT_EVERY {
            return false;
        }
        let d = self.xs[0].len();
        let flat: Vec<f64> = self.xs.iter().flatten().copied().collect();
        let Ok(x) = Matrix::from_vec(n, d, flat) else {
            return false;
        };
        match self.model.fit(&x, &self.ys) {
            Ok(()) => {
                self.ready = true;
                self.unfitted = 0;
                true
            }
            Err(_) => false,
        }
    }

    /// Predicted score with uncertainty for one feature vector, or
    /// `None` before the first fit (or for a malformed query, e.g. a
    /// feature-dimension mismatch).
    pub fn predict(&self, features: &[f64]) -> Option<Prediction> {
        if !self.ready {
            return None;
        }
        let x = Matrix::from_vec(1, features.len(), features.to_vec()).ok()?;
        let (means, stds) = self.model.predict_with_uncertainty(&x).ok()?;
        let (mean, std) = (means[0], stds[0]);
        if !mean.is_finite() || !std.is_finite() {
            return None;
        }
        Some(Prediction { mean, std })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_pairs(n: usize) -> Vec<(Vec<f64>, f64)> {
        (0..n)
            .map(|i| {
                let a = (i % 7) as f64 / 3.0;
                let b = ((i * 3) % 5) as f64 / 2.0;
                (vec![a, b], 2.0 * a - b + 0.25)
            })
            .collect()
    }

    #[test]
    fn online_predictor_follows_the_refit_schedule() {
        let mut p = OnlinePredictor::new(PredictorKind::LinReg, 7, 4);
        assert!(!p.ready);
        assert!(p.predict(&[0.0, 0.0]).is_none());
        let pairs = linear_pairs(12);
        for (x, y) in &pairs[..3] {
            p.observe(x, *y);
        }
        assert!(!p.refit(), "below min_train must not fit");
        p.observe(&pairs[3].0, pairs[3].1);
        assert!(p.refit(), "min_train reached");
        assert!(p.ready);
        assert_eq!(p.observations(), 4);
        // Fresh fit means the counter is drained: an immediate refit
        // with nothing new is a no-op.
        assert!(!p.refit());
        for (x, y) in &pairs[4..7] {
            p.observe(x, *y);
        }
        assert!(!p.refit(), "three of four new observations");
        p.observe(&pairs[7].0, pairs[7].1);
        assert!(p.refit(), "REFIT_EVERY reached");
        let q = p.predict(&[1.0, 0.5]).expect("trained");
        assert!((q.mean - (2.0 - 0.5 + 0.25)).abs() < 1e-6);
        assert!(q.std.is_finite() && q.std >= 0.0);
        assert!(q.lower(2.0) <= q.mean);
    }

    #[test]
    fn online_predictor_drops_poisonous_observations() {
        let mut p = OnlinePredictor::new(PredictorKind::LinReg, 0, 2);
        p.observe(&[1.0, 2.0], f64::INFINITY);
        p.observe(&[f64::NAN, 2.0], 1.0);
        p.observe(&[1.0, 2.0], 1.0);
        p.observe(&[1.0], 1.0); // dimension mismatch vs. first kept pair
        assert_eq!(p.observations(), 1);
        assert!(!p.refit());
        // A malformed query never panics, it just declines to answer.
        p.observe(&[2.0, 1.0], 2.0);
        p.observe(&[0.5, 0.25], 0.5);
        assert!(p.refit());
        assert!(p.predict(&[1.0]).is_none());
    }

    #[test]
    fn online_predictor_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut p = OnlinePredictor::new(PredictorKind::Xgboost, seed, 4);
            for (x, y) in linear_pairs(10) {
                p.observe(&x, y);
                p.refit();
            }
            p.predict(&[0.7, 0.3]).expect("trained")
        };
        assert_eq!(run(11), run(11));
    }
}
