//! The *predicted* fidelity tier: a model trained **online** on the
//! reports already flowing through a tuning session.
//!
//! The ladder in [`crate::backend`] trades simulation cost for fidelity
//! — counting, sampled, accurate. This module adds a rung *below* all
//! of them: once enough `(feature vector, accurate score)` pairs have
//! streamed past, a learned [`Predictor`] answers score queries without
//! simulating at all. Because every model behind
//! [`simtune_predict::PredictorKind`] also reports a per-query
//! uncertainty ([`simtune_predict::UncertainRegressor`]), the tier
//! knows *when not to trust itself*: the uncertainty-driven escalation
//! policy in [`crate::tune_with_fidelity_escalation`] only pays for an
//! accurate simulation when the model's confidence band around a
//! candidate still overlaps the incumbent best.
//!
//! Three pieces:
//!
//! * [`Prediction`] — a `(mean, std)` score estimate with the
//!   confidence-bound helper the escalation policy queries;
//! * [`Predictor`] / [`OnlinePredictor`] — the online-learning
//!   abstraction: observe pairs, refit incrementally mid-sweep, answer
//!   with uncertainty;
//! * [`PredictedBackend`] — a [`SimBackend`] wrapper that stamps its
//!   reports `predicted(<inner>)` and carries the shared predictor
//!   handle, so sessions built on it advertise the tier they answer
//!   from.
//!
//! Determinism: the predictor itself is deterministic under a fixed
//! seed (see the conformance suite in `simtune-predict`), and the
//! tuning loop trains and queries it **only on the producer thread, in
//! submission order** — so the tier composes with `n_parallel` workers
//! without perturbing results.

use crate::backend::{BackendError, SimBackend, SimReport};
use simtune_isa::{DecodedProgram, EngineKind, Executable, RunLimits};
use simtune_linalg::Matrix;
use simtune_predict::{PredictorKind, UncertainRegressor};
use std::sync::{Arc, Mutex};

/// A learned score estimate: posterior mean plus a one-sigma
/// uncertainty (GP posterior std, sub-ensemble spread or training
/// residual, depending on the model family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
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

/// An online score model: accumulates `(features, score)` observations
/// during a sweep, refits incrementally, and answers queries with a
/// [`Prediction`] once trained.
///
/// Implementations must be deterministic: identical observation
/// sequences (same order, same values) and identical refit points must
/// yield bit-identical predictions.
pub trait Predictor: Send {
    /// Label of the underlying model family (e.g. `"bayes"`).
    fn name(&self) -> &str;

    /// True once the model has been fit at least once and can answer
    /// [`Predictor::predict`] queries.
    fn ready(&self) -> bool;

    /// Number of `(features, score)` pairs observed so far.
    fn observations(&self) -> usize;

    /// Records one training pair. Does **not** refit — call
    /// [`Predictor::refit`] at batch boundaries so training cost stays
    /// amortized and the refit schedule stays deterministic.
    fn observe(&mut self, features: &[f64], score: f64);

    /// Refits the model on everything observed so far if the refit
    /// schedule says it is due. Returns `true` when a fit actually
    /// happened. A failed fit (degenerate data) leaves the previous
    /// model in place and returns `false` — the tier degrades to
    /// escalating everything rather than erroring out of a sweep.
    fn refit(&mut self) -> bool;

    /// Predicted score with uncertainty for one feature vector, or
    /// `None` while the model is not [`Predictor::ready`] (or the
    /// query is malformed, e.g. a feature-dimension mismatch).
    fn predict(&self, features: &[f64]) -> Option<Prediction>;
}

/// The default [`Predictor`]: any [`PredictorKind`] model behind a
/// min-train / refit-every schedule.
///
/// * No fit happens before `min_train` observations — a cold model
///   answers `None` and the escalation policy simulates everything,
///   which is exactly the behavior that produces its first training
///   set.
/// * After the first fit, the model refits once `refit_every` new
///   observations have accumulated (always on the *full* history, so
///   early noisy fits cannot lock in).
pub struct OnlinePredictor {
    label: String,
    model: Box<dyn UncertainRegressor>,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    min_train: usize,
    refit_every: usize,
    unfitted: usize,
    ready: bool,
}

impl std::fmt::Debug for OnlinePredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlinePredictor")
            .field("label", &self.label)
            .field("observations", &self.ys.len())
            .field("ready", &self.ready)
            .finish()
    }
}

impl OnlinePredictor {
    /// A fresh online model of the given family. `min_train` is clamped
    /// to at least 2 (no model fits on fewer points); `refit_every` to
    /// at least 1.
    pub fn new(kind: PredictorKind, seed: u64, min_train: usize, refit_every: usize) -> Self {
        OnlinePredictor {
            label: kind.label().to_string(),
            model: kind.build_uncertain(seed),
            xs: Vec::new(),
            ys: Vec::new(),
            min_train: min_train.max(2),
            refit_every: refit_every.max(1),
            unfitted: 0,
            ready: false,
        }
    }
}

impl Predictor for OnlinePredictor {
    fn name(&self) -> &str {
        &self.label
    }

    fn ready(&self) -> bool {
        self.ready
    }

    fn observations(&self) -> usize {
        self.ys.len()
    }

    fn observe(&mut self, features: &[f64], score: f64) {
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

    fn refit(&mut self) -> bool {
        let n = self.ys.len();
        if n < self.min_train {
            return false;
        }
        if self.ready && self.unfitted < self.refit_every {
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

    fn predict(&self, features: &[f64]) -> Option<Prediction> {
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

/// Shared handle to an online predictor. The tuning loop holds one and
/// a [`PredictedBackend`] holds the same one; all training and querying
/// happens on the producer thread, in submission order, so the mutex is
/// never contended — it only makes the handle `Sync` for session
/// plumbing.
pub type SharedPredictor = Arc<Mutex<Box<dyn Predictor>>>;

/// Wraps a [`Predictor`] into a [`SharedPredictor`] handle.
pub fn shared_predictor(p: impl Predictor + 'static) -> SharedPredictor {
    Arc::new(Mutex::new(Box::new(p)))
}

/// The bottom rung of the fidelity ladder: statistics come from a
/// cheap inner backend (counting or sampled), but the *score* each
/// report feeds is answered — whenever the model is confident — by the
/// attached [`Predictor`] instead of an accurate simulation.
///
/// The backend itself only forwards every run to the inner backend —
/// engine included — re-stamps the reports with its
/// own name, and opts out of memoization (its meaning
/// changes as the model learns, so cached reports would lie); the
/// escalate-or-trust decision lives in the tuning loop, which reads
/// the same [`SharedPredictor`] through [`PredictedBackend::predictor`].
pub struct PredictedBackend {
    inner: Arc<dyn SimBackend>,
    predictor: SharedPredictor,
    name: String,
}

impl std::fmt::Debug for PredictedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictedBackend")
            .field("inner", &self.inner.name())
            .field("name", &self.name)
            .finish()
    }
}

impl PredictedBackend {
    /// A predicted tier over `inner` (the backend that still produces
    /// the raw statistics feature vectors are extracted from).
    pub fn new(inner: Arc<dyn SimBackend>, predictor: SharedPredictor) -> Self {
        let name = format!("predicted({})", inner.name());
        PredictedBackend {
            inner,
            predictor,
            name,
        }
    }

    /// The shared online model this tier answers from.
    pub fn predictor(&self) -> &SharedPredictor {
        &self.predictor
    }

    /// Name of the wrapped statistics-producing backend.
    pub fn inner_name(&self) -> &str {
        self.inner.name()
    }

    fn restamp(&self, report: Result<SimReport, BackendError>) -> Result<SimReport, BackendError> {
        report.map(|r| SimReport {
            backend: self.name.clone(),
            ..r
        })
    }
}

impl SimBackend for PredictedBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
        self.restamp(self.inner.run_one(exe, limits))
    }

    fn run_one_decoded_on(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
        engine: EngineKind,
    ) -> Result<SimReport, BackendError> {
        self.restamp(self.inner.run_one_decoded_on(exe, decoded, limits, engine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FastCountBackend;
    use crate::KernelBuilder;
    use simtune_cache::HierarchyConfig;
    use simtune_tensor::{matmul, Schedule, TargetIsa};

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
        let mut p = OnlinePredictor::new(PredictorKind::LinReg, 7, 4, 3);
        assert_eq!(p.name(), "LinReg");
        assert!(!p.ready());
        assert!(p.predict(&[0.0, 0.0]).is_none());
        let pairs = linear_pairs(12);
        for (x, y) in &pairs[..3] {
            p.observe(x, *y);
        }
        assert!(!p.refit(), "below min_train must not fit");
        p.observe(&pairs[3].0, pairs[3].1);
        assert!(p.refit(), "min_train reached");
        assert!(p.ready());
        assert_eq!(p.observations(), 4);
        // Fresh fit means the counter is drained: an immediate refit
        // with nothing new is a no-op.
        assert!(!p.refit());
        p.observe(&pairs[4].0, pairs[4].1);
        p.observe(&pairs[5].0, pairs[5].1);
        assert!(!p.refit(), "two of three new observations");
        p.observe(&pairs[6].0, pairs[6].1);
        assert!(p.refit(), "refit_every reached");
        let q = p.predict(&[1.0, 0.5]).expect("trained");
        assert!((q.mean - (2.0 - 0.5 + 0.25)).abs() < 1e-6);
        assert!(q.std.is_finite() && q.std >= 0.0);
        assert!(q.lower(2.0) <= q.mean);
    }

    #[test]
    fn online_predictor_drops_poisonous_observations() {
        let mut p = OnlinePredictor::new(PredictorKind::LinReg, 0, 2, 1);
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
            let mut p = OnlinePredictor::new(PredictorKind::Xgboost, seed, 4, 2);
            for (x, y) in linear_pairs(10) {
                p.observe(&x, y);
                p.refit();
            }
            p.predict(&[0.7, 0.3]).expect("trained")
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn predicted_backend_restamps_reports() {
        let backend = PredictedBackend::new(
            Arc::new(FastCountBackend::matching(&HierarchyConfig::riscv_u74())),
            shared_predictor(OnlinePredictor::new(PredictorKind::LinReg, 0, 4, 2)),
        );
        assert_eq!(backend.name(), "predicted(fast-count)");
        assert_eq!(backend.inner_name(), "fast-count");
        assert!(
            backend.fidelity_digest().is_none(),
            "learned tier must not memoize"
        );
        let def = matmul(8, 8, 8);
        let builder = KernelBuilder::new(def.clone(), TargetIsa::riscv_u74());
        let exe = builder.build(&Schedule::default_for(&def), "mm").unwrap();
        let report = backend.run_one(&exe, &RunLimits::default()).unwrap();
        assert_eq!(report.backend, "predicted(fast-count)");
        assert!(report.stats.inst_mix.total() > 0);
        assert!(backend.predictor().lock().unwrap().observations() == 0);
    }

    /// Inner backend that journals the engine of every run that reaches
    /// it.
    #[derive(Default)]
    struct Recorder {
        engines: Mutex<Vec<EngineKind>>,
    }

    impl SimBackend for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn run_one(&self, _: &Executable, _: &RunLimits) -> Result<SimReport, BackendError> {
            Ok(SimReport::full(Default::default(), "recorder"))
        }
        fn run_one_decoded_on(
            &self,
            exe: &Executable,
            _: &DecodedProgram,
            limits: &RunLimits,
            engine: EngineKind,
        ) -> Result<SimReport, BackendError> {
            self.engines.lock().unwrap().push(engine);
            self.run_one(exe, limits)
        }
    }

    #[test]
    fn engine_reaches_the_inner_backend() {
        let inner = Arc::new(Recorder::default());
        let backend = Arc::new(PredictedBackend::new(
            inner.clone(),
            shared_predictor(OnlinePredictor::new(PredictorKind::LinReg, 0, 4, 2)),
        ));
        let def = matmul(4, 4, 4);
        let builder = KernelBuilder::new(def.clone(), TargetIsa::riscv_u74());
        let schedule = Schedule::default_for(&def);
        let exes: Vec<Executable> = (0..3)
            .map(|i| builder.build(&schedule, &format!("t{i}")).unwrap())
            .collect();
        let session = |engine| {
            crate::SimSession::builder()
                .backend(backend.clone())
                .engine(engine)
                .n_parallel(1)
                .build()
                .unwrap()
        };
        // Engines arrive as configured, not as the default.
        for engine in EngineKind::ALL {
            for r in session(engine).run(&exes) {
                assert_eq!(r.unwrap().backend, "predicted(recorder)");
            }
            assert_eq!(*inner.engines.lock().unwrap(), [engine; 3]);
            inner.engines.lock().unwrap().clear();
        }
    }
}
