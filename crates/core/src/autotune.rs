//! Tuners and the execution-phase tuning loop.
//!
//! Mirrors the search side of the paper's Fig. 2: a pluggable
//! [`SearchStrategy`] generates candidate implementations batch-wise;
//! candidates are built, executed on `n_parallel` simulators, scored (by
//! a trained score predictor or by hardware measurement), and the
//! strategy evolves the next batch from the scores. Which strategy runs
//! is selected through [`TuneOptions::strategy`]; the default
//! [`RandomSearch`](crate::RandomSearch) reproduces the historical
//! random-sampling tuner bit-for-bit.
//!
//! That loop exists once, as the private `drive`. A tuning flow is a
//! search space plus an evaluator: the paper's Listing 3
//! (Auto-Scheduler sketches) and Listing 4 (AutoTVM templates,
//! [`tune_template_space`]) differ only in where candidates come from;
//! simulator-plus-predictor and the board ([`tune_on_hardware`]) differ
//! only in what measures a built batch. Fidelity escalation
//! ([`tune_with_fidelity_escalation`]) is the simulator flow on a cheap
//! [`FidelitySpec`] tier followed by an accurate re-simulation of the
//! `top_k` finalists.

use crate::backend::{SimBackend, SimReport, SimSession};
use crate::features::{WindowKind, WindowNormalizer};
use crate::fidelity::FidelitySpec;
use crate::memo::{RequestKey, RequestKeys, SimCache};
use crate::metrics::{ConvergenceStats, StageTimings};
use crate::pool::BatchTicket;
use crate::runner::{HardwareRunner, KernelBuilder};
use crate::score::ScorePredictor;
use crate::search::{Evaluation, SearchStrategy, StrategySpec};
use crate::CoreError;
use simtune_hw::TargetSpec;
use simtune_isa::{EngineKind, Executable};
use simtune_tensor::{ComputeDef, ConfigSpace, Schedule, SketchGenerator, SketchParams};
use std::sync::Arc;
use std::time::Instant;

/// Options of one tuning session.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Total candidates to evaluate.
    pub n_trials: usize,
    /// Candidates per batch (the Auto-Scheduler generates batch-wise).
    pub batch_size: usize,
    /// Parallel simulator instances.
    pub n_parallel: usize,
    /// Window policy for score normalization during inference.
    pub window: WindowKind,
    /// Base seed (drives the search strategy and, for the hardware flow,
    /// the measurement noise).
    pub seed: u64,
    /// Which [`SearchStrategy`] proposes candidates. The default
    /// [`StrategySpec::Random`] reproduces the pre-subsystem sampling
    /// loop bit-identically; [`StrategySpec::Custom`] plugs in any boxed
    /// user strategy.
    pub strategy: StrategySpec,
    /// Simulation memo cache attached to every session this tuning run
    /// creates. Share one `Arc<SimCache>` across runs (or with
    /// [`crate::CollectOptions::memo_cache`]) so candidates revisited
    /// anywhere in the workflow skip the backend entirely. `None`
    /// disables memoization.
    pub memo_cache: Option<Arc<SimCache>>,
    /// Replay engine used by every simulator session this run creates —
    /// a pure host-speed knob, pinned bit-identical across engines by
    /// the equivalence suite.
    pub engine: EngineKind,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            n_trials: 64,
            batch_size: 16,
            n_parallel: 8,
            window: WindowKind::Dynamic,
            seed: 0,
            strategy: StrategySpec::default(),
            memo_cache: None,
            engine: EngineKind::default(),
        }
    }
}

/// One evaluated candidate in a tuning history.
#[derive(Debug, Clone)]
pub struct TuneRecord {
    /// Genotype description.
    pub description: String,
    /// The applied schedule (`Schedule::default()` for a candidate that
    /// failed to build).
    pub schedule: Schedule,
    /// Score assigned during tuning (lower = better; predictor score or
    /// measured seconds depending on the flow).
    pub score: f64,
}

/// Result of a tuning session.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Every evaluated candidate, in evaluation order.
    pub history: Vec<TuneRecord>,
    /// Index of the best candidate in `history`.
    pub best_index: usize,
    /// Label of the strategy that drove the search.
    pub strategy: String,
    /// The strategy's convergence counters at the end of the run.
    pub convergence: ConvergenceStats,
    /// Executions submitted to the backing evaluator: simulator runs for
    /// the simulator flows, hardware measurements for
    /// [`tune_on_hardware`]. With a memo cache attached this counts
    /// submissions, not backend executions — see
    /// [`crate::SimCache::stats`] for hit/miss counters.
    pub simulations: usize,
    /// Producer-side wall time per pipeline stage. `sim_nanos` only
    /// counts time the loop spent submitting to, and blocked on, the
    /// simulator — with a pipeline-safe strategy, simulation overlapped
    /// by the build of the next batch is invisible here. Wall-clock
    /// values: identical reruns produce identical history but different
    /// timings.
    pub timings: StageTimings,
    /// Host nanoseconds the backends reported spending inside simulator
    /// replay for this run's scored candidates (Σ
    /// [`simtune_isa::SimStats::host_nanos`] over successful reports;
    /// memo hits contribute the stored value). The denominator for the
    /// per-engine replay-throughput counters in the perf harness; `0`
    /// for [`tune_on_hardware`], which never replays.
    pub replay_nanos: u64,
}

impl TuneResult {
    /// The best candidate's record.
    pub fn best(&self) -> &TuneRecord {
        &self.history[self.best_index]
    }
}

/// Execution-phase tuning (Fig. 4-II): candidates run **only on the
/// simulator**; a trained [`ScorePredictor`] turns statistics into
/// scores. The target hardware is not needed — the scenario that enables
/// pre-silicon tuning and cross-ISA tuning on x86 hosts.
///
/// The strategy configured in [`TuneOptions::strategy`] proposes the
/// candidates; every strategy composes with the memo cache and any
/// backend because the loop is strategy-agnostic.
///
/// # Errors
///
/// Propagates pipeline failures; individual failed candidates are
/// penalized, not fatal.
pub fn tune_with_predictor(
    def: &ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
) -> Result<TuneResult, CoreError> {
    let session = session(FidelitySpec::Accurate.build(&spec.hierarchy)?, opts)?;
    tune_with_predictor_on(def, spec, predictor, opts, &session)
}

/// [`tune_with_predictor`] on a caller-provided session instead of a
/// freshly built one — the entry point [`crate::SimService`] tenants
/// use, so N concurrent tuning loops share one worker pool and one memo
/// cache. `opts.n_parallel` and `opts.memo_cache` are ignored in favor
/// of the session's own pool and cache.
///
/// # Errors
///
/// Propagates pipeline failures; individual failed candidates are
/// penalized, not fatal.
pub fn tune_with_predictor_on(
    def: &ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
    session: &SimSession,
) -> Result<TuneResult, CoreError> {
    require_trained(predictor)?;
    let mut eval = SessionScore::new(session, predictor, opts);
    drive_sketch(def, spec, opts, 't', &mut eval)
}

/// AutoTVM-style tuning (the paper's Listing 4): the same loop as
/// [`tune_with_predictor`] over a template [`ConfigSpace`] instead of
/// sketches. Configurations are materialized, built, run on
/// `n_parallel` simulators and scored by a trained predictor; invalid
/// configurations receive an infinite score, exactly like failed builds
/// in TVM. The "selectable tuning algorithms" of Section II-A are the
/// [`SearchStrategy`] implementations, selected through
/// [`TuneOptions::strategy`].
///
/// # Errors
///
/// Propagates pipeline failures; returns [`CoreError::Pipeline`] when
/// the predictor is untrained, the space yields nothing, or the
/// strategy spec cannot drive a template space
/// ([`crate::StrategySpec::Custom`]).
pub fn tune_template_space(
    def: &ComputeDef,
    spec: &TargetSpec,
    space: &ConfigSpace,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
) -> Result<TuneResult, CoreError> {
    require_trained(predictor)?;
    let session = session(FidelitySpec::Accurate.build(&spec.hierarchy)?, opts)?;
    let mut eval = SessionScore::new(&session, predictor, opts);
    let mut strategy = opts.strategy.build_template(space.clone(), opts.seed)?;
    let materialize = |cfg: &Vec<usize>| (format!("config {cfg:?}"), space.schedule(def, cfg).ok());
    drive(
        def,
        spec,
        strategy.as_mut(),
        opts,
        'c',
        materialize,
        &mut eval,
    )
}

/// Baseline flow: candidates are benchmarked on the (emulated) target
/// hardware; the score is the measured `t_ref` in seconds. Record *i* of
/// the history is measured under noise index *i*.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn tune_on_hardware(
    def: &ComputeDef,
    spec: &TargetSpec,
    opts: &TuneOptions,
) -> Result<TuneResult, CoreError> {
    let runner = HardwareRunner {
        noise_seed: opts.seed ^ 0x7A11,
        ..HardwareRunner::new(spec.clone())
    };
    let session = session(runner.board(), opts)?;
    let mut eval = HardwareMeasure { runner, session };
    drive_sketch(def, spec, opts, 'h', &mut eval)
}

/// The one simulator-session recipe of the stand-alone fronts.
fn session(backend: Arc<dyn SimBackend>, opts: &TuneOptions) -> Result<SimSession, CoreError> {
    SimSession::builder()
        .backend(backend)
        .n_parallel(opts.n_parallel)
        .memo_cache_opt(opts.memo_cache.clone())
        .engine(opts.engine)
        .build()
}

fn require_trained(predictor: &ScorePredictor) -> Result<(), CoreError> {
    if predictor.is_trained() {
        Ok(())
    } else {
        Err(CoreError::Pipeline("predictor is not trained".into()))
    }
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// What measures a built batch — besides the search space, the only
/// part of a tuning flow that varies. One score per trial comes back in
/// submission order; `INFINITY` marks a failed run.
trait Evaluate {
    /// A batch handed over by [`Evaluate::start`], not yet scored.
    type Pending;

    /// Request keys for `builder`'s candidates when this evaluator can
    /// [recall](Evaluate::recall) them; `None` (the default) computes
    /// no key and builds every candidate.
    fn request_keys(&self, _builder: &KernelBuilder) -> Option<RequestKeys> {
        None
    }

    /// The report of a candidate already simulated under `request`, so
    /// the driver need not build it; `None` builds it.
    fn recall(&self, _request: &RequestKey) -> Option<SimReport> {
        None
    }

    /// Takes a staged batch whose first trial will be history record
    /// `first_index`. It may return while the batch is still being
    /// measured: the driver stages the next batch meanwhile.
    fn start(&mut self, trials: Vec<Trial>, first_index: usize) -> Self::Pending;

    /// Blocks until the batch is measured and scores it, charging the
    /// wait to `sim_nanos` and the scoring to `score_nanos`.
    fn finish(
        &mut self,
        pending: Self::Pending,
        timings: &mut StageTimings,
    ) -> Result<Vec<f64>, CoreError>;

    /// Host nanoseconds spent inside simulator replay so far (`0` for
    /// an evaluator that never replays on a simulator).
    fn replay_nanos(&self) -> u64 {
        0
    }
}

/// One candidate of a staged batch, as the evaluator receives it.
enum Trial {
    /// Built, with its request key when the evaluator computes them.
    Built(Executable, Option<RequestKey>),
    /// Answered by [`Evaluate::recall`], never built.
    Recalled(SimReport),
}

impl Trial {
    /// The executable of a built trial, for evaluators that recall
    /// nothing and so never receive any other.
    fn into_built(self) -> Executable {
        match self {
            Trial::Built(exe, _) => exe,
            Trial::Recalled(_) => unreachable!("an evaluator without request keys recalls nothing"),
        }
    }
}

/// A proposed-and-staged batch handed to the evaluator. Failed builds
/// never reach it; they trail the batch's records with `INFINITY`.
struct Staged<P, T> {
    kept: Vec<(P, String, Schedule)>,
    failed: Vec<(P, String)>,
    pending: T,
}

/// Builds one candidate of [`drive`]; unit tests count the calls.
fn build(builder: &KernelBuilder, schedule: &Schedule, name: &str) -> Option<Executable> {
    #[cfg(test)]
    tests::BUILDS.with(|n| n.set(n.get() + 1));
    builder.build(schedule, name).ok()
}

/// The tuning loop of the paper's Fig. 2, once: the strategy proposes
/// batch-wise, the batch is materialized and built, `eval` measures and
/// scores it, the scores go back to the strategy. Every front is this
/// driver over a search space (`strategy` + `materialize`, which turns
/// a point into its description and — unless the point is invalid — its
/// schedule) and an [`Evaluate`] impl.
///
/// The loop is *pipelined*: when the strategy's proposals cannot depend
/// on scores ([`SearchStrategy::pipeline_safe`]), the next batch is
/// proposed and built **while the previous one simulates** on the
/// persistent pool — the Pac-Sim overlap trick, applied to lowering.
/// Otherwise propose → measure → observe stay strictly sequenced, so
/// the visit order is bit-identical either way, at every `n_parallel`.
///
/// Before building a candidate the driver asks the evaluator to
/// [recall](Evaluate::recall) it by its request key: a candidate whose
/// report the memo already holds skips build, fingerprint and submit,
/// and its report joins the batch in submission order — so the scores,
/// the strategy and the history are what building it would have given.
///
/// Each batch is recorded built (or recalled) candidates first, in
/// proposal order, then the candidates that failed to build;
/// `simulations` counts the former (handed to the evaluator, whether
/// memoized, failed or completed).
fn drive<P, E: Evaluate>(
    def: &ComputeDef,
    spec: &TargetSpec,
    strategy: &mut dyn SearchStrategy<P>,
    opts: &TuneOptions,
    tag: char,
    mut materialize: impl FnMut(&P) -> (String, Option<Schedule>),
    eval: &mut E,
) -> Result<TuneResult, CoreError> {
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let requests = eval.request_keys(&builder);
    let mut history: Vec<TuneRecord> = Vec::new();
    let mut evaluations: Vec<Evaluation<P>> = Vec::new();
    let mut simulations = 0usize;
    let mut timings = StageTimings::default();
    let overlap = strategy.pipeline_safe();
    let mut inflight: Option<Staged<P, E::Pending>> = None;
    let mut exhausted = false;
    loop {
        // Stage the next batch. When overlapping this happens while
        // `inflight` is still being measured; otherwise only when
        // nothing is in flight (scores must reach `observe` first).
        let committed = history.len()
            + inflight
                .as_ref()
                .map_or(0, |s| s.kept.len() + s.failed.len());
        let staged = if !exhausted && committed < opts.n_trials && (overlap || inflight.is_none()) {
            let want = opts.batch_size.min(opts.n_trials - committed);
            let t0 = Instant::now();
            let batch = strategy.propose(&evaluations, want);
            timings.propose_nanos += since(t0);
            if batch.is_empty() {
                exhausted = true; // search space exhausted
                None
            } else {
                let t0 = Instant::now();
                let name = format!("{}{tag}{committed}", def.name);
                let (mut trials, mut kept, mut failed) = (Vec::new(), Vec::new(), Vec::new());
                for p in batch {
                    let (description, schedule) = materialize(&p);
                    let Some(schedule) = schedule else {
                        failed.push((p, description));
                        continue;
                    };
                    let request = requests.as_ref().map(|keys| keys.key(&schedule));
                    let trial = match request.and_then(|r| eval.recall(&r)) {
                        Some(report) => Trial::Recalled(report),
                        None => match build(&builder, &schedule, &name) {
                            Some(exe) => Trial::Built(exe, request),
                            None => {
                                failed.push((p, description));
                                continue;
                            }
                        },
                    };
                    trials.push(trial);
                    kept.push((p, description, schedule));
                }
                timings.build_nanos += since(t0);
                simulations += trials.len();
                let t0 = Instant::now();
                let pending = eval.start(trials, committed);
                timings.sim_nanos += since(t0);
                Some(Staged {
                    kept,
                    failed,
                    pending,
                })
            }
        } else {
            None
        };

        let finished = inflight.take();
        inflight = staged;
        let Some(done) = finished else {
            if inflight.is_none() {
                break;
            }
            continue;
        };

        // Score and observe the finished batch in submission order —
        // parallelism and pipelining never reorder the stream the
        // evaluator's normalizer and the strategy see.
        let scores = eval.finish(done.pending, &mut timings)?;
        let t0 = Instant::now();
        let first = evaluations.len();
        for ((point, description, schedule), score) in done.kept.into_iter().zip(scores) {
            evaluations.push(Evaluation { point, score });
            history.push(TuneRecord {
                description,
                schedule,
                score,
            });
        }
        for (point, description) in done.failed {
            let score = f64::INFINITY;
            evaluations.push(Evaluation { point, score });
            history.push(TuneRecord {
                description,
                schedule: Schedule::default(),
                score,
            });
        }
        strategy.observe(&evaluations[first..]);
        timings.score_nanos += since(t0);
    }
    let best_index = argmin_score(&history)
        .ok_or_else(|| CoreError::Pipeline("tuning produced no candidates".into()))?;
    Ok(TuneResult {
        history,
        best_index,
        strategy: strategy.name().to_string(),
        convergence: strategy.convergence(),
        simulations,
        timings,
        replay_nanos: eval.replay_nanos(),
    })
}

/// [`drive`] over the Auto-Scheduler-style sketch space of the paper's
/// Listing 3.
fn drive_sketch<E: Evaluate>(
    def: &ComputeDef,
    spec: &TargetSpec,
    opts: &TuneOptions,
    tag: char,
    eval: &mut E,
) -> Result<TuneResult, CoreError> {
    let generator = SketchGenerator::new(def, spec.isa.clone());
    let mut strategy = opts.strategy.build_sketch(generator.clone(), opts.seed);
    let materialize = |p: &SketchParams| (format!("{p:?}"), Some(generator.schedule(p)));
    drive(def, spec, strategy.as_mut(), opts, tag, materialize, eval)
}

/// Index of the lowest score (the first one on ties); `None` for an
/// empty history.
fn argmin_score(history: &[TuneRecord]) -> Option<usize> {
    history
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.score.partial_cmp(&b.1.score).expect("finite or inf"))
        .map(|(i, _)| i)
}

/// *Session-score*: submit to a [`SimSession`], wait, turn each report
/// into a score with the trained predictor. One normalizer for the
/// whole run: the window means evolve over the full candidate stream,
/// not per batch.
///
/// The one evaluator that recalls: when the session memoizes, a
/// candidate whose request already built a program with a resident
/// report is answered by `SimSession::recall` (counted as the memo hit
/// its submission would have been) and never built; its report takes
/// its place among the batch's reports.
struct SessionScore<'a> {
    session: &'a SimSession,
    predictor: &'a ScorePredictor,
    normalizer: WindowNormalizer,
    replay_nanos: u64,
}

impl<'a> SessionScore<'a> {
    fn new(session: &'a SimSession, predictor: &'a ScorePredictor, opts: &TuneOptions) -> Self {
        SessionScore {
            session,
            predictor,
            normalizer: WindowNormalizer::new(opts.window),
            replay_nanos: 0,
        }
    }
}

impl Evaluate for SessionScore<'_> {
    /// The submitted builds, and per trial its recalled report (`None`
    /// for a built trial, answered by the ticket in order).
    type Pending = (BatchTicket, Vec<Option<SimReport>>);

    fn request_keys(&self, builder: &KernelBuilder) -> Option<RequestKeys> {
        self.session.request_keys(builder)
    }

    fn recall(&self, request: &RequestKey) -> Option<SimReport> {
        self.session.recall(request)
    }

    fn start(&mut self, trials: Vec<Trial>, _first_index: usize) -> Self::Pending {
        let (mut exes, mut requests) = (Vec::new(), Vec::new());
        let recalled = trials
            .into_iter()
            .map(|trial| match trial {
                Trial::Built(exe, request) => {
                    exes.push(exe);
                    requests.extend(request);
                    None
                }
                Trial::Recalled(report) => Some(report),
            })
            .collect();
        (self.session.submit_keyed(exes, &requests), recalled)
    }

    fn finish(
        &mut self,
        (ticket, recalled): Self::Pending,
        timings: &mut StageTimings,
    ) -> Result<Vec<f64>, CoreError> {
        let t0 = Instant::now();
        let mut simulated = ticket.wait().into_iter();
        timings.sim_nanos += since(t0);
        let t0 = Instant::now();
        let mut scores = Vec::with_capacity(recalled.len());
        for slot in recalled {
            let report = match slot {
                Some(report) => Ok(report),
                None => simulated.next().expect("one report per built trial"),
            };
            scores.push(match report {
                Ok(report) => {
                    self.replay_nanos += report.stats.host_nanos;
                    self.predictor
                        .score_streaming(&report.stats, &mut self.normalizer)?
                }
                Err(_) => f64::INFINITY,
            });
        }
        timings.score_nanos += since(t0);
        Ok(scores)
    }

    fn replay_nanos(&self) -> u64 {
        self.replay_nanos
    }
}

/// *Hardware-measure*: the batch's board runs are submitted to the
/// session's pool like simulations, and the noise protocol is applied
/// when they come back; the candidate that becomes history record *i*
/// is measured under noise index *i*, whichever worker ran its board.
struct HardwareMeasure {
    runner: HardwareRunner,
    session: SimSession,
}

impl Evaluate for HardwareMeasure {
    type Pending = (BatchTicket, usize);

    fn start(&mut self, trials: Vec<Trial>, first_index: usize) -> Self::Pending {
        let exes = trials.into_iter().map(Trial::into_built).collect();
        (self.session.submit(exes), first_index)
    }

    fn finish(
        &mut self,
        (ticket, first_index): Self::Pending,
        timings: &mut StageTimings,
    ) -> Result<Vec<f64>, CoreError> {
        let t0 = Instant::now();
        let reports = ticket.wait().into_iter().enumerate();
        let measure = |(i, report)| match self.runner.measurement(report, first_index + i) {
            Ok(m) => m.t_ref,
            Err(_) => f64::INFINITY,
        };
        let scores = reports.map(measure).collect();
        timings.sim_nanos += since(t0);
        Ok(scores)
    }
}

/// Options of the fidelity-escalation mode: how many finalists graduate
/// from the cheap exploration tier to the accurate tier.
#[derive(Debug, Clone)]
pub struct EscalationOptions {
    /// Finalists re-simulated on the accurate backend (the paper-style
    /// trade: exploration breadth at low fidelity, final ranking at full
    /// fidelity).
    pub top_k: usize,
    /// Exploration tier, named uniformly as a [`FidelitySpec`] — e.g.
    /// `FidelitySpec::Pipelined { .. }` for cycle-aware exploration.
    /// When unset, the default [`FidelitySpec::FastCount`].
    pub explore: Option<FidelitySpec>,
}

impl Default for EscalationOptions {
    fn default() -> Self {
        EscalationOptions {
            top_k: 8,
            explore: None,
        }
    }
}

/// Result of a fidelity-escalated tuning session.
#[derive(Debug, Clone)]
pub struct EscalatedTuneResult {
    /// Full history: exploration records keep their cheap-tier scores;
    /// finalist records carry accurate-tier scores. `result.best_index`
    /// always points at a finalist.
    pub result: TuneResult,
    /// Name of the backend used for exploration rounds.
    pub explore_backend: String,
    /// Name of the backend used for the finalists.
    pub final_backend: String,
    /// Cheap-tier simulations executed.
    pub explore_runs: usize,
    /// Accurate simulations executed (≤ `top_k`, against `n_trials` for
    /// an accurate-only session).
    pub accurate_runs: usize,
}

/// Fidelity-escalation tuning (the trade the paper's Fig. 1 spans): a
/// cheap exploration tier (any [`FidelitySpec`] via
/// [`EscalationOptions::explore`]; fast-count by default) scores every
/// exploration candidate, then only the `top_k` finalists are
/// re-simulated on the instruction-accurate backend and the best
/// finalist wins. The host pays for `top_k` accurate simulations
/// instead of `n_trials`.
///
/// # Example
///
/// ```no_run
/// use simtune_core::{
///     tune_with_fidelity_escalation, EscalationOptions, ScorePredictor, StrategySpec,
///     TuneOptions,
/// };
/// use simtune_hw::TargetSpec;
/// use simtune_predict::PredictorKind;
/// use simtune_tensor::matmul;
///
/// # fn main() -> Result<(), simtune_core::CoreError> {
/// let def = matmul(16, 16, 16);
/// let spec = TargetSpec::riscv_u74();
/// # let trained_predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
/// let opts = TuneOptions {
///     n_trials: 64,
///     strategy: StrategySpec::Evolutionary,
///     ..TuneOptions::default()
/// };
/// let esc = EscalationOptions { top_k: 6, ..EscalationOptions::default() };
/// let out = tune_with_fidelity_escalation(&def, &spec, &trained_predictor, &opts, &esc)?;
/// assert!(out.accurate_runs <= 6);
/// println!("best candidate: {}", out.result.best().description);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates pipeline failures; returns [`CoreError::Pipeline`] when
/// the predictor is untrained, `top_k` is zero, or no finalist survives.
pub fn tune_with_fidelity_escalation(
    def: &ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
    esc: &EscalationOptions,
) -> Result<EscalatedTuneResult, CoreError> {
    escalate(def, spec, predictor, opts, esc, &|backend| {
        session(backend, opts)
    })
}

/// [`tune_with_fidelity_escalation`] with its two sessions — the cheap
/// exploration tier and the accurate tier — opened through
/// `session_on`, so a [`crate::SimService`] tenant runs both on its own
/// lane of the shared pool.
pub(crate) fn escalate(
    def: &ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
    esc: &EscalationOptions,
    session_on: &dyn Fn(Arc<dyn SimBackend>) -> Result<SimSession, CoreError>,
) -> Result<EscalatedTuneResult, CoreError> {
    require_trained(predictor)?;
    if esc.top_k == 0 {
        return Err(CoreError::Pipeline(
            "fidelity escalation needs top_k >= 1".into(),
        ));
    }
    let explore = esc.explore.clone().unwrap_or(FidelitySpec::FastCount);
    let tier = explore.build(&spec.hierarchy)?;
    let accurate = session_on(FidelitySpec::Accurate.build(&spec.hierarchy)?)?;
    let cheap = session_on(tier)?;
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let mut eval = SessionScore::new(&cheap, predictor, opts);
    let mut result = drive_sketch(def, spec, opts, 't', &mut eval)?;
    let accurate_runs = rescore_finalists(&mut result, esc.top_k, &builder, &accurate, predictor)?;
    let explore_runs = result.simulations;
    result.simulations += accurate_runs;
    Ok(EscalatedTuneResult {
        result,
        explore_backend: cheap.backend_name().to_string(),
        final_backend: accurate.backend_name().to_string(),
        explore_runs,
        accurate_runs,
    })
}

/// The top-k post-pass: the `top_k` best cheap-tier records are rebuilt,
/// re-simulated on `accurate` and rescored in place, and `best_index`
/// moves to the best finalist. Returns the accurate runs submitted.
fn rescore_finalists(
    result: &mut TuneResult,
    top_k: usize,
    builder: &KernelBuilder,
    accurate: &SimSession,
    predictor: &ScorePredictor,
) -> Result<usize, CoreError> {
    let history = &mut result.history;
    let mut order: Vec<usize> = (0..history.len())
        .filter(|&i| history[i].score.is_finite())
        .collect();
    order.sort_by(|&a, &b| {
        history[a]
            .score
            .partial_cmp(&history[b].score)
            .expect("finite scores")
    });
    order.truncate(top_k);

    let t0 = Instant::now();
    let mut finalist_idx = Vec::with_capacity(order.len());
    let mut finalist_exes = Vec::with_capacity(order.len());
    for &i in &order {
        // Rebuilding is deterministic (fixed data seed), so the finalist
        // executes byte-for-byte what the exploration round saw.
        let name = format!("{}f{i}", builder.def().name);
        if let Ok(exe) = builder.build(&history[i].schedule, &name) {
            finalist_idx.push(i);
            finalist_exes.push(exe);
        }
    }
    result.timings.build_nanos += since(t0);
    let t0 = Instant::now();
    let reports = accurate.run_stats(&finalist_exes);
    result.timings.sim_nanos += since(t0);

    let mut survivors = Vec::new();
    let mut survivor_stats = Vec::new();
    for (i, r) in finalist_idx.iter().zip(reports) {
        if let Ok(stats) = r {
            result.replay_nanos += stats.host_nanos;
            survivors.push(*i);
            survivor_stats.push(stats);
        }
    }
    if survivors.is_empty() {
        return Err(CoreError::Pipeline(
            "no finalist survived accurate re-simulation".into(),
        ));
    }
    // Batch scoring keeps the finalists' normalization consistent with
    // one another — the ranking that decides the winner.
    let scores = predictor.score_group(&survivor_stats)?;
    let mut best = (survivors[0], f64::INFINITY);
    for (&i, &s) in survivors.iter().zip(&scores) {
        history[i].score = s;
        if s < best.1 {
            best = (i, s);
        }
    }
    result.best_index = best.0;
    Ok(finalist_exes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{collect_group_data, CollectOptions};
    use simtune_predict::PredictorKind;
    use simtune_tensor::matmul;
    use std::cell::Cell;
    use std::time::Duration;

    thread_local! {
        /// Candidates [`drive`] built on this thread.
        pub(super) static BUILDS: Cell<usize> = const { Cell::new(0) };
    }

    fn builds() -> usize {
        BUILDS.with(Cell::get)
    }

    fn setup() -> (ComputeDef, TargetSpec) {
        (matmul(8, 8, 8), TargetSpec::riscv_u74())
    }

    /// Scores every trial 1.0, after `start` spun for [`SPIN`].
    struct SlowSubmit;

    const SPIN: Duration = Duration::from_millis(2);

    impl Evaluate for SlowSubmit {
        type Pending = usize;

        fn start(&mut self, trials: Vec<Trial>, _first_index: usize) -> usize {
            let t0 = Instant::now();
            while t0.elapsed() < SPIN {
                std::hint::spin_loop();
            }
            trials.len()
        }

        fn finish(&mut self, n: usize, _: &mut StageTimings) -> Result<Vec<f64>, CoreError> {
            Ok(vec![1.0; n])
        }
    }

    #[test]
    fn submission_time_is_charged_to_sim_nanos() {
        let (def, spec) = setup();
        let opts = TuneOptions {
            n_trials: 8,
            batch_size: 4,
            ..TuneOptions::default()
        };
        let result = drive_sketch(&def, &spec, &opts, 't', &mut SlowSubmit).unwrap();
        let spun = SPIN.as_nanos() as u64 * 2; // two batches
        let t = result.timings;
        assert!(t.sim_nanos >= spun, "{t:?}");
        assert!(t.total_nanos() >= spun, "{t:?}");
    }

    /// The history down to the score bits, plus the run's counts.
    fn bits(r: &TuneResult) -> (Vec<(String, Schedule, u64)>, usize, usize) {
        let history = r
            .history
            .iter()
            .map(|h| (h.description.clone(), h.schedule.clone(), h.score.to_bits()))
            .collect();
        (history, r.simulations, r.best_index)
    }

    #[test]
    fn a_warm_tune_recalls_every_candidate_and_builds_nothing() {
        let (def, spec) = setup();
        let predictor = trained_predictor(&def, &spec);
        for strategy in StrategySpec::all() {
            let label = strategy.label();
            let cache = Arc::new(SimCache::new());
            let opts = TuneOptions {
                n_trials: 12,
                batch_size: 4,
                n_parallel: 2,
                seed: 5,
                strategy,
                memo_cache: Some(cache.clone()),
                ..TuneOptions::default()
            };
            let cold = tune_with_predictor(&def, &spec, &predictor, &opts).unwrap();
            let after_cold = cache.stats();
            let before = builds();
            let warm = tune_with_predictor(&def, &spec, &predictor, &opts).unwrap();
            assert_eq!(builds(), before, "{label}: the warm tune built programs");
            assert_eq!(bits(&warm), bits(&cold), "{label}: warm differs from cold");
            assert_eq!(
                warm.replay_nanos, cold.replay_nanos,
                "{label}: not the stored reports"
            );
            let s = cache.stats();
            assert_eq!(s.misses, after_cold.misses, "{label}: the warm tune missed");
            assert_eq!(s.hits - after_cold.hits, warm.simulations as u64);
        }
    }

    #[test]
    fn a_recall_whose_report_was_flushed_builds_and_re_executes() {
        let (def, spec) = setup();
        let predictor = trained_predictor(&def, &spec);
        let opts = |cache: &Arc<SimCache>| TuneOptions {
            n_trials: 8,
            batch_size: 4,
            n_parallel: 1,
            seed: 3,
            strategy: StrategySpec::HillClimb,
            memo_cache: Some(cache.clone()),
            ..TuneOptions::default()
        };
        // The same tune twice, with the cache cleared in between.
        let cache = Arc::new(SimCache::new());
        let cold = tune_with_predictor(&def, &spec, &predictor, &opts(&cache)).unwrap();
        let after_cold = cache.stats();
        cache.clear();
        let before = builds();
        let warm = tune_with_predictor(&def, &spec, &predictor, &opts(&cache)).unwrap();
        assert_eq!(bits(&warm), bits(&cold));
        assert!(builds() > before, "flushed requests must build again");
        assert!(
            cache.stats().misses > after_cold.misses,
            "and simulate again"
        );

        // What the two tunes count when every trial is built and
        // submitted without a request key — the path before recall.
        let reference = Arc::new(SimCache::new());
        let session = session(
            FidelitySpec::Accurate.build(&spec.hierarchy).unwrap(),
            &opts(&reference),
        )
        .unwrap();
        let builder = KernelBuilder::new(def, spec.isa);
        for history in [&cold.history, &warm.history] {
            for batch in history.chunks(4) {
                let exes: Vec<_> = batch
                    .iter()
                    .map(|r| builder.build(&r.schedule, "reference").unwrap())
                    .collect();
                session.run(&exes);
            }
            reference.clear();
        }
        assert_eq!(cache.stats(), reference.stats());
    }

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
        .unwrap();
        let mut predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
        predictor.train(std::slice::from_ref(&data)).unwrap();
        predictor
    }

    #[test]
    fn hardware_tuning_finds_a_good_schedule() {
        let (def, spec) = setup();
        let result = tune_on_hardware(
            &def,
            &spec,
            &TuneOptions {
                n_trials: 12,
                batch_size: 4,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.history.len(), 12);
        assert!(result.best().score.is_finite());
        assert_eq!(result.strategy, "random");
        assert_eq!(result.simulations, 12, "every build measured once");
        // The best is at most the median candidate.
        let mut scores: Vec<f64> = result.history.iter().map(|r| r.score).collect();
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(result.best().score <= scores[scores.len() / 2]);
    }

    #[test]
    fn predictor_tuning_runs_without_hardware() {
        let (def, spec) = setup();
        let predictor = trained_predictor(&def, &spec);
        let result = tune_with_predictor(
            &def,
            &spec,
            &predictor,
            &TuneOptions {
                n_trials: 10,
                batch_size: 5,
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.history.len(), 10);
        assert!(result.best().score.is_finite());
        assert_eq!(result.convergence.observed, 10);
        assert!(result.convergence.best_score <= result.best().score);
    }

    #[test]
    fn every_builtin_strategy_drives_the_predictor_loop() {
        let (def, spec) = setup();
        let predictor = trained_predictor(&def, &spec);
        for spec_kind in StrategySpec::all() {
            let label = spec_kind.label();
            let result = tune_with_predictor(
                &def,
                &spec,
                &predictor,
                &TuneOptions {
                    n_trials: 8,
                    batch_size: 4,
                    n_parallel: 2,
                    seed: 9,
                    strategy: spec_kind,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(result.strategy, label);
            assert_eq!(result.history.len(), 8, "{label} produced a short history");
            assert!(result.best().score.is_finite(), "{label} found no best");
            assert_eq!(result.convergence.observed, 8);
        }
    }

    #[test]
    fn custom_boxed_strategy_plugs_into_the_loop() {
        let (def, spec) = setup();
        let predictor = trained_predictor(&def, &spec);
        let result = tune_with_predictor(
            &def,
            &spec,
            &predictor,
            &TuneOptions {
                n_trials: 6,
                batch_size: 3,
                seed: 2,
                strategy: StrategySpec::Custom(Arc::new(|space, seed| {
                    Box::new(crate::search::HillClimb::new(space, seed))
                })),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.strategy, "hill_climb");
        assert_eq!(result.history.len(), 6);
    }

    #[test]
    fn untrained_predictor_is_rejected() {
        let (def, spec) = setup();
        let predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
        let err = tune_with_predictor(&def, &spec, &predictor, &TuneOptions::default());
        assert!(matches!(err, Err(CoreError::Pipeline(_))));
    }

    fn template_setup() -> (ComputeDef, TargetSpec, ConfigSpace, ScorePredictor) {
        let def = matmul(8, 8, 8);
        let spec = TargetSpec::riscv_u74();
        let space = ConfigSpace::matmul(&def, &spec.isa);
        let data = collect_group_data(
            &def,
            &spec,
            0,
            &CollectOptions {
                n_impls: 14,
                n_parallel: 2,
                seed: 3,
                max_attempts_factor: 40,
                ..CollectOptions::default()
            },
        )
        .expect("collects");
        let mut predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
        predictor
            .train(std::slice::from_ref(&data))
            .expect("trains");
        (def, spec, space, predictor)
    }

    #[test]
    fn template_tuning_end_to_end() {
        let (def, spec, space, predictor) = template_setup();
        let result = tune_template_space(
            &def,
            &spec,
            &space,
            &predictor,
            &TuneOptions {
                n_trials: 12,
                batch_size: 4,
                n_parallel: 2,
                seed: 9,
                ..TuneOptions::default()
            },
        )
        .expect("tunes");
        assert_eq!(result.history.len(), 12);
        assert!(result.best().score.is_finite());
        assert!(result.best().description.starts_with("config"));
        assert_eq!(result.strategy, "random");
        assert_eq!(result.convergence.observed, 12);
    }

    #[test]
    fn grid_strategy_walks_the_template_space_in_order() {
        let (def, spec, space, predictor) = template_setup();
        let result = tune_template_space(
            &def,
            &spec,
            &space,
            &predictor,
            &TuneOptions {
                n_trials: 6,
                batch_size: 3,
                n_parallel: 2,
                strategy: StrategySpec::Grid,
                ..TuneOptions::default()
            },
        )
        .expect("tunes");
        assert_eq!(result.strategy, "grid");
        // Grid visits configs 0..6 in index order.
        for (i, record) in result.history.iter().enumerate() {
            let cfg = space.config_from_index(i);
            assert_eq!(record.description, format!("config {cfg:?}"));
        }
    }

    #[test]
    fn annealing_strategy_tunes_the_template_space() {
        let (def, spec, space, predictor) = template_setup();
        let result = tune_template_space(
            &def,
            &spec,
            &space,
            &predictor,
            &TuneOptions {
                n_trials: 12,
                batch_size: 4,
                n_parallel: 2,
                seed: 7,
                strategy: StrategySpec::Annealing,
                ..TuneOptions::default()
            },
        )
        .expect("tunes");
        assert_eq!(result.strategy, "annealing");
        assert_eq!(result.history.len(), 12);
        assert!(result.best().score.is_finite());
    }
}
