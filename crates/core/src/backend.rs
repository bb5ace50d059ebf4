//! Pluggable simulator backends: the paper's overridable simulator
//! interface (Listings 3–4) as a typed API.
//!
//! The paper's claim is that the autotuner's runner is
//! *simulator-agnostic*: anything that can execute a candidate and
//! report statistics may sit behind `auto_scheduler.local_runner.run`,
//! trading fidelity for speed. This module turns that claim into a
//! first-class API built around two pieces:
//!
//! * [`SimBackend`] — the trait every simulator flavor implements:
//!   `run_one(&Executable, &RunLimits) -> Result<SimReport, _>`; a
//!   bundled tier is picked by [`crate::FidelitySpec`]
//!   ([`SimSessionBuilder::fidelity`]), any other simulator plugs in
//!   through [`SimSessionBuilder::backend`];
//! * [`SimSession`] — a builder-style entry point that pairs one
//!   backend with a parallelism degree and an optional
//!   [`SimCache`], re-exported from the `simtune` façade. Sessions
//!   pre-decode every candidate once ([`Executable::decode`]) and feed
//!   backends through [`SimBackend::run_one_decoded_on`]; with a cache
//!   attached, revisited candidates skip the backend entirely.
//!
//! # Fidelity tiers
//!
//! Three backends ship with the crate, each one composition of
//! [`simtune_isa::replay`]'s arguments; pick by what a tuning round
//! needs. Host cost is relative to accurate, measured on the Table II
//! groups with the decoded engine; functional execution outweighs the
//! cache model, so dropping the model saves about a third:
//!
//! | backend | statistics | cost | use when |
//! |---|---|---|---|
//! | [`FastCountBackend`] | counts only | ≈ 0.65× | early exploration rounds where instruction/access totals are enough to discard bad candidates (QEMU-plugin instrumentation style) |
//! | [`AccurateBackend`] | cache-accurate | 1× | final ranking, training-data collection — the gem5-style reference |
//! | [`crate::PipelinedBackend`] | cycle-level timing | ≈ 1.5× | candidates whose ranking depends on hazards, branch behavior or prefetch, not just counts — reports a per-trial [`simtune_hw::CycleBreakdown`] |
//!
//! Tiers are *named* uniformly by [`crate::FidelitySpec`]: parse a spec
//! string (`"pipelined:btb=512,ras=8"`), hand it to
//! [`SimSessionBuilder::fidelity`], and the same digest keys the memo
//! cache and the service protocol.
//!
//! [`crate::tune_with_fidelity_escalation`] composes the tiers: a cheap
//! backend explores the schedule space and [`AccurateBackend`] re-ranks
//! only the top-k finalists.
//!
//! # Example
//!
//! ```
//! use simtune_cache::HierarchyConfig;
//! use simtune_core::{FidelitySpec, KernelBuilder, SimSession};
//! use simtune_tensor::{matmul, Schedule, TargetIsa};
//!
//! # fn main() -> Result<(), simtune_core::CoreError> {
//! let def = matmul(8, 8, 8);
//! let builder = KernelBuilder::new(def.clone(), TargetIsa::riscv_u74());
//! let exe = builder.build(&Schedule::default_for(&def), "mm")?;
//! let session = SimSession::builder()
//!     .fidelity(&FidelitySpec::FastCount, &HierarchyConfig::riscv_u74())
//!     .n_parallel(2)
//!     .build()?;
//! let reports = session.run(std::slice::from_ref(&exe));
//! let report = reports[0].as_ref().unwrap();
//! assert_eq!(report.backend, "fast-count");
//! assert!(report.stats.inst_mix.total() > 0);
//! # Ok(())
//! # }
//! ```

use crate::memo::{RequestKey, RequestKeys, SimCache};
use crate::metrics::WorkerPoolStats;
use crate::pool::{Batch, BatchCtx, BatchTicket, InflightMap, WorkerPool};
use crate::{CoreError, KernelBuilder};
use simtune_cache::{CacheConfig, CacheHierarchy, CacheStats, HierarchyConfig};
use simtune_hw::CycleBreakdown;
use simtune_isa::{
    replay, DecodedProgram, EngineKind, Executable, NoopHook, RunLimits, SimError, SimStats,
};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Canonical name of the full instruction-accurate flavor.
pub const ACCURATE: &str = "accurate";
/// Canonical name of the counting-only flavor.
pub const FAST_COUNT: &str = "fast-count";

/// Errors a backend can produce for one executable.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BackendError {
    /// The underlying simulation aborted.
    Sim(SimError),
    /// The backend was configured inconsistently.
    Config {
        /// Which backend rejected its configuration.
        backend: String,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Sim(e) => write!(f, "backend simulation failed: {e}"),
            BackendError::Config { backend, message } => {
                write!(f, "backend {backend:?} misconfigured: {message}")
            }
        }
    }
}

impl Error for BackendError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BackendError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for BackendError {
    fn from(e: SimError) -> Self {
        BackendError::Sim(e)
    }
}

/// What one backend invocation reports for one executable.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulator statistics of the whole run.
    pub stats: SimStats,
    /// Name of the backend that produced the statistics.
    pub backend: String,
    /// Cycle accounting of the timing layer, present only for tiers
    /// that model one ([`crate::PipelinedBackend`]). Deterministic: the
    /// same candidate yields byte-identical breakdowns at every
    /// parallelism degree and replay engine.
    pub cycles: Option<CycleBreakdown>,
}

impl SimReport {
    /// A report without a timing layer.
    pub(crate) fn full(stats: SimStats, backend: &str) -> Self {
        SimReport {
            stats,
            backend: backend.to_string(),
            cycles: None,
        }
    }
}

/// A pluggable simulator: the typed form of the paper's overridable
/// `simulator_run` hook.
///
/// Implementations must be shareable across the runner's `n_parallel`
/// worker threads, hence `Send + Sync`, and every candidate starts
/// cold: a run method's report is a function of its arguments and the
/// backend's configuration, never of the runs before it. The bundled
/// tiers keep that contract by creating the per-run state (CPU, memory
/// image, cache hierarchy) inside the run methods; the hierarchy's
/// arrays may be ones an earlier trial used — `simtune_cache` recycles
/// them — but [`CacheHierarchy::new`] returns a hierarchy that is
/// observably new (same outcomes, counters and replacement decisions as
/// on fresh memory), also after a trial that faulted or panicked
/// mid-run. A backend that pools state of its own owes the same.
///
/// The two run methods have distinct jobs. An external simulator
/// implements [`SimBackend::run_one`] and nothing else; the bundled
/// tiers put their one run body in [`SimBackend::run_one_decoded_on`]
/// and their `run_one` merely decodes first.
pub trait SimBackend: Send + Sync {
    /// Stable name stamped on every [`SimReport`].
    fn name(&self) -> &str;

    /// Runs one executable from its raw form — the entry point of
    /// backends that drive their own simulator, and what the pool falls
    /// back to for a program the bundled decoder rejects.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] when the simulation aborts or the
    /// backend is misconfigured for this executable.
    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError>;

    /// Runs one executable whose program was already lowered with
    /// [`Executable::decode`], on an explicit replay [`EngineKind`].
    /// [`SimSession`] decodes each candidate exactly once and routes
    /// every trial through this, so the configured engine
    /// (`SimSessionBuilder::engine`) reaches the simulator. The default ignores both and delegates to
    /// [`SimBackend::run_one`] — correct for external backends with no
    /// notion of the bundled replay engines. The two bundled engines are
    /// bit-identical, so honoring the engine changes host speed only,
    /// never statistics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimBackend::run_one`].
    fn run_one_decoded_on(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
        engine: EngineKind,
    ) -> Result<SimReport, BackendError> {
        let _ = (decoded, engine);
        self.run_one(exe, limits)
    }

    /// Canonical fidelity digest for the memoization layer, or `None`
    /// to opt out of memoization (the default): one string naming the
    /// tier *and* every configuration knob that changes results — the
    /// cache-fingerprint form of [`crate::FidelitySpec`], e.g.
    /// `"pipelined:btb=512,ras=8 @ l1d=..."`. A backend that returns
    /// `Some(digest)` asserts its reports are a pure function of
    /// (program, data, target, limits, digest) — the [`SimCache`] may
    /// then replay stored reports instead of re-executing.
    fn fidelity_digest(&self) -> Option<String> {
        None
    }
}

/// `run_one` of every bundled tier: decode, then the tier's one run
/// body on the default engine.
pub(crate) fn decode_and_run(
    backend: &dyn SimBackend,
    exe: &Executable,
    limits: &RunLimits,
) -> Result<SimReport, BackendError> {
    let decoded = exe.decode()?;
    backend.run_one_decoded_on(exe, &decoded, limits, EngineKind::default())
}

/// Canonical digest of a cache geometry for [`SimBackend::fidelity_digest`]:
/// two hierarchies with equal digests model identical cache behavior.
fn cache_digest(c: &CacheConfig) -> String {
    format!(
        "{}s{}w{}l{:?}",
        c.num_sets, c.associativity, c.line_bytes, c.policy
    )
}

pub(crate) fn hierarchy_digest(h: &HierarchyConfig) -> String {
    let l3 = h.l3.as_ref().map_or("none".into(), cache_digest);
    format!(
        "l1d={} l1i={} l2={} l3={}",
        cache_digest(&h.l1d),
        cache_digest(&h.l1i),
        cache_digest(&h.l2),
        l3
    )
}

/// The reference backend: today's instruction-accurate interpreter with
/// the full set-associative cache hierarchy (the gem5 stand-in).
#[derive(Debug, Clone)]
pub struct AccurateBackend {
    hierarchy: HierarchyConfig,
}

impl AccurateBackend {
    /// Accurate backend replicating `hierarchy` per instance.
    pub fn new(hierarchy: HierarchyConfig) -> Self {
        AccurateBackend { hierarchy }
    }

    /// The cache geometry each simulator instance models.
    pub fn hierarchy(&self) -> &HierarchyConfig {
        &self.hierarchy
    }
}

impl SimBackend for AccurateBackend {
    fn name(&self) -> &str {
        ACCURATE
    }

    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
        decode_and_run(self, exe, limits)
    }

    fn run_one_decoded_on(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
        engine: EngineKind,
    ) -> Result<SimReport, BackendError> {
        let hier = || CacheHierarchy::new(self.hierarchy.clone());
        let out = replay(exe, decoded, hier, engine, *limits, &mut NoopHook)?;
        Ok(SimReport::full(out.stats, ACCURATE))
    }

    fn fidelity_digest(&self) -> Option<String> {
        Some(format!("accurate @ {}", hierarchy_digest(&self.hierarchy)))
    }
}

/// QEMU-plugin-style counting backend: candidates execute functionally
/// and retired instructions plus line-granular memory accesses are
/// tallied, but no cache is modeled. Retired-instruction counts are
/// bit-identical to [`AccurateBackend`]'s; cache hit/miss counters are
/// absent (every access reports as an L1 miss). Use it for cheap early
/// autotuning rounds where candidate ranking by work volume suffices.
///
/// Reports keep the shape of the hierarchy they stand in for: one built
/// [`FastCountBackend::matching`] a hierarchy with an L3 reports an
/// all-zero `l3`, so its feature vectors are as wide as the accurate
/// tier's and a predictor trained on accurate data can score them.
#[derive(Debug, Clone)]
pub struct FastCountBackend {
    line_bytes: u64,
    has_l3: bool,
}

impl FastCountBackend {
    /// Counting backend with the given line size (drives how many lines
    /// a vector access touches; must match the reference hierarchy for
    /// access counts to be comparable).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line_bytes must be a power of two"
        );
        FastCountBackend {
            line_bytes,
            has_l3: false,
        }
    }

    /// Counting backend whose line size and report shape (L3 or not)
    /// match `hierarchy`.
    pub fn matching(hierarchy: &HierarchyConfig) -> Self {
        FastCountBackend {
            has_l3: hierarchy.l3.is_some(),
            ..FastCountBackend::new(hierarchy.line_bytes())
        }
    }
}

impl SimBackend for FastCountBackend {
    fn name(&self) -> &str {
        FAST_COUNT
    }

    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
        decode_and_run(self, exe, limits)
    }

    fn run_one_decoded_on(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
        engine: EngineKind,
    ) -> Result<SimReport, BackendError> {
        let hier = || CacheHierarchy::counting_only(self.line_bytes);
        let mut out = replay(exe, decoded, hier, engine, *limits, &mut NoopHook)?;
        if self.has_l3 {
            out.stats.cache.l3 = Some(CacheStats::default());
        }
        Ok(SimReport::full(out.stats, FAST_COUNT))
    }

    // The L3 shape is named only where there is one, so digests (and
    // memo keys) of L3-free hierarchies read as they always have.
    fn fidelity_digest(&self) -> Option<String> {
        let l3 = if self.has_l3 { " l3=zero" } else { "" };
        Some(format!("fast-count @ line_bytes={}{l3}", self.line_bytes))
    }
}

/// One configured simulation context: a backend plus parallelism and
/// an optional memo cache — the runner of the paper's Listing 3, and
/// what the autotuning loops drive. Every trial runs under
/// [`RunLimits::default`].
///
/// Created through [`SimSession::builder`]. Building a session spawns a
/// *persistent* pool of `n_parallel` worker threads
/// (`crates/core/src/pool.rs`) that lives until the last session clone
/// (and last outstanding [`BatchTicket`]) is dropped; batches are
/// enqueued on the pool's chunked deque, so a tuning sweep pays thread
/// spawn/teardown once per session instead of once per batch. Results
/// are always returned in submission order.
///
/// [`SimSession::run`] is the synchronous entry point;
/// [`SimSession::submit`] hands back a [`BatchTicket`] immediately so
/// callers can lower the next batch while this one simulates — the
/// producer/consumer overlap the pipelined tuning loops are built on.
///
/// Each executable is decoded exactly once ([`Executable::decode`]) on
/// a worker and handed to [`SimBackend::run_one_decoded_on`]. When a
/// [`SimCache`] is attached and the backend opts into memoization
/// ([`SimBackend::fidelity_digest`]), lookups happen at *submission* time on
/// the submitting thread: previously seen candidates are answered
/// without any backend execution (or decode), and a candidate whose
/// fingerprint is already in flight becomes a follower of that
/// execution instead of a duplicate run.
///
/// # Example
///
/// ```
/// use simtune_cache::HierarchyConfig;
/// use simtune_core::{FidelitySpec, SimSession};
/// use simtune_isa::{Executable, Gpr, Inst, ProgramBuilder, TargetIsa};
///
/// # fn main() -> Result<(), simtune_core::CoreError> {
/// let mut b = ProgramBuilder::new();
/// b.push(Inst::Li { rd: Gpr(1), imm: 7 });
/// b.push(Inst::Halt);
/// let exe = Executable::new("demo", b.build().unwrap(), TargetIsa::riscv_u74());
///
/// let session = SimSession::builder()
///     .fidelity(&FidelitySpec::FastCount, &HierarchyConfig::tiny_for_tests())
///     .n_parallel(2)
///     .build()?;
/// let report = session.run(&[exe]).remove(0).expect("simulates");
/// assert_eq!(report.backend, "fast-count");
/// assert!(report.stats.inst_mix.total() >= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SimSession {
    backend: Arc<dyn SimBackend>,
    n_parallel: usize,
    engine: EngineKind,
    memo: Option<Arc<SimCache>>,
    pool: Arc<WorkerPool>,
    inflight: Arc<InflightMap>,
    /// Scheduling lane on the pool (0 for standalone sessions; one
    /// lane per tenant when the pool is shared by a service).
    lane: usize,
    /// Per-tenant counters, when owned by a [`crate::SimService`] tenant.
    tenant: Option<Arc<crate::pool::TenantCounters>>,
}

impl fmt::Debug for SimSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimSession")
            .field("backend", &self.backend.name())
            .field("fidelity", &self.backend.fidelity_digest())
            .field("n_parallel", &self.n_parallel)
            .field("memo", &self.memo)
            .finish()
    }
}

impl SimSession {
    /// Starts building a session.
    pub fn builder() -> SimSessionBuilder {
        SimSessionBuilder::default()
    }

    /// The backend this session drives.
    pub fn backend(&self) -> &Arc<dyn SimBackend> {
        &self.backend
    }

    /// Name of the backend this session drives.
    pub fn backend_name(&self) -> &str {
        self.backend.name()
    }

    /// Worker threads used per batch.
    pub fn n_parallel(&self) -> usize {
        self.n_parallel
    }

    /// Replay engine every trial runs on (see
    /// [`SimSessionBuilder::engine`]).
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The attached memo cache, if any.
    pub fn memo_cache(&self) -> Option<&Arc<SimCache>> {
        self.memo.as_ref()
    }

    /// Lifetime counters of this session's persistent worker pool:
    /// batches enqueued, trials executed, busy vs. wall time.
    pub fn pool_stats(&self) -> WorkerPoolStats {
        self.pool.stats()
    }

    /// Submits a batch to the persistent pool and returns immediately.
    ///
    /// Memo lookups (and in-flight deduplication) happen here, on the
    /// calling thread, so cached candidates resolve without touching
    /// the pool at all; everything else is executed by the session's
    /// workers while the caller is free to prepare the next batch.
    /// [`BatchTicket::wait`] returns results in submission order.
    pub fn submit(&self, exes: Vec<Executable>) -> BatchTicket {
        self.submit_keyed(exes, &[])
    }

    /// [`SimSession::submit`] for executables built from requests:
    /// `requests` is empty or holds the request key of each executable,
    /// and the memo records which program each request built, so the
    /// next [`SimSession::recall`] of that request needs no build.
    pub(crate) fn submit_keyed(
        &self,
        exes: Vec<Executable>,
        requests: &[RequestKey],
    ) -> BatchTicket {
        let ctx = BatchCtx {
            backend: self.backend.clone(),
            engine: self.engine,
            memo: self.memo.clone(),
            inflight: self.inflight.clone(),
            lane: self.lane,
            tenant: self.tenant.clone(),
        };
        let batch = Batch::plan(ctx, exes, requests);
        if batch.n_tasks() > 0 {
            self.pool.enqueue(batch.clone());
        }
        BatchTicket::new(batch, self.pool.clone())
    }

    /// Request keys for `builder`'s candidates on this session, when it
    /// memoizes (a memo cache and a backend with a fidelity digest);
    /// `None` otherwise, and then nothing can be recalled.
    pub(crate) fn request_keys(&self, builder: &KernelBuilder) -> Option<RequestKeys> {
        self.memo.as_ref()?;
        let digest = self.backend.fidelity_digest()?;
        Some(RequestKeys::new(
            builder,
            &digest,
            &RunLimits::default(),
            self.engine,
        ))
    }

    /// The memoized report of the program `request` built, counted as
    /// the memo hit submitting that program would have counted (on the
    /// cache and on the tenant). `None` — counting nothing — when the
    /// request is unknown or its report is not resident: the caller
    /// builds and submits it, and the submission counts the outcome.
    pub(crate) fn recall(&self, request: &RequestKey) -> Option<SimReport> {
        let memo = self.memo.as_ref()?;
        let report = memo.recall(request)?;
        memo.note_hit();
        if let Some(t) = &self.tenant {
            t.memo_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        Some(report)
    }

    /// Runs every executable on the session's persistent worker pool,
    /// preserving order — [`SimSession::submit`] + [`BatchTicket::wait`]
    /// in one call.
    pub fn run(&self, exes: &[Executable]) -> Vec<Result<SimReport, CoreError>> {
        self.submit(exes.to_vec()).wait()
    }

    /// Like [`SimSession::run`] but strips reports down to bare
    /// [`SimStats`] — the shape the feature extractor and predictors eat.
    pub fn run_stats(&self, exes: &[Executable]) -> Vec<Result<SimStats, CoreError>> {
        self.run(exes)
            .into_iter()
            .map(|r| r.map(|rep| rep.stats))
            .collect()
    }

    /// A session on another backend and engine that keeps this one's
    /// pool, scheduling lane, tenant counters and memo cache —
    /// how a [`crate::SimService`] tenant runs the tiers of an escalated
    /// tune on its own lane.
    pub(crate) fn on_backend(&self, backend: Arc<dyn SimBackend>, engine: EngineKind) -> Self {
        SimSession {
            backend,
            engine,
            inflight: Arc::new(InflightMap::default()),
            ..self.clone()
        }
    }
}

/// Builder for [`SimSession`].
#[derive(Default)]
pub struct SimSessionBuilder {
    backend: Option<Arc<dyn SimBackend>>,
    n_parallel: Option<usize>,
    engine: Option<EngineKind>,
    memo: Option<Arc<SimCache>>,
    shared: Option<SharedPool>,
    error: Option<CoreError>,
}

/// A pre-existing pool a service session plugs into instead of spawning
/// its own workers.
struct SharedPool {
    pool: Arc<WorkerPool>,
    lane: usize,
    tenant: Option<Arc<crate::pool::TenantCounters>>,
}

impl fmt::Debug for SimSessionBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimSessionBuilder")
            .field("backend", &self.backend.as_ref().map(|b| b.name()))
            .field("n_parallel", &self.n_parallel)
            .finish()
    }
}

impl SimSessionBuilder {
    /// Uses an explicit backend instance. Clears any deferred error from
    /// an earlier failed selection step, so fallback chains like
    /// `fidelity(...).backend(...)` recover. This is how an external
    /// simulator plugs in: `.backend(Arc::new(MySimulator))`.
    pub fn backend(mut self, backend: Arc<dyn SimBackend>) -> Self {
        self.backend = Some(backend);
        self.error = None;
        self
    }

    /// Uses the backend named by a [`crate::FidelitySpec`] — the
    /// canonical way to pick a tier. Every bundled tier is reachable:
    /// `"accurate"`, `"fast-count"`, `"pipelined:btb=512,ras=8"`. An
    /// error from [`crate::FidelitySpec::build`] surfaces from
    /// [`SimSessionBuilder::build`].
    pub fn fidelity(mut self, spec: &crate::FidelitySpec, hierarchy: &HierarchyConfig) -> Self {
        match spec.build(hierarchy) {
            Ok(b) => self.backend(b),
            Err(e) => {
                self.error = Some(e);
                self
            }
        }
    }

    /// Uses the instruction-accurate reference backend for `hierarchy`
    /// — shorthand for [`SimSessionBuilder::fidelity`] with
    /// [`crate::FidelitySpec::Accurate`], the tier most sessions run.
    pub fn accurate(self, hierarchy: &HierarchyConfig) -> Self {
        self.backend(Arc::new(AccurateBackend::new(hierarchy.clone())))
    }

    /// Sets the number of parallel simulator instances — the worker
    /// threads the session's persistent pool spawns (clamped to at
    /// least 1).
    ///
    /// When unset, the default is the host's
    /// [`std::thread::available_parallelism`] clamped to at most 16
    /// (the paper's Listing 3 default). The historical behavior —
    /// always 16, even on a 4-core host — oversubscribed small
    /// machines; pass an explicit value to override the clamp in either
    /// direction (e.g. `n_parallel(32)` on a large host, or
    /// `n_parallel(1)` for serial debugging).
    pub fn n_parallel(mut self, n: usize) -> Self {
        self.n_parallel = Some(n.max(1));
        self
    }

    /// Selects the replay engine for every trial (default
    /// [`EngineKind::Decoded`]). The two bundled engines are
    /// bit-identical, so this is purely a host-speed knob:
    /// [`EngineKind::Interp`] is the per-instruction oracle, and
    /// [`EngineKind::Threaded`] and [`EngineKind::Batch`] are labels
    /// whose trials replay on the decoded loop under their own memo key.
    /// Backends that do not understand the bundled engines ignore the
    /// selection.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Attaches a [`SimCache`] so revisited candidates are answered from
    /// memory instead of re-simulated. Share one `Arc<SimCache>` across
    /// sessions to deduplicate simulations across tuning loops; only
    /// backends that opt in via [`SimBackend::fidelity_digest`] are
    /// memoized.
    pub fn memo_cache(mut self, cache: Arc<SimCache>) -> Self {
        self.memo = Some(cache);
        self
    }

    /// Conditionally attaches a [`SimCache`] ([`None`] leaves
    /// memoization off) — convenience for plumbing optional caches from
    /// tuning options.
    pub fn memo_cache_opt(mut self, cache: Option<Arc<SimCache>>) -> Self {
        self.memo = cache;
        self
    }

    /// Plugs the session into an existing worker pool on the given
    /// scheduling lane instead of spawning its own workers — how
    /// [`crate::SimService`] multiplexes N tenants onto one pool. The
    /// session's `n_parallel` becomes the pool's worker count.
    pub(crate) fn shared_pool(
        mut self,
        pool: Arc<WorkerPool>,
        lane: usize,
        tenant: Option<Arc<crate::pool::TenantCounters>>,
    ) -> Self {
        self.shared = Some(SharedPool { pool, lane, tenant });
        self
    }

    /// Finishes the session.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Pipeline`] when no backend was chosen, or the
    /// deferred error of an invalid [`SimSessionBuilder::fidelity`]
    /// step.
    pub fn build(self) -> Result<SimSession, CoreError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let backend = self
            .backend
            .ok_or_else(|| CoreError::Pipeline("SimSession needs a backend".into()))?;
        let (pool, lane, tenant) = match self.shared {
            Some(shared) => (shared.pool, shared.lane, shared.tenant),
            None => {
                let n = self.n_parallel.unwrap_or_else(default_n_parallel);
                (WorkerPool::new(n), 0, None)
            }
        };
        Ok(SimSession {
            backend,
            n_parallel: pool.workers(),
            engine: self.engine.unwrap_or_default(),
            memo: self.memo,
            pool,
            inflight: Arc::new(InflightMap::default()),
            lane,
            tenant,
        })
    }
}

/// Default worker count: every available core, capped at the paper's
/// `n_parallel = 16` — 16 simulators on a 4-core laptop only thrash.
fn default_n_parallel() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 16)
}

#[cfg(test)]
mod tests {
    use super::stub::StubBackend;
    use super::*;
    use crate::KernelBuilder;
    use simtune_tensor::{matmul, Schedule, TargetIsa};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn exes(n: usize) -> Vec<Executable> {
        let def = matmul(6, 6, 6);
        let b = KernelBuilder::new(def.clone(), TargetIsa::riscv_u74());
        let s = Schedule::default_for(&def);
        (0..n)
            .map(|i| b.build(&s, &format!("m{i}")).unwrap())
            .collect()
    }

    fn hier() -> HierarchyConfig {
        HierarchyConfig::riscv_u74()
    }

    #[test]
    fn accurate_and_fast_count_agree_on_retired_instructions() {
        let exes = exes(1);
        let acc = AccurateBackend::new(hier());
        let fast = FastCountBackend::matching(&hier());
        let a = acc.run_one(&exes[0], &RunLimits::default()).unwrap();
        let f = fast.run_one(&exes[0], &RunLimits::default()).unwrap();
        assert_eq!(a.stats.inst_mix, f.stats.inst_mix);
        assert_eq!(a.backend, "accurate");
        assert_eq!(f.backend, "fast-count");
        // The fast path reports no cache-model activity.
        assert_eq!(f.stats.cache.l1d.read_hits, 0);
        assert_eq!(f.stats.cache.l2, CacheStats::default());
    }

    #[test]
    fn session_runs_parallel_and_preserves_order() {
        let exes = exes(6);
        let seq = SimSession::builder()
            .accurate(&hier())
            .n_parallel(1)
            .build()
            .unwrap();
        let par = SimSession::builder()
            .accurate(&hier())
            .n_parallel(4)
            .build()
            .unwrap();
        let a = seq.run(&exes);
        let b = par.run(&exes);
        for (x, y) in a.iter().zip(&b) {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.stats.inst_mix, y.stats.inst_mix);
            assert_eq!(x.stats.cache, y.stats.cache);
            assert_eq!(x.backend, y.backend);
        }
    }

    #[test]
    fn session_builder_surfaces_deferred_errors() {
        let err = SimSession::builder().build().unwrap_err();
        assert!(matches!(err, CoreError::Pipeline(_)));
    }

    /// Wraps a backend and counts actual executions — the probe for
    /// asserting that memo hits skip the backend entirely.
    struct CountingBackend<B> {
        inner: B,
        executions: AtomicUsize,
    }

    impl<B: SimBackend> CountingBackend<B> {
        fn new(inner: B) -> Self {
            CountingBackend {
                inner,
                executions: AtomicUsize::new(0),
            }
        }
    }

    impl<B: SimBackend> SimBackend for CountingBackend<B> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
            self.executions.fetch_add(1, Ordering::Relaxed);
            self.inner.run_one(exe, limits)
        }
        fn run_one_decoded_on(
            &self,
            exe: &Executable,
            decoded: &DecodedProgram,
            limits: &RunLimits,
            engine: EngineKind,
        ) -> Result<SimReport, BackendError> {
            self.executions.fetch_add(1, Ordering::Relaxed);
            self.inner.run_one_decoded_on(exe, decoded, limits, engine)
        }
        fn fidelity_digest(&self) -> Option<String> {
            self.inner.fidelity_digest()
        }
    }

    #[test]
    fn memo_cache_skips_repeat_executions_and_replays_reports() {
        let exes = exes(3);
        let backend = Arc::new(CountingBackend::new(AccurateBackend::new(hier())));
        let cache = Arc::new(SimCache::new());
        let session = SimSession::builder()
            .backend(backend.clone())
            .n_parallel(1)
            .memo_cache(cache.clone())
            .build()
            .unwrap();

        // All three candidates are one schedule under three trial names;
        // the name is excluded from the fingerprint, so the backend runs
        // once and the other two are memo hits.
        let first: Vec<SimReport> = session.run(&exes).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(backend.executions.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.len(), 1);
        let second: Vec<SimReport> = session.run(&exes).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(
            backend.executions.load(Ordering::Relaxed),
            1,
            "repeat batch must be answered entirely from the cache"
        );
        assert_eq!(first, second, "memo hits replay byte-identical reports");
        assert!(cache.stats().hit_ratio() > 0.5);
    }

    #[test]
    fn memo_cache_distinguishes_backend_configurations() {
        let exes = exes(1);
        let cache = Arc::new(SimCache::new());
        let tiny = SimSession::builder()
            .accurate(&HierarchyConfig::tiny_for_tests())
            .n_parallel(1)
            .memo_cache(cache.clone())
            .build()
            .unwrap();
        let big = SimSession::builder()
            .accurate(&hier())
            .n_parallel(1)
            .memo_cache(cache.clone())
            .build()
            .unwrap();
        let a = tiny.run(&exes).pop().unwrap().unwrap();
        let b = big.run(&exes).pop().unwrap().unwrap();
        // A 6x6x6 matmul happens to fit both geometries, so the reports
        // agree — but the fingerprints must not: reusing one geometry's
        // result for the other would be wrong on any larger kernel.
        assert_eq!(cache.stats().hits, 0, "different geometries must miss");
        assert_eq!(cache.len(), 2);
        assert_eq!(a.backend, b.backend);
    }

    #[test]
    fn custom_backends_run_programs_the_static_validator_rejects() {
        use simtune_isa::{Gpr, Inst, ProgramBuilder, TargetIsa};

        // Dead instruction after the terminator: the interpreter never
        // reaches it, but decode-time validation rejects the program.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Halt);
        b.push(Inst::Li { rd: Gpr(1), imm: 1 });
        let exe = Executable::new("tail", b.build().unwrap(), TargetIsa::riscv_u74());
        assert!(exe.decode().is_err(), "sanity: validator rejects it");

        // A custom backend driving its own simulator must still run it.
        let custom = StubBackend::new("external", |_| SimStats {
            host_nanos: 5,
            ..SimStats::default()
        });
        let session = SimSession::builder()
            .backend(Arc::new(custom))
            .n_parallel(1)
            .build()
            .unwrap();
        let report = session
            .run(std::slice::from_ref(&exe))
            .pop()
            .unwrap()
            .expect("custom backend is not subject to decode validation");
        assert_eq!(report.stats.host_nanos, 5);

        // The bundled backends report the decode error instead.
        let accurate = SimSession::builder()
            .accurate(&hier())
            .n_parallel(1)
            .build()
            .unwrap();
        let err = accurate
            .run(std::slice::from_ref(&exe))
            .pop()
            .unwrap()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Sim(simtune_isa::SimError::InvalidPc { .. })
        ));
    }

    #[test]
    fn memo_hits_do_not_decode() {
        use simtune_isa::{Gpr, Inst, ProgramBuilder, TargetIsa};

        // An undecodable program with a memoized report: served from the
        // cache without tripping the validator, proving the lookup
        // happens before (and without) the decode.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Halt);
        b.push(Inst::Li { rd: Gpr(1), imm: 1 });
        let exe = Executable::new("tail", b.build().unwrap(), TargetIsa::riscv_u74());

        let cache = Arc::new(SimCache::new());
        let session = SimSession::builder()
            .accurate(&hier())
            .n_parallel(1)
            .memo_cache(cache.clone())
            .build()
            .unwrap();
        let backend = session.backend().clone();
        let key = crate::memo::fingerprint(
            &exe,
            &backend.fidelity_digest().unwrap(),
            &RunLimits::default(),
            session.engine(),
        );
        let planted = SimReport::full(SimStats::default(), ACCURATE);
        cache.insert(key, planted.clone());
        let report = session
            .run(std::slice::from_ref(&exe))
            .pop()
            .unwrap()
            .expect("hit served without decoding");
        assert_eq!(report, planted);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn custom_backends_are_not_memoized() {
        let exes = exes(1);
        let calls = Arc::new(AtomicUsize::new(0));
        let calls_inner = calls.clone();
        let b = StubBackend::new("stub", move |_| {
            calls_inner.fetch_add(1, Ordering::Relaxed);
            SimStats::default()
        });
        let cache = Arc::new(SimCache::new());
        let session = SimSession::builder()
            .backend(Arc::new(b))
            .n_parallel(1)
            .memo_cache(cache.clone())
            .build()
            .unwrap();
        session.run(&exes);
        session.run(&exes);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "no digest, no memo");
        assert!(cache.is_empty());
        assert_eq!(cache.stats().lookups(), 0);
    }

    #[test]
    fn run_one_only_backend_serves_every_engine() {
        // The external-simulator shape: a backend that implements
        // `run_one` alone serves a session on every engine through the
        // trait's defaults, named and unmemoized.
        let exes = exes(1);
        for engine in EngineKind::ALL {
            let b = StubBackend::new("stub", |_| SimStats {
                host_nanos: 99,
                ..SimStats::default()
            });
            assert_eq!(b.fidelity_digest(), None);
            let session = SimSession::builder()
                .backend(Arc::new(b))
                .engine(engine)
                .n_parallel(1)
                .build()
                .unwrap();
            let r = session.run(&exes).pop().unwrap().unwrap();
            assert_eq!(r.stats.host_nanos, 99);
            assert_eq!(r.backend, "stub");
            assert!(r.cycles.is_none());
        }
    }
}

/// The one unit-test stub, shaped like an external simulator: it
/// implements [`SimBackend::run_one`] alone (a closure from the
/// executable to its statistics), so the trait's defaults are what the
/// tests drive.
#[cfg(test)]
pub(crate) mod stub {
    use super::*;

    pub(crate) struct StubBackend {
        name: &'static str,
        run: Box<dyn Fn(&Executable) -> SimStats + Send + Sync>,
    }

    impl StubBackend {
        pub(crate) fn new(
            name: &'static str,
            run: impl Fn(&Executable) -> SimStats + Send + Sync + 'static,
        ) -> Self {
            StubBackend {
                name,
                run: Box::new(run),
            }
        }

        /// Stub reporting [`marker_stats`], so order preservation is
        /// observable.
        pub(crate) fn marker(name: &'static str) -> Self {
            StubBackend::new(name, marker_stats)
        }
    }

    /// A per-executable marker: the name's length in `host_nanos`.
    pub(crate) fn marker_stats(exe: &Executable) -> SimStats {
        SimStats {
            host_nanos: exe.name.len() as u64,
            ..SimStats::default()
        }
    }

    impl SimBackend for StubBackend {
        fn name(&self) -> &str {
            self.name
        }

        fn run_one(&self, exe: &Executable, _: &RunLimits) -> Result<SimReport, BackendError> {
            Ok(SimReport::full((self.run)(exe), self.name))
        }
    }
}
