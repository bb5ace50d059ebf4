//! Differential torture harness: one program, every engine × backend ×
//! parallelism combination, full observable-state diffing.
//!
//! The repo's standing correctness claim is two-fold: every replay
//! engine ([`EngineKind`]) is bit-identical to the reference
//! interpreter, and every simulating backend tier relates to
//! [`AccurateBackend`] by a *stated contract* — [`FastCountBackend`]
//! reproduces instruction and fetch/access totals exactly,
//! [`crate::PipelinedBackend`] the instruction mix and, on every engine,
//! the interpreter's own pipelined report. This module checks all of it
//! against a
//! single generated program in one call, producing structured
//! [`Divergence`] records instead of panics, so the fuzzer can journal,
//! shrink and replay failures.
//!
//! One [`DiffHarness::run_case`] invocation covers, for a journaled
//! `(config, seed)` identity (see [`simtune_isa::TortureConfig`]):
//!
//! 1. **Engine sweep, full state** — the program runs on every engine
//!    (`ENGINES`) from identical cold state; statistics (host wall
//!    time excluded), all 32 integer/float/vector registers (floats by
//!    bit pattern) and the data-window memory image must match the
//!    interpreter exactly. A program that faults must fault identically
//!    everywhere: same [`simtune_isa::SimError`], and post-error
//!    architectural state is deliberately *not* compared (it is
//!    unspecified).
//! 2. **Backend ladder × engine** — [`AccurateBackend`],
//!    [`FastCountBackend`] and [`crate::PipelinedBackend`] run on every
//!    engine; each report is checked against the accurate reference
//!    under its tier's contract. The pipelined tier must
//!    reproduce the accurate instruction mix exactly (its prefetcher
//!    legitimately changes cache statistics), report a cycle breakdown
//!    of at least one cycle per retired instruction, and reproduce the
//!    interpreter's pipelined report — breakdown bits and cache
//!    counters — on every engine.
//! 3. **Session sweep** — persistent [`SimSession`]s at `n_parallel ∈
//!    {1, 2, 4}` run a multi-trial batch (same program, distinct data
//!    images) through the worker pool; every trial must match a direct
//!    single-threaded reference run.
//!
//! New engines opt in by joining `ENGINES`; new backends by
//! being added to the ladder in [`DiffHarness::diff_executable`] with
//! their contract encoded as a comparison. The fuzz driver
//! (`crates/bench`, `torture_fuzz`) loops this harness over the
//! scenario corpus under a time budget; `crates/core/tests/` pins it in
//! the ordinary test suite.

use crate::backend::{AccurateBackend, FastCountBackend};
use crate::pipelined::PipelinedBackend;
use crate::{
    BackendError, CoreError, SimBackend, SimReport, SimSession, DEFAULT_BTB_ENTRIES,
    DEFAULT_RAS_DEPTH,
};
use simtune_cache::{CacheHierarchy, HierarchyConfig};
use simtune_isa::{
    torture_program_with, AtomicCpu, DecodedEngine, DecodedProgram, EngineKind, ExecEngine,
    Executable, Fpr, Gpr, InterpEngine, Memory, NoopHook, Program, RunLimits, SimError, SimStats,
    TargetIsa, TortureConfig, Vr, DATA_BASE, TORTURE_WINDOW,
};

/// The engines with code of their own. [`EngineKind::Threaded`] and
/// [`EngineKind::Batch`] are labels whose trials replay on `Decoded`;
/// that a session under either returns `Decoded`'s reports is pinned
/// once, in `tests/pool_determinism.rs`, not once per case here.
const ENGINES: [EngineKind; 2] = [EngineKind::Interp, EngineKind::Decoded];

/// One observed disagreement between a combination under test and its
/// reference, in a form that can be journaled and printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Which combination disagreed, e.g. `"engine:decoded"`,
    /// `"backend:fast-count×engine:decoded"`,
    /// `"session:accurate×decoded×np4[trial 2]"`.
    pub combo: String,
    /// Which observable field, e.g. `"stats.inst_mix"`, `"gpr"`,
    /// `"memory"`, `"error"`, `"cycles.interp"`.
    pub field: String,
    /// Reference value (Debug-formatted, truncated for registers/memory
    /// to the first differing element).
    pub expected: String,
    /// Observed value, same formatting.
    pub actual: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} diverged: expected {}, got {}",
            self.combo, self.field, self.expected, self.actual
        )
    }
}

/// Outcome of one torture case: the journaled identity, how many
/// combinations were exercised, and every divergence found (empty =
/// pass).
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Scenario name the config came from ("baseline", "fault-prone", …
    /// or "custom").
    pub scenario: String,
    /// Generator seed — with the scenario/config, the full replay
    /// identity.
    pub seed: u64,
    /// Number of (combination, reference) comparisons performed.
    pub combos: u32,
    /// True when the reference run itself faulted (fault-injection
    /// scenarios): the case then checks error agreement, not state.
    pub faulted: bool,
    /// Every disagreement found; an empty vector is a pass.
    pub divergences: Vec<Divergence>,
}

impl CaseOutcome {
    /// True when no combination disagreed with its reference.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Full observable state of one completed run: everything two engines
/// executing the same program from the same cold state must agree on.
struct ObservedState {
    /// Statistics with `host_nanos` zeroed (wall time legitimately
    /// differs between runs).
    stats: SimStats,
    gprs: Vec<i64>,
    fpr_bits: Vec<u32>,
    vr_bits: Vec<Vec<u32>>,
    mem_bits: Vec<u32>,
}

/// A run either completes with observable state or faults with a
/// [`SimError`]; post-error state is unspecified and never compared.
type Observed = Result<ObservedState, SimError>;

/// The standing differential gate. Construction spawns three persistent
/// worker-pool sessions (accurate backend, default engine, `n_parallel`
/// {1, 2, 4}), so a fuzz loop pays thread startup once, not per case.
pub struct DiffHarness {
    hierarchy: HierarchyConfig,
    limits: RunLimits,
    /// (n_parallel, session) — the pooled execution paths.
    sessions: Vec<(usize, SimSession)>,
}

impl DiffHarness {
    /// Parallelism degrees every pooled path is exercised at.
    pub const N_PARALLEL: [usize; 3] = [1, 2, 4];

    /// Harness over `hierarchy` with default run limits.
    ///
    /// # Panics
    ///
    /// Panics if a session fails to build — impossible for the bundled
    /// accurate backend.
    pub fn new(hierarchy: HierarchyConfig) -> Self {
        let sessions = Self::N_PARALLEL
            .into_iter()
            .map(|np| {
                let session = SimSession::builder()
                    .accurate(&hierarchy)
                    .n_parallel(np)
                    .build()
                    .expect("accurate session always builds");
                (np, session)
            })
            .collect();
        DiffHarness {
            hierarchy,
            limits: RunLimits::default(),
            sessions,
        }
    }

    /// Harness over the tiny test hierarchy — small caches make torture
    /// programs actually evict, which is where fidelity bugs live.
    pub fn tiny() -> Self {
        DiffHarness::new(HierarchyConfig::tiny_for_tests())
    }

    /// The cache geometry every backend instance models.
    pub fn hierarchy(&self) -> &HierarchyConfig {
        &self.hierarchy
    }

    /// Builds the canonical executable for a `(config, seed)` identity:
    /// the generated program over a deterministic data image filling the
    /// torture window. `data_seed` varies the image independently of the
    /// program (session trials use siblings of the base seed).
    pub fn make_executable(
        scenario: &str,
        config: &TortureConfig,
        seed: u64,
        data_seed: u64,
    ) -> Executable {
        let program = torture_program_with(config, seed);
        let target = TargetIsa::paper_targets()[(seed % 3) as usize].clone();
        Executable::new(format!("torture-{scenario}-{seed:#x}"), program, target)
            .with_segment(DATA_BASE, window_image(data_seed))
    }

    /// Runs the full differential matrix for one `(config, seed)`
    /// identity and reports every disagreement.
    pub fn run_case(&self, scenario: &str, config: &TortureConfig, seed: u64) -> CaseOutcome {
        let exe = Self::make_executable(scenario, config, seed, seed ^ 0x5EED_DA7A);
        let (combos, faulted, divergences) = self.diff_executable(&exe);
        CaseOutcome {
            scenario: scenario.to_string(),
            seed,
            combos,
            faulted,
            divergences,
        }
    }

    /// The matrix itself, over an arbitrary executable (the shrinker
    /// re-enters here with candidate programs). Returns (comparisons
    /// performed, reference faulted, divergences).
    pub fn diff_executable(&self, exe: &Executable) -> (u32, bool, Vec<Divergence>) {
        let mut divs = Vec::new();
        let mut combos = 0u32;
        let decoded = match exe.decode() {
            Ok(d) => d,
            // A program no bundled engine can run cannot diverge; the
            // shrinker relies on this to reject ill-formed candidates.
            Err(_) => return (0, false, divs),
        };

        // 1. Engine sweep, full observable state vs the interpreter.
        let reference = self.observe(EngineKind::Interp, exe, &decoded);
        let faulted = reference.is_err();
        for engine in ENGINES {
            if engine == EngineKind::Interp {
                continue;
            }
            combos += 1;
            let observed = self.observe(engine, exe, &decoded);
            compare_observed(
                &format!("engine:{}", engine.label()),
                &reference,
                &observed,
                &mut divs,
            );
        }

        // 2. Backend ladder × engine, against the accurate reference
        // report (reference engine: the interpreter again).
        let accurate = AccurateBackend::new(self.hierarchy.clone());
        let fast = FastCountBackend::matching(&self.hierarchy);
        let pipelined = PipelinedBackend::new(
            self.hierarchy.clone(),
            DEFAULT_BTB_ENTRIES,
            DEFAULT_RAS_DEPTH,
        );
        let ref_report =
            accurate.run_one_decoded_on(exe, &decoded, &self.limits, EngineKind::Interp);
        let pipelined_ref =
            pipelined.run_one_decoded_on(exe, &decoded, &self.limits, EngineKind::Interp);
        for engine in ENGINES {
            for (tier, backend) in [
                ("accurate", &accurate as &dyn SimBackend),
                ("fast-count", &fast),
                ("pipelined", &pipelined),
            ] {
                combos += 1;
                let combo = format!("backend:{tier}×engine:{}", engine.label());
                let report = backend.run_one_decoded_on(exe, &decoded, &self.limits, engine);
                match (&ref_report, &report) {
                    (Err(e), Err(o)) => diff_eq(&combo, "error", e, o, &mut divs),
                    (Err(e), Ok(_)) => push(&mut divs, &combo, "error", e, &"completed"),
                    (Ok(_), Err(o)) => push(&mut divs, &combo, "error", &"completed", o),
                    (Ok(r), Ok(o)) => match tier {
                        "accurate" => diff_stats(&combo, &r.stats, &o.stats, &mut divs),
                        "fast-count" => self.check_fast_count(&combo, r, o, &mut divs),
                        _ => self.check_pipelined(&combo, r, &pipelined_ref, o, &mut divs),
                    },
                }
            }
        }

        // 3. Pooled sessions: a 3-trial batch (distinct data images per
        // trial) through each persistent session; every trial must match
        // a direct, single-threaded accurate run over the same data.
        let data_seeds = [0x5EED_DA7A, 0xABCD_EF01, 0xD1F7_0002];
        let trials: Vec<Executable> = data_seeds
            .iter()
            .map(|&ds| Executable {
                data_segments: vec![(DATA_BASE, window_image(ds))],
                ..exe.clone()
            })
            .collect();
        let refs: Vec<Result<SimReport, BackendError>> = trials
            .iter()
            .map(|t| accurate.run_one_decoded_on(t, &decoded, &self.limits, EngineKind::Decoded))
            .collect();
        for (np, session) in &self.sessions {
            let results = session.run(&trials);
            for (i, (got, want)) in results.iter().zip(&refs).enumerate() {
                combos += 1;
                let combo = format!(
                    "session:accurate×{}×np{np}[trial {i}]",
                    session.engine().label()
                );
                match (want, got) {
                    (Ok(w), Ok(g)) => {
                        diff_stats(&combo, &w.stats, &g.stats, &mut divs);
                        diff_eq(&combo, "backend", &w.backend, &g.backend, &mut divs);
                    }
                    (Err(BackendError::Sim(w)), Err(CoreError::Sim(g))) => {
                        diff_eq(&combo, "error", w, g, &mut divs)
                    }
                    (w, g) => push(&mut divs, &combo, "outcome", w, g),
                }
            }
        }

        (combos, faulted, divs)
    }

    /// Diffs an arbitrary candidate backend against a reference backend
    /// on one executable under full-report equality (statistics minus
    /// wall time, backend-independent fields, error identity). This is
    /// the hook the shrinker acceptance test uses to plant a synthetic
    /// divergence; it is *not* fidelity-aware — only compare backends
    /// that promise identical reports.
    pub fn diff_backend_pair(
        &self,
        reference: &dyn SimBackend,
        candidate: &dyn SimBackend,
        exe: &Executable,
        engine: EngineKind,
    ) -> Vec<Divergence> {
        let mut divs = Vec::new();
        let combo = format!("pair:{}→{}", reference.name(), candidate.name());
        let decoded = match exe.decode() {
            Ok(d) => d,
            Err(_) => return divs,
        };
        let want = reference.run_one_decoded_on(exe, &decoded, &self.limits, engine);
        let got = candidate.run_one_decoded_on(exe, &decoded, &self.limits, engine);
        match (&want, &got) {
            (Ok(w), Ok(g)) => diff_stats(&combo, &w.stats, &g.stats, &mut divs),
            (Err(w), Err(g)) => diff_eq(&combo, "error", w, g, &mut divs),
            (Err(w), Ok(_)) => push(&mut divs, &combo, "error", w, &"completed"),
            (Ok(_), Err(g)) => push(&mut divs, &combo, "error", &"completed", g),
        }
        divs
    }

    /// Shrinks the failing program of a divergent `(config, seed)` case
    /// to a locally minimal program that still diverges (same data
    /// image, same matrix), or `None` if the case does not diverge in
    /// the first place.
    pub fn shrink_case(
        &self,
        scenario: &str,
        config: &TortureConfig,
        seed: u64,
    ) -> Option<Program> {
        let exe = Self::make_executable(scenario, config, seed, seed ^ 0x5EED_DA7A);
        if self.diff_executable(&exe).2.is_empty() {
            return None;
        }
        Some(Self::shrink_executable(&exe, |cand| {
            !self.diff_executable(cand).2.is_empty()
        }))
    }

    /// Shrinks `exe`'s program to a locally minimal one for which
    /// `diverges` still holds, keeping its data image and target — the
    /// repro step of [`DiffHarness::shrink_case`], for comparisons that
    /// live outside the per-case matrix.
    pub(crate) fn shrink_executable(
        exe: &Executable,
        diverges: impl Fn(&Executable) -> bool,
    ) -> Program {
        simtune_isa::shrink_program(&exe.program, |candidate| {
            diverges(&Executable {
                program: candidate.clone(),
                ..exe.clone()
            })
        })
    }

    /// FastCount contract: retired-instruction mix and line-granular
    /// fetch/access *totals* are bit-identical to accurate; cache
    /// hit/miss split is absent (all accesses report as misses).
    fn check_fast_count(
        &self,
        combo: &str,
        acc: &SimReport,
        fast: &SimReport,
        divs: &mut Vec<Divergence>,
    ) {
        diff_eq(
            combo,
            "stats.inst_mix",
            &acc.stats.inst_mix,
            &fast.stats.inst_mix,
            divs,
        );
        let a = &acc.stats.cache;
        let f = &fast.stats.cache;
        let reads = |c: &simtune_cache::CacheStats| c.read_hits + c.read_misses;
        let writes = |c: &simtune_cache::CacheStats| c.write_hits + c.write_misses;
        diff_eq(combo, "l1i.fetches", &reads(&a.l1i), &reads(&f.l1i), divs);
        diff_eq(combo, "l1d.reads", &reads(&a.l1d), &reads(&f.l1d), divs);
        diff_eq(combo, "l1d.writes", &writes(&a.l1d), &writes(&f.l1d), divs);
    }

    /// Pipelined contract: architectural results are the accurate tier's
    /// exactly (same replay, instruction mix included); cache statistics
    /// are not the accurate tier's — the tier's prefetcher issues extra
    /// fills into the same hierarchy by design — but they, and the cycle
    /// breakdown bit for bit, are the interpreter's pipelined report
    /// (`want`): the decoded engine's block-at-a-time timing must reach the
    /// per-µop result, and on the interpreter itself this is a re-run. The
    /// timing signal must exist and cost at least one cycle per retired
    /// instruction (an in-order pipeline retires at most one per cycle).
    fn check_pipelined(
        &self,
        combo: &str,
        acc: &SimReport,
        want: &Result<SimReport, BackendError>,
        got: &SimReport,
        divs: &mut Vec<Divergence>,
    ) {
        diff_eq(
            combo,
            "stats.inst_mix",
            &acc.stats.inst_mix,
            &got.stats.inst_mix,
            divs,
        );
        let Some(c) = &got.cycles else {
            return push(divs, combo, "cycles", &"present", &"absent");
        };
        let insts = got.stats.inst_mix.total() as f64;
        if c.total() < insts {
            push(
                divs,
                combo,
                "cycles.total",
                &format!(">= {insts}"),
                &c.total(),
            );
        }
        match want {
            Ok(want) => {
                let bits = |r: &SimReport| {
                    r.cycles
                        .map(|c| [c.pipeline, c.memory, c.control].map(f64::to_bits))
                };
                diff_eq(combo, "cycles.interp", &bits(want), &bits(got), divs);
                diff_eq(
                    combo,
                    "cache.interp",
                    &want.stats.cache,
                    &got.stats.cache,
                    divs,
                );
            }
            Err(e) => push(divs, combo, "cycles.interp", e, &"completed"),
        }
    }

    /// Runs `exe` on one engine from cold state and captures everything
    /// observable (or the error).
    fn observe(&self, engine: EngineKind, exe: &Executable, decoded: &DecodedProgram) -> Observed {
        let mut cpu = AtomicCpu::new(&exe.target);
        let mut mem = Memory::new();
        for (base, values) in &exe.data_segments {
            mem.write_f32_slice(*base, values).map_err(|e| {
                debug_assert!(false, "torture data segments are writable: {e}");
                e
            })?;
        }
        let mut hier = CacheHierarchy::new(self.hierarchy.clone());
        let (c, m, h) = (&mut cpu, &mut mem, &mut hier);
        let (limits, hook) = (self.limits, &mut NoopHook);
        let stats = match engine {
            EngineKind::Interp => {
                InterpEngine::new(&exe.program).run_with_hook(c, m, h, limits, hook)
            }
            EngineKind::Decoded | EngineKind::Threaded | EngineKind::Batch => {
                DecodedEngine::new(decoded).run_with_hook(c, m, h, limits, hook)
            }
        }?;
        Ok(capture(stats, &cpu, &mem))
    }
}

/// Deterministic data image filling the torture window (f32 words, same
/// distribution as the engine-equivalence property suite).
fn window_image(data_seed: u64) -> Vec<f32> {
    (0..TORTURE_WINDOW / 4)
        .map(|i| {
            let x = (data_seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((x >> 40) as i64 - (1 << 23)) as f32 / 256.0
        })
        .collect()
}

fn capture(mut stats: SimStats, cpu: &AtomicCpu, mem: &Memory) -> ObservedState {
    // Wall time legitimately differs between runs of equal fidelity.
    stats.host_nanos = 0;
    ObservedState {
        stats,
        gprs: (0..32).map(|r| cpu.gpr(Gpr(r))).collect(),
        fpr_bits: (0..32).map(|r| cpu.fpr(Fpr(r)).to_bits()).collect(),
        vr_bits: (0..32)
            .map(|r| cpu.vr(Vr(r)).iter().map(|x| x.to_bits()).collect())
            .collect(),
        mem_bits: mem
            .read_f32_slice(DATA_BASE, (TORTURE_WINDOW / 4) as usize)
            .expect("torture window readable")
            .into_iter()
            .map(f32::to_bits)
            .collect(),
    }
}

fn push<E: std::fmt::Debug + ?Sized, A: std::fmt::Debug + ?Sized>(
    divs: &mut Vec<Divergence>,
    combo: &str,
    field: &str,
    expected: &E,
    actual: &A,
) {
    divs.push(Divergence {
        combo: combo.to_string(),
        field: field.to_string(),
        expected: format!("{expected:?}"),
        actual: format!("{actual:?}"),
    });
}

fn diff_eq<T: PartialEq + std::fmt::Debug>(
    combo: &str,
    field: &str,
    expected: &T,
    actual: &T,
    divs: &mut Vec<Divergence>,
) {
    if expected != actual {
        push(divs, combo, field, expected, actual);
    }
}

/// Field-wise statistics diff, `host_nanos` excluded.
fn diff_stats(combo: &str, expected: &SimStats, actual: &SimStats, divs: &mut Vec<Divergence>) {
    diff_eq(
        combo,
        "stats.inst_mix",
        &expected.inst_mix,
        &actual.inst_mix,
        divs,
    );
    diff_eq(
        combo,
        "stats.cache.l1i",
        &expected.cache.l1i,
        &actual.cache.l1i,
        divs,
    );
    diff_eq(
        combo,
        "stats.cache.l1d",
        &expected.cache.l1d,
        &actual.cache.l1d,
        divs,
    );
    diff_eq(
        combo,
        "stats.cache.l2",
        &expected.cache.l2,
        &actual.cache.l2,
        divs,
    );
    diff_eq(
        combo,
        "stats.cache.l3",
        &expected.cache.l3,
        &actual.cache.l3,
        divs,
    );
    diff_eq(
        combo,
        "stats.cache.dram_reads",
        &expected.cache.dram_reads,
        &actual.cache.dram_reads,
        divs,
    );
    diff_eq(
        combo,
        "stats.cache.dram_writes",
        &expected.cache.dram_writes,
        &actual.cache.dram_writes,
        divs,
    );
}

/// Engine-level comparison: full state on success, error identity on
/// failure; mixed outcomes are a divergence.
fn compare_observed(
    combo: &str,
    expected: &Observed,
    actual: &Observed,
    divs: &mut Vec<Divergence>,
) {
    match (expected, actual) {
        (Ok(e), Ok(a)) => {
            diff_stats(combo, &e.stats, &a.stats, divs);
            first_mismatch(combo, "gpr", &e.gprs, &a.gprs, divs);
            first_mismatch(combo, "fpr", &e.fpr_bits, &a.fpr_bits, divs);
            first_mismatch(combo, "vr", &e.vr_bits, &a.vr_bits, divs);
            first_mismatch(combo, "memory", &e.mem_bits, &a.mem_bits, divs);
        }
        (Err(e), Err(a)) => diff_eq(combo, "error", e, a, divs),
        (Err(e), Ok(_)) => push(divs, combo, "error", e, &"completed"),
        (Ok(_), Err(a)) => push(divs, combo, "error", &"completed", a),
    }
}

/// Reports the first differing element of two equal-length observations
/// (register files, memory images) instead of dumping both sides whole.
fn first_mismatch<T: PartialEq + std::fmt::Debug>(
    combo: &str,
    field: &str,
    expected: &[T],
    actual: &[T],
    divs: &mut Vec<Divergence>,
) {
    if let Some(i) =
        (0..expected.len().max(actual.len())).find(|&i| expected.get(i) != actual.get(i))
    {
        push(
            divs,
            combo,
            &format!("{field}[{i}]"),
            &expected.get(i),
            &actual.get(i),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_case_has_zero_divergences_across_the_matrix() {
        let harness = DiffHarness::tiny();
        for seed in 0..4 {
            let out = harness.run_case("baseline", &TortureConfig::baseline(), seed);
            assert!(out.passed(), "seed {seed}: {:#?}", out.divergences);
            // 1 engine diff + 3 tiers × 2 engines + 3 sessions × 3 trials.
            assert_eq!(out.combos, 16, "the matrix is pinned exactly");
            assert!(!out.faulted);
        }
    }

    #[test]
    fn fault_prone_cases_agree_on_the_error_everywhere() {
        let harness = DiffHarness::tiny();
        let cfg = TortureConfig::by_name("fault-prone").unwrap();
        let mut saw_fault = false;
        for seed in 0..12 {
            let out = harness.run_case("fault-prone", &cfg, seed);
            assert!(out.passed(), "seed {seed}: {:#?}", out.divergences);
            saw_fault |= out.faulted;
        }
        assert!(saw_fault, "some fault-prone seed must actually fault");
    }

    #[test]
    fn non_divergent_case_does_not_shrink() {
        let harness = DiffHarness::tiny();
        assert!(harness
            .shrink_case("baseline", &TortureConfig::baseline(), 1)
            .is_none());
    }
}
