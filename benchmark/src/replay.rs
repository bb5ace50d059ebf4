//! The two replay workloads: the same `isa` / `cache` / `hw` layers
//! driven the opposite way.
//!
//! * `replay_conv` — long regular trials: instruction execution and
//!   cache *access* do all the work; constructing a trial's state is
//!   ~2 % of it.
//! * `replay_short_x86` — trials that retire a few hundred instructions
//!   under the x86 hierarchy: constructing (and dropping) the 32 MiB L3
//!   model, the memory image and the timing model is > 99 % of the rep.
//!   Its script replays one program per batch and hands the heap's free
//!   pages back to the kernel before each, so that every trial pays for
//!   faulting its hierarchy in (see [`release_free_pages`]).

use crate::alloc::release_free_pages;
use crate::harness::{Verdict, Workload, ROOT_SPAN};
use crate::inputs::{conv_set, torture_set};
use crate::oracle::{mismatches, reference_digests, Digest};
use crate::trace::Tracer;
use simtune_cache::CacheHierarchy;
use simtune_core::{
    CoreError, EngineKind, FidelitySpec, SimReport, SimSession, DEFAULT_BTB_ENTRIES,
    DEFAULT_RAS_DEPTH,
};
use simtune_hw::{PipelineModel, TargetSpec};
use simtune_isa::{
    AtomicCpu, DecodedEngine, ExecEngine, Executable, Memory, NoopHook, RunLimits, SimStats,
    TimingBridge,
};
use std::marker::PhantomData;
use std::path::Path;

/// The tier `replay_short_x86` runs at (also `tune_cold`'s exploration
/// tier): the pipelined tier at its default predictor geometry.
pub fn pipelined_spec() -> FidelitySpec {
    FidelitySpec::Pipelined {
        btb: DEFAULT_BTB_ENTRIES,
        ras: DEFAULT_RAS_DEPTH,
    }
}

/// A program set, its reference digests and the session that replays it.
pub struct ReplaySet {
    pub exes: Vec<Executable>,
    pub reference: Vec<Digest>,
    pub session: SimSession,
    pub target: TargetSpec,
    /// Whether trials run the pipeline timing model.
    pub pipelined: bool,
    /// Whether the rep script returns the heap's free pages to the
    /// kernel before every trial (see [`release_free_pages`]).
    cold_heap: bool,
    insts: u64,
}

impl ReplaySet {
    /// Runs the reference pass over `exes` at `fidelity` and opens the
    /// single-worker, memo-less session the timed reps use.
    pub fn new(
        exes: Vec<Executable>,
        target: TargetSpec,
        fidelity: &FidelitySpec,
        cold_heap: bool,
    ) -> ReplaySet {
        let backend = fidelity
            .build(&target.hierarchy)
            .expect("a bundled fidelity tier builds");
        let reference = reference_digests(backend.as_ref(), &exes);
        let insts = reference.iter().map(Digest::insts).sum();
        let session = SimSession::builder()
            .backend(backend)
            .n_parallel(1)
            .engine(EngineKind::Decoded)
            .build()
            .expect("session over an explicit backend builds");
        ReplaySet {
            exes,
            reference,
            session,
            pipelined: matches!(fidelity, FidelitySpec::Pipelined { .. }),
            cold_heap,
            target,
            insts,
        }
    }

    /// The rep script: the whole set as one batch, or — with a cold heap
    /// — one batch per program after the free pages went back.
    fn rep(&self) -> Vec<Result<SimReport, CoreError>> {
        if !self.cold_heap {
            return self.session.run(&self.exes);
        }
        self.exes
            .iter()
            .flat_map(|exe| {
                release_free_pages();
                self.session.run(std::slice::from_ref(exe))
            })
            .collect()
    }

    fn check(&self, outcomes: &[Result<SimReport, CoreError>]) -> Verdict {
        Verdict {
            ops: self.exes.len() as u64,
            failed: mismatches(&self.reference, outcomes),
            op_ms: Vec::new(),
        }
    }

    /// Re-enacts what a pool worker does for each trial, one public call
    /// per span, and checks the result like a timed rep's.
    fn traced_rep(&self, t: &mut Tracer) -> Verdict {
        let root = t.enter(ROOT_SPAN);
        let digests: Vec<Digest> = self
            .exes
            .iter()
            .map(|exe| {
                if self.cold_heap {
                    t.span("bench.release_pages", release_free_pages);
                }
                let trial = t.enter("pool.trial");
                let digest = enact_trial(t, exe, &self.target, self.pipelined);
                t.exit(trial);
                digest
            })
            .collect();
        t.exit(root);
        let failed = self
            .reference
            .iter()
            .zip(&digests)
            .filter(|(want, got)| want != got)
            .count() as u64;
        Verdict {
            ops: self.exes.len() as u64,
            failed,
            op_ms: Vec::new(),
        }
    }
}

/// One trial, stage by stage, through the same public calls the
/// accurate and pipelined backends make.
fn enact_trial(t: &mut Tracer, exe: &Executable, target: &TargetSpec, pipelined: bool) -> Digest {
    let fault = |e: simtune_isa::SimError| Digest::Fault(CoreError::from(e).to_string());
    let decoded = match t.span("isa.decode", || exe.decode()) {
        Ok(d) => d,
        Err(e) => return fault(e),
    };
    let image = t.span("isa.memory_init", || {
        let mut mem = Memory::new();
        for (base, values) in &exe.data_segments {
            mem.write_f32_slice(*base, values)?;
        }
        Ok(mem)
    });
    let mut mem = match image {
        Ok(m) => m,
        Err(e) => return fault(e),
    };
    let mut hier = t.span("cache.hierarchy_new", || {
        CacheHierarchy::new(target.hierarchy.clone())
    });
    let mut cpu = AtomicCpu::new(&exe.target);
    let engine = DecodedEngine::new(&decoded);
    let limits = RunLimits::default();
    let (stats, cycles): (Result<SimStats, _>, _) = if pipelined {
        let mut model = t.span("hw.model_new", || {
            PipelineModel::new(target, DEFAULT_BTB_ENTRIES, DEFAULT_RAS_DEPTH)
        });
        let stats = t.span("replay.exec", || {
            let mut bridge = TimingBridge::new(&mut model);
            engine.run_with_hook(&mut cpu, &mut mem, &mut hier, limits, &mut bridge)
        });
        (stats, Some(model.breakdown()))
    } else {
        let stats = t.span("replay.exec", || {
            engine.run_with_hook(&mut cpu, &mut mem, &mut hier, limits, &mut NoopHook)
        });
        (stats, None)
    };
    t.span("replay.teardown", || drop((mem, hier, cpu)));
    match stats {
        Ok(s) => Digest::report(&s, cycles),
        Err(e) => fault(e),
    }
}

/// What distinguishes the two replay workloads: a name and how the
/// program set is built.
pub trait ReplayKind {
    const NAME: &'static str;
    fn build(seed: u64) -> ReplaySet;
}

/// A replay workload: `SimSession::run` over the set every rep, one
/// worker, no memo.
pub struct Replay<K> {
    set: ReplaySet,
    kind: PhantomData<K>,
}

/// `replay_conv`: 32 stratified conv2d candidates on riscv, accurate
/// tier, decoded engine.
pub struct Conv;
pub type ReplayConv = Replay<Conv>;

impl ReplayKind for Conv {
    const NAME: &'static str = "replay_conv";

    fn build(seed: u64) -> ReplaySet {
        let conv = conv_set(seed);
        ReplaySet::new(conv.exes, conv.spec, &FidelitySpec::Accurate, false)
    }
}

/// `replay_short_x86`: four programs of every torture preset on the x86
/// target, pipelined tier, on a cold heap.
pub struct ShortX86;
pub type ReplayShortX86 = Replay<ShortX86>;

impl ReplayKind for ShortX86 {
    const NAME: &'static str = "replay_short_x86";

    fn build(seed: u64) -> ReplaySet {
        let spec = TargetSpec::x86_ryzen_5800x();
        let exes = torture_set(seed);
        // The pipelined tier promises the accurate tier's architectural
        // statistics; hold it to that before trusting it as reference.
        let accurate = FidelitySpec::Accurate
            .build(&spec.hierarchy)
            .expect("accurate tier builds");
        let architectural = reference_digests(accurate.as_ref(), &exes);
        let set = ReplaySet::new(exes, spec, &pipelined_spec(), true);
        for (a, p) in architectural.iter().zip(&set.reference) {
            match (a, p) {
                (Digest::Report { inst_mix: a, .. }, Digest::Report { inst_mix: p, .. }) => {
                    assert_eq!(a, p, "pipelined and accurate tiers retire different mixes")
                }
                (a, p) => assert_eq!(a, p, "pipelined and accurate tiers fault differently"),
            }
        }
        set
    }
}

impl<K: ReplayKind> Workload for Replay<K> {
    const NAME: &'static str = K::NAME;
    const N_PARALLEL: usize = 1;
    const SCRIPTS: usize = 1;
    const MIN_ROUNDS: usize = 24;
    type Out = Vec<Result<SimReport, CoreError>>;

    fn setup(seed: u64, _scratch: &Path) -> Self {
        Replay {
            set: K::build(seed),
            kind: PhantomData,
        }
    }

    fn trials_per_round(&self) -> u64 {
        self.set.exes.len() as u64
    }

    fn insts_per_round(&self) -> u64 {
        self.set.insts
    }

    fn rep(&mut self, _script: usize) -> Self::Out {
        self.set.rep()
    }

    fn check(&mut self, _script: usize, out: Self::Out) -> Verdict {
        self.set.check(&out)
    }

    fn traced_rep(&mut self, _script: usize, tracer: &mut Tracer) -> Verdict {
        self.set.traced_rep(tracer)
    }

    fn memo_hit_rate(&self) -> f64 {
        0.0
    }
}
