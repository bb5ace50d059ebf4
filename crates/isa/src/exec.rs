use crate::{
    AtomicCpu, DecodedEngine, DecodedProgram, EngineKind, ExecEngine, ExecHook, InterpEngine,
    Memory, NoopHook, Program, RunLimits, SimError, SimStats, TargetIsa,
};
use simtune_cache::{CacheHierarchy, HierarchyConfig};
use std::time::Instant;

/// A standalone executable, the unit the paper's builder hands to the
/// simulator interface (Section III-A).
///
/// In the paper, a generated `main` function prepares the input tensors,
/// allocates the output and calls the compiled kernel. Here the
/// preparation is a list of `(address, values)` segments the loader
/// materializes into simulator memory before jumping to the program —
/// byte-for-byte the same effect without interpreting an init loop.
#[derive(Debug, Clone)]
pub struct Executable {
    /// Descriptive name ("conv2d g3 impl 17") for logs and errors.
    pub name: String,
    /// The compiled kernel plus driver code.
    pub program: Program,
    /// Prepared tensor data: `(base address, f32 values)` per buffer.
    pub data_segments: Vec<(u64, Vec<f32>)>,
    /// Target whose register/vector resources the code was generated for.
    pub target: TargetIsa,
}

/// Result of a simulator invocation: statistics plus the final memory
/// image (for output validation).
#[derive(Debug)]
pub struct SimOutcome {
    /// Instruction-accurate statistics, including host wall time.
    pub stats: SimStats,
    /// Memory after the run; read the output buffer from here.
    pub memory: Memory,
}

/// The one way to run a trial: loads `exe` into a fresh memory image,
/// builds the trial's hierarchy with `mk_hier` and a fresh CPU — one
/// "simulator instance" of the paper's `n_parallel` pool — and replays
/// `decoded` (the lowering of `exe.program` for `exe.target`, from
/// [`Executable::decode`]) on `engine` to completion, reporting every
/// event to `hook`.
///
/// The hierarchy arrives as a constructor because which hierarchy a
/// trial runs on — full model or counting-only — is the tier's choice,
/// and the trial owns it: it is built here, observably new (see
/// [`CacheHierarchy::new`]), and dropped before this function returns,
/// also when the run faults or a hook panics. Where it is built relative
/// to the memory image does not matter to the heap: its arrays come from
/// the cache crate's idle list, not from a fresh allocation beneath the
/// image — measured either way round, `replay_short_x86` peaks at
/// 4.4–4.6 MiB and `tune_cold` at 5.8–6.0 MiB.
///
/// A fidelity tier is a choice of arguments, not a code path:
///
/// * accurate — [`CacheHierarchy::new`] + [`NoopHook`];
/// * fast-count — [`CacheHierarchy::counting_only`] + [`NoopHook`]
///   (the QEMU-plugin instrumentation style: accesses are tallied at
///   line granularity, no cache is modeled);
/// * pipelined — [`crate::TimingBridge`] as the hook.
///
/// The two engines are observationally identical (see the differential
/// suite), so the choice only moves host time. The interpreter raises
/// events per retirement — `on_fetch`, then any
/// `on_data_access`/`on_branch`, then `on_retire` — and the decoded
/// loop per block, ending each with one `on_block` ([`ExecHook`] gives
/// both orders); a hook must reach the same state from either.
/// [`EngineKind::Decoded`], the default and the engine every bundled
/// workload runs, replays a basic block at a time — one limit check per
/// block, one L1I access per run of instructions in one I-line
/// (`decode.rs` says why that is exact) — where [`EngineKind::Interp`],
/// the oracle it is diffed against, does both per instruction.
/// [`EngineKind::Threaded`] and [`EngineKind::Batch`] are labels with no
/// engine of their own; their trials run on the decoded loop.
///
/// The returned statistics include the host wall-clock time of the
/// replay proper (`t_simulator` in the paper's Equation 4).
///
/// # Errors
///
/// Propagates any [`SimError`] from loading the segments or the run.
pub fn replay<H: ExecHook>(
    exe: &Executable,
    decoded: &DecodedProgram,
    mk_hier: impl FnOnce() -> CacheHierarchy,
    engine: EngineKind,
    limits: RunLimits,
    hook: &mut H,
) -> Result<SimOutcome, SimError> {
    let mut mem = Memory::new();
    for (base, values) in &exe.data_segments {
        mem.write_f32_slice(*base, values)?;
    }
    let mut hier = mk_hier();
    let mut cpu = AtomicCpu::new(&exe.target);
    let (c, m, h) = (&mut cpu, &mut mem, &mut hier);
    let start = Instant::now();
    let mut stats = match engine {
        EngineKind::Interp => InterpEngine::new(&exe.program).run_with_hook(c, m, h, limits, hook),
        EngineKind::Decoded | EngineKind::Threaded | EngineKind::Batch => {
            DecodedEngine::new(decoded).run_with_hook(c, m, h, limits, hook)
        }
    }?;
    stats.host_nanos = start.elapsed().as_nanos().max(1) as u64;
    Ok(SimOutcome { stats, memory: mem })
}

/// Decode-inside convenience over [`replay`]: runs `exe` to completion on
/// the full cache model of `hierarchy`, default engine, no hook.
///
/// The program is lowered with [`Executable::decode`] first, so
/// decode-time control-flow validation applies: a branch pointing
/// outside the program or a last instruction that could fall through
/// past the end is rejected up front with [`SimError::InvalidPc`]
/// instead of (possibly never) failing mid-run.
///
/// # Errors
///
/// Propagates any [`SimError`] from the decode or the run (invalid
/// control flow, memory faults, instruction budget exhaustion, unknown
/// syscalls).
///
/// # Example
///
/// ```
/// use simtune_cache::HierarchyConfig;
/// use simtune_isa::{simulate, Executable, Inst, Gpr, ProgramBuilder, RunLimits, TargetIsa};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// b.push(Inst::Li { rd: Gpr(1), imm: 0x100_0000 });
/// b.push(Inst::Flw { fd: simtune_isa::Fpr(1), rs: Gpr(1), imm: 0 });
/// b.push(Inst::Halt);
/// let exe = Executable {
///     name: "demo".into(),
///     program: b.build()?,
///     data_segments: vec![(0x100_0000, vec![1.0, 2.0])],
///     target: TargetIsa::riscv_u74(),
/// };
/// let out = simulate(&exe, &HierarchyConfig::tiny_for_tests(), RunLimits::default())?;
/// assert_eq!(out.memory.read_f32(0x100_0000)?, 1.0);
/// assert!(out.stats.host_nanos > 0);
/// # Ok(())
/// # }
/// ```
pub fn simulate(
    exe: &Executable,
    hierarchy: &HierarchyConfig,
    limits: RunLimits,
) -> Result<SimOutcome, SimError> {
    let decoded = exe.decode()?;
    let hier = || CacheHierarchy::new(hierarchy.clone());
    let engine = EngineKind::default();
    replay(exe, &decoded, hier, engine, limits, &mut NoopHook)
}

impl Executable {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, program: Program, target: TargetIsa) -> Self {
        Executable {
            name: name.into(),
            program,
            data_segments: Vec::new(),
            target,
        }
    }

    /// Adds a prepared tensor segment, builder-style.
    pub fn with_segment(mut self, base: u64, values: Vec<f32>) -> Self {
        self.data_segments.push((base, values));
        self
    }

    /// Lowers this executable's program once for its target — the handle
    /// [`replay`] runs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPc`] when decode-time control-flow
    /// validation rejects the program.
    pub fn decode(&self) -> Result<DecodedProgram, SimError> {
        DecodedProgram::decode(&self.program, &self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fpr, Gpr, Inst, ProgramBuilder};

    fn adder_exe() -> Executable {
        // out[0] = in[0] + in[1]
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li {
            rd: Gpr(1),
            imm: 0x100_0000,
        });
        b.push(Inst::Flw {
            fd: Fpr(1),
            rs: Gpr(1),
            imm: 0,
        });
        b.push(Inst::Flw {
            fd: Fpr(2),
            rs: Gpr(1),
            imm: 4,
        });
        b.push(Inst::Fadd {
            fd: Fpr(3),
            fs1: Fpr(1),
            fs2: Fpr(2),
        });
        b.push(Inst::Fsw {
            fval: Fpr(3),
            rs: Gpr(1),
            imm: 8,
        });
        b.push(Inst::Ecall { code: 0 });
        Executable::new("adder", b.build().unwrap(), TargetIsa::riscv_u74())
            .with_segment(0x100_0000, vec![1.25, 2.5])
    }

    #[test]
    fn simulate_runs_and_exposes_outputs() {
        let out = simulate(
            &adder_exe(),
            &HierarchyConfig::tiny_for_tests(),
            RunLimits::default(),
        )
        .unwrap();
        assert_eq!(out.memory.read_f32(0x100_0000 + 8).unwrap(), 3.75);
        assert_eq!(out.stats.inst_mix.loads, 2);
        assert_eq!(out.stats.inst_mix.stores, 1);
        assert!(out.stats.host_nanos > 0, "wall time must be recorded");
    }

    #[test]
    fn each_simulation_starts_cold() {
        // Two runs of the same executable report identical cache stats:
        // fresh memory, fresh hierarchy, no leakage between instances.
        let exe = adder_exe();
        let cfg = HierarchyConfig::tiny_for_tests();
        let a = simulate(&exe, &cfg, RunLimits::default()).unwrap();
        let b = simulate(&exe, &cfg, RunLimits::default()).unwrap();
        assert_eq!(a.stats.inst_mix, b.stats.inst_mix);
        assert_eq!(a.stats.cache, b.stats.cache);
    }

    #[test]
    fn an_access_wrapping_past_the_top_of_memory_faults_on_every_engine() {
        // li x1, -4; ld x2, 0(x1): bytes 0xFFFF_FFFF_FFFF_FFFC.. run past
        // u64::MAX, and the cache lines are computed before memory checks
        // the range.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li {
            rd: Gpr(1),
            imm: -4,
        });
        b.push(Inst::Ld {
            rd: Gpr(2),
            rs: Gpr(1),
            imm: 0,
        });
        b.push(Inst::Halt);
        let exe = Executable::new("wrap", b.build().unwrap(), TargetIsa::riscv_u74());
        let decoded = exe.decode().unwrap();
        for engine in [EngineKind::Interp, EngineKind::Decoded] {
            let hier = || CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
            let limits = RunLimits::default();
            let err = replay(&exe, &decoded, hier, engine, limits, &mut NoopHook)
                .expect_err("the load is out of range");
            assert_eq!(
                err,
                SimError::MemoryFault {
                    addr: 0xFFFF_FFFF_FFFF_FFFC
                },
                "{engine}"
            );
        }
    }

    #[test]
    fn segments_materialize_before_entry() {
        let exe = adder_exe().with_segment(0x200_0000, vec![9.0]);
        let out = simulate(
            &exe,
            &HierarchyConfig::tiny_for_tests(),
            RunLimits::default(),
        )
        .unwrap();
        assert_eq!(out.memory.read_f32(0x200_0000).unwrap(), 9.0);
    }
}
