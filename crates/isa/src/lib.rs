//! Virtual RISC-like ISA and instruction-accurate (atomic-mode) simulator.
//!
//! This crate is the stand-in for gem5 in the paper's setup
//! (Section II-C / III-B): a *functional* CPU model that executes one
//! instruction per step, routes every fetch and data access through a
//! [`simtune_cache::CacheHierarchy`], and reports instruction-mix and cache
//! statistics — but **no timing**. The atomic `SimpleCPU` + syscall
//! emulation combination the paper uses maps to:
//!
//! * [`AtomicCpu`] — single-transaction memory accesses, no pipeline;
//! * [`Executable`] — a "standalone executable" whose prepared input
//!   tensors are materialized into simulator memory by the loader, the
//!   moral equivalent of the generated `main` function in Section III-A;
//! * [`Inst::Ecall`] — the tiny syscall-emulation surface (exit).
//!
//! Execution is split into a **decode phase** and an **execute phase**:
//! [`DecodedProgram::decode`] lowers a validated [`Program`] once into a
//! dense µop array (pre-resolved control flow, precomputed fetch
//! addresses, per-instruction [`MixClass`], basic-block index), and the
//! two [`ExecEngine`] implementations drive the CPU over either form —
//! [`InterpEngine`], the oracle, re-inspects the raw program each step,
//! and [`DecodedEngine`] replays the µop array a basic block at a time.
//! Both share one semantic core, so their observable results are
//! bit-identical; [`EngineKind`] names them for configuration (its
//! `Threaded` and `Batch` names are labels that replay on
//! [`DecodedEngine`]). [`replay`] is the one way to run a trial: it
//! takes a pre-decoded handle (batch drivers pay for decoding exactly
//! once per executable), the cache hierarchy, the engine, an optional
//! stop point and an [`ExecHook`], so a fidelity tier is a choice of
//! arguments; [`simulate`] is the decode-inside convenience.
//!
//! The ISA itself is a register RISC machine with scalar integer/float
//! operations, fused multiply-add, and fixed-width vector operations whose
//! lane count is a property of the [`TargetIsa`] (8 for the x86-like
//! target, 4 for the ARM-like target, 1 — i.e. no vectors — for the
//! RISC-V-like U74 target, which has no V extension).
//!
//! # Example
//!
//! ```
//! use simtune_cache::HierarchyConfig;
//! use simtune_isa::{
//!     AtomicCpu, ExecEngine, Gpr, Inst, InterpEngine, Memory, NoopHook, ProgramBuilder, RunLimits,
//!     TargetIsa,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // r1 = 5; r2 = 37; r3 = r1 + r2; halt.
//! let mut b = ProgramBuilder::new();
//! b.push(Inst::Li { rd: Gpr(1), imm: 5 });
//! b.push(Inst::Li { rd: Gpr(2), imm: 37 });
//! b.push(Inst::Add { rd: Gpr(3), rs1: Gpr(1), rs2: Gpr(2) });
//! b.push(Inst::Halt);
//! let prog = b.build()?;
//!
//! let target = TargetIsa::riscv_u74();
//! let mut cpu = AtomicCpu::new(&target);
//! let mut mem = Memory::new();
//! let mut hier = simtune_cache::CacheHierarchy::new(
//!     simtune_cache::HierarchyConfig::tiny_for_tests());
//! let limits = RunLimits::default();
//! let stats = InterpEngine::new(&prog).run_with_hook(&mut cpu, &mut mem, &mut hier, limits, &mut NoopHook)?;
//! assert_eq!(cpu.gpr(Gpr(3)), 42);
//! assert_eq!(stats.inst_mix.total(), 4);
//! # let _ = HierarchyConfig::tiny_for_tests();
//! # Ok(())
//! # }
//! ```

mod asm;
mod cpu;
mod decode;
mod disasm;
mod encode;
mod engine;
mod error;
mod exec;
mod inst;
mod memory;
mod program;
mod shrink;
mod stats;
mod target;
mod timing;
mod torture;

pub use asm::{parse_inst, parse_program, AsmError};
pub use cpu::{AtomicCpu, ExecHook, NoopHook, RunLimits};
pub use decode::{DecodedEngine, DecodedProgram, ExecEngine, InterpEngine, MicroOp, MixClass};
pub use engine::EngineKind;
pub use error::{BuildProgramError, SimError};
pub use exec::{replay, simulate, Executable, SimOutcome};
pub use inst::{Fpr, Gpr, Inst, Label, Vr, MAX_LANES};
pub use memory::Memory;
pub use program::{Program, ProgramBuilder};
pub use shrink::shrink_program;
pub use stats::{InstMix, SimStats};
pub use target::TargetIsa;
pub use timing::{uop_event, Reg, TimingBridge, TimingHook, UopEvent, TIMING_REGS};
pub use torture::{
    torture_program, torture_program_with, MemoryPattern, TortureConfig, TORTURE_FAULT_CODE,
    TORTURE_WINDOW,
};

/// Base address at which program code is mapped.
pub const CODE_BASE: u64 = 0x1_0000;
/// Base address of the data segment (tensor buffers).
pub const DATA_BASE: u64 = 0x100_0000;
/// Base address of the downward-growing stack (spill slots).
pub const STACK_BASE: u64 = 0x4000_0000;
