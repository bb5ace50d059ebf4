//! Pre-decoded execution: one-time lowering of a [`Program`] into a
//! dense µop array, plus the [`ExecEngine`] abstraction over the two
//! ways of driving the [`AtomicCpu`].
//!
//! # Why a decode phase
//!
//! The interpreter loop pays per-retirement costs that are invariant
//! across the whole run: bounds-checking the program counter, computing
//! the fetch address (`CODE_BASE + pc * inst_bytes`), and classifying
//! the instruction for statistics. Autotuning workloads re-enter the
//! simulator thousands of times per schedule-space sweep, so this module
//! hoists all of that into a one-time [`DecodedProgram::decode`] pass —
//! the same decode/execute split fast simulators and JITs use (mijit,
//! QEMU TCG, trace-driven GPU simulators): lower once, replay many
//! times.
//!
//! The lowered form is a dense array of [`MicroOp`]s carrying the
//! original instruction, its precomputed fetch address, its
//! [`MixClass`], and the index of the basic block it belongs to, with
//! the [`UopEvent`] of every instruction in a table beside it.
//! Control-flow validity is established **once** at decode time: every
//! branch target must land inside the program and the last instruction
//! must not fall through past the end ([`SimError::InvalidPc`]
//! otherwise), so the execution loop needs no per-step PC range checks
//! and can never fail with [`SimError::PcOutOfRange`].
//!
//! # Replaying a block, not an instruction
//!
//! Control enters a basic block at its first instruction and leaves at
//! its last (or by a fault), so [`DecodedEngine`] does once per block,
//! or once per stretch of a block, what the interpreter does per
//! retirement:
//!
//! * **Limits.** `max_insts` is compared with the block's length on
//!   entry. A block the budget ends inside is cut to what is left of the
//!   budget and the run ends after the cut, at the retirement the
//!   interpreter ends at, with its [`SimError::InstLimitExceeded`].
//! * **Instruction fetch.** A *fetch run* is a maximal stretch of a
//!   block whose fetch addresses lie in one I-line. Its length follows
//!   from the first fetch address, the hierarchy's line size and the
//!   encoding width, whatever the two are — a width that does not divide
//!   the line, exceeds it, or is zero (one fetch address for the whole
//!   program: a block is one run). The run makes one
//!   [`CacheHierarchy::fetch_run`] call: the first fetch for real, the
//!   others credited as the L1I hits they are. That is exact because
//!   nothing but a fetch touches the L1I — data accesses, and the stride
//!   prefetcher, which fills through `data_read`, go to the L1D and
//!   below — and every cache level keeps its own tick. (A hook that
//!   fetched through the hierarchy it is handed in
//!   [`ExecHook::on_data_access`] would break this; none does.)
//! * **Repeat runs.** For one call to `run_with_hook`, each instruction that
//!   starts a fetch run keeps a slot: the run's length to the end of its
//!   I-line, worked out on the first visit, and the [`ResidentLine`]
//!   handle its last `fetch_run` returned. A repeat visit passes the
//!   handle back; while the L1I has neither evicted a line nor been
//!   flushed since, the line is still where the handle says and all the
//!   run's fetches are credited as hits without a lookup (see
//!   [`CacheHierarchy::fetch_run`] for why that is exact). A loop
//!   body's runs cost a compare and a few adds each.
//! * **Timing events.** Hooks hear this engine a block at a time (see
//!   [`ExecHook`]): one `on_fetch` per fetch run (every fetch only when
//!   the run's later ones are not L1I hits), the
//!   `on_data_access`/`on_branch` events where they happen, no
//!   per-instruction retirements, and one [`ExecHook::on_block`] with
//!   the block's precomputed [`UopEvent`]s after it retires — after the
//!   cut, for a block the budget ends inside. A timing hook's cost is
//!   then per block, not per µop. [`InterpEngine`] keeps the
//!   per-instruction order and is the oracle for the block stream.
//!
//! A run that faults has told its hook of nothing of the faulting block
//! past the faulting instruction, and gives it no `on_block` for that
//! block. Fetches are credited per run, so the hierarchy of a faulted
//! run has counted the rest of the faulting run's; a fault returns
//! `Err`, which carries no statistics.
//!
//! # Engines
//!
//! [`ExecEngine`] abstracts "something that can drive an [`AtomicCpu`]
//! over a program":
//!
//! * [`InterpEngine`] — the original loop: re-inspects the raw
//!   [`Program`], checks the limits and fetches through the L1I on
//!   every retirement. Kept as the reference implementation the block
//!   loop is diffed against, and for one-shot runs where decoding would
//!   not amortize.
//! * [`DecodedEngine`] — replays a [`DecodedProgram`] block by block
//!   (above); per-retirement work is the µop's load, its execution and
//!   the hook calls. The production engine.
//!
//! Both engines share the single-instruction semantic core
//! (`AtomicCpu::exec_inst`), so their architectural results and
//! instruction mix are bit-identical by construction, and their cache
//! counters by the fetch-run argument above — both pinned down by the
//! differential suites in `tests/` and `crates/isa/tests/block_limits.rs`.
//! [`crate::EngineKind`] names them for configuration plumbing.
//!
//! # Example
//!
//! ```
//! use simtune_cache::{CacheHierarchy, HierarchyConfig};
//! use simtune_isa::{
//!     AtomicCpu, DecodedEngine, DecodedProgram, ExecEngine, Gpr, Inst, Memory, NoopHook,
//!     ProgramBuilder, RunLimits, TargetIsa,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! b.push(Inst::Li { rd: Gpr(1), imm: 41 });
//! b.push(Inst::Addi { rd: Gpr(1), rs: Gpr(1), imm: 1 });
//! b.push(Inst::Halt);
//! let prog = b.build()?;
//!
//! let target = TargetIsa::riscv_u74();
//! let decoded = DecodedProgram::decode(&prog, &target)?; // once
//! let engine = DecodedEngine::new(&decoded);
//! for _ in 0..3 {
//!     // replay many times
//!     let mut cpu = AtomicCpu::new(&target);
//!     let mut mem = Memory::new();
//!     let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
//!     let stats =
//!         engine.run_with_hook(&mut cpu, &mut mem, &mut hier, RunLimits::default(), &mut NoopHook)?;
//!     assert_eq!(stats.inst_mix.total(), 3);
//!     assert_eq!(cpu.gpr(Gpr(1)), 42);
//! }
//! # Ok(())
//! # }
//! ```

use crate::cpu::Step;
use crate::{
    uop_event, AtomicCpu, ExecHook, Inst, InstMix, Memory, Program, RunLimits, SimError, SimStats,
    TargetIsa, UopEvent, CODE_BASE,
};
use simtune_cache::{CacheHierarchy, ResidentLine, ServicedBy};

/// Statistics class of an instruction — the precomputed form of the
/// per-arm `mix.* += 1` accounting in the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixClass {
    /// Integer ALU operations (address arithmetic, loop counters).
    IntAlu,
    /// Scalar floating-point operations.
    FpAlu,
    /// Vector ALU operations.
    VecAlu,
    /// Loads of any width.
    Load,
    /// Stores of any width.
    Store,
    /// Control-flow instructions.
    Branch,
    /// Everything else (moves, converts, ecalls, halt).
    Other,
}

impl MixClass {
    /// Classifies an instruction exactly as the execution loop counts it
    /// into [`InstMix`].
    pub fn of(inst: &Inst) -> MixClass {
        match inst {
            Inst::Li { .. }
            | Inst::Addi { .. }
            | Inst::Add { .. }
            | Inst::Sub { .. }
            | Inst::Mul { .. }
            | Inst::Muli { .. }
            | Inst::Slli { .. } => MixClass::IntAlu,
            Inst::Fli { .. }
            | Inst::Fadd { .. }
            | Inst::Fsub { .. }
            | Inst::Fmul { .. }
            | Inst::Fdiv { .. }
            | Inst::Fmadd { .. }
            | Inst::Fmax { .. } => MixClass::FpAlu,
            Inst::Vbcast { .. }
            | Inst::Vsplat { .. }
            | Inst::Vfadd { .. }
            | Inst::Vfmul { .. }
            | Inst::Vfma { .. }
            | Inst::Vfmax { .. }
            | Inst::Vredsum { .. }
            | Inst::Vinsert { .. }
            | Inst::Vextract { .. } => MixClass::VecAlu,
            Inst::Ld { .. } | Inst::Flw { .. } | Inst::Vload { .. } => MixClass::Load,
            Inst::Sd { .. } | Inst::Fsw { .. } | Inst::Vstore { .. } => MixClass::Store,
            Inst::Blt { .. } | Inst::Bge { .. } | Inst::Bne { .. } | Inst::Jmp { .. } => {
                MixClass::Branch
            }
            Inst::Mv { .. } | Inst::Fcvt { .. } | Inst::Ecall { .. } | Inst::Halt => {
                MixClass::Other
            }
        }
    }
}

/// One pre-decoded instruction: the dense replay form the
/// [`DecodedEngine`] executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroOp {
    /// The architectural instruction (branch targets already resolved).
    pub inst: Inst,
    /// Precomputed I-fetch address (`CODE_BASE + pc * inst_bytes`).
    pub fetch_addr: u64,
    /// Statistics class of the instruction.
    pub class: MixClass,
    /// Index of the basic block this instruction belongs to.
    pub block: u32,
}

/// A [`Program`] lowered once into a dense µop array with validated
/// control flow and a basic-block index.
///
/// Produced by [`DecodedProgram::decode`]; consumed by
/// [`DecodedEngine`]. Decoding is target-specific only through the
/// instruction encoding width (fetch addresses); the same decoded
/// program may be replayed any number of times, by any number of
/// threads (`DecodedProgram` is immutable and `Send + Sync`).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedProgram {
    ops: Vec<MicroOp>,
    /// `uop_event(&ops[pc].inst)` for every `pc`: what a timing tier
    /// is handed at each retirement. Beside `ops`, not inside
    /// [`MicroOp`] — the functional tiers never read it, and a wider
    /// µop costs them cache lines.
    uops: Vec<UopEvent>,
    block_starts: Vec<usize>,
    inst_bytes: u64,
}

impl DecodedProgram {
    /// Lowers `prog` for `target`, validating all control flow.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPc`] when a branch target points
    /// outside the program or when the last instruction could fall
    /// through past the end (i.e. is neither a terminator, an
    /// unconditional jump, nor an `Ecall`).
    pub fn decode(prog: &Program, target: &TargetIsa) -> Result<DecodedProgram, SimError> {
        let insts = prog.insts();
        let len = insts.len();
        if len == 0 {
            return Err(SimError::InvalidPc {
                at: 0,
                target: 0,
                len: 0,
            });
        }

        // Control-flow validation: every place execution can move the PC
        // must stay inside the program. After this pass the execution
        // loop needs no bounds checks.
        for (at, inst) in insts.iter().enumerate() {
            if let Some(t) = branch_target(inst) {
                if t >= len {
                    return Err(SimError::InvalidPc { at, target: t, len });
                }
            }
        }
        let last = &insts[len - 1];
        let last_falls_through =
            !matches!(last, Inst::Halt | Inst::Ecall { .. } | Inst::Jmp { .. });
        if last_falls_through {
            return Err(SimError::InvalidPc {
                at: len - 1,
                target: len,
                len,
            });
        }

        // Basic-block leaders: entry, every branch target, and every
        // fall-through successor of a control-flow instruction.
        let mut leader = vec![false; len];
        leader[0] = true;
        for (at, inst) in insts.iter().enumerate() {
            if let Some(t) = branch_target(inst) {
                leader[t] = true;
            }
            if (inst.is_branch() || inst.is_terminator()) && at + 1 < len {
                leader[at + 1] = true;
            }
        }
        let block_starts: Vec<usize> = (0..len).filter(|&pc| leader[pc]).collect();

        let mut ops = Vec::with_capacity(len);
        let mut uops = Vec::with_capacity(len);
        let mut block = 0u32;
        for (pc, inst) in insts.iter().enumerate() {
            if pc > 0 && leader[pc] {
                block += 1;
            }
            let uop = uop_event(inst);
            ops.push(MicroOp {
                inst: *inst,
                fetch_addr: CODE_BASE + pc as u64 * target.inst_bytes,
                class: uop.class,
                block,
            });
            uops.push(uop);
        }
        Ok(DecodedProgram {
            ops,
            uops,
            block_starts,
            inst_bytes: target.inst_bytes,
        })
    }

    /// The µop sequence, indexed by program counter.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Number of instructions (static code size).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always false: decoding rejects empty programs.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// First instruction index of each basic block, ascending.
    pub fn block_starts(&self) -> &[usize] {
        &self.block_starts
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_starts.len()
    }

    /// Instruction encoding width the fetch addresses were computed for.
    pub fn inst_bytes(&self) -> u64 {
        self.inst_bytes
    }

    /// Static instruction mix (each instruction counted once, regardless
    /// of how often it executes; `branches_taken` is always zero).
    pub fn static_mix(&self) -> InstMix {
        let mut mix = InstMix::default();
        for op in &self.ops {
            match op.class {
                MixClass::IntAlu => mix.int_alu += 1,
                MixClass::FpAlu => mix.fp_alu += 1,
                MixClass::VecAlu => mix.vec_alu += 1,
                MixClass::Load => mix.loads += 1,
                MixClass::Store => mix.stores += 1,
                MixClass::Branch => mix.branches += 1,
                MixClass::Other => mix.other += 1,
            }
        }
        mix
    }
}

fn branch_target(inst: &Inst) -> Option<usize> {
    match *inst {
        Inst::Blt { target, .. }
        | Inst::Bge { target, .. }
        | Inst::Bne { target, .. }
        | Inst::Jmp { target } => Some(target),
        _ => None,
    }
}

/// Something that can drive an [`AtomicCpu`] over a program: the seam
/// between "what to execute" (raw or pre-decoded) and "how to execute
/// it" (the CPU's single-instruction semantics).
pub trait ExecEngine {
    /// Runs until the program terminates, reporting every event to
    /// `hook`, and returns the statistics of what ran.
    ///
    /// # Errors
    ///
    /// * [`SimError::PcOutOfRange`] — fell off the end of the program
    ///   (never from the [`DecodedEngine`]: decoding rejects such a
    ///   program up front with [`SimError::InvalidPc`]).
    /// * [`SimError::InstLimitExceeded`] — `limits.max_insts` exhausted.
    /// * [`SimError::MemoryFault`] — access outside the address space.
    /// * [`SimError::UnknownSyscall`] — unimplemented `Ecall` code.
    fn run_with_hook<H: ExecHook>(
        &self,
        cpu: &mut AtomicCpu,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        hook: &mut H,
    ) -> Result<SimStats, SimError>;
}

/// The original re-decoding execution loop: inspects the raw [`Program`]
/// on every retirement. Reference implementation and the right choice
/// for one-shot runs where a decode pass would not amortize.
#[derive(Debug, Clone, Copy)]
pub struct InterpEngine<'p> {
    prog: &'p Program,
}

impl<'p> InterpEngine<'p> {
    /// Engine over a raw program.
    pub fn new(prog: &'p Program) -> Self {
        InterpEngine { prog }
    }
}

impl ExecEngine for InterpEngine<'_> {
    fn run_with_hook<H: ExecHook>(
        &self,
        cpu: &mut AtomicCpu,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        hook: &mut H,
    ) -> Result<SimStats, SimError> {
        cpu.run_inner(self.prog, mem, hier, limits, hook)
    }
}

/// What [`DecodedEngine::run_with_hook`] keeps, for one trial, about the
/// fetch run starting at one instruction.
#[derive(Debug, Clone, Copy, Default)]
struct FetchRun {
    /// Instructions from this one to the end of its I-line (zero until
    /// the first visit works it out).
    in_line: u64,
    /// What the run's last [`CacheHierarchy::fetch_run`] returned.
    resident: Option<ResidentLine>,
}

/// The fast path: replays a [`DecodedProgram`] one basic block at a
/// time — see the module documentation for what that saves and why it
/// is exact.
#[derive(Debug, Clone, Copy)]
pub struct DecodedEngine<'p> {
    prog: &'p DecodedProgram,
}

impl<'p> DecodedEngine<'p> {
    /// Engine over a pre-decoded program.
    pub fn new(prog: &'p DecodedProgram) -> Self {
        DecodedEngine { prog }
    }
}

impl ExecEngine for DecodedEngine<'_> {
    fn run_with_hook<H: ExecHook>(
        &self,
        cpu: &mut AtomicCpu,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        hook: &mut H,
    ) -> Result<SimStats, SimError> {
        let DecodedProgram {
            ops,
            uops,
            block_starts,
            inst_bytes,
        } = self.prog;
        let line_bytes = hier.line_bytes();
        let mut runs = vec![FetchRun::default(); ops.len()];
        let budget = limits.max_insts;
        let mut mix = InstMix::default();
        let mut retired = 0u64;
        let mut pc = 0usize;
        loop {
            // `pc` is a block's first instruction — the entry, a branch
            // target or the fall-through of a branch — and in range by
            // decode-time validation. Everything up to the block's last
            // instruction falls through, so the limit is checked once:
            // a block the budget ends inside is cut to what is left of
            // the budget (less than the block, so it fits a `usize`).
            let start = pc;
            let block = ops[pc].block as usize;
            let block_end = block_starts.get(block + 1).copied().unwrap_or(ops.len());
            let left = budget - retired;
            let end = if left < (block_end - pc) as u64 {
                pc + left as usize
            } else {
                block_end
            };
            let mut step = Step::Next;
            while pc < end {
                // A fetch run: the instructions from `pc` on that lie in
                // its I-line, one L1I access for all of them — none at
                // all while the handle its last visit left stands. Fetches
                // later instructions of the run never make (a fault in
                // between) are credited all the same: an `Err` carries
                // no statistics out and the hierarchy is the trial's.
                let addr = ops[pc].fetch_addr;
                let run = &mut runs[pc];
                if run.in_line == 0 {
                    let room = line_bytes - 1 - (addr & (line_bytes - 1));
                    // Zero-width encodings: every fetch is one address.
                    run.in_line = room
                        .checked_div(*inst_bytes)
                        .map_or(u64::MAX, |more| more + 1);
                }
                let n = run.in_line.min((end - pc) as u64);
                let (first, rest, resident) = hier.fetch_run(addr, n, run.resident);
                run.resident = resident;
                let run_end = pc + n as usize;
                // The hook hears of the run's later fetches only when
                // they are not the L1I hits that stall nothing (a
                // counting-only hierarchy).
                let every_fetch = rest != ServicedBy::L1i;
                if !every_fetch {
                    hook.on_fetch(pc, first);
                }
                let mut serviced = first;
                for op in &ops[pc..run_end] {
                    if every_fetch {
                        hook.on_fetch(pc, serviced);
                    }
                    serviced = rest;
                    // Copy the architectural fields to locals so they
                    // live in registers across the step.
                    let inst = op.inst;
                    step = cpu.exec_inst(&inst, pc, mem, hier, hook, line_bytes, &mut mix)?;
                    pc += 1;
                    retired += 1;
                }
            }
            if end > start {
                hook.on_block(start, &uops[start..end]);
            }
            if end < block_end {
                return Err(SimError::InstLimitExceeded { limit: budget });
            }
            match step {
                Step::Next => {}
                Step::Jump(target) => pc = target,
                Step::Stop => break,
            }
        }
        Ok(SimStats {
            inst_mix: mix,
            cache: hier.stats(),
            host_nanos: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fpr, Gpr, NoopHook, ProgramBuilder};
    use simtune_cache::HierarchyConfig;

    fn loop_program() -> Program {
        // sum = 0; for i in 0..10 { sum += i }
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li { rd: Gpr(1), imm: 0 });
        b.push(Inst::Li { rd: Gpr(2), imm: 0 });
        b.push(Inst::Li {
            rd: Gpr(3),
            imm: 10,
        });
        let top = b.bind_new_label();
        b.push(Inst::Add {
            rd: Gpr(2),
            rs1: Gpr(2),
            rs2: Gpr(1),
        });
        b.push(Inst::Addi {
            rd: Gpr(1),
            rs: Gpr(1),
            imm: 1,
        });
        b.branch_lt(Gpr(1), Gpr(3), top);
        b.push(Inst::Halt);
        b.build().unwrap()
    }

    fn setup() -> (Memory, CacheHierarchy) {
        (
            Memory::new(),
            CacheHierarchy::new(HierarchyConfig::tiny_for_tests()),
        )
    }

    #[test]
    fn decoded_engine_matches_interpreter_exactly() {
        let prog = loop_program();
        let target = TargetIsa::riscv_u74();
        let decoded = DecodedProgram::decode(&prog, &target).unwrap();

        let mut cpu_a = AtomicCpu::new(&target);
        let (mut mem_a, mut hier_a) = setup();
        let a = InterpEngine::new(&prog)
            .run_with_hook(
                &mut cpu_a,
                &mut mem_a,
                &mut hier_a,
                RunLimits::default(),
                &mut NoopHook,
            )
            .unwrap();

        let mut cpu_b = AtomicCpu::new(&target);
        let (mut mem_b, mut hier_b) = setup();
        let b = DecodedEngine::new(&decoded)
            .run_with_hook(
                &mut cpu_b,
                &mut mem_b,
                &mut hier_b,
                RunLimits::default(),
                &mut NoopHook,
            )
            .unwrap();

        assert_eq!(a, b);
        assert_eq!(cpu_a.gpr(Gpr(2)), 45);
        assert_eq!(cpu_b.gpr(Gpr(2)), 45);
    }

    #[test]
    fn fetch_addresses_follow_encoding_width() {
        let prog = loop_program();
        let target = TargetIsa::riscv_u74();
        let decoded = DecodedProgram::decode(&prog, &target).unwrap();
        for (pc, op) in decoded.ops().iter().enumerate() {
            assert_eq!(op.fetch_addr, CODE_BASE + pc as u64 * target.inst_bytes);
        }
        assert_eq!(decoded.inst_bytes(), target.inst_bytes);
    }

    #[test]
    fn basic_blocks_split_at_branches_and_targets() {
        let prog = loop_program();
        let target = TargetIsa::riscv_u74();
        let decoded = DecodedProgram::decode(&prog, &target).unwrap();
        // Leaders: 0 (entry), 3 (branch target = loop head), 6 (after
        // the conditional branch).
        assert_eq!(decoded.block_starts(), &[0, 3, 6]);
        assert_eq!(decoded.num_blocks(), 3);
        let blocks: Vec<u32> = decoded.ops().iter().map(|op| op.block).collect();
        assert_eq!(blocks, [0, 0, 0, 1, 1, 1, 2]);
    }

    #[test]
    fn static_mix_counts_each_instruction_once() {
        let prog = loop_program();
        let target = TargetIsa::riscv_u74();
        let mix = DecodedProgram::decode(&prog, &target).unwrap().static_mix();
        assert_eq!(mix.int_alu, 5);
        assert_eq!(mix.branches, 1);
        assert_eq!(mix.other, 1);
        assert_eq!(mix.branches_taken, 0);
        assert_eq!(mix.total(), 7);
    }

    #[test]
    fn out_of_range_branch_is_rejected_at_decode_time() {
        // Hand-construct an invalid target by patching a built program's
        // clone is impossible (fields are private); instead assemble the
        // raw instruction sequence through the builder's escape hatch:
        // push a Jmp with a resolved-but-bogus target.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Jmp { target: 99 });
        b.push(Inst::Halt);
        let prog = b.build().unwrap();
        let err = DecodedProgram::decode(&prog, &TargetIsa::riscv_u74()).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidPc {
                at: 0,
                target: 99,
                len: 2
            }
        );
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn fall_through_past_end_is_rejected_at_decode_time() {
        // Terminator exists mid-program, but the last instruction is an
        // ALU op whose fall-through leaves the code segment.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Halt);
        b.push(Inst::Li { rd: Gpr(1), imm: 1 });
        let prog = b.build().unwrap();
        let err = DecodedProgram::decode(&prog, &TargetIsa::riscv_u74()).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidPc {
                at: 1,
                target: 2,
                len: 2
            }
        );
    }

    #[test]
    fn mix_class_covers_every_instruction_kind() {
        assert_eq!(
            MixClass::of(&Inst::Li { rd: Gpr(0), imm: 0 }),
            MixClass::IntAlu
        );
        assert_eq!(
            MixClass::of(&Inst::Fli {
                fd: Fpr(0),
                imm: 0.0
            }),
            MixClass::FpAlu
        );
        assert_eq!(
            MixClass::of(&Inst::Flw {
                fd: Fpr(0),
                rs: Gpr(0),
                imm: 0
            }),
            MixClass::Load
        );
        assert_eq!(
            MixClass::of(&Inst::Fsw {
                fval: Fpr(0),
                rs: Gpr(0),
                imm: 0
            }),
            MixClass::Store
        );
        assert_eq!(MixClass::of(&Inst::Jmp { target: 0 }), MixClass::Branch);
        assert_eq!(MixClass::of(&Inst::Halt), MixClass::Other);
        assert_eq!(
            MixClass::of(&Inst::Mv {
                rd: Gpr(0),
                rs: Gpr(1)
            }),
            MixClass::Other
        );
    }
}
