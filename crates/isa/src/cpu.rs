use crate::inst::MAX_LANES;
use crate::program::{FPR_FILE, GPR_FILE, VR_FILE};
use crate::CODE_BASE;
use crate::{
    Fpr, Gpr, Inst, InstMix, Memory, Program, SimError, SimStats, TargetIsa, UopEvent, Vr,
};
use simtune_cache::{lines_touched, CacheHierarchy, ServicedBy};

/// Execution budget for one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Abort with [`SimError::InstLimitExceeded`] after this many retired
    /// instructions (guards against mis-generated infinite loops).
    pub max_insts: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        // Generous enough for the paper-scale Conv2D groups.
        RunLimits {
            max_insts: 20_000_000_000,
        }
    }
}

/// Observer a replay engine ([`crate::ExecEngine`]) invokes on every
/// architectural event.
///
/// The instruction-accurate path uses the no-op default implementation;
/// the timing models in `simtune-hw` implement this trait to accumulate
/// cycles and drive prefetchers (which is why [`ExecHook::on_data_access`]
/// receives the hierarchy mutably).
///
/// # Two ways events arrive
///
/// * **Per instruction**, on [`crate::InterpEngine`]: for each
///   instruction `on_fetch`, then any `on_data_access`/`on_branch`
///   raised while it executes, then its `on_retire`.
/// * **Per block**, on [`crate::DecodedEngine`]: the first fetch of each
///   fetch run (the others are credited L1I hits; every fetch is
///   reported when they are not, as from a counting-only hierarchy),
///   every data access and branch where it happens, and no `on_retire`.
///   Instead, after the last instruction of each executed block — or of
///   a block the budget cut — one [`ExecHook::on_block`] with that
///   stretch's µops. Events carry their `pc`, so the hook can place
///   them in the block. A block that faults reports no `on_block`.
///
/// A hook that prices retirements must take both: the interpreter is
/// the oracle the block stream is checked against.
pub trait ExecHook {
    /// Called after the fetch of an instruction (per block: of each
    /// fetch run's first instruction).
    fn on_fetch(&mut self, pc: usize, serviced: ServicedBy) {
        let _ = (pc, serviced);
    }

    /// Called after an instruction retires (per instruction only).
    fn on_retire(&mut self, inst: &Inst) {
        let _ = inst;
    }

    /// Called once per cache line touched by a data access of the
    /// instruction at `pc`. `hier` is there for data-side traffic
    /// (prefetch fills): [`crate::DecodedEngine`] fetches a run of
    /// instructions at a time, so an instruction fetch issued from here
    /// would reach the L1I after fetches the interpreter has yet to make.
    fn on_data_access(
        &mut self,
        pc: usize,
        line_addr: u64,
        is_store: bool,
        serviced: ServicedBy,
        hier: &mut CacheHierarchy,
    ) {
        let _ = (pc, line_addr, is_store, serviced, hier);
    }

    /// Called when a control-flow instruction resolves.
    fn on_branch(&mut self, pc: usize, target: usize, taken: bool) {
        let _ = (pc, target, taken);
    }

    /// Per block only: the instructions `start..start + uops.len()` —
    /// one basic block, or the part of it a run's budget left — have
    /// retired; `uops` are their [`UopEvent`]s, in order.
    fn on_block(&mut self, start: usize, uops: &[UopEvent]) {
        let _ = (start, uops);
    }
}

/// Hook that observes nothing (the plain instruction-accurate mode).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHook;

impl ExecHook for NoopHook {}

/// Where control goes after one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Fall through to `pc + 1`.
    Next,
    /// Jump to a resolved instruction index (taken branch).
    Jump(usize),
    /// Terminate execution (`Halt` / `Ecall 0`).
    Stop,
}

/// Instruction-accurate CPU: the gem5 "atomic SimpleCPU" stand-in.
///
/// Executes one instruction per step; every memory access completes within
/// the step (atomic mode); no pipeline or timing state exists. All fetches
/// and data accesses are routed through the supplied
/// [`CacheHierarchy`] so that hit/miss/replacement statistics accumulate.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct AtomicCpu {
    gpr: [i64; GPR_FILE],
    fpr: [f32; FPR_FILE],
    vr: [[f32; MAX_LANES]; VR_FILE],
    lanes: usize,
    inst_bytes: u64,
}

impl AtomicCpu {
    /// Creates a CPU with all registers zeroed for the given target.
    pub fn new(target: &TargetIsa) -> Self {
        AtomicCpu {
            gpr: [0; GPR_FILE],
            fpr: [0.0; FPR_FILE],
            vr: [[0.0; MAX_LANES]; VR_FILE],
            lanes: target.vector_lanes.clamp(1, MAX_LANES),
            inst_bytes: target.inst_bytes,
        }
    }

    /// Reads a general-purpose register (test/debug aid).
    pub fn gpr(&self, r: Gpr) -> i64 {
        self.gpr[r.0 as usize]
    }

    /// Reads a float register (test/debug aid).
    pub fn fpr(&self, r: Fpr) -> f32 {
        self.fpr[r.0 as usize]
    }

    /// Reads a vector register's active lanes (test/debug aid).
    pub fn vr(&self, r: Vr) -> &[f32] {
        &self.vr[r.0 as usize][..self.lanes]
    }

    /// The interpreter's loop: [`crate::InterpEngine`] is this method
    /// over a raw program.
    pub(crate) fn run_inner<H: ExecHook>(
        &mut self,
        prog: &Program,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        hook: &mut H,
    ) -> Result<SimStats, SimError> {
        let insts = prog.insts();
        let mut mix = InstMix::default();
        let mut pc = 0usize;
        let line_bytes = hier.line_bytes();
        loop {
            if mix.total() >= limits.max_insts {
                return Err(SimError::InstLimitExceeded {
                    limit: limits.max_insts,
                });
            }
            let inst = *insts.get(pc).ok_or(SimError::PcOutOfRange { pc })?;

            // Instruction fetch through the L1I.
            let fetch_addr = CODE_BASE + pc as u64 * self.inst_bytes;
            let serviced = hier.fetch(fetch_addr);
            hook.on_fetch(pc, serviced);

            let step = self.exec_inst(&inst, pc, mem, hier, hook, line_bytes, &mut mix)?;
            hook.on_retire(&inst);
            match step {
                Step::Next => pc += 1,
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

    /// Executes exactly one instruction: the semantic core shared by the
    /// re-decoding [`crate::InterpEngine`] and the pre-decoded
    /// [`crate::DecodedEngine`], so both produce bit-identical
    /// architectural state and statistics by construction.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // hot path: every operand is load-bearing
    pub(crate) fn exec_inst<H: ExecHook>(
        &mut self,
        inst: &Inst,
        pc: usize,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        hook: &mut H,
        line_bytes: u64,
        mix: &mut InstMix,
    ) -> Result<Step, SimError> {
        let mut next = Step::Next;
        match *inst {
            // ----- integer -----
            Inst::Li { rd, imm } => {
                self.gpr[rd.0 as usize] = imm;
                mix.int_alu += 1;
            }
            Inst::Addi { rd, rs, imm } => {
                self.gpr[rd.0 as usize] = self.gpr[rs.0 as usize].wrapping_add(imm);
                mix.int_alu += 1;
            }
            Inst::Add { rd, rs1, rs2 } => {
                self.gpr[rd.0 as usize] =
                    self.gpr[rs1.0 as usize].wrapping_add(self.gpr[rs2.0 as usize]);
                mix.int_alu += 1;
            }
            Inst::Sub { rd, rs1, rs2 } => {
                self.gpr[rd.0 as usize] =
                    self.gpr[rs1.0 as usize].wrapping_sub(self.gpr[rs2.0 as usize]);
                mix.int_alu += 1;
            }
            Inst::Mul { rd, rs1, rs2 } => {
                self.gpr[rd.0 as usize] =
                    self.gpr[rs1.0 as usize].wrapping_mul(self.gpr[rs2.0 as usize]);
                mix.int_alu += 1;
            }
            Inst::Muli { rd, rs, imm } => {
                self.gpr[rd.0 as usize] = self.gpr[rs.0 as usize].wrapping_mul(imm);
                mix.int_alu += 1;
            }
            Inst::Slli { rd, rs, shamt } => {
                self.gpr[rd.0 as usize] = self.gpr[rs.0 as usize].wrapping_shl(shamt as u32);
                mix.int_alu += 1;
            }
            Inst::Mv { rd, rs } => {
                self.gpr[rd.0 as usize] = self.gpr[rs.0 as usize];
                mix.other += 1;
            }
            Inst::Ld { rd, rs, imm } => {
                let addr = self.ea(rs, imm);
                self.data_access(pc, addr, 8, false, hier, hook, line_bytes);
                self.gpr[rd.0 as usize] = mem.read_i64(addr)?;
                mix.loads += 1;
            }
            Inst::Sd { rval, rs, imm } => {
                let addr = self.ea(rs, imm);
                self.data_access(pc, addr, 8, true, hier, hook, line_bytes);
                mem.write_i64(addr, self.gpr[rval.0 as usize])?;
                mix.stores += 1;
            }

            // ----- scalar float -----
            Inst::Fli { fd, imm } => {
                self.fpr[fd.0 as usize] = imm;
                mix.fp_alu += 1;
            }
            Inst::Flw { fd, rs, imm } => {
                let addr = self.ea(rs, imm);
                self.data_access(pc, addr, 4, false, hier, hook, line_bytes);
                self.fpr[fd.0 as usize] = mem.read_f32(addr)?;
                mix.loads += 1;
            }
            Inst::Fsw { fval, rs, imm } => {
                let addr = self.ea(rs, imm);
                self.data_access(pc, addr, 4, true, hier, hook, line_bytes);
                mem.write_f32(addr, self.fpr[fval.0 as usize])?;
                mix.stores += 1;
            }
            Inst::Fadd { fd, fs1, fs2 } => {
                self.fpr[fd.0 as usize] = self.fpr[fs1.0 as usize] + self.fpr[fs2.0 as usize];
                mix.fp_alu += 1;
            }
            Inst::Fsub { fd, fs1, fs2 } => {
                self.fpr[fd.0 as usize] = self.fpr[fs1.0 as usize] - self.fpr[fs2.0 as usize];
                mix.fp_alu += 1;
            }
            Inst::Fmul { fd, fs1, fs2 } => {
                self.fpr[fd.0 as usize] = self.fpr[fs1.0 as usize] * self.fpr[fs2.0 as usize];
                mix.fp_alu += 1;
            }
            Inst::Fdiv { fd, fs1, fs2 } => {
                self.fpr[fd.0 as usize] = self.fpr[fs1.0 as usize] / self.fpr[fs2.0 as usize];
                mix.fp_alu += 1;
            }
            Inst::Fmadd { fd, fs1, fs2, fs3 } => {
                self.fpr[fd.0 as usize] = self.fpr[fs1.0 as usize]
                    .mul_add(self.fpr[fs2.0 as usize], self.fpr[fs3.0 as usize]);
                mix.fp_alu += 1;
            }
            Inst::Fmax { fd, fs1, fs2 } => {
                self.fpr[fd.0 as usize] = self.fpr[fs1.0 as usize].max(self.fpr[fs2.0 as usize]);
                mix.fp_alu += 1;
            }
            Inst::Fcvt { fd, rs } => {
                self.fpr[fd.0 as usize] = self.gpr[rs.0 as usize] as f32;
                mix.other += 1;
            }

            // ----- vector -----
            Inst::Vload { vd, rs, imm } => {
                let addr = self.ea(rs, imm);
                let bytes = 4 * self.lanes as u64;
                self.data_access(pc, addr, bytes, false, hier, hook, line_bytes);
                for l in 0..self.lanes {
                    self.vr[vd.0 as usize][l] = mem.read_f32(addr + 4 * l as u64)?;
                }
                mix.loads += 1;
            }
            Inst::Vstore { vval, rs, imm } => {
                let addr = self.ea(rs, imm);
                let bytes = 4 * self.lanes as u64;
                self.data_access(pc, addr, bytes, true, hier, hook, line_bytes);
                for l in 0..self.lanes {
                    mem.write_f32(addr + 4 * l as u64, self.vr[vval.0 as usize][l])?;
                }
                mix.stores += 1;
            }
            Inst::Vbcast { vd, fs } => {
                let v = self.fpr[fs.0 as usize];
                self.vr[vd.0 as usize][..self.lanes].fill(v);
                mix.vec_alu += 1;
            }
            Inst::Vsplat { vd, imm } => {
                self.vr[vd.0 as usize][..self.lanes].fill(imm);
                mix.vec_alu += 1;
            }
            Inst::Vfadd { vd, vs1, vs2 } => {
                for l in 0..self.lanes {
                    self.vr[vd.0 as usize][l] =
                        self.vr[vs1.0 as usize][l] + self.vr[vs2.0 as usize][l];
                }
                mix.vec_alu += 1;
            }
            Inst::Vfmul { vd, vs1, vs2 } => {
                for l in 0..self.lanes {
                    self.vr[vd.0 as usize][l] =
                        self.vr[vs1.0 as usize][l] * self.vr[vs2.0 as usize][l];
                }
                mix.vec_alu += 1;
            }
            Inst::Vfma { vd, vs1, vs2 } => {
                for l in 0..self.lanes {
                    let prod = self.vr[vs1.0 as usize][l] * self.vr[vs2.0 as usize][l];
                    self.vr[vd.0 as usize][l] += prod;
                }
                mix.vec_alu += 1;
            }
            Inst::Vfmax { vd, vs1, vs2 } => {
                for l in 0..self.lanes {
                    self.vr[vd.0 as usize][l] =
                        self.vr[vs1.0 as usize][l].max(self.vr[vs2.0 as usize][l]);
                }
                mix.vec_alu += 1;
            }
            Inst::Vredsum { fd, vs } => {
                self.fpr[fd.0 as usize] = self.vr[vs.0 as usize][..self.lanes].iter().sum();
                mix.vec_alu += 1;
            }
            Inst::Vinsert { vd, fs, lane } => {
                self.vr[vd.0 as usize][lane as usize] = self.fpr[fs.0 as usize];
                mix.vec_alu += 1;
            }
            Inst::Vextract { fd, vs, lane } => {
                self.fpr[fd.0 as usize] = self.vr[vs.0 as usize][lane as usize];
                mix.vec_alu += 1;
            }

            // ----- control -----
            Inst::Blt { rs1, rs2, target } => {
                let taken = self.gpr[rs1.0 as usize] < self.gpr[rs2.0 as usize];
                if taken {
                    next = Step::Jump(target);
                    mix.branches_taken += 1;
                }
                hook.on_branch(pc, target, taken);
                mix.branches += 1;
            }
            Inst::Bge { rs1, rs2, target } => {
                let taken = self.gpr[rs1.0 as usize] >= self.gpr[rs2.0 as usize];
                if taken {
                    next = Step::Jump(target);
                    mix.branches_taken += 1;
                }
                hook.on_branch(pc, target, taken);
                mix.branches += 1;
            }
            Inst::Bne { rs1, rs2, target } => {
                let taken = self.gpr[rs1.0 as usize] != self.gpr[rs2.0 as usize];
                if taken {
                    next = Step::Jump(target);
                    mix.branches_taken += 1;
                }
                hook.on_branch(pc, target, taken);
                mix.branches += 1;
            }
            Inst::Jmp { target } => {
                next = Step::Jump(target);
                hook.on_branch(pc, target, true);
                mix.branches += 1;
                mix.branches_taken += 1;
            }

            // ----- system -----
            Inst::Ecall { code } => {
                mix.other += 1;
                if code != 0 {
                    return Err(SimError::UnknownSyscall { code });
                }
                next = Step::Stop;
            }
            Inst::Halt => {
                mix.other += 1;
                next = Step::Stop;
            }
        }
        Ok(next)
    }

    #[inline]
    fn ea(&self, base: Gpr, imm: i64) -> u64 {
        (self.gpr[base.0 as usize].wrapping_add(imm)) as u64
    }

    #[inline]
    #[allow(clippy::too_many_arguments)] // hot path: every operand is load-bearing
    fn data_access<H: ExecHook>(
        &self,
        pc: usize,
        addr: u64,
        bytes: u64,
        is_store: bool,
        hier: &mut CacheHierarchy,
        hook: &mut H,
        line_bytes: u64,
    ) {
        for line in lines_touched(addr, bytes, line_bytes) {
            let serviced = if is_store {
                hier.data_write(line)
            } else {
                hier.data_read(line)
            };
            hook.on_data_access(pc, line, is_store, serviced, hier);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecEngine, InterpEngine, ProgramBuilder};
    use simtune_cache::HierarchyConfig;

    fn setup() -> (Memory, CacheHierarchy) {
        (
            Memory::new(),
            CacheHierarchy::new(HierarchyConfig::tiny_for_tests()),
        )
    }

    fn run_prog(b: ProgramBuilder) -> (AtomicCpu, SimStats) {
        let prog = b.build().expect("valid program");
        let target = TargetIsa::arm_cortex_a72();
        let mut cpu = AtomicCpu::new(&target);
        let (mut mem, mut hier) = setup();
        let stats = InterpEngine::new(&prog)
            .run_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits::default(),
                &mut NoopHook,
            )
            .expect("run succeeds");
        (cpu, stats)
    }

    #[test]
    fn integer_arithmetic() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li { rd: Gpr(1), imm: 6 });
        b.push(Inst::Li { rd: Gpr(2), imm: 7 });
        b.push(Inst::Mul {
            rd: Gpr(3),
            rs1: Gpr(1),
            rs2: Gpr(2),
        });
        b.push(Inst::Slli {
            rd: Gpr(4),
            rs: Gpr(3),
            shamt: 1,
        });
        b.push(Inst::Addi {
            rd: Gpr(5),
            rs: Gpr(4),
            imm: -4,
        });
        b.push(Inst::Halt);
        let (cpu, stats) = run_prog(b);
        assert_eq!(cpu.gpr(Gpr(3)), 42);
        assert_eq!(cpu.gpr(Gpr(4)), 84);
        assert_eq!(cpu.gpr(Gpr(5)), 80);
        assert_eq!(stats.inst_mix.int_alu, 5);
    }

    #[test]
    fn loop_executes_correct_iteration_count() {
        // sum = 0; for i in 0..10 { sum += i }
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li { rd: Gpr(1), imm: 0 }); // i
        b.push(Inst::Li { rd: Gpr(2), imm: 0 }); // sum
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
        let (cpu, stats) = run_prog(b);
        assert_eq!(cpu.gpr(Gpr(2)), 45);
        assert_eq!(stats.inst_mix.branches, 10);
        assert_eq!(stats.inst_mix.branches_taken, 9);
    }

    #[test]
    fn float_fma_and_relu() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Fli {
            fd: Fpr(1),
            imm: 2.0,
        });
        b.push(Inst::Fli {
            fd: Fpr(2),
            imm: -3.0,
        });
        b.push(Inst::Fli {
            fd: Fpr(3),
            imm: 1.0,
        });
        b.push(Inst::Fmadd {
            fd: Fpr(4),
            fs1: Fpr(1),
            fs2: Fpr(2),
            fs3: Fpr(3),
        }); // 2*-3+1 = -5
        b.push(Inst::Fli {
            fd: Fpr(0),
            imm: 0.0,
        });
        b.push(Inst::Fmax {
            fd: Fpr(5),
            fs1: Fpr(4),
            fs2: Fpr(0),
        }); // relu(-5) = 0
        b.push(Inst::Halt);
        let (cpu, _) = run_prog(b);
        assert_eq!(cpu.fpr(Fpr(4)), -5.0);
        assert_eq!(cpu.fpr(Fpr(5)), 0.0);
    }

    #[test]
    fn memory_roundtrip_counts_loads_and_stores() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li {
            rd: Gpr(1),
            imm: 0x10_0000,
        });
        b.push(Inst::Fli {
            fd: Fpr(1),
            imm: 1.5,
        });
        b.push(Inst::Fsw {
            fval: Fpr(1),
            rs: Gpr(1),
            imm: 8,
        });
        b.push(Inst::Flw {
            fd: Fpr(2),
            rs: Gpr(1),
            imm: 8,
        });
        b.push(Inst::Halt);
        let (cpu, stats) = run_prog(b);
        assert_eq!(cpu.fpr(Fpr(2)), 1.5);
        assert_eq!(stats.inst_mix.loads, 1);
        assert_eq!(stats.inst_mix.stores, 1);
        // Store allocated the line; the load hits L1D.
        assert_eq!(stats.cache.l1d.read_hits, 1);
        assert_eq!(stats.cache.l1d.write_misses, 1);
    }

    #[test]
    fn vector_ops_respect_lane_count() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li {
            rd: Gpr(1),
            imm: 0x10_0000,
        });
        b.push(Inst::Vsplat {
            vd: Vr(1),
            imm: 2.0,
        });
        b.push(Inst::Vsplat {
            vd: Vr(2),
            imm: 3.0,
        });
        b.push(Inst::Vsplat {
            vd: Vr(3),
            imm: 1.0,
        });
        // v3 += v1 * v2 -> 7.0 in each lane
        b.push(Inst::Vfma {
            vd: Vr(3),
            vs1: Vr(1),
            vs2: Vr(2),
        });
        b.push(Inst::Vstore {
            vval: Vr(3),
            rs: Gpr(1),
            imm: 0,
        });
        b.push(Inst::Vredsum {
            fd: Fpr(1),
            vs: Vr(3),
        });
        b.push(Inst::Halt);
        let prog = b.build().unwrap();
        // ARM target: 4 lanes.
        let target = TargetIsa::arm_cortex_a72();
        let mut cpu = AtomicCpu::new(&target);
        let (mut mem, mut hier) = setup();
        InterpEngine::new(&prog)
            .run_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits::default(),
                &mut NoopHook,
            )
            .unwrap();
        assert_eq!(cpu.vr(Vr(3)), &[7.0, 7.0, 7.0, 7.0]);
        assert_eq!(cpu.fpr(Fpr(1)), 28.0);
        assert_eq!(mem.read_f32_slice(0x10_0000, 4).unwrap(), vec![7.0; 4]);
        // Lane 4 was never written on a 4-lane target.
        assert_eq!(mem.read_f32(0x10_0000 + 16).unwrap(), 0.0);
    }

    #[test]
    fn vector_add_mul_max_are_lane_wise_within_lane_count() {
        // Distinct values in every lane, including the four past the ARM
        // target's count; destinations start as a sentinel everywhere.
        let a = [1.0, -2.0, 3.0, -4.0, 10.0, 11.0, 12.0, 13.0];
        let b = [5.0, 6.0, -7.0, 0.5, 20.0, 21.0, 22.0, 23.0];
        let sentinel = 99.0;
        let (va, vb) = (Vr(1), Vr(2));
        let (vadd, vmul, vmax) = (Vr(3), Vr(4), Vr(5));
        let mut p = ProgramBuilder::new();
        for lane in 0..MAX_LANES {
            for (vd, imm) in [
                (va, a[lane]),
                (vb, b[lane]),
                (vadd, sentinel),
                (vmul, sentinel),
                (vmax, sentinel),
            ] {
                p.push(Inst::Fli { fd: Fpr(1), imm });
                p.push(Inst::Vinsert {
                    vd,
                    fs: Fpr(1),
                    lane: lane as u8,
                });
            }
        }
        p.push(Inst::Vfadd {
            vd: vadd,
            vs1: va,
            vs2: vb,
        });
        p.push(Inst::Vfmul {
            vd: vmul,
            vs1: va,
            vs2: vb,
        });
        p.push(Inst::Vfmax {
            vd: vmax,
            vs1: va,
            vs2: vb,
        });
        // Lanes past the count are only visible through Vextract.
        let upper = 4..MAX_LANES;
        let mut fd = Fpr(8);
        for vs in [vadd, vmul, vmax] {
            for lane in upper.clone() {
                p.push(Inst::Vextract {
                    fd,
                    vs,
                    lane: lane as u8,
                });
                fd = Fpr(fd.0 + 1);
            }
        }
        p.push(Inst::Halt);
        let (cpu, stats) = run_prog(p);
        assert_eq!(cpu.vr(vadd), &[6.0, 4.0, -4.0, -3.5]);
        assert_eq!(cpu.vr(vmul), &[5.0, -12.0, -21.0, -2.0]);
        assert_eq!(cpu.vr(vmax), &[5.0, 6.0, 3.0, 0.5]);
        for i in 0..3 * upper.len() {
            assert_eq!(cpu.fpr(Fpr(8 + i as u8)), sentinel, "upper lane {i}");
        }
        assert_eq!(
            stats.inst_mix.vec_alu,
            (5 * MAX_LANES + 3 + 3 * upper.len()) as u64
        );
    }

    #[test]
    fn vector_load_straddling_lines_touches_two() {
        let mut b = ProgramBuilder::new();
        // Address 0x10_0038 = 56 mod 64: an 8-lane (32 B) access straddles.
        b.push(Inst::Li {
            rd: Gpr(1),
            imm: 0x10_0038,
        });
        b.push(Inst::Vload {
            vd: Vr(1),
            rs: Gpr(1),
            imm: 0,
        });
        b.push(Inst::Halt);
        let prog = b.build().unwrap();
        let target = TargetIsa::x86_ryzen_5800x(); // 8 lanes
        let mut cpu = AtomicCpu::new(&target);
        let (mut mem, mut hier) = setup();
        let stats = InterpEngine::new(&prog)
            .run_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits::default(),
                &mut NoopHook,
            )
            .unwrap();
        assert_eq!(stats.inst_mix.loads, 1, "one instruction");
        assert_eq!(stats.cache.l1d.read_misses, 2, "two lines touched");
    }

    #[test]
    fn inst_limit_guards_infinite_loops() {
        let mut b = ProgramBuilder::new();
        let top = b.bind_new_label();
        b.jump(top);
        b.push(Inst::Halt);
        let prog = b.build().unwrap();
        let target = TargetIsa::riscv_u74();
        let mut cpu = AtomicCpu::new(&target);
        let (mut mem, mut hier) = setup();
        let err = InterpEngine::new(&prog).run_with_hook(
            &mut cpu,
            &mut mem,
            &mut hier,
            RunLimits { max_insts: 100 },
            &mut NoopHook,
        );
        assert!(matches!(err, Err(SimError::InstLimitExceeded { .. })));
    }

    #[test]
    fn unknown_syscall_is_reported() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Ecall { code: 42 });
        b.push(Inst::Halt);
        let prog = b.build().unwrap();
        let target = TargetIsa::riscv_u74();
        let mut cpu = AtomicCpu::new(&target);
        let (mut mem, mut hier) = setup();
        let err = InterpEngine::new(&prog).run_with_hook(
            &mut cpu,
            &mut mem,
            &mut hier,
            RunLimits::default(),
            &mut NoopHook,
        );
        assert_eq!(err, Err(SimError::UnknownSyscall { code: 42 }));
    }

    #[test]
    fn fetch_statistics_accumulate_in_l1i() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li { rd: Gpr(1), imm: 1 });
        b.push(Inst::Halt);
        let (_, stats) = run_prog(b);
        assert_eq!(stats.inst_mix.total(), 2);
        assert_eq!(stats.cache.l1i.read_accesses(), 2);
        // Both instructions share one line: 1 miss + 1 hit.
        assert_eq!(stats.cache.l1i.read_misses, 1);
        assert_eq!(stats.cache.l1i.read_hits, 1);
    }

    #[test]
    fn hook_receives_events() {
        #[derive(Default)]
        struct Counter {
            retired: u64,
            fetches: u64,
            data: u64,
            branches: u64,
        }
        impl ExecHook for Counter {
            fn on_fetch(&mut self, _: usize, _: ServicedBy) {
                self.fetches += 1;
            }
            fn on_retire(&mut self, _: &Inst) {
                self.retired += 1;
            }
            fn on_data_access(
                &mut self,
                _: usize,
                _: u64,
                _: bool,
                _: ServicedBy,
                _: &mut CacheHierarchy,
            ) {
                self.data += 1;
            }
            fn on_branch(&mut self, _: usize, _: usize, _: bool) {
                self.branches += 1;
            }
        }
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li {
            rd: Gpr(1),
            imm: 0x10_0000,
        });
        b.push(Inst::Flw {
            fd: Fpr(1),
            rs: Gpr(1),
            imm: 0,
        });
        let l = b.new_label();
        b.jump(l);
        b.bind(l);
        b.push(Inst::Halt);
        let prog = b.build().unwrap();
        let target = TargetIsa::riscv_u74();
        let mut cpu = AtomicCpu::new(&target);
        let (mut mem, mut hier) = setup();
        let mut hook = Counter::default();
        InterpEngine::new(&prog)
            .run_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits::default(),
                &mut hook,
            )
            .unwrap();
        assert_eq!(hook.retired, 4);
        assert_eq!(hook.fetches, 4);
        assert_eq!(hook.data, 1);
        assert_eq!(hook.branches, 1);
    }
}
