//! µop-level timing events: the seam between functional replay and
//! cycle-accurate timing tiers.
//!
//! [`ExecHook`] reports *architectural* events ([`Inst`] retirements,
//! cache-line accesses, branch resolutions). A timing model wants the
//! same stream one abstraction lower: per retirement, the µop's
//! statistics class and the registers it reads and writes, so it can
//! track RAW hazards and load-use bubbles without re-decoding every
//! instruction itself. [`TimingHook`] is that interface, and
//! [`TimingBridge`] adapts any `TimingHook` into an `ExecHook`, so the
//! replay engines need no changes and — because hooks are monomorphized
//! and [`NoopHook`](crate::NoopHook) stays the default everywhere —
//! non-timing tiers pay nothing for the extra layer.
//!
//! The bridge delivers events in the engines' two fixed orders (see
//! [`ExecHook`]). On [`InterpEngine`](crate::InterpEngine), per µop:
//! `on_fetch`, then any `on_mem`/`on_branch` raised while the
//! instruction executes, then the instruction's single `on_uop`. Timing
//! models therefore buffer fetch and memory latencies and settle them
//! when the owning µop arrives. On [`DecodedEngine`](crate::DecodedEngine),
//! per block: the first fetch of each fetch run, every `on_mem` and
//! `on_branch` in place, and one `on_block` after the block's last µop
//! instead of its `on_uop`s; the events carry their `pc`, so the model
//! settles each latency at its own µop. The two orders describe the same
//! run: a model must reach the same state from either.

use crate::{ExecHook, Fpr, Gpr, Inst, MixClass, Vr};
use simtune_cache::{CacheHierarchy, ServicedBy};

/// Number of slots in the unified timing register space: 32 GPRs, 32
/// FPRs and 32 vector registers.
pub const TIMING_REGS: usize = 96;

/// A register in the unified timing namespace — GPRs map to `0..32`,
/// FPRs to `32..64`, vector registers to `64..96` — so a scoreboard is
/// one flat array instead of three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reg(u16);

impl Reg {
    /// A general-purpose register.
    pub fn gpr(r: Gpr) -> Reg {
        Reg(r.0 as u16)
    }

    /// A scalar floating-point register.
    pub fn fpr(f: Fpr) -> Reg {
        Reg(32 + f.0 as u16)
    }

    /// A vector register.
    pub fn vr(v: Vr) -> Reg {
        Reg(64 + v.0 as u16)
    }

    /// Index into a `[_; TIMING_REGS]` scoreboard.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One retired instruction, reduced to what a timing model needs: its
/// statistics class, the register it writes (if any) and the registers
/// it reads (up to three — `Fmadd` and `Vfma` are the widest readers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UopEvent {
    /// Statistics class, identical to the [`InstMix`](crate::InstMix)
    /// accounting.
    pub class: MixClass,
    /// Destination register, `None` for stores, branches and system ops.
    pub dst: Option<Reg>,
    /// Source registers, `None`-padded.
    pub srcs: [Option<Reg>; 3],
}

/// Extracts the [`UopEvent`] of an instruction. `Vfma` and `Vinsert`
/// read their destination as an accumulator/merge input, so it appears
/// among the sources as well.
pub fn uop_event(inst: &Inst) -> UopEvent {
    let class = MixClass::of(inst);
    let (dst, srcs): (Option<Reg>, [Option<Reg>; 3]) = match *inst {
        Inst::Li { rd, .. } => (Some(Reg::gpr(rd)), [None; 3]),
        Inst::Addi { rd, rs, .. }
        | Inst::Muli { rd, rs, .. }
        | Inst::Slli { rd, rs, .. }
        | Inst::Mv { rd, rs } => (Some(Reg::gpr(rd)), [Some(Reg::gpr(rs)), None, None]),
        Inst::Add { rd, rs1, rs2 } | Inst::Sub { rd, rs1, rs2 } | Inst::Mul { rd, rs1, rs2 } => (
            Some(Reg::gpr(rd)),
            [Some(Reg::gpr(rs1)), Some(Reg::gpr(rs2)), None],
        ),
        Inst::Ld { rd, rs, .. } => (Some(Reg::gpr(rd)), [Some(Reg::gpr(rs)), None, None]),
        Inst::Sd { rval, rs, .. } => (None, [Some(Reg::gpr(rval)), Some(Reg::gpr(rs)), None]),
        Inst::Fli { fd, .. } => (Some(Reg::fpr(fd)), [None; 3]),
        Inst::Flw { fd, rs, .. } => (Some(Reg::fpr(fd)), [Some(Reg::gpr(rs)), None, None]),
        Inst::Fsw { fval, rs, .. } => (None, [Some(Reg::fpr(fval)), Some(Reg::gpr(rs)), None]),
        Inst::Fadd { fd, fs1, fs2 }
        | Inst::Fsub { fd, fs1, fs2 }
        | Inst::Fmul { fd, fs1, fs2 }
        | Inst::Fdiv { fd, fs1, fs2 }
        | Inst::Fmax { fd, fs1, fs2 } => (
            Some(Reg::fpr(fd)),
            [Some(Reg::fpr(fs1)), Some(Reg::fpr(fs2)), None],
        ),
        Inst::Fmadd { fd, fs1, fs2, fs3 } => (
            Some(Reg::fpr(fd)),
            [
                Some(Reg::fpr(fs1)),
                Some(Reg::fpr(fs2)),
                Some(Reg::fpr(fs3)),
            ],
        ),
        Inst::Fcvt { fd, rs } => (Some(Reg::fpr(fd)), [Some(Reg::gpr(rs)), None, None]),
        Inst::Vload { vd, rs, .. } => (Some(Reg::vr(vd)), [Some(Reg::gpr(rs)), None, None]),
        Inst::Vstore { vval, rs, .. } => (None, [Some(Reg::vr(vval)), Some(Reg::gpr(rs)), None]),
        Inst::Vbcast { vd, fs } => (Some(Reg::vr(vd)), [Some(Reg::fpr(fs)), None, None]),
        Inst::Vsplat { vd, .. } => (Some(Reg::vr(vd)), [None; 3]),
        Inst::Vfadd { vd, vs1, vs2 }
        | Inst::Vfmul { vd, vs1, vs2 }
        | Inst::Vfmax { vd, vs1, vs2 } => (
            Some(Reg::vr(vd)),
            [Some(Reg::vr(vs1)), Some(Reg::vr(vs2)), None],
        ),
        // Fused accumulate reads its destination.
        Inst::Vfma { vd, vs1, vs2 } => (
            Some(Reg::vr(vd)),
            [Some(Reg::vr(vs1)), Some(Reg::vr(vs2)), Some(Reg::vr(vd))],
        ),
        Inst::Vredsum { fd, vs } => (Some(Reg::fpr(fd)), [Some(Reg::vr(vs)), None, None]),
        // Single-lane insert merges into the destination vector.
        Inst::Vinsert { vd, fs, .. } => (
            Some(Reg::vr(vd)),
            [Some(Reg::fpr(fs)), Some(Reg::vr(vd)), None],
        ),
        Inst::Vextract { fd, vs, .. } => (Some(Reg::fpr(fd)), [Some(Reg::vr(vs)), None, None]),
        Inst::Blt { rs1, rs2, .. } | Inst::Bge { rs1, rs2, .. } | Inst::Bne { rs1, rs2, .. } => {
            (None, [Some(Reg::gpr(rs1)), Some(Reg::gpr(rs2)), None])
        }
        Inst::Jmp { .. } | Inst::Ecall { .. } | Inst::Halt => (None, [None; 3]),
    };
    UopEvent { class, dst, srcs }
}

/// A µop-level execution observer: what a cycle-accurate timing tier
/// implements. Events arrive per µop from
/// [`InterpEngine`](crate::InterpEngine) and per block from
/// [`DecodedEngine`](crate::DecodedEngine) — the module documentation
/// gives both orders.
pub trait TimingHook {
    /// An instruction was fetched at `pc`, serviced by `serviced`.
    fn on_fetch(&mut self, pc: usize, serviced: ServicedBy) {
        let _ = (pc, serviced);
    }

    /// An instruction retired as `uop` (per µop only).
    fn on_uop(&mut self, uop: &UopEvent) {
        let _ = uop;
    }

    /// A data access of the instruction at `pc` touched the cache line
    /// at `line_addr`. The hierarchy is mutable so prefetchers can
    /// issue fills.
    fn on_mem(
        &mut self,
        pc: usize,
        line_addr: u64,
        is_store: bool,
        serviced: ServicedBy,
        hier: &mut CacheHierarchy,
    ) {
        let _ = (pc, line_addr, is_store, serviced, hier);
    }

    /// A control-flow instruction at `pc` resolved.
    fn on_branch(&mut self, pc: usize, target: usize, taken: bool) {
        let _ = (pc, target, taken);
    }

    /// Per block only: the µops of instructions `start..start +
    /// uops.len()` retired, in order. By default each goes to
    /// [`TimingHook::on_uop`], after the block's other events; a model
    /// that places those events at their µops overrides this.
    fn on_block(&mut self, start: usize, uops: &[UopEvent]) {
        let _ = start;
        for uop in uops {
            self.on_uop(uop);
        }
    }
}

/// Adapts a [`TimingHook`] into an [`ExecHook`], translating each of the
/// interpreter's retirements into its [`UopEvent`] (the decoded engine
/// hands over the ones its decode pass made), so timing tiers plug into
/// the unmodified replay engines.
#[derive(Debug)]
pub struct TimingBridge<'h, H: TimingHook> {
    hook: &'h mut H,
}

impl<'h, H: TimingHook> TimingBridge<'h, H> {
    /// Wraps `hook` for one run.
    pub fn new(hook: &'h mut H) -> Self {
        TimingBridge { hook }
    }
}

impl<H: TimingHook> ExecHook for TimingBridge<'_, H> {
    fn on_fetch(&mut self, pc: usize, serviced: ServicedBy) {
        self.hook.on_fetch(pc, serviced);
    }

    fn on_retire(&mut self, inst: &Inst) {
        self.hook.on_uop(&uop_event(inst));
    }

    fn on_data_access(
        &mut self,
        pc: usize,
        line_addr: u64,
        is_store: bool,
        serviced: ServicedBy,
        hier: &mut CacheHierarchy,
    ) {
        self.hook.on_mem(pc, line_addr, is_store, serviced, hier);
    }

    fn on_branch(&mut self, pc: usize, target: usize, taken: bool) {
        self.hook.on_branch(pc, target, taken);
    }

    fn on_block(&mut self, start: usize, uops: &[UopEvent]) {
        self.hook.on_block(start, uops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_register_space_is_disjoint() {
        assert_eq!(Reg::gpr(Gpr(0)).index(), 0);
        assert_eq!(Reg::gpr(Gpr(31)).index(), 31);
        assert_eq!(Reg::fpr(Fpr(0)).index(), 32);
        assert_eq!(Reg::fpr(Fpr(31)).index(), 63);
        assert_eq!(Reg::vr(Vr(0)).index(), 64);
        assert_eq!(Reg::vr(Vr(31)).index(), 95);
        assert!(Reg::vr(Vr(31)).index() < TIMING_REGS);
    }

    #[test]
    fn fused_accumulate_reads_its_destination() {
        let e = uop_event(&Inst::Vfma {
            vd: Vr(3),
            vs1: Vr(1),
            vs2: Vr(2),
        });
        assert_eq!(e.class, MixClass::VecAlu);
        assert_eq!(e.dst, Some(Reg::vr(Vr(3))));
        assert!(e.srcs.contains(&Some(Reg::vr(Vr(3)))));
    }

    #[test]
    fn stores_and_branches_write_nothing() {
        let s = uop_event(&Inst::Sd {
            rval: Gpr(4),
            rs: Gpr(5),
            imm: 0,
        });
        assert_eq!(s.dst, None);
        assert_eq!(s.srcs[0], Some(Reg::gpr(Gpr(4))));
        assert_eq!(s.srcs[1], Some(Reg::gpr(Gpr(5))));
        let b = uop_event(&Inst::Blt {
            rs1: Gpr(1),
            rs2: Gpr(2),
            target: 0,
        });
        assert_eq!(b.dst, None);
        assert_eq!(b.class, MixClass::Branch);
    }

    #[test]
    fn loads_carry_their_base_register() {
        let e = uop_event(&Inst::Flw {
            fd: Fpr(7),
            rs: Gpr(2),
            imm: 4,
        });
        assert_eq!(e.class, MixClass::Load);
        assert_eq!(e.dst, Some(Reg::fpr(Fpr(7))));
        assert_eq!(e.srcs[0], Some(Reg::gpr(Gpr(2))));
    }

    #[test]
    fn bridge_translates_retirements_to_uops() {
        #[derive(Default)]
        struct Collect {
            uops: Vec<UopEvent>,
            fetches: usize,
            branches: usize,
        }
        impl TimingHook for Collect {
            fn on_fetch(&mut self, _: usize, _: ServicedBy) {
                self.fetches += 1;
            }
            fn on_uop(&mut self, uop: &UopEvent) {
                self.uops.push(*uop);
            }
            fn on_branch(&mut self, _: usize, _: usize, _: bool) {
                self.branches += 1;
            }
        }
        let mut hook = Collect::default();
        {
            let mut bridge = TimingBridge::new(&mut hook);
            bridge.on_fetch(0, ServicedBy::L1i);
            bridge.on_retire(&Inst::Li { rd: Gpr(1), imm: 3 });
            bridge.on_branch(1, 0, true);
            bridge.on_retire(&Inst::Jmp { target: 0 });
        }
        assert_eq!(hook.fetches, 1);
        assert_eq!(hook.branches, 1);
        assert_eq!(hook.uops.len(), 2);
        assert_eq!(hook.uops[0].dst, Some(Reg::gpr(Gpr(1))));
        assert_eq!(hook.uops[1].class, MixClass::Branch);
    }

    #[test]
    fn bridge_forwards_blocks_to_on_block_or_by_default_to_on_uop() {
        #[derive(Default)]
        struct Blocks(Vec<(usize, usize)>);
        impl TimingHook for Blocks {
            fn on_block(&mut self, start: usize, uops: &[UopEvent]) {
                self.0.push((start, uops.len()));
            }
        }
        #[derive(Default)]
        struct PerUop(usize);
        impl TimingHook for PerUop {
            fn on_uop(&mut self, _: &UopEvent) {
                self.0 += 1;
            }
        }
        let uops = [uop_event(&Inst::Halt); 3];
        let mut blocks = Blocks::default();
        TimingBridge::new(&mut blocks).on_block(7, &uops);
        assert_eq!(blocks.0, [(7, 3)]);
        let mut per_uop = PerUop::default();
        TimingBridge::new(&mut per_uop).on_block(7, &uops);
        assert_eq!(per_uop.0, 3);
    }
}
