//! Threaded-code replay: a [`DecodedProgram`] lowered once more into a
//! dense array of thunks, each carrying a pre-bound handler selector and
//! a pre-resolved fall-through successor.
//!
//! The decoded loop still pays two per-retirement dispatch costs: the
//! big `Inst` match inside the semantic core sees a *different* variant
//! every iteration (an unpredictable indirect branch), and the generic
//! `Step` match recomputes the successor even for straight-line code.
//! Classic threaded code (Forth, QEMU TCG's TB chaining, mijit's lowered
//! templates) removes both by storing, per µop, a pointer to a handler
//! specialized for that instruction kind plus the index of the next µop.
//!
//! [`ThreadedProgram::lower`] performs that binding once;
//! [`ThreadedEngine`] then replays the thunk array with an indirect call
//! per retirement. Every handler narrows the instruction to its own
//! variant **before** delegating to the shared semantic core
//! (`AtomicCpu::exec_inst`), so the inlined core collapses to the one
//! reachable arm per handler — native-like dispatch without duplicating
//! instruction semantics, keeping the engine bit-identical to
//! [`crate::InterpEngine`] and [`crate::DecodedEngine`] by construction.

use crate::cpu::Step;
use crate::decode::DecodedProgram;
use crate::{
    AtomicCpu, ExecEngine, ExecHook, Inst, InstMix, Memory, RunLimits, SimError, SimStats,
};
use simtune_cache::CacheHierarchy;

/// Successor sentinel: the handler observed a terminator.
const STOP: u32 = u32::MAX;

/// One µop in threaded form: the instruction, its precomputed fetch
/// address, the pre-resolved fall-through successor and the index of
/// the handler bound to its kind.
#[derive(Debug, Clone, Copy)]
struct Thunk {
    inst: Inst,
    fetch_addr: u64,
    /// Index of the µop control falls through to (`pc + 1`); branch
    /// handlers override it with the taken target.
    next: u32,
    /// Pre-bound handler index (one per instruction kind).
    handler: u8,
}

/// A [`DecodedProgram`] lowered into threaded form. Lower once per
/// program, replay many times via [`ThreadedEngine`].
#[derive(Debug, Clone)]
pub struct ThreadedProgram {
    thunks: Vec<Thunk>,
}

impl ThreadedProgram {
    /// Binds every µop of `prog` to its handler and pre-resolves the
    /// fall-through successor. Control-flow validity was already
    /// established by [`DecodedProgram::decode`], so lowering cannot
    /// fail.
    pub fn lower(prog: &DecodedProgram) -> ThreadedProgram {
        assert!(
            prog.len() < STOP as usize,
            "program too large for threaded lowering"
        );
        ThreadedProgram {
            thunks: prog
                .ops()
                .iter()
                .enumerate()
                .map(|(pc, op)| Thunk {
                    inst: op.inst,
                    fetch_addr: op.fetch_addr,
                    next: (pc + 1) as u32,
                    handler: handler_index(&op.inst),
                })
                .collect(),
        }
    }

    /// Number of thunks (equals the decoded program's µop count).
    pub fn len(&self) -> usize {
        self.thunks.len()
    }

    /// True when the program has no thunks (never for decoded programs,
    /// which require a terminator).
    pub fn is_empty(&self) -> bool {
        self.thunks.is_empty()
    }
}

/// Handler signature: execute the thunk's instruction and return the
/// next µop index ([`STOP`] on termination).
type Handler<H> = fn(
    &mut AtomicCpu,
    &Thunk,
    usize,
    &mut Memory,
    &mut CacheHierarchy,
    &mut H,
    u64,
    &mut InstMix,
) -> Result<u32, SimError>;

/// Generates one handler per instruction kind plus the kind → index
/// binding and the per-hook handler table. Each handler narrows to its
/// own variant so the inlined semantic core specializes per kind; the
/// `unreachable!` arm is dead by construction ([`ThreadedProgram::lower`]
/// binds handlers from the same match).
macro_rules! threaded_handlers {
    ($(($idx:literal, $name:ident, $pat:pat)),* $(,)?) => {
        fn handler_index(inst: &Inst) -> u8 {
            match *inst {
                $($pat => $idx,)*
            }
        }

        $(
            #[allow(clippy::too_many_arguments)] // mirrors the semantic core
            fn $name<H: ExecHook>(
                cpu: &mut AtomicCpu,
                t: &Thunk,
                pc: usize,
                mem: &mut Memory,
                hier: &mut CacheHierarchy,
                hook: &mut H,
                line_bytes: u64,
                mix: &mut InstMix,
            ) -> Result<u32, SimError> {
                match t.inst {
                    inst @ $pat => {
                        let step = cpu.exec_inst(&inst, pc, mem, hier, hook, line_bytes, mix)?;
                        Ok(match step {
                            Step::Next => t.next,
                            Step::Jump(target) => target as u32,
                            Step::Stop => STOP,
                        })
                    }
                    _ => unreachable!("thunk bound to the wrong handler"),
                }
            }
        )*

        fn handler_table<H: ExecHook>() -> [Handler<H>; 37] {
            [$($name::<H>,)*]
        }
    };
}

threaded_handlers! {
    (0, h_li, Inst::Li { .. }),
    (1, h_addi, Inst::Addi { .. }),
    (2, h_add, Inst::Add { .. }),
    (3, h_sub, Inst::Sub { .. }),
    (4, h_mul, Inst::Mul { .. }),
    (5, h_muli, Inst::Muli { .. }),
    (6, h_slli, Inst::Slli { .. }),
    (7, h_mv, Inst::Mv { .. }),
    (8, h_ld, Inst::Ld { .. }),
    (9, h_sd, Inst::Sd { .. }),
    (10, h_fli, Inst::Fli { .. }),
    (11, h_flw, Inst::Flw { .. }),
    (12, h_fsw, Inst::Fsw { .. }),
    (13, h_fadd, Inst::Fadd { .. }),
    (14, h_fsub, Inst::Fsub { .. }),
    (15, h_fmul, Inst::Fmul { .. }),
    (16, h_fdiv, Inst::Fdiv { .. }),
    (17, h_fmadd, Inst::Fmadd { .. }),
    (18, h_fmax, Inst::Fmax { .. }),
    (19, h_fcvt, Inst::Fcvt { .. }),
    (20, h_vload, Inst::Vload { .. }),
    (21, h_vstore, Inst::Vstore { .. }),
    (22, h_vbcast, Inst::Vbcast { .. }),
    (23, h_vsplat, Inst::Vsplat { .. }),
    (24, h_vfadd, Inst::Vfadd { .. }),
    (25, h_vfmul, Inst::Vfmul { .. }),
    (26, h_vfma, Inst::Vfma { .. }),
    (27, h_vfmax, Inst::Vfmax { .. }),
    (28, h_vredsum, Inst::Vredsum { .. }),
    (29, h_vinsert, Inst::Vinsert { .. }),
    (30, h_vextract, Inst::Vextract { .. }),
    (31, h_blt, Inst::Blt { .. }),
    (32, h_bge, Inst::Bge { .. }),
    (33, h_bne, Inst::Bne { .. }),
    (34, h_jmp, Inst::Jmp { .. }),
    (35, h_ecall, Inst::Ecall { .. }),
    (36, h_halt, Inst::Halt),
}

/// Replays a [`ThreadedProgram`]: per retirement, one indirect call
/// through the pre-bound handler table and a successor read from the
/// thunk — no `Inst` dispatch match, no `Step` match, no fetch-address
/// arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedEngine<'p> {
    prog: &'p ThreadedProgram,
}

impl<'p> ThreadedEngine<'p> {
    /// Engine over a threaded program.
    pub fn new(prog: &'p ThreadedProgram) -> Self {
        ThreadedEngine { prog }
    }
}

impl ExecEngine for ThreadedEngine<'_> {
    fn run_until<H: ExecHook>(
        &self,
        cpu: &mut AtomicCpu,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        stop_at: Option<u64>,
        hook: &mut H,
    ) -> Result<(SimStats, bool), SimError> {
        let thunks = self.prog.thunks.as_slice();
        let table = handler_table::<H>();
        let mut mix = InstMix::default();
        // Each retirement bumps exactly one counter `InstMix::total`
        // sums, so this local equals `mix.total()` without re-summing
        // seven fields per retirement.
        let mut retired: u64 = 0;
        let mut pc = 0u32;
        let line_bytes = hier.line_bytes();
        let mut completed = true;
        loop {
            if retired >= limits.max_insts {
                return Err(SimError::InstLimitExceeded {
                    limit: limits.max_insts,
                });
            }
            if stop_at.is_some_and(|budget| retired >= budget) {
                completed = false;
                break;
            }
            // In range by decode-time validation, like the decoded loop.
            let t = &thunks[pc as usize];
            hook.on_fetch(pc as usize, hier.fetch(t.fetch_addr));
            let next = table[t.handler as usize](
                cpu,
                t,
                pc as usize,
                mem,
                hier,
                hook,
                line_bytes,
                &mut mix,
            )?;
            hook.on_retire(&t.inst);
            retired += 1;
            if next == STOP {
                break;
            }
            pc = next;
        }
        debug_assert_eq!(retired, mix.total());
        Ok((
            SimStats {
                inst_mix: mix,
                cache: hier.stats(),
                host_nanos: 0,
            },
            completed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecodedEngine, Gpr, NoopHook, ProgramBuilder, TargetIsa};
    use simtune_cache::HierarchyConfig;

    fn loop_program() -> crate::Program {
        // r1 = sum of 0..10 via a counted loop.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li { rd: Gpr(1), imm: 0 });
        b.push(Inst::Li { rd: Gpr(2), imm: 0 });
        b.push(Inst::Li {
            rd: Gpr(3),
            imm: 10,
        });
        let top = b.bind_new_label();
        b.push(Inst::Add {
            rd: Gpr(1),
            rs1: Gpr(1),
            rs2: Gpr(2),
        });
        b.push(Inst::Addi {
            rd: Gpr(2),
            rs: Gpr(2),
            imm: 1,
        });
        b.branch_lt(Gpr(2), Gpr(3), top);
        b.push(Inst::Halt);
        b.build().unwrap()
    }

    fn run<E: ExecEngine>(engine: &E, target: &TargetIsa) -> (SimStats, i64) {
        let mut cpu = AtomicCpu::new(target);
        let mut mem = Memory::new();
        let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
        let stats = engine
            .run_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits::default(),
                &mut NoopHook,
            )
            .unwrap();
        (stats, cpu.gpr(Gpr(1)))
    }

    #[test]
    fn threaded_matches_decoded_exactly() {
        let prog = loop_program();
        let target = TargetIsa::riscv_u74();
        let decoded = DecodedProgram::decode(&prog, &target).unwrap();
        let threaded = ThreadedProgram::lower(&decoded);
        assert_eq!(threaded.len(), decoded.len());
        assert!(!threaded.is_empty());
        let (a, ra) = run(&DecodedEngine::new(&decoded), &target);
        let (b, rb) = run(&ThreadedEngine::new(&threaded), &target);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert_eq!(ra, 45);
    }

    #[test]
    fn threaded_prefix_stops_at_budget() {
        let prog = loop_program();
        let target = TargetIsa::riscv_u74();
        let decoded = DecodedProgram::decode(&prog, &target).unwrap();
        let threaded = ThreadedProgram::lower(&decoded);
        let mut cpu = AtomicCpu::new(&target);
        let mut mem = Memory::new();
        let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
        let (stats, completed) = ThreadedEngine::new(&threaded)
            .run_prefix_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits::default(),
                7,
                &mut NoopHook,
            )
            .unwrap();
        assert!(!completed);
        assert_eq!(stats.inst_mix.total(), 7);
    }

    #[test]
    fn threaded_surfaces_inst_limit() {
        let prog = loop_program();
        let target = TargetIsa::riscv_u74();
        let decoded = DecodedProgram::decode(&prog, &target).unwrap();
        let threaded = ThreadedProgram::lower(&decoded);
        let mut cpu = AtomicCpu::new(&target);
        let mut mem = Memory::new();
        let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
        let err = ThreadedEngine::new(&threaded)
            .run_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits { max_insts: 5 },
                &mut NoopHook,
            )
            .unwrap_err();
        assert_eq!(err, SimError::InstLimitExceeded { limit: 5 });
    }

    #[test]
    fn every_handler_index_matches_its_binding() {
        // The handler table and `handler_index` come from the same macro
        // expansion; spot-check the binding is stable at both ends.
        assert_eq!(handler_index(&Inst::Li { rd: Gpr(0), imm: 0 }), 0);
        assert_eq!(handler_index(&Inst::Halt), 36);
    }
}
