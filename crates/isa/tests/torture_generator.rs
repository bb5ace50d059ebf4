//! Contract suite for the torture-program generator: the invariants
//! `torture.rs` documents, checked over the whole scenario corpus and
//! over adversarial random configs.
//!
//! Three invariants, for every config and every seed:
//!
//! 1. **termination** — every program halts (or faults at a guarded
//!    fault site) well under a 100 000-instruction budget; it never
//!    exhausts the budget, runs off the code segment, or touches
//!    unmapped memory;
//! 2. **window containment** — every memory access is `BASE`-relative
//!    with an 8-aligned offset inside `[0, TORTURE_WINDOW - 32]`, and
//!    no instruction after the preamble overwrites the base register,
//!    so the bound holds *statically*, not just on observed paths;
//! 3. **determinism** — the same `(config, seed)` pair yields a
//!    byte-identical program (and disassembly), the replay property
//!    every journaled fuzz failure depends on.

use proptest::prelude::*;
use simtune_cache::{CacheHierarchy, HierarchyConfig};
use simtune_isa::{
    torture_program, torture_program_with, AtomicCpu, ExecEngine, Gpr, Inst, InterpEngine, Memory,
    MemoryPattern, NoopHook, Program, RunLimits, SimError, TargetIsa, TortureConfig,
    TORTURE_FAULT_CODE, TORTURE_WINDOW,
};

/// Generous budget: the generator's documented worst case is far below.
const BUDGET: u64 = 100_000;

fn every_config() -> Vec<(String, TortureConfig)> {
    TortureConfig::corpus()
        .into_iter()
        .map(|(n, c)| (n.to_string(), c))
        .collect()
}

/// Runs one program to completion on the reference interpreter and
/// asserts the only permitted outcomes: normal halt, or the injected
/// fault syscall.
fn assert_terminates(ctx: &str, prog: &Program) {
    let target = TargetIsa::riscv_u74();
    let mut cpu = AtomicCpu::new(&target);
    let mut mem = Memory::new();
    let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
    match InterpEngine::new(prog).run_with_hook(
        &mut cpu,
        &mut mem,
        &mut hier,
        RunLimits { max_insts: BUDGET },
        &mut NoopHook,
    ) {
        Ok(stats) => assert!(stats.inst_mix.total() > 0, "{ctx}: empty run"),
        Err(SimError::UnknownSyscall { code }) => {
            assert_eq!(code, TORTURE_FAULT_CODE, "{ctx}: unexpected syscall");
        }
        Err(e) => panic!("{ctx}: non-terminating or faulting program: {e}"),
    }
}

/// Statically proves window containment: every memory operand is
/// `r1`-relative with an 8-aligned in-window offset, and `r1` is only
/// written by the first preamble instruction.
fn assert_window_contained(ctx: &str, prog: &Program) {
    const BASE: Gpr = Gpr(1);
    let max_off = (TORTURE_WINDOW - 32) as i64;
    for (i, inst) in prog.insts().iter().enumerate() {
        match *inst {
            Inst::Ld { rs, imm, .. }
            | Inst::Sd { rs, imm, .. }
            | Inst::Flw { rs, imm, .. }
            | Inst::Fsw { rs, imm, .. }
            | Inst::Vload { rs, imm, .. }
            | Inst::Vstore { rs, imm, .. } => {
                assert_eq!(rs, BASE, "{ctx}: access {i} not base-relative");
                assert!(
                    (0..=max_off).contains(&imm) && imm % 8 == 0,
                    "{ctx}: access {i} offset {imm} escapes the window"
                );
            }
            _ => {}
        }
        // The data base must stay constant after the preamble sets it.
        let writes_base = match *inst {
            Inst::Li { rd, .. }
            | Inst::Addi { rd, .. }
            | Inst::Add { rd, .. }
            | Inst::Sub { rd, .. }
            | Inst::Mul { rd, .. }
            | Inst::Muli { rd, .. }
            | Inst::Slli { rd, .. }
            | Inst::Mv { rd, .. }
            | Inst::Ld { rd, .. } => rd == BASE,
            _ => false,
        };
        assert!(
            !writes_base || i == 0,
            "{ctx}: instruction {i} overwrites the data base register"
        );
    }
}

#[test]
fn every_corpus_scenario_terminates_for_many_seeds() {
    for (name, cfg) in every_config() {
        for seed in 0..32 {
            let prog = torture_program_with(&cfg, seed);
            assert_terminates(&format!("{name} seed {seed}"), &prog);
        }
    }
}

#[test]
fn every_corpus_scenario_stays_inside_the_window() {
    for (name, cfg) in every_config() {
        for seed in 0..32 {
            let prog = torture_program_with(&cfg, seed);
            assert_window_contained(&format!("{name} seed {seed}"), &prog);
        }
    }
}

#[test]
fn same_seed_yields_byte_identical_programs() {
    for (name, cfg) in every_config() {
        for seed in [0, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            let a = torture_program_with(&cfg, seed);
            let b = torture_program_with(&cfg, seed);
            assert_eq!(a, b, "{name} seed {seed}");
            assert_eq!(a.disassemble(), b.disassemble(), "{name} seed {seed}");
        }
    }
}

#[test]
fn baseline_wrapper_matches_the_baseline_preset() {
    for seed in 0..8 {
        assert_eq!(
            torture_program(seed),
            torture_program_with(&TortureConfig::baseline(), seed)
        );
    }
}

#[test]
fn seeds_decorrelate_programs() {
    // Not a strict invariant of every pair, but if many consecutive
    // seeds collide the RNG plumbing is broken.
    let distinct = (0..32)
        .map(|s| torture_program(s).disassemble())
        .collect::<std::collections::HashSet<_>>()
        .len();
    assert!(distinct >= 31, "only {distinct}/32 distinct programs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The three invariants hold for *arbitrary* configs, including
    /// values far outside the documented ranges (the generator clamps).
    #[test]
    fn arbitrary_configs_uphold_the_generator_contract(
        loop_depth in 0u8..=255,
        max_trip in 0u8..=255,
        body_lo in 0u8..=255,
        body_hi in 0u8..=255,
        branch_density in 0u8..=255,
        fault_rate in 0u8..=255,
        vector_mix in 0u8..=255,
        pattern in 0usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = TortureConfig {
            loop_depth,
            max_trip,
            body_insts: (body_lo, body_hi),
            branch_density,
            memory_pattern: [
                MemoryPattern::Sequential,
                MemoryPattern::Strided,
                MemoryPattern::Irregular,
                MemoryPattern::Clustered,
            ][pattern],
            fault_rate,
            vector_mix,
        };
        let prog = torture_program_with(&cfg, seed);
        prop_assert_eq!(&prog, &torture_program_with(&cfg, seed));
        assert_window_contained("random config", &prog);
        assert_terminates("random config", &prog);
    }
}
