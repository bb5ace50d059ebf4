//! Differential property suite: every replay engine must be
//! observationally identical to the re-decoding interpreter.
//!
//! Full-run equivalence is asserted through the shared differential
//! harness ([`simtune::core::diffharness::DiffHarness`]) so the
//! observable-state comparison (stats, register files, memory image,
//! error identity) lives in exactly one place — the same matrix the
//! `torture_fuzz` gate runs. Random flat-loop programs from the local
//! generator and seeded mini-torture programs ([`torture_program_with`])
//! both go through the whole engine × fidelity × `n_parallel` matrix.
//!
//! Runs cut short by `max_insts` (engines ending at the same retirement
//! with identical partial state) are not a harness dimension, so that
//! property keeps its local run/capture machinery. Floats are
//! compared through their bit patterns so NaN-producing programs
//! (e.g. `fdiv 0/0`) still compare exactly.
//!
//! `PROPTEST_CASES` scales every property's case count (the vendored
//! proptest has no env support of its own) — CI's engine-equivalence
//! step raises it well above the local default.

use proptest::prelude::*;
use simtune::cache::{CacheConfig, CacheHierarchy, HierarchyConfig, ReplacementPolicy};
use simtune::core::diffharness::DiffHarness;
use simtune::hw::{CycleBreakdown, PipelineModel, TargetSpec};
use simtune::isa::{
    replay, AtomicCpu, DecodedEngine, DecodedProgram, EngineKind, ExecEngine, Executable, Fpr, Gpr,
    Inst, InterpEngine, Memory, NoopHook, Program, ProgramBuilder, RunLimits, SimError, SimStats,
    TargetIsa, TimingBridge, TortureConfig, Vr, DATA_BASE,
};
use std::sync::OnceLock;

/// Bytes of the data window the generated programs read and write.
const DATA_WINDOW: u64 = 2048;

/// Pure core of [`cases`]: resolves a property's case count from an
/// (optional) environment override, falling back to `default` when the
/// override is absent or not a number.
fn cases_from(env: Option<&str>, default: u32) -> u32 {
    env.and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Case count for one property: the `PROPTEST_CASES` environment
/// variable when set (CI's equivalence step raises it), `default`
/// otherwise.
fn cases(default: u32) -> u32 {
    cases_from(std::env::var("PROPTEST_CASES").ok().as_deref(), default)
}

#[test]
fn cases_env_override_parses_numbers_and_ignores_garbage() {
    assert_eq!(cases_from(None, 48), 48);
    assert_eq!(cases_from(Some("1024"), 48), 1024);
    assert_eq!(cases_from(Some("0x40"), 48), 48, "hex is not accepted");
    assert_eq!(cases_from(Some(""), 48), 48);
    assert_eq!(cases_from(Some("lots"), 48), 48);
    assert_eq!(cases_from(Some("-3"), 48), 48, "case counts are unsigned");
    assert_eq!(cases_from(Some(" 12"), 48), 48, "no whitespace trimming");
}

#[test]
fn cases_reads_the_process_environment() {
    // A valid numeric override must round-trip through the real env
    // plumbing. The sentinel is a plausible case count so a property
    // racing this test at worst runs fewer cases, never breaks.
    std::env::set_var("PROPTEST_CASES", "3");
    assert_eq!(cases(48), 3);
    std::env::remove_var("PROPTEST_CASES");
    assert_eq!(cases(48), 48);
}

/// One harness for the whole suite; its pooled worker sessions are the
/// expensive part and every property reuses them.
fn harness() -> &'static DiffHarness {
    static H: OnceLock<DiffHarness> = OnceLock::new();
    H.get_or_init(DiffHarness::tiny)
}

/// Runs `exe` through the shared differential matrix and fails with the
/// full mismatch report on any divergence.
fn assert_matrix_agrees(exe: &Executable) {
    let (combos, _faulted, divs) = harness().diff_executable(exe);
    assert!(
        divs.is_empty(),
        "{} diverged:\n{}",
        exe.name,
        divs.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(combos, 16, "{}: differential matrix changed size", exe.name);
}

/// The deterministic data image backing seed `seed`: distinct,
/// reproducible f32 words filling the window (`seed == 0` = cold zeroes,
/// matching the legacy properties).
fn window_words(seed: u64) -> Vec<f32> {
    (0..DATA_WINDOW / 4)
        .map(|i| {
            if seed == 0 {
                return 0.0;
            }
            let x = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((x >> 40) as i64 - (1 << 23)) as f32 / 256.0
        })
        .collect()
}

/// Builds a terminating random program from raw entropy words: a fixed
/// preamble (r1 = DATA_BASE, loop bounds), one generated instruction per
/// word inside a counted loop, and a `Halt`.
fn build_program(words: &[u64], iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.push(Inst::Li {
        rd: Gpr(1),
        imm: DATA_BASE as i64,
    });
    b.push(Inst::Li {
        rd: Gpr(30),
        imm: 0,
    });
    b.push(Inst::Li {
        rd: Gpr(31),
        imm: iters,
    });
    let top = b.bind_new_label();
    for &w in words {
        push_random_inst(&mut b, w);
    }
    b.push(Inst::Addi {
        rd: Gpr(30),
        rs: Gpr(30),
        imm: 1,
    });
    b.branch_lt(Gpr(30), Gpr(31), top);
    b.push(Inst::Halt);
    b.build().expect("generated program is structurally valid")
}

/// Derives one instruction from an entropy word. Scratch registers are
/// r2..r9 / f0..f7 / v1..v5; r1 (data base) and r30/r31 (loop) are never
/// written, so memory accesses always stay inside the data window.
fn push_random_inst(b: &mut ProgramBuilder, w: u64) {
    let g = |n: u64| Gpr(2 + (n % 8) as u8);
    let f = |n: u64| Fpr((n % 8) as u8);
    let v = |n: u64| Vr(1 + (n % 5) as u8);
    // Word-aligned offset leaving room for the widest (8-lane) access.
    let off = |n: u64| (4 * (n % ((DATA_WINDOW - 32) / 4))) as i64;
    let a = w >> 8;
    let b2 = w >> 20;
    let c = w >> 32;
    match w % 24 {
        0 => {
            b.push(Inst::Li {
                rd: g(a),
                imm: (b2 % 1000) as i64 - 500,
            });
        }
        1 => {
            b.push(Inst::Addi {
                rd: g(a),
                rs: g(b2),
                imm: (c % 64) as i64 - 32,
            });
        }
        2 => {
            b.push(Inst::Add {
                rd: g(a),
                rs1: g(b2),
                rs2: g(c),
            });
        }
        3 => {
            b.push(Inst::Sub {
                rd: g(a),
                rs1: g(b2),
                rs2: g(c),
            });
        }
        4 => {
            b.push(Inst::Mul {
                rd: g(a),
                rs1: g(b2),
                rs2: g(c),
            });
        }
        5 => {
            b.push(Inst::Slli {
                rd: g(a),
                rs: g(b2),
                shamt: (c % 8) as u8,
            });
        }
        6 => {
            b.push(Inst::Mv {
                rd: g(a),
                rs: g(b2),
            });
        }
        7 => {
            b.push(Inst::Ld {
                rd: g(a),
                rs: Gpr(1),
                imm: off(b2) & !7,
            });
        }
        8 => {
            b.push(Inst::Sd {
                rval: g(a),
                rs: Gpr(1),
                imm: off(b2) & !7,
            });
        }
        9 => {
            b.push(Inst::Fli {
                fd: f(a),
                imm: (b2 % 4096) as f32 / 16.0 - 128.0,
            });
        }
        10 => {
            b.push(Inst::Flw {
                fd: f(a),
                rs: Gpr(1),
                imm: off(b2),
            });
        }
        11 => {
            b.push(Inst::Fsw {
                fval: f(a),
                rs: Gpr(1),
                imm: off(b2),
            });
        }
        12 => {
            b.push(Inst::Fadd {
                fd: f(a),
                fs1: f(b2),
                fs2: f(c),
            });
        }
        13 => {
            b.push(Inst::Fmul {
                fd: f(a),
                fs1: f(b2),
                fs2: f(c),
            });
        }
        14 => {
            b.push(Inst::Fmadd {
                fd: f(a),
                fs1: f(b2),
                fs2: f(c),
                fs3: f(w >> 44),
            });
        }
        15 => {
            b.push(Inst::Fdiv {
                fd: f(a),
                fs1: f(b2),
                fs2: f(c),
            });
        }
        16 => {
            b.push(Inst::Fcvt {
                fd: f(a),
                rs: g(b2),
            });
        }
        17 => {
            b.push(Inst::Vsplat {
                vd: v(a),
                imm: (b2 % 256) as f32 / 4.0,
            });
        }
        18 => {
            b.push(Inst::Vload {
                vd: v(a),
                rs: Gpr(1),
                imm: off(b2),
            });
        }
        19 => {
            b.push(Inst::Vstore {
                vval: v(a),
                rs: Gpr(1),
                imm: off(b2),
            });
        }
        20 => {
            b.push(Inst::Vfma {
                vd: v(a),
                vs1: v(b2),
                vs2: v(c),
            });
        }
        21 => {
            b.push(Inst::Vredsum {
                fd: f(a),
                vs: v(b2),
            });
        }
        22 => {
            // Branch whose target is the next instruction: taken and
            // not-taken paths converge, exercising both outcomes of the
            // conditional-branch machinery without diverging control.
            let next = b.new_label();
            b.branch_ne(g(a), g(b2), next);
            b.bind(next);
        }
        _ => {
            let next = b.new_label();
            b.jump(next);
            b.bind(next);
        }
    }
}

struct RunOutput {
    result: Result<SimStats, SimError>,
    gprs: Vec<i64>,
    fpr_bits: Vec<u32>,
    vr_bits: Vec<Vec<u32>>,
    mem_bits: Vec<u32>,
}

fn capture(result: Result<SimStats, SimError>, cpu: &AtomicCpu, mem: &Memory) -> RunOutput {
    RunOutput {
        result,
        gprs: (0..32).map(|r| cpu.gpr(Gpr(r))).collect(),
        fpr_bits: (0..32).map(|r| cpu.fpr(Fpr(r)).to_bits()).collect(),
        vr_bits: (0..32)
            .map(|r| cpu.vr(Vr(r)).iter().map(|x| x.to_bits()).collect())
            .collect(),
        mem_bits: mem
            .read_f32_slice(DATA_BASE, (DATA_WINDOW / 4) as usize)
            .expect("window readable")
            .into_iter()
            .map(f32::to_bits)
            .collect(),
    }
}

/// Runs one engine over a cold data window under `limits` (the
/// dimension the shared harness does not cover).
fn run_engine<E: ExecEngine>(engine: &E, target: &TargetIsa, limits: RunLimits) -> RunOutput {
    let mut cpu = AtomicCpu::new(target);
    let mut mem = Memory::new();
    let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
    let result = engine.run_with_hook(&mut cpu, &mut mem, &mut hier, limits, &mut NoopHook);
    capture(result, &cpu, &mem)
}

fn assert_outputs_identical(a: &RunOutput, b: &RunOutput) {
    assert_eq!(a.result, b.result, "outcomes must be byte-identical");
    assert_eq!(a.gprs, b.gprs, "integer register files diverged");
    assert_eq!(a.fpr_bits, b.fpr_bits, "float register files diverged");
    assert_eq!(a.vr_bits, b.vr_bits, "vector register files diverged");
    assert_eq!(a.mem_bits, b.mem_bits, "memory images diverged");
}

/// The tiny test hierarchy's shape (4 × 4 L1s over a 32 × 4 L2) at
/// any line size.
fn tiny_hierarchy(line_bytes: u64) -> HierarchyConfig {
    let level = |name: &str, sets: u64| {
        CacheConfig::new(
            name,
            sets * 4 * line_bytes,
            sets,
            4,
            line_bytes,
            ReplacementPolicy::Lru,
        )
        .expect("valid geometry")
    };
    HierarchyConfig {
        name: format!("tiny-{line_bytes}"),
        l1d: level("L1D", 4),
        l1i: level("L1I", 4),
        l2: level("L2", 32),
        l3: None,
    }
}

/// One trial of `exe` on `engine` over `hierarchy`, through [`replay`]
/// as a backend makes it — with the pipeline model hooked in through a
/// [`TimingBridge`] when `timed`. Host time is zeroed out of the result.
fn run_on(
    engine: EngineKind,
    exe: &Executable,
    decoded: &DecodedProgram,
    hierarchy: &HierarchyConfig,
    timed: bool,
) -> Result<(SimStats, Option<CycleBreakdown>), SimError> {
    let hier = || CacheHierarchy::new(hierarchy.clone());
    let limits = RunLimits::default();
    let (out, cycles) = if timed {
        let mut spec = TargetSpec::riscv_u74();
        spec.hierarchy = hierarchy.clone();
        let mut model = PipelineModel::new(&spec, 64, 4);
        let mut bridge = TimingBridge::new(&mut model);
        let out = replay(exe, decoded, hier, engine, limits, &mut bridge)?;
        (out, Some(model.breakdown()))
    } else {
        let out = replay(exe, decoded, hier, engine, limits, &mut NoopHook)?;
        (out, None)
    };
    let stats = SimStats {
        host_nanos: 0,
        ..out.stats
    };
    Ok((stats, cycles))
}

/// `TargetIsa::inst_bytes` and `CacheConfig::line_bytes` are public and
/// unrelated, and the block loop derives its fetch runs from both: the
/// torture presets under encodings that are zero bytes wide (one fetch
/// address for the whole program), do not divide the line, fill it
/// exactly or overflow it, on a line of one word and on the usual one —
/// every counter of every level, the outcome of faulting programs and
/// the pipeline model's cycles equal the per-instruction interpreter's.
#[test]
fn fetch_runs_agree_with_the_interpreter_at_any_encoding_width_and_line_size() {
    for (scenario, config) in TortureConfig::corpus() {
        for seed in 1..=3u64 {
            let mut exe = DiffHarness::make_executable(scenario, &config, seed, seed ^ 0x5EED_DA7A);
            for inst_bytes in [0, 3, 4, 6, 64, 128] {
                exe.target.inst_bytes = inst_bytes;
                let decoded = exe.decode().expect("torture programs decode");
                for line_bytes in [4, 64] {
                    let hierarchy = tiny_hierarchy(line_bytes);
                    for timed in [false, true] {
                        let interp = run_on(EngineKind::Interp, &exe, &decoded, &hierarchy, timed);
                        let block = run_on(EngineKind::Decoded, &exe, &decoded, &hierarchy, timed);
                        assert_eq!(
                            block, interp,
                            "{}: inst_bytes {inst_bytes}, line_bytes {line_bytes}, timed {timed}",
                            exe.name
                        );
                    }
                }
            }
        }
    }
}

/// A loop whose six pieces sit in six I-lines of one L1I set of the
/// tiny hierarchy (four ways), joined by jumps: under LRU every fetch
/// run misses, so the handle each run left on its last visit has gone
/// stale by the next — the decoded loop's lookup path on every
/// iteration. Every counter, with and without the pipeline model, and
/// the full differential matrix equal the interpreter's.
#[test]
fn a_loop_thrashing_one_l1i_set_agrees_with_the_interpreter() {
    const PIECES: usize = 6;
    // Instructions between two I-lines of one set: four sets of
    // 64-byte lines, four-byte instructions.
    const SET_STRIDE: usize = 4 * 64 / 4;
    let target = TargetIsa::riscv_u74();
    assert_eq!(target.inst_bytes, 4);
    let mut b = ProgramBuilder::new();
    let pieces: Vec<_> = (0..PIECES).map(|_| b.new_label()).collect();
    b.push(Inst::Li {
        rd: Gpr(1),
        imm: DATA_BASE as i64,
    });
    b.push(Inst::Li {
        rd: Gpr(30),
        imm: 0,
    });
    b.push(Inst::Li {
        rd: Gpr(31),
        imm: 40,
    });
    b.jump(pieces[0]);
    for (k, &piece) in pieces.iter().enumerate() {
        while b.here() < k * SET_STRIDE + 8 {
            b.push(Inst::Halt);
        }
        b.bind(piece);
        b.push(Inst::Flw {
            fd: Fpr(1),
            rs: Gpr(1),
            imm: 4 * k as i64,
        });
        b.push(Inst::Fadd {
            fd: Fpr(2),
            fs1: Fpr(2),
            fs2: Fpr(1),
        });
        b.push(Inst::Fsw {
            fval: Fpr(2),
            rs: Gpr(1),
            imm: 64 + 4 * k as i64,
        });
        match pieces.get(k + 1) {
            Some(&next) => b.jump(next),
            None => {
                b.push(Inst::Addi {
                    rd: Gpr(30),
                    rs: Gpr(30),
                    imm: 1,
                });
                b.branch_lt(Gpr(30), Gpr(31), pieces[0]);
                b.push(Inst::Halt);
            }
        }
    }
    let prog = b.build().expect("valid program");
    let exe = Executable::new("thrash-one-l1i-set", prog, target)
        .with_segment(DATA_BASE, window_words(7));
    let decoded = exe.decode().expect("decodes");
    let hierarchy = HierarchyConfig::tiny_for_tests();
    for timed in [false, true] {
        let interp = run_on(EngineKind::Interp, &exe, &decoded, &hierarchy, timed);
        let block = run_on(EngineKind::Decoded, &exe, &decoded, &hierarchy, timed);
        assert_eq!(block, interp, "timed {timed}");
        let (stats, _) = block.expect("the loop runs to its halt");
        let l1i = stats.cache.l1i;
        assert_eq!(l1i.read_misses, 40 * PIECES as u64, "every visit misses");
        assert!(l1i.read_replacements > 0, "{l1i:?}");
    }
    assert_matrix_agrees(&exe);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// Random flat-loop programs through the shared differential matrix:
    /// every engine's full observable state vs the interpreter, every
    /// fidelity tier's contract vs accurate, and pooled multi-worker
    /// sessions (whose 3-trial batches run divergent per-lane data
    /// images) vs direct single-threaded runs.
    #[test]
    fn random_programs_agree_across_the_full_matrix(
        words in prop::collection::vec(0u64..u64::MAX, 4..40),
        iters in 1i64..8,
        target_sel in 0usize..3,
        data_seed in any::<u64>(),
    ) {
        let target = TargetIsa::paper_targets()[target_sel].clone();
        let prog = build_program(&words, iters);
        let decoded = DecodedProgram::decode(&prog, &target).expect("decodes");
        prop_assert_eq!(decoded.len(), prog.len());
        let exe = Executable::new("prop-random", prog, target)
            .with_segment(DATA_BASE, window_words(data_seed));
        assert_matrix_agrees(&exe);
    }

    /// Mini-torture programs (nested loops, irregular forward branches,
    /// guarded fault sites) through the same matrix — the proptest twin
    /// of the `torture_fuzz` gate.
    #[test]
    fn torture_programs_agree_across_the_full_matrix(seed in any::<u64>()) {
        let exe = DiffHarness::make_executable(
            "prop",
            &TortureConfig::baseline(),
            seed,
            seed ^ 0x5EED_DA7A,
        );
        assert_matrix_agrees(&exe);
    }

    /// Runs cut short by `max_insts`: decoded replay ends at the same
    /// retirement as the interpreter, with the same error and the same
    /// partial state, for budgets below the full length; budgets at or
    /// above it run to the end on both.
    #[test]
    fn decoded_runs_cut_by_max_insts_match_interpreter(
        words in prop::collection::vec(0u64..u64::MAX, 4..24),
        iters in 2i64..6,
        budget_percent in 5u64..150,
    ) {
        let target = &TargetIsa::arm_cortex_a72();
        let prog = build_program(&words, iters);
        let decoded = DecodedProgram::decode(&prog, target).expect("decodes");

        let full = run_engine(&InterpEngine::new(&prog), target, RunLimits::default());
        let total = full.result.expect("run succeeds").inst_mix.total();
        let limits = RunLimits { max_insts: (total * budget_percent / 100).max(1) };

        let interp = run_engine(&InterpEngine::new(&prog), target, limits);
        let fast = run_engine(&DecodedEngine::new(&decoded), target, limits);
        assert_outputs_identical(&interp, &fast);
        prop_assert_eq!(interp.result.is_ok(), limits.max_insts >= total);
    }
}
