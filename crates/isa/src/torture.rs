//! Config-driven torture-program generator: structured random programs
//! for differential engine and backend testing.
//!
//! The differential suites pin every [`crate::ExecEngine`] and every
//! bundled simulation backend to the reference interpreter over
//! randomized programs. Flat instruction soup is easy to generate but
//! shallow — it rarely exercises the control-flow shapes where replay
//! engines can diverge (nested back-edges, forward branches over
//! sub-blocks, strided memory sweeps that hammer the cache model,
//! mid-run faults that peel lanes out of a lockstep batch). This module
//! generates *structured* torture programs instead, with the shape
//! dialed in by a [`TortureConfig`]: counted loop nests with irregular
//! forward branches, pathological memory-access patterns, optional
//! guarded fault sites, and a tunable scalar/vector instruction mix —
//! all derived deterministically from one `(config, seed)` pair so
//! failures replay exactly.
//!
//! # Invariants
//!
//! Every generated program, for every config and every seed:
//!
//! * **terminates** — loops are counter-driven with trip counts of at
//!   most [`TortureConfig::MAX_TRIP`] and nests of at most
//!   [`TortureConfig::MAX_DEPTH`] levels, forward branches converge,
//!   and the last instruction is `Halt`; the worst-case retirement is
//!   well under 100 000 instructions;
//! * keeps **every memory access inside the window** of
//!   [`TORTURE_WINDOW`] bytes above [`DATA_BASE`], 8-byte aligned with
//!   room for the widest (8-lane) vector access, so programs are safe
//!   to batch over arbitrary data segments;
//! * is **deterministic** — the same `(config, seed)` pair always
//!   yields a byte-identical program.
//!
//! These invariants are enforced by `crates/isa/tests/torture_generator.rs`
//! over the whole scenario corpus.
//!
//! A program generated with a nonzero [`TortureConfig::fault_rate`] may
//! *fault at runtime* (a guarded `Ecall` with an unimplemented syscall
//! code) — deliberately: the differential harness must prove that every
//! engine and backend reports the *same* error for the same program and
//! data. Faulting is data-dependent (the guard compares two scratch
//! registers), so the same program can fault in one batch lane and
//! complete in another.

use crate::{Fpr, Gpr, Inst, Program, ProgramBuilder, Vr, DATA_BASE};

/// Bytes of the data window torture programs read and write.
pub const TORTURE_WINDOW: u64 = 2048;

/// The unimplemented syscall code injected fault sites raise
/// ([`crate::SimError::UnknownSyscall`] at runtime).
pub const TORTURE_FAULT_CODE: u16 = 2;

// Register conventions: r1 = data base (never overwritten), r2..r9 and
// f0..f7 / v1..v5 scratch, r10+level loop counters, r16+level bounds.
const BASE: Gpr = Gpr(1);

/// How successive memory accesses walk the torture window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryPattern {
    /// Dense forward sweep: successive accesses step by one 8-byte
    /// slot — the friendliest possible pattern for caches/prefetchers.
    Sequential,
    /// A fixed per-loop stride drawn from a table of sub-line,
    /// line-straddling and page-ish jumps (relative to the tiny test
    /// hierarchies) — defeats simple locality assumptions.
    Strided,
    /// Every access lands on an independently drawn random slot —
    /// no spatial locality at all.
    Irregular,
    /// Most accesses hit a small per-loop hot region; occasional
    /// far jumps evict and re-fetch it — the "mostly cached with
    /// conflict spikes" shape.
    Clustered,
}

/// Shape parameters for one torture program. Construct via a preset
/// ([`TortureConfig::baseline`], [`TortureConfig::corpus`],
/// [`TortureConfig::by_name`]) or literal struct syntax; out-of-range
/// values are clamped at generation time (see the field docs), so every
/// config is safe to generate from.
#[derive(Debug, Clone, PartialEq)]
pub struct TortureConfig {
    /// Maximum loop-nest depth; the actual depth of a program is drawn
    /// uniformly from `1..=loop_depth`. Clamped to
    /// `1..=`[`TortureConfig::MAX_DEPTH`].
    pub loop_depth: u8,
    /// Maximum loop trip count; each loop's bound is drawn uniformly
    /// from `1..=max_trip`. Clamped to
    /// `1..=`[`TortureConfig::MAX_TRIP`].
    pub max_trip: u8,
    /// Instructions per loop body, drawn uniformly from
    /// `min..=max` (inclusive). Clamped to `1..=12` with `min <= max`.
    pub body_insts: (u8, u8),
    /// Percent chance (0–100) that a loop body contains an irregular
    /// forward branch over a random sub-block.
    pub branch_density: u8,
    /// How memory accesses walk the torture window.
    pub memory_pattern: MemoryPattern,
    /// Percent chance (0–100) that the program contains one guarded
    /// fault site (an `Ecall` raising
    /// [`crate::SimError::UnknownSyscall`] when two scratch registers
    /// happen to be equal at runtime).
    pub fault_rate: u8,
    /// Percent (0–100) of body instructions drawn from the
    /// float/vector pool instead of the scalar-integer pool.
    pub vector_mix: u8,
}

impl TortureConfig {
    /// Hard cap on [`TortureConfig::loop_depth`]: loop counters live in
    /// `r10+level` and bounds in `r16+level`, and the termination
    /// budget is sized for four levels.
    pub const MAX_DEPTH: u8 = 4;
    /// Hard cap on [`TortureConfig::max_trip`], keeping the worst-case
    /// retirement (trip^depth · body) comfortably under 100 000.
    pub const MAX_TRIP: u8 = 6;

    /// The all-round default: the shape the pre-config generator
    /// produced — a 1–3-deep strided nest with a coin-flip forward
    /// branch per body and a roughly even scalar/vector mix.
    pub fn baseline() -> Self {
        TortureConfig {
            loop_depth: 3,
            max_trip: 3,
            body_insts: (2, 6),
            branch_density: 50,
            memory_pattern: MemoryPattern::Strided,
            fault_rate: 0,
            vector_mix: 60,
        }
    }

    /// The named scenario corpus the fuzz harness cycles through. Each
    /// preset isolates one pathology so coverage reports can say *which
    /// class* of program a tier has been exercised against.
    pub fn corpus() -> Vec<(&'static str, TortureConfig)> {
        let b = TortureConfig::baseline;
        vec![
            ("baseline", b()),
            (
                "deep-nest",
                TortureConfig {
                    loop_depth: 4,
                    max_trip: 3,
                    body_insts: (2, 4),
                    branch_density: 30,
                    ..b()
                },
            ),
            (
                "branch-storm",
                TortureConfig {
                    loop_depth: 2,
                    body_insts: (3, 8),
                    branch_density: 100,
                    ..b()
                },
            ),
            (
                "mem-sequential",
                TortureConfig {
                    memory_pattern: MemoryPattern::Sequential,
                    ..b()
                },
            ),
            (
                "mem-irregular",
                TortureConfig {
                    memory_pattern: MemoryPattern::Irregular,
                    ..b()
                },
            ),
            (
                "mem-clustered",
                TortureConfig {
                    memory_pattern: MemoryPattern::Clustered,
                    max_trip: 5,
                    ..b()
                },
            ),
            (
                "vector-heavy",
                TortureConfig {
                    vector_mix: 95,
                    ..b()
                },
            ),
            (
                "scalar-int",
                TortureConfig {
                    vector_mix: 0,
                    ..b()
                },
            ),
            (
                "fault-prone",
                TortureConfig {
                    loop_depth: 2,
                    fault_rate: 100,
                    ..b()
                },
            ),
            (
                "tiny",
                TortureConfig {
                    loop_depth: 1,
                    max_trip: 2,
                    body_insts: (1, 3),
                    branch_density: 25,
                    ..b()
                },
            ),
        ]
    }

    /// Names of every corpus scenario, in corpus order.
    pub fn scenario_names() -> Vec<&'static str> {
        TortureConfig::corpus()
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    }

    /// Resolves a corpus preset by name.
    pub fn by_name(name: &str) -> Option<TortureConfig> {
        TortureConfig::corpus()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| c)
    }

    /// The config with every field clamped into its documented range —
    /// what the generator actually runs on.
    fn normalized(&self) -> TortureConfig {
        let (lo, hi) = self.body_insts;
        let hi = hi.clamp(1, 12);
        TortureConfig {
            loop_depth: self.loop_depth.clamp(1, Self::MAX_DEPTH),
            max_trip: self.max_trip.clamp(1, Self::MAX_TRIP),
            body_insts: (lo.clamp(1, hi), hi),
            branch_density: self.branch_density.min(100),
            memory_pattern: self.memory_pattern,
            fault_rate: self.fault_rate.min(100),
            vector_mix: self.vector_mix.min(100),
        }
    }
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig::baseline()
    }
}

/// Splitmix-style generator: deterministic, dependency-free, and good
/// enough to decorrelate the program shape from the seed.
struct TortureRng(u64);

impl TortureRng {
    fn new(seed: u64) -> Self {
        TortureRng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `0..n` (n must be nonzero).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with `percent` in 100 probability.
    fn chance(&mut self, percent: u8) -> bool {
        self.below(100) < percent as u64
    }
}

/// 8-byte slots in the window, leaving room for the widest (8-lane,
/// 32-byte) access; offsets are `slot * 8`, valid for every width.
const WINDOW_SLOTS: u64 = (TORTURE_WINDOW - 32) / 8;

/// Strides chosen to defeat simple prefetch/locality assumptions:
/// sub-line, line-straddling, and page-ish jumps relative to the tiny
/// test hierarchies.
const STRIDES: [u64; 6] = [4, 12, 28, 60, 124, 508];

/// Generator state threaded through one program emission.
struct Torture {
    rng: TortureRng,
    cfg: TortureConfig,
    /// Monotone access counter for the stride-driven patterns.
    access: u64,
    /// Current byte stride between successive accesses (stride modes).
    stride: u64,
    /// First slot of the current hot region (clustered mode).
    hot_slot: u64,
    /// One fault site per program at most; cleared once emitted.
    fault_pending: bool,
}

impl Torture {
    /// Next access offset inside the window, by the configured pattern.
    /// Always 8-byte aligned and `<= TORTURE_WINDOW - 32`.
    fn offset(&mut self) -> i64 {
        let slot = match self.cfg.memory_pattern {
            MemoryPattern::Sequential => {
                self.access = self.access.wrapping_add(1);
                self.access % WINDOW_SLOTS
            }
            MemoryPattern::Strided => {
                self.access = self.access.wrapping_add(self.stride);
                self.access % WINDOW_SLOTS
            }
            MemoryPattern::Irregular => self.rng.below(WINDOW_SLOTS),
            MemoryPattern::Clustered => {
                // 7-in-8 accesses stay inside a 32-slot (256-byte) hot
                // region; the rest jump anywhere in the window.
                if self.rng.below(8) < 7 {
                    (self.hot_slot + self.rng.below(32)) % WINDOW_SLOTS
                } else {
                    self.rng.below(WINDOW_SLOTS)
                }
            }
        };
        (slot * 8) as i64
    }

    /// Re-draws the per-loop pattern state (stride / hot region).
    fn reseed_pattern(&mut self) {
        self.stride = STRIDES[self.rng.below(STRIDES.len() as u64) as usize];
        self.hot_slot = self.rng.below(WINDOW_SLOTS);
    }

    fn scratch_g(&mut self) -> Gpr {
        Gpr(2 + self.rng.below(8) as u8)
    }

    fn scratch_f(&mut self) -> Fpr {
        Fpr(self.rng.below(8) as u8)
    }

    fn scratch_v(&mut self) -> Vr {
        Vr(1 + self.rng.below(5) as u8)
    }

    /// Emits one random body instruction from the pool selected by the
    /// configured scalar/vector mix.
    fn emit_inst(&mut self, b: &mut ProgramBuilder) {
        if self.rng.chance(self.cfg.vector_mix) {
            self.emit_fp_vec_inst(b);
        } else {
            self.emit_int_inst(b);
        }
    }

    /// Scalar-integer pool: ALU ops plus 8-byte loads/stores.
    fn emit_int_inst(&mut self, b: &mut ProgramBuilder) {
        let (rd, rs1, rs2) = (self.scratch_g(), self.scratch_g(), self.scratch_g());
        match self.rng.below(9) {
            0 => {
                b.push(Inst::Li {
                    rd,
                    imm: self.rng.below(512) as i64 - 256,
                });
            }
            1 => {
                b.push(Inst::Addi {
                    rd,
                    rs: rs1,
                    imm: self.rng.below(32) as i64 - 16,
                });
            }
            2 => {
                b.push(Inst::Add { rd, rs1, rs2 });
            }
            3 => {
                b.push(Inst::Sub { rd, rs1, rs2 });
            }
            4 => {
                b.push(Inst::Mul { rd, rs1, rs2 });
            }
            5 => {
                b.push(Inst::Slli {
                    rd,
                    rs: rs1,
                    shamt: self.rng.below(8) as u8,
                });
            }
            6 => {
                b.push(Inst::Mv { rd, rs: rs1 });
            }
            7 => {
                let imm = self.offset();
                b.push(Inst::Ld { rd, rs: BASE, imm });
            }
            _ => {
                let imm = self.offset();
                b.push(Inst::Sd {
                    rval: rs1,
                    rs: BASE,
                    imm,
                });
            }
        }
    }

    /// Float/vector pool: FP ALU (including the NaN-capable divide),
    /// FMA, and vector loads/stores/reductions.
    fn emit_fp_vec_inst(&mut self, b: &mut ProgramBuilder) {
        let (fd, fs1, fs2) = (self.scratch_f(), self.scratch_f(), self.scratch_f());
        let (vd, vs1, vs2) = (self.scratch_v(), self.scratch_v(), self.scratch_v());
        match self.rng.below(11) {
            0 => {
                b.push(Inst::Fli {
                    fd,
                    imm: self.rng.below(4096) as f32 / 32.0 - 64.0,
                });
            }
            1 => {
                let imm = self.offset();
                b.push(Inst::Flw { fd, rs: BASE, imm });
            }
            2 => {
                let imm = self.offset();
                b.push(Inst::Fsw {
                    fval: fs1,
                    rs: BASE,
                    imm,
                });
            }
            3 => {
                b.push(Inst::Fadd { fd, fs1, fs2 });
            }
            4 => {
                b.push(Inst::Fmul { fd, fs1, fs2 });
            }
            5 => {
                b.push(Inst::Fmadd {
                    fd,
                    fs1,
                    fs2,
                    fs3: self.scratch_f(),
                });
            }
            6 => {
                b.push(Inst::Fdiv { fd, fs1, fs2 });
            }
            7 => {
                let imm = self.offset();
                b.push(Inst::Vload { vd, rs: BASE, imm });
            }
            8 => {
                let imm = self.offset();
                b.push(Inst::Vstore {
                    vval: vs1,
                    rs: BASE,
                    imm,
                });
            }
            9 => {
                b.push(Inst::Vfma { vd, vs1, vs2 });
            }
            _ => {
                b.push(Inst::Vredsum { fd, vs: vs1 });
            }
        }
    }

    /// Emits the program's single guarded fault site: an `Ecall` with
    /// an unimplemented code, skipped unless two scratch registers are
    /// equal at runtime — so the same program faults on some data
    /// images and completes on others.
    fn emit_fault_site(&mut self, b: &mut ProgramBuilder) {
        let skip = b.new_label();
        let (a, c) = (self.scratch_g(), self.scratch_g());
        b.branch_ne(a, c, skip);
        b.push(Inst::Ecall {
            code: TORTURE_FAULT_CODE,
        });
        b.bind(skip);
    }

    /// Emits a counted loop at nesting `level` (0 = innermost): a body
    /// of random instructions, an optional irregular forward branch
    /// over a sub-block, an optional deeper nest, and the back-edge.
    fn emit_loop(&mut self, b: &mut ProgramBuilder, level: u8) {
        let ctr = Gpr(10 + level);
        let bound = Gpr(16 + level);
        b.push(Inst::Li { rd: ctr, imm: 0 });
        b.push(Inst::Li {
            rd: bound,
            imm: 1 + self.rng.below(self.cfg.max_trip as u64) as i64,
        });
        let top = b.bind_new_label();
        self.reseed_pattern();
        let (lo, hi) = self.cfg.body_insts;
        for _ in 0..lo as u64 + self.rng.below((hi - lo + 1) as u64) {
            self.emit_inst(b);
        }
        if self.fault_pending && level == 0 {
            self.fault_pending = false;
            self.emit_fault_site(b);
        }
        if self.rng.chance(self.cfg.branch_density) {
            // Irregular forward branch: skip a sub-block depending on
            // two scratch registers; both paths converge at `join`.
            let join = b.new_label();
            let (a, c) = (self.scratch_g(), self.scratch_g());
            match self.rng.below(3) {
                0 => b.branch_ne(a, c, join),
                1 => b.branch_lt(a, c, join),
                _ => b.branch_ge(a, c, join),
            }
            for _ in 0..1 + self.rng.below(3) {
                self.emit_inst(b);
            }
            b.bind(join);
        }
        if level > 0 {
            self.emit_loop(b, level - 1);
        }
        b.push(Inst::Addi {
            rd: ctr,
            rs: ctr,
            imm: 1,
        });
        b.branch_lt(ctr, bound, top);
    }
}

/// Generates one torture program from a `(config, seed)` pair — the
/// journaled identity every repro replays from. See the module docs
/// for the invariants (termination, window containment, determinism)
/// that hold for every config and seed.
pub fn torture_program_with(config: &TortureConfig, seed: u64) -> Program {
    let cfg = config.normalized();
    let mut t = Torture {
        rng: TortureRng::new(seed),
        access: 0,
        stride: 4,
        hot_slot: 0,
        fault_pending: false,
        cfg,
    };
    let mut b = ProgramBuilder::new();
    b.push(Inst::Li {
        rd: BASE,
        imm: DATA_BASE as i64,
    });
    for i in 0..4u8 {
        b.push(Inst::Li {
            rd: Gpr(2 + i),
            imm: t.rng.below(256) as i64 - 128,
        });
    }
    for i in 0..3u8 {
        b.push(Inst::Fli {
            fd: Fpr(i),
            imm: t.rng.below(256) as f32 / 8.0 - 16.0,
        });
    }
    let depth = t.rng.below(t.cfg.loop_depth as u64) as u8; // nest depth 1..=loop_depth
    t.fault_pending = t.rng.chance(t.cfg.fault_rate);
    t.emit_loop(&mut b, depth);
    b.push(Inst::Halt);
    b.build()
        .expect("torture programs are structurally valid by construction")
}

/// Generates one torture program from `seed` under the
/// [`TortureConfig::baseline`] preset — the one-argument convenience
/// the engine-equivalence proptests use.
pub fn torture_program(seed: u64) -> Program {
    torture_program_with(&TortureConfig::baseline(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AtomicCpu, ExecEngine, InterpEngine, Memory, NoopHook, RunLimits, SimError, TargetIsa,
    };
    use simtune_cache::{CacheHierarchy, HierarchyConfig};

    #[test]
    fn same_seed_same_program() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(torture_program(seed), torture_program(seed));
        }
        assert_ne!(torture_program(1), torture_program(2));
    }

    #[test]
    fn corpus_presets_resolve_by_name_and_differ() {
        for (name, cfg) in TortureConfig::corpus() {
            assert_eq!(TortureConfig::by_name(name), Some(cfg));
        }
        assert_eq!(TortureConfig::by_name("no-such-scenario"), None);
        let names = TortureConfig::scenario_names();
        assert!(names.len() >= 8, "corpus should stay broad: {names:?}");
        // Distinct scenarios generate distinct programs for one seed.
        assert_ne!(
            torture_program_with(&TortureConfig::by_name("deep-nest").unwrap(), 3),
            torture_program_with(&TortureConfig::by_name("scalar-int").unwrap(), 3),
        );
    }

    #[test]
    fn out_of_range_configs_are_clamped_not_rejected() {
        let wild = TortureConfig {
            loop_depth: 200,
            max_trip: 99,
            body_insts: (7, 200),
            branch_density: 255,
            fault_rate: 255,
            vector_mix: 255,
            memory_pattern: MemoryPattern::Irregular,
        };
        // Must generate (and terminate) without panicking.
        let prog = torture_program_with(&wild, 9);
        let target = TargetIsa::riscv_u74();
        let mut cpu = AtomicCpu::new(&target);
        let mut mem = Memory::new();
        let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
        let run = InterpEngine::new(&prog).run_with_hook(
            &mut cpu,
            &mut mem,
            &mut hier,
            RunLimits { max_insts: 100_000 },
            &mut NoopHook,
        );
        match run {
            Ok(stats) => assert!(stats.inst_mix.total() > 0),
            // fault_rate 255 clamps to 100: a guarded fault may fire.
            Err(SimError::UnknownSyscall { code }) => assert_eq!(code, TORTURE_FAULT_CODE),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn torture_programs_decode_for_every_paper_target() {
        for (name, cfg) in TortureConfig::corpus() {
            for seed in 0..8 {
                let prog = torture_program_with(&cfg, seed);
                for target in TargetIsa::paper_targets() {
                    crate::DecodedProgram::decode(&prog, &target)
                        .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                }
            }
        }
    }

    #[test]
    fn fault_prone_scenario_faults_on_some_seeds_only() {
        let cfg = TortureConfig::by_name("fault-prone").unwrap();
        let target = TargetIsa::riscv_u74();
        let (mut faulted, mut completed) = (0, 0);
        for seed in 0..64 {
            let prog = torture_program_with(&cfg, seed);
            let mut cpu = AtomicCpu::new(&target);
            let mut mem = Memory::new();
            let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
            match InterpEngine::new(&prog).run_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits { max_insts: 100_000 },
                &mut NoopHook,
            ) {
                Ok(_) => completed += 1,
                Err(SimError::UnknownSyscall { code }) => {
                    assert_eq!(code, TORTURE_FAULT_CODE);
                    faulted += 1;
                }
                Err(e) => panic!("seed {seed}: unexpected error {e}"),
            }
        }
        assert!(faulted > 0, "guard must fire for some seeds");
        assert!(completed > 0, "guard must hold for some seeds");
    }
}
