use crate::{BranchPredictor, CycleBreakdown, StridePrefetcher, TargetSpec};
use simtune_cache::{CacheHierarchy, ServicedBy};
use simtune_isa::{MixClass, TimingHook, UopEvent, TIMING_REGS};

/// A 5-stage in-order pipeline timing model (IF/ID/EX/MEM/WB) driven by
/// the µop stream of a [`TimingHook`].
///
/// Where [`TimingModel`](crate::TimingModel) prices an aggregate
/// instruction mix in floating point, `PipelineModel` advances an
/// integer cycle clock one retirement at a time against a register
/// scoreboard:
///
/// * **RAW hazards / load-use bubbles** — every µop waits until its
///   source registers' results are ready; producers publish a
///   class-dependent result latency (loads one extra cycle, FP and
///   vector ops two), so a dependent chain stretches while independent
///   work hides the same latencies.
/// * **Front-end stalls** — instruction-fetch misses stall IF for half
///   the raw miss latency (sequential fetch overlaps the rest).
/// * **Memory stalls** — data-side misses charge the raw level latency
///   scaled by the target's miss-overlap factor (stores hide more,
///   retiring through the store buffer), buffered in MEM and paid when
///   the owning µop retires.
/// * **Control flushes** — branches resolve in EX against a
///   [`BranchPredictor`] with BTB and RAS; any front-end redirect
///   (wrong direction *or* missing target) costs the target's
///   mispredict penalty.
/// * **Prefetch** — a [`StridePrefetcher`] observes the demand stream
///   and fills the *shared* simulation hierarchy, so the pipelined
///   tier's cache statistics legitimately differ from the
///   instruction-accurate tier's.
///
/// All accounting is integral (`u64`), which makes cycle counts exactly
/// reproducible across replay engines and trial-parallelism degrees; by
/// construction `cycles() == retired + raw + memory + control ≥`
/// instruction count.
#[derive(Debug, Clone)]
pub struct PipelineModel {
    clock: u64,
    ready: [u64; TIMING_REGS],
    pending_fetch: u64,
    pending_mem: u64,
    branch_flush: bool,
    cur_pc: usize,
    retired: u64,
    raw_stalls: u64,
    memory_stalls: u64,
    control_stalls: u64,
    // Per-level stall tables, indexed by `level_idx` (L1, L2, L3, DRAM).
    fetch_stall: [u64; 4],
    load_stall: [u64; 4],
    store_stall: [u64; 4],
    mispredict_penalty: u64,
    freq_hz: f64,
    predictor: BranchPredictor,
    prefetcher: StridePrefetcher,
}

fn level_idx(serviced: ServicedBy) -> usize {
    match serviced {
        ServicedBy::L1i | ServicedBy::L1d => 0,
        ServicedBy::L2 => 1,
        ServicedBy::L3 => 2,
        ServicedBy::Memory => 3,
    }
}

impl PipelineModel {
    /// Creates a fresh pipeline for `spec` with a BTB of `btb_entries`
    /// slots and a RAS of `ras_depth` slots (the direction table is
    /// fixed at 1024 counters, matching [`TimingModel`](crate::TimingModel)).
    pub fn new(spec: &TargetSpec, btb_entries: usize, ras_depth: usize) -> Self {
        let t = &spec.timing;
        let raw = [0.0, t.l2_cycles, t.l3_cycles, t.mem_cycles];
        let store_overlap = (t.miss_overlap + 0.3).min(0.95);
        let mut fetch_stall = [0u64; 4];
        let mut load_stall = [0u64; 4];
        let mut store_stall = [0u64; 4];
        for (i, &r) in raw.iter().enumerate() {
            // In-order fetch overlaps half a front-end miss; data misses
            // are hidden by the target's overlap factor.
            fetch_stall[i] = (r * 0.5).round() as u64;
            load_stall[i] = (r * (1.0 - t.miss_overlap)).round() as u64;
            store_stall[i] = (r * (1.0 - store_overlap)).round() as u64;
        }
        PipelineModel {
            clock: 0,
            ready: [0; TIMING_REGS],
            pending_fetch: 0,
            pending_mem: 0,
            branch_flush: false,
            cur_pc: 0,
            retired: 0,
            raw_stalls: 0,
            memory_stalls: 0,
            control_stalls: 0,
            fetch_stall,
            load_stall,
            store_stall,
            mispredict_penalty: t.mispredict_penalty.round().max(1.0) as u64,
            freq_hz: spec.freq_hz,
            predictor: BranchPredictor::with_tables(1024, btb_entries, ras_depth),
            prefetcher: StridePrefetcher::new(
                t.prefetch_streams,
                t.prefetch_degree,
                spec.hierarchy.line_bytes(),
            ),
        }
    }

    /// Result latency of a µop class: how many cycles after issue the
    /// destination register becomes readable.
    fn result_latency(class: MixClass) -> u64 {
        match class {
            MixClass::Load => 2, // one load-use bubble
            MixClass::FpAlu | MixClass::VecAlu => 3,
            MixClass::IntAlu | MixClass::Store | MixClass::Branch | MixClass::Other => 1,
        }
    }

    /// Total cycles on the pipeline clock so far.
    pub fn cycles(&self) -> u64 {
        self.clock
    }

    /// µops retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Seconds at the target's clock frequency.
    pub fn seconds(&self) -> f64 {
        self.clock as f64 / self.freq_hz
    }

    /// Cycle accounting by source. `pipeline` is the hazard-free issue
    /// stream plus RAW/load-use stalls; `total()` equals [`cycles`](Self::cycles).
    pub fn breakdown(&self) -> CycleBreakdown {
        CycleBreakdown {
            pipeline: (self.retired + self.raw_stalls) as f64,
            memory: self.memory_stalls as f64,
            control: self.control_stalls as f64,
        }
    }

    /// Branch mispredictions (direction and BTB-redirect) observed.
    pub fn mispredicts(&self) -> u64 {
        self.predictor.mispredicts()
    }

    /// Prefetch requests issued into the hierarchy.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetcher.issued()
    }
}

impl TimingHook for PipelineModel {
    fn on_fetch(&mut self, pc: usize, serviced: ServicedBy) {
        self.cur_pc = pc;
        self.pending_fetch += self.fetch_stall[level_idx(serviced)];
    }

    fn on_mem(
        &mut self,
        line_addr: u64,
        is_store: bool,
        serviced: ServicedBy,
        hier: &mut CacheHierarchy,
    ) {
        let table = if is_store {
            &self.store_stall
        } else {
            &self.load_stall
        };
        self.pending_mem += table[level_idx(serviced)];
        self.prefetcher.observe(self.cur_pc, line_addr, hier);
    }

    fn on_branch(&mut self, pc: usize, target: usize, taken: bool) {
        if self.predictor.observe_with_target(pc, target, taken) {
            self.branch_flush = true;
        }
    }

    fn on_uop(&mut self, uop: &UopEvent) {
        // One issue slot per µop.
        self.clock += 1;
        self.retired += 1;
        // Front-end stall buffered by on_fetch.
        self.clock += self.pending_fetch;
        self.memory_stalls += self.pending_fetch;
        self.pending_fetch = 0;
        // RAW hazards: wait for the slowest source operand.
        let mut wait = 0;
        for src in uop.srcs.iter().flatten() {
            wait = wait.max(self.ready[src.index()].saturating_sub(self.clock));
        }
        self.clock += wait;
        self.raw_stalls += wait;
        // Data-side stall buffered by on_mem (MEM stage).
        self.clock += self.pending_mem;
        self.memory_stalls += self.pending_mem;
        self.pending_mem = 0;
        // Publish the result latency on the scoreboard (WB).
        if let Some(dst) = uop.dst {
            self.ready[dst.index()] = self.clock + (Self::result_latency(uop.class) - 1);
        }
        // Branch resolved wrong in EX: flush the younger fetches.
        if self.branch_flush {
            self.clock += self.mispredict_penalty;
            self.control_stalls += self.mispredict_penalty;
            self.branch_flush = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtune_cache::HierarchyConfig;
    use simtune_isa::{
        AtomicCpu, ExecEngine, Fpr, Gpr, Inst, InterpEngine, Memory, Program, ProgramBuilder,
        RunLimits, TimingBridge,
    };

    fn run(spec: &TargetSpec, prog: &Program) -> PipelineModel {
        let mut cpu = AtomicCpu::new(&spec.isa);
        let mut mem = Memory::new();
        let mut hier = simtune_cache::CacheHierarchy::new(spec.hierarchy.clone());
        let mut model = PipelineModel::new(spec, 512, 8);
        let mut bridge = TimingBridge::new(&mut model);
        InterpEngine::new(prog)
            .run_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits::default(),
                &mut bridge,
            )
            .unwrap();
        model
    }

    /// `n`-iteration loop with a data-dependent branch: taken when the
    /// iteration count modulo 3 is nonzero — hostile to a bimodal
    /// predictor.
    fn branchy_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li { rd: Gpr(1), imm: 0 }); // i
        b.push(Inst::Li { rd: Gpr(2), imm: n });
        b.push(Inst::Li { rd: Gpr(3), imm: 0 }); // acc
        let top = b.bind_new_label();
        // if i % 2 == 0 { acc += 1 } — emulated with shift/sub.
        b.push(Inst::Slli {
            rd: Gpr(4),
            rs: Gpr(1),
            shamt: 63,
        });
        let skip = b.new_label();
        b.branch_ne(Gpr(4), Gpr(5), skip);
        b.push(Inst::Addi {
            rd: Gpr(3),
            rs: Gpr(3),
            imm: 1,
        });
        b.bind(skip);
        b.push(Inst::Addi {
            rd: Gpr(1),
            rs: Gpr(1),
            imm: 1,
        });
        b.branch_lt(Gpr(1), Gpr(2), top);
        b.push(Inst::Halt);
        b.build().unwrap()
    }

    /// Straight-line FP chain of the same length, no data-dependent
    /// branches at all.
    fn straightline_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Fli {
            fd: Fpr(1),
            imm: 1.0,
        });
        for _ in 0..n {
            b.push(Inst::Fadd {
                fd: Fpr(1),
                fs1: Fpr(1),
                fs2: Fpr(1),
            });
        }
        b.push(Inst::Halt);
        b.build().unwrap()
    }

    #[test]
    fn cycles_dominate_instruction_count() {
        let spec = TargetSpec::riscv_u74();
        let model = run(&spec, &branchy_program(500));
        assert!(model.cycles() >= model.retired());
        assert!(model.retired() > 1000);
    }

    #[test]
    fn breakdown_sums_to_the_clock() {
        let spec = TargetSpec::x86_ryzen_5800x();
        let model = run(&spec, &branchy_program(300));
        assert_eq!(model.breakdown().total() as u64, model.cycles());
    }

    #[test]
    fn mispredictions_cost_control_cycles_only_when_branches_are_hard() {
        let spec = TargetSpec::arm_cortex_a72();
        let hostile = run(&spec, &branchy_program(400));
        let straight = run(&spec, &straightline_program(400));
        assert!(hostile.mispredicts() > 0);
        assert!(hostile.breakdown().control > 0.0);
        assert_eq!(
            straight.breakdown().control,
            0.0,
            "branch-free code must not pay flush cycles"
        );
    }

    #[test]
    fn dependent_chain_stalls_more_than_independent_work() {
        let spec = TargetSpec::riscv_u74();
        // Serial chain: every Fadd reads the previous result.
        let chain = run(&spec, &straightline_program(200));
        // Independent: round-robin over eight accumulators.
        let mut b = ProgramBuilder::new();
        for f in 1..=8u8 {
            b.push(Inst::Fli {
                fd: Fpr(f),
                imm: 1.0,
            });
        }
        for i in 0..200u8 {
            let f = Fpr(1 + i % 8);
            b.push(Inst::Fadd {
                fd: f,
                fs1: f,
                fs2: f,
            });
        }
        b.push(Inst::Halt);
        let indep = run(&spec, &b.build().unwrap());
        let chain_raw = chain.breakdown().pipeline - chain.retired() as f64;
        let indep_raw = indep.breakdown().pipeline - indep.retired() as f64;
        assert!(
            chain_raw > indep_raw * 4.0,
            "RAW scoreboard must punish serial chains: {chain_raw} vs {indep_raw}"
        );
    }

    #[test]
    fn identical_runs_produce_identical_cycles() {
        let spec = TargetSpec::x86_ryzen_5800x();
        let prog = branchy_program(250);
        let a = run(&spec, &prog);
        let b = run(&spec, &prog);
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.breakdown(), b.breakdown());
        assert_eq!(a.mispredicts(), b.mispredicts());
    }

    #[test]
    fn prefetcher_fills_the_shared_hierarchy() {
        let spec = TargetSpec::x86_ryzen_5800x();
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li {
            rd: Gpr(1),
            imm: 0x100_0000,
        });
        b.push(Inst::Li { rd: Gpr(2), imm: 0 });
        b.push(Inst::Li {
            rd: Gpr(3),
            imm: 4000,
        });
        let top = b.bind_new_label();
        b.push(Inst::Flw {
            fd: Fpr(1),
            rs: Gpr(1),
            imm: 0,
        });
        b.push(Inst::Addi {
            rd: Gpr(1),
            rs: Gpr(1),
            imm: 64,
        });
        b.push(Inst::Addi {
            rd: Gpr(2),
            rs: Gpr(2),
            imm: 1,
        });
        b.branch_lt(Gpr(2), Gpr(3), top);
        b.push(Inst::Halt);
        let model = run(&spec, &b.build().unwrap());
        assert!(model.prefetches_issued() > 0);
    }

    #[test]
    fn tiny_hierarchy_misses_cost_memory_cycles() {
        let mut spec = TargetSpec::riscv_u74();
        spec.hierarchy = HierarchyConfig::tiny_for_tests();
        spec.isa = simtune_isa::TargetIsa::riscv_u74();
        let model = run(&spec, &branchy_program(100));
        assert!(model.breakdown().memory > 0.0, "cold misses must be paid");
    }
}
