use crate::{BranchPredictor, StridePrefetcher, TargetSpec};
use simtune_cache::{CacheHierarchy, ServicedBy};
use simtune_isa::{ExecHook, Inst, MixClass, UopEvent};

/// Cycle accounting of one timing run, split by source.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleBreakdown {
    /// Cycles from issue-slot occupancy (`slots / issue_width`).
    pub pipeline: f64,
    /// Cycles from partially-overlapped cache/memory miss latencies.
    pub memory: f64,
    /// Cycles from branch mispredictions.
    pub control: f64,
}

impl CycleBreakdown {
    /// Total cycles.
    pub fn total(&self) -> f64 {
        self.pipeline + self.memory + self.control
    }
}

/// The timing-accurate execution observer: the [`ExecHook`] a board run
/// hands to [`simtune_isa::replay`], pricing every event it reports —
/// each retirement by its µop class, each fetch and data access by the
/// level that serviced it, each branch by the direction predictor.
///
/// Unlike the instruction-accurate path, the timing model owns a stride
/// prefetcher (which mutates its private cache hierarchy) and a branch
/// predictor — the sources of systematic mismatch between simulator
/// statistics and target runtime that the paper's score predictors must
/// learn around.
#[derive(Debug)]
pub struct TimingModel {
    spec: TargetSpec,
    slots: f64,
    memory_cycles: f64,
    control_cycles: f64,
    prefetcher: StridePrefetcher,
    predictor: BranchPredictor,
}

impl TimingModel {
    /// Creates a fresh timing model for `spec`.
    pub fn new(spec: &TargetSpec) -> Self {
        let line = spec.hierarchy.line_bytes();
        TimingModel {
            spec: spec.clone(),
            slots: 0.0,
            memory_cycles: 0.0,
            control_cycles: 0.0,
            prefetcher: StridePrefetcher::new(
                spec.timing.prefetch_streams,
                spec.timing.prefetch_degree,
                line,
            ),
            predictor: BranchPredictor::new(1024),
        }
    }

    /// Cycle breakdown accumulated so far.
    pub fn breakdown(&self) -> CycleBreakdown {
        CycleBreakdown {
            pipeline: self.slots / self.spec.timing.issue_width,
            memory: self.memory_cycles,
            control: self.control_cycles,
        }
    }

    /// Total cycles accumulated so far.
    pub fn cycles(&self) -> f64 {
        self.breakdown().total()
    }

    /// Seconds at the target's clock frequency.
    pub fn seconds(&self) -> f64 {
        self.cycles() / self.spec.freq_hz
    }

    /// Prefetch requests issued by the model's stride prefetcher.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetcher.issued()
    }

    /// Branch mispredictions observed.
    pub fn mispredicts(&self) -> u64 {
        self.predictor.mispredicts()
    }

    /// Charges the issue slots of one retired µop of `class`.
    fn charge(&mut self, class: MixClass) {
        let t = &self.spec.timing;
        self.slots += match class {
            MixClass::Load => t.load_cost,
            MixClass::Store => t.store_cost,
            MixClass::Branch => t.branch_cost,
            MixClass::FpAlu => t.fp_cost,
            MixClass::VecAlu => t.vec_cost,
            MixClass::IntAlu | MixClass::Other => t.int_cost,
        };
    }
}

impl ExecHook for TimingModel {
    fn on_fetch(&mut self, _pc: usize, serviced: ServicedBy) {
        // I-cache misses stall the front end; overlap does not apply
        // (in-order fetch).
        let t = &self.spec.timing;
        self.memory_cycles += match serviced {
            ServicedBy::L1i | ServicedBy::L1d => 0.0,
            ServicedBy::L2 => t.l2_cycles * 0.5,
            ServicedBy::L3 => t.l3_cycles * 0.5,
            ServicedBy::Memory => t.mem_cycles * 0.5,
        };
    }

    fn on_retire(&mut self, inst: &Inst) {
        self.charge(MixClass::of(inst));
    }

    fn on_block(&mut self, _start: usize, uops: &[UopEvent]) {
        // Issue slots add up in their own accumulator, so charging a
        // block's µops after its fetch and data events gives the
        // per-instruction order's bits; so does hearing only a fetch
        // run's first fetch, as an L1I hit adds nothing.
        for uop in uops {
            self.charge(uop.class);
        }
    }

    fn on_data_access(
        &mut self,
        pc: usize,
        line_addr: u64,
        is_store: bool,
        serviced: ServicedBy,
        hier: &mut CacheHierarchy,
    ) {
        let t = &self.spec.timing;
        let raw = match serviced {
            ServicedBy::L1d | ServicedBy::L1i => 0.0,
            ServicedBy::L2 => t.l2_cycles,
            ServicedBy::L3 => t.l3_cycles,
            ServicedBy::Memory => t.mem_cycles,
        };
        // Stores retire through the store buffer: more latency is hidden.
        let overlap = if is_store {
            (t.miss_overlap + 0.3).min(0.95)
        } else {
            t.miss_overlap
        };
        self.memory_cycles += raw * (1.0 - overlap);
        self.prefetcher.observe(pc, line_addr, hier);
    }

    fn on_branch(&mut self, pc: usize, _target: usize, taken: bool) {
        if self.predictor.observe(pc, taken) {
            self.control_cycles += self.spec.timing.mispredict_penalty;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtune_isa::{
        AtomicCpu, ExecEngine, Gpr, Inst, InterpEngine, Memory, ProgramBuilder, RunLimits,
    };

    /// Streaming-sum program over `n` f32 elements starting at `base`.
    fn streaming_program(n: i64, stride: i64) -> simtune_isa::Program {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li {
            rd: Gpr(1),
            imm: 0x100_0000,
        });
        b.push(Inst::Li { rd: Gpr(2), imm: 0 }); // i
        b.push(Inst::Li { rd: Gpr(3), imm: n });
        let top = b.bind_new_label();
        b.push(Inst::Flw {
            fd: simtune_isa::Fpr(1),
            rs: Gpr(1),
            imm: 0,
        });
        b.push(Inst::Addi {
            rd: Gpr(1),
            rs: Gpr(1),
            imm: stride,
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

    fn run_timing(spec: &TargetSpec, prog: &simtune_isa::Program) -> TimingModel {
        let mut cpu = AtomicCpu::new(&spec.isa);
        let mut mem = Memory::new();
        let mut hier = simtune_cache::CacheHierarchy::new(spec.hierarchy.clone());
        let mut model = TimingModel::new(spec);
        InterpEngine::new(prog)
            .run_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits::default(),
                &mut model,
            )
            .unwrap();
        model
    }

    #[test]
    fn cycles_are_positive_and_decomposed() {
        let spec = TargetSpec::riscv_u74();
        let model = run_timing(&spec, &streaming_program(1000, 4));
        let b = model.breakdown();
        assert!(b.pipeline > 0.0);
        assert!(b.memory > 0.0, "cold misses must cost memory cycles");
        assert!((b.total() - model.cycles()).abs() < 1e-9);
        assert!(model.seconds() > 0.0);
    }

    #[test]
    fn prefetcher_reduces_memory_cycles_for_streams() {
        // Same program, one target with and one without prefetching.
        let spec_pf = TargetSpec::x86_ryzen_5800x();
        let mut spec_nopf = spec_pf.clone();
        spec_nopf.timing.prefetch_streams = 0;
        let prog = streaming_program(4000, 4);
        let with_pf = run_timing(&spec_pf, &prog);
        let without = run_timing(&spec_nopf, &prog);
        assert!(with_pf.prefetches_issued() > 0);
        assert!(
            with_pf.breakdown().memory < without.breakdown().memory * 0.7,
            "prefetching must hide a chunk of miss latency: {} vs {}",
            with_pf.breakdown().memory,
            without.breakdown().memory
        );
    }

    #[test]
    fn in_order_core_pays_more_per_miss() {
        // Same line-per-iteration stream, prefetchers disabled on both
        // targets: the miss counts are identical, so the paid memory
        // cycles compare the out-of-order overlap directly. The U74
        // (overlap 0.05) pays far more of the raw latency than the
        // Ryzen-like core (overlap 0.65).
        let prog = streaming_program(2000, 64);
        let mut x86 = TargetSpec::x86_ryzen_5800x();
        x86.timing.prefetch_streams = 0;
        let mut riscv = TargetSpec::riscv_u74();
        riscv.timing.prefetch_streams = 0;
        let mx = run_timing(&x86, &prog);
        let mr = run_timing(&riscv, &prog);
        assert!(
            mr.breakdown().memory > mx.breakdown().memory * 1.5,
            "in-order core must pay more miss latency: {} vs {}",
            mr.breakdown().memory,
            mx.breakdown().memory
        );
    }

    #[test]
    fn loop_branches_cost_little_after_warmup() {
        let spec = TargetSpec::arm_cortex_a72();
        let model = run_timing(&spec, &streaming_program(1000, 4));
        // 1000-iteration loop: a handful of mispredicts at most.
        assert!(model.mispredicts() < 5);
    }

    #[test]
    fn faster_clock_means_fewer_seconds_for_same_cycles() {
        let prog = streaming_program(500, 4);
        let x86 = run_timing(&TargetSpec::x86_ryzen_5800x(), &prog);
        let riscv = run_timing(&TargetSpec::riscv_u74(), &prog);
        // Same instruction stream: the wide 2.2 GHz core is much faster.
        assert!(x86.seconds() < riscv.seconds());
    }
}
