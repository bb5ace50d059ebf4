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
///
/// # A block at a time
///
/// On the decoded engine the model hears one `on_block` per basic block
/// instead of one `on_uop` per µop, and times the block in one of two
/// ways. A block that saw a fetch or data stall, or is not yet hot (two
/// stall-free visits), goes through the per-µop step the interpreter
/// path takes. A hot block that stalled on nothing takes its cached
/// issue schedule instead, which is exact because no result is ever
/// ready more than two cycles past the clock (the longest result
/// latency is three):
///
/// * only the block's first µop can wait on a register written before
///   the block, so the block's end clock is `max(entry clock + 1, the
///   first µop's sources' ready times) + span`, with `span` fixed by
///   the block's own dependences;
/// * only the last two µops can leave a register pending past that end
///   clock, so the schedule writes just their destinations. Every
///   other destination the block writes is ready by the end clock, as
///   is the value it replaces; no later µop can tell those apart.
///
/// Schedules sit in a direct-mapped table inside the model, keyed by the
/// address of the block's µops. A model is one trial's: it must not time
/// a second program decoded where a first one it timed was dropped.
/// Either way the model ends in the state the per-µop interpreter path
/// reaches: the same clock, counters and pending registers.
#[derive(Debug, Clone)]
pub struct PipelineModel {
    clock: u64,
    /// When each register's value is readable; the slot past the last
    /// register is never written and pads a schedule's missing sources.
    ready: [u64; TIMING_REGS + 1],
    /// Fetch and data stalls of µops that have not retired yet.
    stalls: StallLog,
    branch_flush: bool,
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
    schedules: [Schedule; SCHEDULES],
}

/// Longest result latency less one: how far past the clock a register
/// can be ready. The block schedule is exact only while no class's
/// [`result_latency`] exceeds `MAX_PENDING + 1`; the proptests below
/// check it against the per-µop step over every class.
const MAX_PENDING: u64 = 2;

/// Stall-free visits that make a block hot: the earlier ones take the
/// per-µop path, the last builds the block's schedule and takes it.
const HOT_VISITS: u32 = 2;

/// Schedule slots, a power of two; a block's slot is its first pc
/// modulo the count.
const SCHEDULES: usize = 64;

/// Stalled µops one block logs in the model before the log goes to the
/// heap.
const INLINE_STALLS: usize = 16;

/// Pads [`Schedule::first_srcs`]: the register slot no µop writes.
const NO_REG: u8 = TIMING_REGS as u8;

fn level_idx(serviced: ServicedBy) -> usize {
    match serviced {
        ServicedBy::L1i | ServicedBy::L1d => 0,
        ServicedBy::L2 => 1,
        ServicedBy::L3 => 2,
        ServicedBy::Memory => 3,
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

/// The fetch and data stall charged to the µop at `pc`.
#[derive(Debug, Clone, Copy, Default)]
struct Stall {
    pc: usize,
    fetch: u64,
    mem: u64,
}

/// The stalls of the µops between two retirements (per µop: of one
/// µop; per block: of the block), in pc order, one entry per µop.
#[derive(Debug, Clone)]
struct StallLog {
    inline: [Stall; INLINE_STALLS],
    len: usize,
    /// Entries past the inline ones: empty, and unallocated, unless one
    /// block stalls on more µops than fit inline.
    spill: Vec<Stall>,
}

impl StallLog {
    fn new() -> Self {
        StallLog {
            inline: [Stall::default(); INLINE_STALLS],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn get(&self, i: usize) -> Option<Stall> {
        if i >= self.len {
            None
        } else if i < INLINE_STALLS {
            Some(self.inline[i])
        } else {
            Some(self.spill[i - INLINE_STALLS])
        }
    }

    fn log(&mut self, pc: usize, fetch: u64, mem: u64) {
        let last = match self.len {
            0 => None,
            n if n <= INLINE_STALLS => Some(&mut self.inline[n - 1]),
            _ => self.spill.last_mut(),
        };
        if let Some(last) = last.filter(|s| s.pc == pc) {
            last.fetch += fetch;
            last.mem += mem;
            return;
        }
        let stall = Stall { pc, fetch, mem };
        if self.len < INLINE_STALLS {
            self.inline[self.len] = stall;
        } else {
            self.spill.push(stall);
        }
        self.len += 1;
    }

    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

/// One block's issue schedule, relative to the clock after its first
/// µop, plus the visit count that decides when to build it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Schedule {
    /// Address of the block's first µop; 0 while the slot is empty.
    key: usize,
    /// µops in the block.
    len: usize,
    visits: u32,
    built: bool,
    /// Registers the first µop reads, padded with [`NO_REG`].
    first_srcs: [u8; 3],
    /// End clock less the clock after the first µop.
    span: u32,
    /// Registers the last two µops leave, each with its ready time
    /// relative to the clock after the first µop.
    writes: u8,
    write_regs: [u8; MAX_PENDING as usize],
    write_at: [u32; MAX_PENDING as usize],
}

impl Schedule {
    /// A slot for a block seen once.
    fn cold(key: usize, len: usize) -> Self {
        Schedule {
            key,
            len,
            visits: 1,
            ..Schedule::default()
        }
    }

    /// Builds the schedule of `uops`: the per-µop step, run from the
    /// clock after the first µop as zero, where a register the block has
    /// not written reads as ready (only the first µop could wait on
    /// one). `None` when a time does not fit the slot's fields.
    fn build(key: usize, uops: &[UopEvent]) -> Option<Schedule> {
        let mut rel = [0u64; TIMING_REGS];
        let mut clock = 0u64;
        for (i, uop) in uops.iter().enumerate() {
            if i > 0 {
                clock += 1;
                for src in uop.srcs.iter().flatten() {
                    clock = clock.max(rel[src.index()]);
                }
            }
            if let Some(dst) = uop.dst {
                rel[dst.index()] = clock + (result_latency(uop.class) - 1);
            }
        }
        let mut s = Schedule {
            key,
            len: uops.len(),
            visits: HOT_VISITS,
            built: true,
            first_srcs: [NO_REG; 3],
            span: u32::try_from(clock).ok()?,
            ..Schedule::default()
        };
        for (slot, src) in s.first_srcs.iter_mut().zip(uops.first()?.srcs) {
            if let Some(src) = src {
                *slot = src.index() as u8;
            }
        }
        let tail = uops.len().saturating_sub(MAX_PENDING as usize);
        for uop in &uops[tail..] {
            let Some(dst) = uop.dst else { continue };
            let reg = dst.index() as u8;
            if s.write_regs[..usize::from(s.writes)].contains(&reg) {
                continue;
            }
            s.write_regs[usize::from(s.writes)] = reg;
            s.write_at[usize::from(s.writes)] = u32::try_from(rel[dst.index()]).ok()?;
            s.writes += 1;
        }
        Some(s)
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
            ready: [0; TIMING_REGS + 1],
            stalls: StallLog::new(),
            branch_flush: false,
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
            schedules: [Schedule::default(); SCHEDULES],
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

    /// Retires one µop that stalled `fetch` cycles in IF and `mem` in
    /// MEM.
    fn step(&mut self, uop: &UopEvent, fetch: u64, mem: u64) {
        // One issue slot per µop, after the front-end stall.
        self.clock += 1 + fetch;
        self.retired += 1;
        self.memory_stalls += fetch + mem;
        // RAW hazards: wait for the slowest source operand.
        let mut wait = 0;
        for src in uop.srcs.iter().flatten() {
            wait = wait.max(self.ready[src.index()].saturating_sub(self.clock));
        }
        self.clock += wait;
        self.raw_stalls += wait;
        // Data-side stall (MEM stage).
        self.clock += mem;
        // Publish the result latency on the scoreboard (WB).
        if let Some(dst) = uop.dst {
            self.ready[dst.index()] = self.clock + (result_latency(uop.class) - 1);
        }
    }

    /// Retires a whole stall-free block along its schedule.
    fn apply(&mut self, s: &Schedule) {
        let c0 = self.clock;
        let c1 = s
            .first_srcs
            .iter()
            .fold(c0 + 1, |c, &r| c.max(self.ready[usize::from(r)]));
        for (&reg, &at) in s
            .write_regs
            .iter()
            .zip(&s.write_at)
            .take(usize::from(s.writes))
        {
            self.ready[usize::from(reg)] = c1 + u64::from(at);
        }
        let end = c1 + u64::from(s.span);
        let len = s.len as u64;
        self.clock = end;
        self.retired += len;
        self.raw_stalls += end - c0 - len;
    }

    /// The block starting at `start`'s schedule, when it is built and
    /// may stand in for the per-µop steps.
    fn hot_schedule(&mut self, start: usize, uops: &[UopEvent]) -> Option<Schedule> {
        if !self.stalls.is_empty() {
            return None;
        }
        let key = uops.as_ptr() as usize;
        let slot = &mut self.schedules[start & (SCHEDULES - 1)];
        if slot.key != key || slot.len != uops.len() {
            *slot = Schedule::cold(key, uops.len());
            return None;
        }
        if !slot.built {
            slot.visits = slot.visits.saturating_add(1);
            if slot.visits < HOT_VISITS {
                return None;
            }
            *slot = Schedule::build(key, uops)?;
        }
        // A slot keyed by the address of a dropped program's µops could
        // match a later program's block; the model is one trial's.
        debug_assert_eq!(Schedule::build(key, uops), Some(*slot), "stale schedule");
        Some(*slot)
    }

    /// A branch resolved wrong in EX: flush the younger fetches.
    fn settle_flush(&mut self) {
        if self.branch_flush {
            self.clock += self.mispredict_penalty;
            self.control_stalls += self.mispredict_penalty;
            self.branch_flush = false;
        }
    }
}

impl TimingHook for PipelineModel {
    fn on_fetch(&mut self, pc: usize, serviced: ServicedBy) {
        let stall = self.fetch_stall[level_idx(serviced)];
        if stall != 0 {
            self.stalls.log(pc, stall, 0);
        }
    }

    fn on_mem(
        &mut self,
        pc: usize,
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
        let stall = table[level_idx(serviced)];
        if stall != 0 {
            self.stalls.log(pc, 0, stall);
        }
        self.prefetcher.observe(pc, line_addr, hier);
    }

    fn on_branch(&mut self, pc: usize, target: usize, taken: bool) {
        if self.predictor.observe_with_target(pc, target, taken) {
            self.branch_flush = true;
        }
    }

    fn on_uop(&mut self, uop: &UopEvent) {
        // Every stall logged since the last retirement is this µop's.
        let Stall { fetch, mem, .. } = self.stalls.get(0).unwrap_or_default();
        self.stalls.clear();
        self.step(uop, fetch, mem);
        self.settle_flush();
    }

    fn on_block(&mut self, start: usize, uops: &[UopEvent]) {
        if let Some(s) = self.hot_schedule(start, uops) {
            self.apply(&s);
        } else {
            let mut next = 0;
            for (pc, uop) in (start..).zip(uops) {
                let (fetch, mem) = match self.stalls.get(next) {
                    Some(s) if s.pc == pc => {
                        next += 1;
                        (s.fetch, s.mem)
                    }
                    _ => (0, 0),
                };
                self.step(uop, fetch, mem);
            }
            self.stalls.clear();
        }
        // Only a block's last µop can be a branch.
        self.settle_flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simtune_cache::HierarchyConfig;
    use simtune_isa::{
        AtomicCpu, ExecEngine, Fpr, Gpr, Inst, InterpEngine, Memory, Program, ProgramBuilder, Reg,
        RunLimits, TimingBridge, Vr,
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

    /// A counting-only hierarchy services every fetch from memory, the
    /// later ones of a fetch run included: the decoded engine reports
    /// each of them to a block-events hook, and the model stalls on each
    /// as it does per µop.
    #[test]
    fn block_events_on_a_counting_only_hierarchy_stall_on_every_fetch() {
        let spec = TargetSpec::arm_cortex_a72();
        let prog = branchy_program(200);
        let decoded = simtune_isa::DecodedProgram::decode(&prog, &spec.isa).unwrap();
        let line = spec.hierarchy.line_bytes();
        let mut models = [(); 2].map(|_| PipelineModel::new(&spec, 512, 8));
        let [interp, block] = &mut models;
        let limits = RunLimits::default();
        let mut hier = CacheHierarchy::counting_only(line);
        InterpEngine::new(&prog)
            .run_with_hook(
                &mut AtomicCpu::new(&spec.isa),
                &mut Memory::new(),
                &mut hier,
                limits,
                &mut TimingBridge::new(interp),
            )
            .unwrap();
        let mut hier = CacheHierarchy::counting_only(line);
        simtune_isa::DecodedEngine::new(&decoded)
            .run_with_hook(
                &mut AtomicCpu::new(&spec.isa),
                &mut Memory::new(),
                &mut hier,
                limits,
                &mut TimingBridge::new(block),
            )
            .unwrap();
        let fetch_stalls = interp.retired() * interp.fetch_stall[3];
        assert!(interp.breakdown().memory >= fetch_stalls as f64);
        assert_eq!(block.breakdown(), interp.breakdown());
        assert_eq!(block.cycles(), interp.cycles());
    }

    #[test]
    fn tiny_hierarchy_misses_cost_memory_cycles() {
        let mut spec = TargetSpec::riscv_u74();
        spec.hierarchy = HierarchyConfig::tiny_for_tests();
        spec.isa = simtune_isa::TargetIsa::riscv_u74();
        let model = run(&spec, &branchy_program(100));
        assert!(model.breakdown().memory > 0.0, "cold misses must be paid");
    }

    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Registers the random blocks draw from: few enough that µops
    /// depend on each other, from all three files.
    const POOL: [fn() -> Reg; 8] = [
        || Reg::gpr(Gpr(0)),
        || Reg::gpr(Gpr(1)),
        || Reg::gpr(Gpr(31)),
        || Reg::fpr(Fpr(0)),
        || Reg::fpr(Fpr(5)),
        || Reg::vr(Vr(3)),
        || Reg::vr(Vr(31)),
        || Reg::gpr(Gpr(2)),
    ];

    const CLASSES: [MixClass; 7] = [
        MixClass::IntAlu,
        MixClass::FpAlu,
        MixClass::VecAlu,
        MixClass::Load,
        MixClass::Store,
        MixClass::Branch,
        MixClass::Other,
    ];

    /// A µop of random class, destination and sources, drawn from `w`.
    fn random_uop(w: u64) -> UopEvent {
        let reg = |bits: u64| POOL.get(bits as usize).map(|r| r());
        UopEvent {
            class: CLASSES[(w % 7) as usize],
            dst: if (w >> 3).is_multiple_of(4) {
                None
            } else {
                reg((w >> 5) % 8)
            },
            srcs: [0, 1, 2].map(|k| reg((w >> (8 + 4 * k)) & 0xF)),
        }
    }

    /// A model at a random clock whose registers are ready anywhere from
    /// long ago to [`MAX_PENDING`] cycles ahead, as a run leaves them.
    fn model_at(entry: u64) -> PipelineModel {
        let mut m = PipelineModel::new(&TargetSpec::riscv_u74(), 64, 4);
        m.clock = entry % 10_000;
        let mut x = entry | 1;
        for r in m.ready.iter_mut().take(TIMING_REGS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *r = match x % 8 {
                0 => 0,
                k => (m.clock + MAX_PENDING).saturating_sub(k - 1),
            };
        }
        m
    }

    /// The clocks and counters agree, and so does every register's
    /// readiness past the clock — a value at or below the clock is
    /// "ready now" and no later µop can tell two such apart — and both
    /// models keep every register within [`MAX_PENDING`] of the clock.
    fn assert_same(want: &PipelineModel, got: &PipelineModel) -> Result<(), TestCaseError> {
        let counters = |m: &PipelineModel| {
            (
                m.clock,
                m.retired,
                m.raw_stalls,
                m.memory_stalls,
                m.control_stalls,
            )
        };
        prop_assert_eq!(counters(want), counters(got));
        for r in 0..TIMING_REGS {
            let pending = |m: &PipelineModel| m.ready[r].saturating_sub(m.clock);
            prop_assert_eq!((r, pending(want)), (r, pending(got)));
            for m in [want, got] {
                prop_assert!(m.ready[r] <= m.clock + MAX_PENDING, "register {}", r);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases(256)))]

        /// A straight-line block's schedule, applied at any entry state,
        /// ends where the per-µop steps end.
        #[test]
        fn a_block_schedule_ends_where_the_per_uop_steps_end(
            words in prop::collection::vec(any::<u64>(), 1..48),
            entry in any::<u64>(),
        ) {
            let uops: Vec<UopEvent> = words.iter().map(|&w| random_uop(w)).collect();
            let mut stepped = model_at(entry);
            let mut scheduled = stepped.clone();
            for uop in &uops {
                stepped.step(uop, 0, 0);
            }
            let schedule = Schedule::build(1, &uops).expect("a short block fits");
            scheduled.apply(&schedule);
            assert_same(&stepped, &scheduled)?;
        }

        /// Repeat visits of one block through `on_block` — cold, then
        /// hot, some with fetch and data stalls, some ending in a
        /// mispredict — agree visit by visit with the same events
        /// delivered per µop.
        #[test]
        fn block_events_agree_with_per_uop_events_visit_by_visit(
            words in prop::collection::vec(any::<u64>(), 1..48),
            entry in any::<u64>(),
            visits in prop::collection::vec(any::<u64>(), 1..8),
        ) {
            let uops: Vec<UopEvent> = words.iter().map(|&w| random_uop(w)).collect();
            let start = (entry >> 40) as usize % 1000;
            let mut per_uop = model_at(entry);
            let mut per_block = per_uop.clone();
            for visit in visits {
                // A third of the visits stall on up to two of their µops.
                let stalls: Vec<(usize, u64, u64)> = if visit % 3 == 0 {
                    let a = (visit >> 8) as usize % uops.len();
                    let b = (visit >> 16) as usize % uops.len();
                    let (a, b) = (a.min(b), a.max(b));
                    let mut s = vec![(start + a, (visit >> 24) % 4, (visit >> 28) % 50)];
                    if b != a {
                        s.push((start + b, 0, 1 + (visit >> 34) % 9));
                    }
                    s
                } else {
                    Vec::new()
                };
                let flush = (visit >> 2) % 2 == 0;
                for (i, uop) in uops.iter().enumerate() {
                    for &(pc, fetch, mem) in stalls.iter().filter(|s| s.0 == start + i) {
                        per_uop.stalls.log(pc, fetch, mem);
                        per_block.stalls.log(pc, fetch, mem);
                    }
                    per_uop.branch_flush = flush && i + 1 == uops.len();
                    per_uop.on_uop(uop);
                }
                per_block.branch_flush = flush;
                per_block.on_block(start, &uops);
                assert_same(&per_uop, &per_block)?;
            }
        }
    }

    #[test]
    fn a_block_that_stalls_on_more_uops_than_fit_inline_spills_in_order() {
        let mut log = StallLog::new();
        for pc in 0..INLINE_STALLS + 5 {
            log.log(pc, 1, 0);
            log.log(pc, 0, pc as u64);
        }
        let got: Vec<(usize, u64, u64)> = (0..)
            .map_while(|i| log.get(i))
            .map(|s| (s.pc, s.fetch, s.mem))
            .collect();
        let want: Vec<(usize, u64, u64)> = (0..INLINE_STALLS + 5)
            .map(|pc| (pc, 1, pc as u64))
            .collect();
        assert_eq!(got, want);
        log.clear();
        assert!(log.is_empty() && log.get(0).is_none());
    }
}
