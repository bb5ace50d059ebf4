//! Where a run ends inside a basic block: [`DecodedEngine`] checks the
//! instruction limits once per block and makes one L1I access per
//! fetch run, [`InterpEngine`] does both per instruction — and a run
//! that stops, is cut off or faults between two block boundaries must
//! not be able to tell them apart.

use simtune_cache::{CacheHierarchy, HierarchyConfig, ServicedBy};
use simtune_isa::{
    uop_event, AtomicCpu, DecodedEngine, DecodedProgram, ExecEngine, ExecHook, Fpr, Gpr, Inst,
    InterpEngine, Memory, Program, ProgramBuilder, RunLimits, SimError, SimStats, TargetIsa,
    UopEvent, DATA_BASE,
};

/// Instructions ahead of the loop: its entry is this many retirements in.
const PREAMBLE: u64 = 3;
/// Instructions of the hot block: 168 bytes of 4-byte encodings from
/// byte 12 of the code segment, so three 64-byte I-lines.
const BLOCK: u64 = 42;

/// A counted loop whose body is one block of [`BLOCK`] instructions —
/// integer, float, loads and stores — with `mid` spliced into its
/// middle.
fn hot_block_program(mid: &[Inst]) -> Program {
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
        imm: 4,
    });
    let top = b.bind_new_label();
    let body = BLOCK as usize - 2 - mid.len();
    for i in 0..body {
        if i == body / 2 {
            for inst in mid {
                b.push(*inst);
            }
        }
        let slot = 8 * (i as i64 % 16);
        b.push(match i % 5 {
            0 => Inst::Addi {
                rd: Gpr(2),
                rs: Gpr(2),
                imm: 3,
            },
            1 => Inst::Sd {
                rval: Gpr(2),
                rs: Gpr(1),
                imm: slot,
            },
            2 => Inst::Ld {
                rd: Gpr(3),
                rs: Gpr(1),
                imm: slot,
            },
            3 => Inst::Flw {
                fd: Fpr(1),
                rs: Gpr(1),
                imm: slot,
            },
            _ => Inst::Fadd {
                fd: Fpr(2),
                fs1: Fpr(2),
                fs2: Fpr(1),
            },
        });
    }
    b.push(Inst::Addi {
        rd: Gpr(30),
        rs: Gpr(30),
        imm: 1,
    });
    b.branch_lt(Gpr(30), Gpr(31), top);
    b.push(Inst::Halt);
    b.build().expect("valid program")
}

/// Everything an [`ExecHook`] is told, in order.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Fetch(usize, ServicedBy),
    Data(usize, u64, bool, ServicedBy),
    Branch(usize, usize, bool),
    Retire(Inst, UopEvent),
    Block(usize, Vec<UopEvent>),
}

#[derive(Default)]
struct Recorder(Vec<Event>);

impl ExecHook for Recorder {
    fn on_fetch(&mut self, pc: usize, serviced: ServicedBy) {
        self.0.push(Event::Fetch(pc, serviced));
    }

    // What the interpreter calls; the block loop hands over the µops its
    // decode pass made, which must be these.
    fn on_retire(&mut self, inst: &Inst) {
        self.0.push(Event::Retire(*inst, uop_event(inst)));
    }

    fn on_data_access(
        &mut self,
        pc: usize,
        line: u64,
        store: bool,
        by: ServicedBy,
        _: &mut CacheHierarchy,
    ) {
        self.0.push(Event::Data(pc, line, store, by));
    }

    fn on_branch(&mut self, pc: usize, target: usize, taken: bool) {
        self.0.push(Event::Branch(pc, target, taken));
    }

    fn on_block(&mut self, start: usize, uops: &[UopEvent]) {
        self.0.push(Event::Block(start, uops.to_vec()));
    }
}

/// What one run leaves behind: its result, the integer and float
/// registers the program uses, and the hook's event stream.
type Observed = (
    Result<(SimStats, bool), SimError>,
    Vec<i64>,
    Vec<u32>,
    Vec<Event>,
);

fn observe<E: ExecEngine>(engine: &E, limits: RunLimits, stop_at: Option<u64>) -> Observed {
    let target = TargetIsa::riscv_u74();
    let mut cpu = AtomicCpu::new(&target);
    let mut mem = Memory::new();
    let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
    let mut hook = Recorder::default();
    let result = engine.run_until(&mut cpu, &mut mem, &mut hier, limits, stop_at, &mut hook);
    let gprs = (0..32).map(|r| cpu.gpr(Gpr(r))).collect();
    let fprs = (0..32).map(|r| cpu.fpr(Fpr(r)).to_bits()).collect();
    (result, gprs, fprs, hook.0)
}

/// The block events of the run the interpreter reported per instruction
/// in `per_inst`: the fetch of each fetch run's first instruction (the
/// rest of a run hit the L1I), data accesses and branches as they were,
/// and the µops of each block — or of the part of one a limit left —
/// once it is over. A block cut short by a fault has no block event.
fn block_events(decoded: &DecodedProgram, per_inst: &Observed) -> Observed {
    let ops = decoded.ops();
    let run_starts = |pc: usize| {
        pc == 0 || ops[pc].block != ops[pc - 1].block || {
            ops[pc].fetch_addr / 64 != ops[pc - 1].fetch_addr / 64
        }
    };
    let mut events = Vec::new();
    let mut block: Option<(usize, Vec<UopEvent>)> = None;
    let mut pc = 0;
    for event in &per_inst.3 {
        match event {
            Event::Fetch(at, _) => {
                pc = *at;
                if run_starts(pc) {
                    events.push(event.clone());
                }
            }
            Event::Retire(_, uop) => {
                block.get_or_insert_with(|| (pc, Vec::new())).1.push(*uop);
                let last = decoded
                    .block_starts()
                    .get(ops[pc].block as usize + 1)
                    .map_or(ops.len() - 1, |next| next - 1);
                if pc == last {
                    let (start, uops) = block.take().expect("just pushed");
                    events.push(Event::Block(start, uops));
                }
            }
            Event::Block(..) => panic!("the interpreter reports per instruction"),
            _ => events.push(event.clone()),
        }
    }
    let cut = !matches!(
        per_inst.0,
        Err(SimError::MemoryFault { .. } | SimError::UnknownSyscall { .. })
    );
    if let Some((start, uops)) = block.filter(|_| cut) {
        events.push(Event::Block(start, uops));
    }
    (
        per_inst.0.clone(),
        per_inst.1.clone(),
        per_inst.2.clone(),
        events,
    )
}

fn decode(prog: &Program) -> DecodedProgram {
    let decoded = DecodedProgram::decode(prog, &TargetIsa::riscv_u74()).expect("decodes");
    let hot = decoded.block_starts()[1]..decoded.block_starts()[2];
    assert_eq!((hot.start as u64, hot.len() as u64), (PREAMBLE, BLOCK));
    let lines: Vec<u64> = decoded.ops()[hot]
        .iter()
        .map(|op| op.fetch_addr / 64)
        .collect();
    assert_eq!(lines[lines.len() - 1] - lines[0], 2, "three I-lines");
    decoded
}

#[test]
fn a_limit_at_every_point_of_a_three_line_block_ends_the_run_as_the_interpreter_does() {
    let prog = hot_block_program(&[]);
    let decoded = decode(&prog);
    let (interp, block) = (InterpEngine::new(&prog), DecodedEngine::new(&decoded));
    let unlimited = RunLimits::default();
    for v in 0..=PREAMBLE + 2 * BLOCK {
        let capped = RunLimits { max_insts: v };
        // The budget alone, the prefix stop alone, and the two on one
        // instruction (where the error wins).
        for (limits, stop_at) in [(capped, None), (unlimited, Some(v)), (capped, Some(v))] {
            let want = observe(&interp, limits, stop_at);
            match (&want.0, stop_at) {
                (Ok((stats, completed)), Some(_)) => {
                    assert!(!completed);
                    assert_eq!(stats.inst_mix.total(), v);
                }
                (result, _) => assert_eq!(
                    *result,
                    Err(SimError::InstLimitExceeded { limit: v }),
                    "max_insts {v}, stop_at {stop_at:?}"
                ),
            }
            assert_eq!(
                observe(&block, limits, stop_at),
                block_events(&decoded, &want),
                "max_insts {}, stop_at {stop_at:?}",
                limits.max_insts
            );
        }
    }
    // Far enough out, both run to completion.
    let want = observe(&interp, unlimited, Some(10 * BLOCK));
    assert!(matches!(want.0, Ok((_, true))));
    assert_eq!(
        observe(&block, unlimited, Some(10 * BLOCK)),
        block_events(&decoded, &want)
    );
}

#[test]
fn a_fault_in_the_middle_of_a_block_is_the_interpreter_s_fault() {
    let wild_load = [
        Inst::Li {
            rd: Gpr(4),
            imm: -4,
        },
        Inst::Ld {
            rd: Gpr(5),
            rs: Gpr(4),
            imm: 0,
        },
    ];
    let faults = [
        (
            &wild_load[..],
            SimError::MemoryFault {
                addr: 0xFFFF_FFFF_FFFF_FFFC,
            },
        ),
        (
            &[Inst::Ecall { code: 7 }][..],
            SimError::UnknownSyscall { code: 7 },
        ),
    ];
    for (mid, error) in faults {
        let prog = hot_block_program(mid);
        let decoded = decode(&prog);
        let want = observe(&InterpEngine::new(&prog), RunLimits::default(), None);
        assert_eq!(want.0, Err(error.clone()));
        // The same error after the same events: the hook saw the fetch
        // of the faulting instruction and nothing of the rest of its
        // fetch run.
        assert!(matches!(
            want.3.last(),
            Some(Event::Fetch(..) | Event::Data(..))
        ));
        let got = observe(&DecodedEngine::new(&decoded), RunLimits::default(), None);
        assert_eq!(got, block_events(&decoded, &want), "{error}");
    }
}
