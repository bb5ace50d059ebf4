//! A trial's cache hierarchy is observably new, whatever happened to the
//! hierarchy whose arrays it inherits: the cache model recycles the
//! arrays of dropped caches process-wide, so a trial that faulted
//! mid-run, or one torn down by an unwinding panic, hands its arrays —
//! left however the abort left them — to the next trial on this worker.

use simtune_cache::{CacheHierarchy, HierarchyConfig};
use simtune_core::{FidelitySpec, SimReport, SimSession, DEFAULT_BTB_ENTRIES, DEFAULT_RAS_DEPTH};
use simtune_isa::{
    replay, torture_program_with, EngineKind, ExecHook, Executable, RunLimits, TargetIsa,
    TortureConfig, UopEvent,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn torture_exe(scenario: &str, seed: u64) -> Executable {
    let config = TortureConfig::by_name(scenario).expect("corpus scenario");
    Executable::new(
        format!("{scenario}-{seed}"),
        torture_program_with(&config, seed),
        TargetIsa::x86_ryzen_5800x(),
    )
}

/// Panics once more than `left` instructions retired (the decoded
/// engine reports them a block at a time).
struct PanicAfter {
    left: usize,
}

impl ExecHook for PanicAfter {
    fn on_block(&mut self, _: usize, uops: &[UopEvent]) {
        assert!(self.left >= uops.len(), "hook gives up mid-run");
        self.left -= uops.len();
    }
}

#[test]
fn a_hierarchy_dropped_mid_run_or_while_unwinding_comes_back_clean() {
    let hierarchy = HierarchyConfig::x86_ryzen_5800x();
    let pipelined = FidelitySpec::Pipelined {
        btb: DEFAULT_BTB_ENTRIES,
        ras: DEFAULT_RAS_DEPTH,
    };
    let session = SimSession::builder()
        .fidelity(&pipelined, &hierarchy)
        .n_parallel(1)
        .build()
        .expect("pipelined session builds");
    let run = |exe: &Executable| -> Result<SimReport, String> {
        let [report] = <[_; 1]>::try_from(session.run(std::slice::from_ref(exe))).expect("one");
        report
            .map(|mut r| {
                r.stats.host_nanos = 0;
                r
            })
            .map_err(|e| e.to_string())
    };

    let a = torture_exe("mem-irregular", 3);
    let first = run(&a).expect("A completes");
    assert!(first.stats.cache.l1d.accesses() > 0 && first.cycles.is_some());

    // A trial that errors after it has dirtied the hierarchy.
    let faulting = (0..256)
        .map(|seed| torture_exe("fault-prone", seed))
        .find(|exe| run(exe).is_err())
        .expect("a fault-prone program faults within 256 seeds");
    assert!(run(&faulting).is_err());

    // A trial torn down by a panic: `replay` owns the hierarchy it built,
    // so it is dropped while the stack unwinds.
    let decoded = a.decode().expect("A decodes");
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let hier = || CacheHierarchy::new(hierarchy.clone());
        let mut hook = PanicAfter { left: 40 };
        let limits = RunLimits::default();
        replay(
            &a,
            &decoded,
            hier,
            EngineKind::Decoded,
            limits,
            None,
            &mut hook,
        )
        .map(|_| ())
    }));
    assert!(unwound.is_err(), "the hook panics before A finishes");

    assert_eq!(run(&a).expect("A completes again"), first);
}
