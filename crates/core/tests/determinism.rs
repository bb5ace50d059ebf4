//! Cross-thread determinism of the simulation session: the same seed must
//! produce byte-identical simulator statistics whether candidates run on
//! 1, 2 or 4 parallel simulator instances. This is the trust layer every
//! future sharding/batching optimization is measured against.

use simtune_cache::HierarchyConfig;
use simtune_core::{KernelBuilder, SimSession};
use simtune_isa::{Executable, SimStats};
use simtune_tensor::{matmul, Schedule, TargetIsa};

const DATA_SEED: u64 = 0xD5EED;

fn build_candidates(n: usize) -> Vec<Executable> {
    let def = matmul(6, 8, 5);
    let mut builder = KernelBuilder::new(def.clone(), TargetIsa::riscv_u74());
    builder.data_seed = DATA_SEED;
    let schedule = Schedule::default_for(&def);
    (0..n)
        .map(|i| {
            builder
                .build(&schedule, &format!("cand{i}"))
                .expect("builds")
        })
        .collect()
}

/// Runs the candidates and strips `host_nanos`, the only field that
/// reflects host wall-clock rather than simulated behaviour; the
/// remaining statistics must be byte-identical across thread counts.
fn simulated_stats(n_parallel: usize, exes: &[Executable]) -> Vec<SimStats> {
    let session = SimSession::builder()
        .accurate(&HierarchyConfig::riscv_u74())
        .n_parallel(n_parallel)
        .build()
        .expect("accurate session builds");
    session
        .run_stats(exes)
        .into_iter()
        .map(|r| {
            let mut s = r.expect("simulation succeeds");
            s.host_nanos = 0;
            s
        })
        .collect()
}

#[test]
fn same_seed_identical_stats_across_thread_counts() {
    let exes = build_candidates(9);
    let serial = simulated_stats(1, &exes);
    for n_parallel in [2, 4] {
        let parallel = simulated_stats(n_parallel, &exes);
        assert_eq!(
            serial, parallel,
            "n_parallel = {n_parallel} diverged from the serial run"
        );
    }
}

#[test]
fn repeated_parallel_runs_are_reproducible() {
    // Two fresh sessions at the same parallelism: no shared
    // state, still identical output (the scheduler order must not leak
    // into the statistics).
    let exes = build_candidates(8);
    assert_eq!(simulated_stats(4, &exes), simulated_stats(4, &exes));
}

#[test]
fn different_data_seed_changes_nothing_but_data() {
    // The instruction stream is seed-independent for a fixed schedule;
    // only the prepared tensor payloads differ. Instruction counts must
    // therefore match across builder seeds.
    let def = matmul(6, 8, 5);
    let schedule = Schedule::default_for(&def);
    let mut a = KernelBuilder::new(def.clone(), TargetIsa::riscv_u74());
    a.data_seed = 1;
    let mut b = KernelBuilder::new(def, TargetIsa::riscv_u74());
    b.data_seed = 2;
    let ea = a.build(&schedule, "a").expect("builds");
    let eb = b.build(&schedule, "b").expect("builds");
    let sa = simulated_stats(1, &[ea]);
    let sb = simulated_stats(1, &[eb]);
    assert_eq!(sa[0].inst_mix, sb[0].inst_mix);
}
