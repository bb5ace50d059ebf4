//! The per-layer ledger: every layer measured from outside, by timing
//! calls into its public functions.
//!
//! Each probe is `FULL_REPS` repetitions of one fixed unit of work
//! after a discarded warm-up; configurations that are compared with each
//! other (engines, tiers, worker counts, address streams) run interleaved
//! inside every rep, so a slow plateau of the machine hits all of them
//! alike; the reported time is the fast rep time. The ledger does not
//! depend on which workload is being traced — every traced run prints all
//! of it, over the inputs the run's seed generates.

use crate::alloc::release_free_pages;
use crate::clock::{fast, median, quantile};
use crate::harness::{Workload, CALM_SLACK};
use crate::inputs::{conv_set, mix, torture_set, ConvSet, TrainingSet};
use crate::replay::pipelined_spec;
use crate::serve_warm::ServeWarm;
use crate::tune_cold::{TuneCold, TRAIN_IMPLS};
use crate::{metric, Metric};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simtune_cache::{CacheHierarchy, HierarchyConfig};
use simtune_core::{
    memo_fingerprint, prediction_metrics, EngineKind, FidelitySpec, KernelBuilder, ScorePredictor,
    SimCache, SimReport, SimSession, StrategySpec, WindowKind,
};
use simtune_hw::{measure, MeasureConfig};
use simtune_isa::{Executable, Memory, RunLimits};
use simtune_linalg::stats::spearman;
use simtune_predict::PredictorKind;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Reps per probe in a full run and in `--quick` mode.
const FULL_REPS: usize = 12;
const QUICK_REPS: usize = 2;
/// Every n-th candidate of the (cost-sorted) conv set feeds the engine
/// and tier roster, which replays each one seven times per rep.
const ROSTER_STRIDE: usize = 4;
/// Addresses per synthetic cache stream.
const STREAM_LEN: usize = 1 << 20;
/// Bytes the strided and random streams range over: 8 MiB, four times
/// the riscv model's L2.
const STREAM_WINDOW: u64 = 8 << 20;

/// Fast seconds per rep of each of `n` probes; every rep runs
/// `probe(0..n)` in order, so the probes share whatever the machine is
/// doing at the time.
fn interleaved(reps: usize, n: usize, mut probe: impl FnMut(usize)) -> Vec<f64> {
    let mut times = vec![Vec::with_capacity(reps); n];
    for rep in 0..=reps {
        for (i, log) in times.iter_mut().enumerate() {
            let t0 = Instant::now();
            probe(i);
            if rep > 0 {
                log.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    times.iter().map(|t| fast(t)).collect()
}

fn timed(reps: usize, mut probe: impl FnMut()) -> f64 {
    interleaved(reps, 1, |_| probe())[0]
}

fn session(
    spec: &FidelitySpec,
    hierarchy: &HierarchyConfig,
    engine: EngineKind,
    workers: usize,
) -> SimSession {
    SimSession::builder()
        .fidelity(spec, hierarchy)
        .engine(engine)
        .n_parallel(workers)
        .build()
        .expect("bundled tier session builds")
}

fn reports(session: &SimSession, exes: &[Executable]) -> Vec<SimReport> {
    session
        .run(exes)
        .into_iter()
        .map(|r| r.expect("conv candidates simulate"))
        .collect()
}

/// `isa` engines, `cache` model and `hw` timing by subtraction between
/// interleaved tiers, plus pool scaling — all on the conv roster.
fn replay_roster(reps: usize, conv: &ConvSet, out: &mut Vec<Metric>) {
    let h = &conv.spec.hierarchy;
    let roster: Vec<Executable> = conv.exes.iter().step_by(ROSTER_STRIDE).cloned().collect();
    let accurate: Vec<SimSession> = EngineKind::ALL
        .iter()
        .map(|&e| session(&FidelitySpec::Accurate, h, e, 1))
        .collect();
    let fast_count = session(&FidelitySpec::FastCount, h, EngineKind::Decoded, 1);
    let pipelined = session(&pipelined_spec(), h, EngineKind::Decoded, 1);
    let two_workers = session(&FidelitySpec::Accurate, h, EngineKind::Decoded, 2);
    let insts: u64 = reports(&fast_count, &roster)
        .iter()
        .map(|r| r.stats.inst_mix.total())
        .sum();
    let insts = insts as f64;

    let sessions: Vec<&SimSession> = accurate
        .iter()
        .chain([&fast_count, &pipelined, &two_workers])
        .collect();
    let t = interleaved(reps, sessions.len(), |i| {
        black_box(sessions[i].run(&roster));
    });

    for (engine, secs) in EngineKind::ALL.iter().zip(&t) {
        out.push(metric(
            &format!("isa.mips.{}", engine.label()),
            insts / secs / 1e6,
            "Minst/s",
        ));
    }
    let decoded_at = EngineKind::ALL
        .iter()
        .position(|e| *e == EngineKind::Decoded)
        .expect("decoded is a bundled engine");
    let extra = EngineKind::ALL.len();
    let (t_acc, t_fast, t_pipe, t_np2) = (t[decoded_at], t[extra], t[extra + 1], t[extra + 2]);
    out.push(metric("isa.func_ns_per_inst", t_fast / insts * 1e9, "ns"));
    out.push(metric(
        "cache.model_ns_per_inst",
        (t_acc - t_fast) / insts * 1e9,
        "ns",
    ));
    out.push(metric(
        "hw.timing_ns_per_inst",
        (t_pipe - t_acc) / insts * 1e9,
        "ns",
    ));
    out.push(metric(
        "hw.pipelined_over_accurate",
        t_pipe / t_acc,
        "ratio",
    ));
    out.push(metric("pool.scaling_np2", t_acc / t_np2, "ratio"));

    // Utilisation of a two-worker pool that does nothing but replay:
    // a fresh session, so the pool's lifetime is the probe.
    let busy = session(&FidelitySpec::Accurate, h, EngineKind::Decoded, 2);
    for _ in 0..4 {
        black_box(busy.run(&conv.exes));
    }
    out.push(metric(
        "pool.utilization",
        busy.pool_stats().utilization(),
        "ratio",
    ));

    // Simulated numbers over the whole set: exact, so one pass each.
    let mut l1d = (0u64, 0u64);
    let mut l2 = (0u64, 0u64);
    for r in reports(&accurate[decoded_at], &conv.exes) {
        let c = r.stats.cache;
        l1d.0 += c.l1d.read_misses + c.l1d.write_misses;
        l1d.1 += c.l1d.accesses();
        l2.0 += c.l2.read_misses + c.l2.write_misses;
        l2.1 += c.l2.accesses();
    }
    out.push(metric(
        "cache.l1d_miss_rate",
        l1d.0 as f64 / l1d.1 as f64,
        "ratio",
    ));
    out.push(metric(
        "cache.l2_miss_rate",
        l2.0 as f64 / l2.1 as f64,
        "ratio",
    ));
    let (mut retired, mut pipe, mut mem, mut ctl) = (0u64, 0.0, 0.0, 0.0);
    for r in reports(&pipelined, &conv.exes) {
        let c = r.cycles.expect("the pipelined tier reports cycles");
        retired += r.stats.inst_mix.total();
        pipe += c.pipeline;
        mem += c.memory;
        ctl += c.control;
    }
    out.push(metric(
        "hw.sim_ipc",
        retired as f64 / (pipe + mem + ctl),
        "inst/cycle",
    ));
    out.push(metric("hw.cycles.pipeline", pipe, "cycles"));
    out.push(metric("hw.cycles.memory", mem, "cycles"));
    out.push(metric("hw.cycles.control", ctl, "cycles"));
}

/// `tensor`, `isa` decode/memory, `memo` and `hw::measure`, each called
/// alone over the conv set (decode also over the torture programs).
fn per_candidate(
    reps: usize,
    conv: &ConvSet,
    torture: &[Executable],
    seed: u64,
    out: &mut Vec<Metric>,
) {
    let n = conv.exes.len() as f64;
    let draws = 256;
    let schedule_s = timed(reps, || {
        let mut rng = StdRng::seed_from_u64(mix(seed, 2));
        for _ in 0..draws {
            let p = conv.generator.random(&mut rng);
            black_box(conv.generator.schedule(&p));
        }
    });
    out.push(metric(
        "tensor.schedule_us",
        schedule_s / draws as f64 * 1e6,
        "us",
    ));

    let builder = KernelBuilder::new(conv.def.clone(), conv.spec.isa.clone());
    let schedules: Vec<_> = conv
        .params
        .iter()
        .map(|p| conv.generator.schedule(p))
        .collect();
    let build_s = timed(reps, || {
        for s in &schedules {
            black_box(
                builder
                    .build(s, "probe")
                    .expect("selected candidates build"),
            );
        }
    });
    out.push(metric("tensor.build_us", build_s / n * 1e6, "us"));
    out.push(metric(
        "tensor.build_fail_share",
        conv.build_failures as f64 / conv.build_attempts as f64,
        "ratio",
    ));

    let programs: Vec<&Executable> = conv.exes.iter().chain(torture).collect();
    let decode_s = timed(reps, || {
        for exe in &programs {
            black_box(exe.decode().expect("benchmark programs decode"));
        }
    });
    out.push(metric(
        "isa.decode_us",
        decode_s / programs.len() as f64 * 1e6,
        "us",
    ));

    let memory_s = timed(reps, || {
        for exe in &conv.exes {
            let mut mem = Memory::new();
            for (base, values) in &exe.data_segments {
                mem.write_f32_slice(*base, values).expect("segments load");
            }
            black_box(mem);
        }
    });
    out.push(metric("isa.memory_init_us", memory_s / n * 1e6, "us"));

    let digest = FidelitySpec::Accurate
        .build(&conv.spec.hierarchy)
        .expect("accurate tier builds")
        .fidelity_digest()
        .expect("bundled tiers memoize");
    let limits = RunLimits::default();
    let fingerprint_s = timed(reps, || {
        for exe in &conv.exes {
            black_box(memo_fingerprint(exe, &digest, &limits, EngineKind::Decoded));
        }
    });
    out.push(metric("memo.fingerprint_us", fingerprint_s / n * 1e6, "us"));

    // Insert and lookup on the workload's own keys, eight tagged copies
    // of each so a rep is long enough to time.
    let stored = reports(
        &session(
            &FidelitySpec::Accurate,
            &conv.spec.hierarchy,
            EngineKind::Decoded,
            1,
        ),
        &conv.exes,
    );
    let mut keys: Vec<Vec<u8>> = Vec::new();
    for tag in 0..8u8 {
        for exe in &conv.exes {
            let mut key = memo_fingerprint(exe, &digest, &limits, EngineKind::Decoded);
            key.push(tag);
            keys.push(key);
        }
    }
    let mut insert_times = Vec::new();
    let mut lookup_times = Vec::new();
    for rep in 0..=reps {
        let cache = SimCache::new();
        let batch: Vec<(Vec<u8>, SimReport)> = keys
            .iter()
            .cloned()
            .zip(stored.iter().cycle().cloned())
            .collect();
        let t0 = Instant::now();
        for (key, report) in batch {
            cache.insert(key, report);
        }
        let inserted = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for key in &keys {
            black_box(cache.lookup(key));
        }
        let looked_up = t0.elapsed().as_secs_f64();
        if rep > 0 {
            insert_times.push(inserted);
            lookup_times.push(looked_up);
        }
    }
    out.push(metric(
        "memo.insert_ns",
        fast(&insert_times) / keys.len() as f64 * 1e9,
        "ns",
    ));
    out.push(metric(
        "memo.lookup_ns",
        fast(&lookup_times) / keys.len() as f64 * 1e9,
        "ns",
    ));

    let roster: Vec<&Executable> = conv.exes.iter().step_by(ROSTER_STRIDE).collect();
    let measure_s = timed(reps, || {
        for exe in &roster {
            black_box(
                measure(exe, &conv.spec, &MeasureConfig::default(), seed)
                    .expect("reference board measures a built candidate"),
            );
        }
    });
    out.push(metric(
        "hw.measure_us",
        measure_s / roster.len() as f64 * 1e6,
        "us",
    ));
}

/// `CacheHierarchy` driven directly: three synthetic read streams and
/// construction cost on both modelled machines.
fn cache_direct(reps: usize, out: &mut Vec<Metric>) {
    let riscv = HierarchyConfig::riscv_u74();
    let base = simtune_isa::DATA_BASE;
    let seq: Vec<u64> = (0..STREAM_LEN as u64).map(|i| base + 4 * i).collect();
    let strided: Vec<u64> = (0..STREAM_LEN as u64)
        .map(|i| base + (i * 256) % STREAM_WINDOW)
        .collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let random: Vec<u64> = (0..STREAM_LEN)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            base + (((state >> 24) % STREAM_WINDOW) & !3)
        })
        .collect();
    let drive = |stream: &[u64]| {
        let mut hier = CacheHierarchy::new(riscv.clone());
        for &addr in stream {
            black_box(hier.data_read(addr));
        }
        black_box(hier.stats());
    };
    let streams = [&seq, &strided, &random];
    let t = interleaved(reps, streams.len(), |i| drive(streams[i]));
    for (name, secs) in ["seq", "strided", "random"].iter().zip(&t) {
        out.push(metric(
            &format!("cache.access_ns.{name}"),
            secs / STREAM_LEN as f64 * 1e9,
            "ns",
        ));
    }

    // Construction + drop on both modelled machines, the way the replay
    // workloads pay for it — the heap's free pages handed back before
    // each one, off the clock, so every page is faulted in again — and,
    // for x86, with the pages kept: a live hierarchy allocated above the
    // probed one keeps glibc from trimming what the probe frees.
    let x86 = HierarchyConfig::x86_ryzen_5800x();
    let cold = |config: &HierarchyConfig, count: usize| {
        let mut secs = 0.0;
        for _ in 0..count {
            release_free_pages();
            let t0 = Instant::now();
            black_box(CacheHierarchy::new(config.clone()));
            secs += t0.elapsed().as_secs_f64();
        }
        secs / count as f64
    };
    let (x86_n, riscv_n) = (8, 64);
    let mut times = vec![Vec::new(); 3];
    for rep in 0..=reps {
        let below = CacheHierarchy::new(x86.clone());
        let pin = CacheHierarchy::new(x86.clone());
        drop(below);
        let t0 = Instant::now();
        for _ in 0..x86_n {
            black_box(CacheHierarchy::new(x86.clone()));
        }
        let warm = t0.elapsed().as_secs_f64() / x86_n as f64;
        drop(pin);
        let sample = [cold(&x86, x86_n), cold(&riscv, riscv_n), warm];
        if rep > 0 {
            for (log, secs) in times.iter_mut().zip(sample) {
                log.push(secs);
            }
        }
    }
    for (name, log) in ["x86", "riscv", "x86_warm"].iter().zip(&times) {
        out.push(metric(
            &format!("cache.hierarchy_new_us.{name}"),
            fast(log) * 1e6,
            "us",
        ));
    }
}

/// `predict`: training and scoring cost, and ranking quality on a
/// held-out group against the emulated board's noise-free time.
fn predictor(reps: usize, tune: &TuneCold, seed: u64, out: &mut Vec<Metric>) {
    let train_s = timed(reps, || {
        let mut p = ScorePredictor::new(PredictorKind::Xgboost, "riscv", "conv2d_bias_relu", 1);
        p.train(std::slice::from_ref(&tune.data))
            .expect("predictor trains");
        black_box(p);
    });
    out.push(metric("predict.train_ms", train_s * 1e3, "ms"));
    let score_s = timed(reps, || {
        black_box(
            tune.predictor
                .score_with_window(&tune.data.stats, WindowKind::Dynamic)
                .expect("trained predictor scores"),
        );
    });
    out.push(metric(
        "predict.score_us",
        score_s / tune.data.len() as f64 * 1e6,
        "us",
    ));

    let held_out = TrainingSet {
        group: 1,
        kernel: "conv2d_bias_relu",
        impls: TRAIN_IMPLS,
        seed: mix(seed, 7),
        predictor_seed: 1,
    }
    .collect(&tune.def, &tune.spec, None);
    let scores = tune
        .predictor
        .score_group(&held_out.stats)
        .expect("trained predictor scores");
    out.push(metric(
        "predict.holdout_spearman",
        spearman(&scores, &held_out.base_seconds),
        "rho",
    ));
    out.push(metric(
        "predict.top1_rank_pct",
        prediction_metrics(&held_out.base_seconds, &scores).r_top1,
        "%",
    ));
}

/// `autotune` and `search`: where a cold sweep's producer time goes,
/// from the `StageTimings` every `TuneResult` carries.
fn sweeps(reps: usize, tune: &mut TuneCold, out: &mut Vec<Metric>) {
    let reps = reps.div_ceil(2).max(TuneCold::SCRIPTS);
    let labels: Vec<&str> = StrategySpec::all().iter().map(|s| s.label()).collect();
    let mut shares = vec![Vec::new(); 4];
    let mut replay_share = Vec::new();
    let mut propose_us = vec![Vec::new(); labels.len()];
    let (mut trials, mut simulations, mut accurate_runs) = (0u64, 0u64, 0u64);
    for rep in 0..=reps {
        let t0 = Instant::now();
        let sweep = tune.rep(rep % TuneCold::SCRIPTS);
        let wall_ns = t0.elapsed().as_nanos() as f64;
        if rep == 0 {
            continue;
        }
        let mut stage = [0u64; 4];
        let mut replay = 0u64;
        for (i, r) in sweep.results.iter().enumerate() {
            let t = r.result.timings;
            for (sum, ns) in
                stage
                    .iter_mut()
                    .zip([t.propose_nanos, t.build_nanos, t.sim_nanos, t.score_nanos])
            {
                *sum += ns;
            }
            replay += r.result.replay_nanos;
            propose_us[i].push(t.propose_nanos as f64 / r.result.history.len() as f64 / 1e3);
            trials += r.result.history.len() as u64;
            simulations += r.result.simulations as u64;
            accurate_runs += r.accurate_runs as u64;
        }
        let total: u64 = stage.iter().sum();
        for (log, ns) in shares.iter_mut().zip(stage) {
            log.push(ns as f64 / total as f64);
        }
        replay_share.push(replay as f64 / (wall_ns * TuneCold::N_PARALLEL as f64));
    }
    for (name, log) in ["propose", "build", "sim_blocked", "score"]
        .iter()
        .zip(&shares)
    {
        out.push(metric(
            &format!("autotune.share.{name}"),
            median(log),
            "ratio",
        ));
    }
    out.push(metric(
        "autotune.replay_share",
        median(&replay_share),
        "ratio",
    ));
    out.push(metric(
        "autotune.escalation_rate",
        accurate_runs as f64 / trials as f64,
        "ratio",
    ));
    out.push(metric(
        "autotune.simulations_per_trial",
        simulations as f64 / trials as f64,
        "ratio",
    ));
    for (label, log) in labels.iter().zip(&propose_us) {
        out.push(metric(
            &format!("search.propose_us.{label}"),
            fast(log),
            "us",
        ));
    }
}

/// `serve`, `service` and `snapshot`: per-op-type round trips of the
/// warm script, `ping`, and the snapshot paths called directly on the
/// warmed cache.
fn serving(reps: usize, serve: &mut ServeWarm, scratch: &Path, out: &mut Vec<Metric>) {
    out.push(metric("service.open_ms", serve.open_ms, "ms"));
    let pings: Vec<f64> = (0..reps * 16).map(|_| serve.ping_ms()).collect();
    out.push(metric("serve.ping_us", fast(&pings) * 1e3, "us"));

    let (mut tunes, mut stats, mut saves, mut walls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for rep in 0..=reps {
        let t0 = Instant::now();
        let exchanges = serve.rep(0);
        let wall = t0.elapsed().as_secs_f64();
        let (tune_ms, stats_ms, save_ms) = ServeWarm::split_latencies(&exchanges);
        let verdict = serve.check(0, exchanges);
        assert_eq!(
            verdict.failed, 0,
            "warm serving script answered wrongly in the ledger"
        );
        if rep > 0 {
            walls.push(wall);
            tunes.push(tune_ms);
            stats.push(stats_ms);
            saves.push(save_ms);
        }
    }
    // Latency quantiles over the calm reps only, as for `op_p50_ms`.
    let calm_limit = fast(&walls) * CALM_SLACK;
    let calm = |v: &[f64]| -> Vec<f64> {
        v.iter()
            .zip(&walls)
            .filter(|(_, w)| **w <= calm_limit)
            .map(|(x, _)| *x)
            .collect()
    };
    let calm_tunes: Vec<f64> = tunes
        .iter()
        .zip(&walls)
        .filter(|(_, w)| **w <= calm_limit)
        .flat_map(|(t, _)| t.iter().copied())
        .collect();
    out.push(metric("serve.op_p50_ms.tune", median(&calm_tunes), "ms"));
    out.push(metric(
        "serve.op_p90_ms.tune",
        quantile(&calm_tunes, 0.9),
        "ms",
    ));
    out.push(metric("serve.op_p50_ms.stats", median(&calm(&stats)), "ms"));
    out.push(metric(
        "serve.op_p50_ms.save_cache",
        median(&calm(&saves)),
        "ms",
    ));

    let path = scratch.join("ledger_snapshot.json");
    let t = interleaved(reps, 2, |i| {
        if i == 0 {
            black_box(serve.cache.save_to(&path).expect("snapshot writes"));
        } else {
            black_box(SimCache::new().load_from(&path).expect("snapshot reads"));
        }
    });
    out.push(metric("snapshot.save_ms", t[0] * 1e3, "ms"));
    out.push(metric("snapshot.load_ms", t[1] * 1e3, "ms"));
    let bytes = std::fs::metadata(&path).expect("snapshot exists").len();
    out.push(metric("snapshot.bytes", bytes as f64, "bytes"));
    let _ = std::fs::remove_file(&path);
}

/// Runs every probe over the inputs `seed` generates.
pub fn run(seed: u64, scratch: &Path, quick: bool) -> Vec<Metric> {
    let reps = if quick { QUICK_REPS } else { FULL_REPS };
    let mut out = Vec::new();
    let conv = conv_set(seed);
    let torture = torture_set(seed);
    replay_roster(reps, &conv, &mut out);
    per_candidate(reps, &conv, &torture, seed, &mut out);
    cache_direct(reps, &mut out);

    let dispatch = session(
        &FidelitySpec::FastCount,
        &HierarchyConfig::x86_ryzen_5800x(),
        EngineKind::Decoded,
        1,
    );
    let dispatch_s = timed(reps, || {
        for _ in 0..50 {
            black_box(dispatch.run(&torture));
        }
    });
    out.push(metric(
        "pool.dispatch_us_per_trial",
        dispatch_s / (50 * torture.len()) as f64 * 1e6,
        "us",
    ));

    let mut tune = TuneCold::setup(seed, scratch);
    predictor(reps, &tune, seed, &mut out);
    sweeps(reps, &mut tune, &mut out);
    drop(tune);

    let mut serve = ServeWarm::setup(seed, scratch);
    serving(reps, &mut serve, scratch, &mut out);
    out
}
