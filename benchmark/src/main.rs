//! `simtune-benchmark`: the repository benchmark.
//!
//! ```text
//! simtune-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! simtune-benchmark --selftest [--seed <n>] [--seconds <s>]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; everything above it
//! is the same information for a human. See `benchmark/README.md`.

mod alloc;
mod clock;
mod contract;
mod harness;
mod inputs;
mod ledger;
mod oracle;
mod replay;
mod serve_warm;
mod trace;
mod tune_cold;

use contract::Contract;
use harness::{run_reps, Budget, RepLog, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Times the fixture is built in a full run, each build followed by its
/// share of the timed reps; `setup_s` is the fastest build.
const SETUP_REPEATS: usize = 3;
/// Rounds in `--quick` mode.
const QUICK_ROUNDS: usize = 3;

pub const WORKLOADS: [&str; 4] = ["replay_conv", "replay_short_x86", "tune_cold", "serve_warm"];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one run found.
pub struct Report {
    pub metrics: Vec<Metric>,
    /// `name = value` facts printed above the result line.
    pub facts: Vec<(String, String)>,
    pub ops: u64,
    pub failed: u64,
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selftest: bool,
}

const USAGE: &str = "usage: simtune-benchmark --workload <replay_conv|replay_short_x86|tune_cold|serve_warm> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]\n       simtune-benchmark --selftest [--seed <n>] [--seconds <s>]";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: Contract::load().run_seconds as f64,
        trace: false,
        quick: false,
        selftest: false,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.selftest && (args.trace || args.quick || args.workload.is_some()) {
        return Err("--selftest compares full untraced runs of every workload; \
                    it takes only --seed and --seconds"
            .into());
    }
    Ok(args)
}

/// A private directory next to the executable — inside the checkout's
/// build directory — for the files a run writes.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Scratch {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let exe = std::env::current_exe().expect("the running executable has a path");
        let dir = exe
            .parent()
            .expect("an executable lives in a directory")
            .join(format!(
                "simtune-benchmark-scratch-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn budget<W: Workload>(args: &Args) -> Budget {
    if args.quick {
        Budget {
            seconds: 0.0,
            min_rounds: QUICK_ROUNDS,
        }
    } else {
        Budget {
            seconds: args.seconds,
            min_rounds: W::MIN_ROUNDS,
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn end_to_end<W: Workload>(w: &W, setup_s: f64, log: &RepLog) -> Vec<Metric> {
    let trials = w.trials_per_round() as f64;
    vec![
        metric("setup_s", setup_s, "s"),
        metric("trials_per_s", trials / log.fast_round_wall_s(), "1/s"),
        metric(
            "sim_mips",
            w.insts_per_round() as f64 / log.fast_round_wall_s() / 1e6,
            "Minst/s",
        ),
        metric(
            "cpu_ms_per_trial",
            log.fast_round_cpu_s() * 1e3 / trials,
            "ms",
        ),
        metric("op_p50_ms", log.op_p50_ms(true).0, "ms"),
        metric("peak_rss_mb", clock::peak_rss_mb(), "MiB"),
    ]
}

fn rep_facts<W: Workload>(w: &W, log: &RepLog) -> Vec<(String, String)> {
    let q = |p| clock::quantile(&log.wall_s, p) * 1e3;
    let (calm_p50, calm_ops) = log.op_p50_ms(true);
    let (all_p50, all_ops) = log.op_p50_ms(false);
    vec![
        ("workload".into(), W::NAME.into()),
        ("n_parallel".into(), W::N_PARALLEL.to_string()),
        ("scripts".into(), W::SCRIPTS.to_string()),
        ("trials_per_round".into(), w.trials_per_round().to_string()),
        ("insts_per_round".into(), w.insts_per_round().to_string()),
        ("reps".into(), log.wall_s.len().to_string()),
        (
            "rep_ms (min / p10 / q1 / median / q3)".into(),
            format!(
                "{:.3} / {:.3} / {:.3} / {:.3} / {:.3}",
                q(0.0),
                q(0.1),
                q(0.25),
                q(0.5),
                q(0.75)
            ),
        ),
        ("rep_iqr_pct".into(), format!("{:.2}", log.iqr_pct())),
        (
            "op_p50_ms (calm reps / every rep)".into(),
            format!("{calm_p50:.4} over {calm_ops} ops / {all_p50:.4} over {all_ops} ops"),
        ),
    ]
}

/// The untraced run. The slow phases of a shared box last seconds to
/// minutes, so the fixture builds are spread over the run instead of
/// standing together at its start: build, a third of the reps, build
/// again, the next third, and so on. The seed fixes the fixture, so the
/// reps of all the segments are reps of the same scripts and go into one
/// log.
fn run<W: Workload>(args: &Args) -> Report {
    let scratch = Scratch::create();
    let segments = if args.quick { 1 } else { SETUP_REPEATS };
    let mut log = RepLog::new(W::SCRIPTS);
    let mut setups = Vec::with_capacity(segments);
    let mut fixture = None;
    for _ in 0..segments {
        drop(fixture.take()); // one fixture alive at a time
        let t0 = Instant::now();
        let w = fixture.insert(W::setup(args.seed, &scratch.0));
        setups.push(t0.elapsed().as_secs_f64());
        run_reps(w, budget::<W>(args).split(segments), &mut log);
    }
    let w = fixture.expect("at least one segment ran");
    let mut facts = rep_facts(&w, &log);
    facts.push(("setup_s of every build".into(), format!("{setups:.3?}")));
    let fastest_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    Report {
        metrics: end_to_end(&w, fastest_setup, &log),
        facts,
        ops: log.ops,
        failed: log.failed,
    }
}

/// Layers a traced script's spans are filed under (the part of a span
/// name before the first dot), in the order their self times print.
const TRACE_LAYERS: [&str; 9] = [
    "isa", "cache", "hw", "replay", "pool", "memo", "autotune", "serve", "bench",
];

/// The traced run: untraced reps alternating with the workload's traced
/// script, then the per-layer ledger.
fn run_traced<W: Workload>(args: &Args) -> Report {
    let scratch = Scratch::create();
    let mut w = W::setup(args.seed, &scratch.0);
    let mut tracer = trace::Tracer::default();
    // Each side gets half the rounds a full run would.
    let mut half = budget::<W>(args);
    half.min_rounds = (half.min_rounds / 2).max(QUICK_ROUNDS);
    let (untraced, traced) = harness::run_alternating_reps(&mut w, half, &mut tracer);

    let mut metrics = vec![
        metric(
            "isa.insts_per_rep",
            w.insts_per_round() as f64 / W::SCRIPTS as f64,
            "count",
        ),
        metric("memo.hit_rate", w.memo_hit_rate(), "ratio"),
    ];
    // Self time per layer and traced rep (the warm-up rep included on
    // both sides of the division).
    let traced_reps = (traced.wall_s.len() + 1) as f64;
    let self_ns = tracer.self_ns_by_name();
    let mut attributed = 0.0;
    let mut total = 0.0;
    for layer in TRACE_LAYERS {
        let ns: u64 = self_ns
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, ns)| *ns)
            .sum();
        total += ns as f64;
        if layer != "bench" {
            attributed += ns as f64;
        }
        metrics.push(metric(
            &format!("trace.self_ms.{layer}"),
            ns as f64 / traced_reps / 1e6,
            "ms",
        ));
    }
    let q = |p| clock::quantile(&untraced.wall_s, p) * 1e3;
    metrics.extend([
        metric("bench.trace_coverage_pct", attributed / total * 100.0, "%"),
        metric(
            "bench.trace_overhead_pct",
            (traced.fast_round_wall_s() / untraced.fast_round_wall_s() - 1.0) * 100.0,
            "%",
        ),
        metric("bench.nproc", nproc() as f64, "count"),
        metric("bench.n_parallel", W::N_PARALLEL as f64, "count"),
        metric("bench.reps", untraced.wall_s.len() as f64, "count"),
        metric("bench.rep_ms.q1", q(0.25), "ms"),
        metric("bench.rep_ms.median", q(0.5), "ms"),
        metric("bench.rep_ms.q3", q(0.75), "ms"),
        metric("bench.rep_iqr_pct", untraced.iqr_pct(), "%"),
        metric(
            "bench.op_ms.p50_all_reps",
            untraced.op_p50_ms(false).0,
            "ms",
        ),
        metric(
            "bench.op_ms.samples",
            untraced.op_p50_ms(false).1 as f64,
            "count",
        ),
        metric("bench.ops", (untraced.ops + traced.ops) as f64, "count"),
        metric(
            "bench.failed_ops",
            (untraced.failed + traced.failed) as f64,
            "count",
        ),
    ]);

    let trace_path = scratch.0.with_file_name(format!(
        "simtune-benchmark-trace-{}-{}.jsonl",
        W::NAME,
        args.seed
    ));
    tracer
        .write_jsonl(&trace_path)
        .expect("trace file is writable next to the executable");
    let mut facts = rep_facts(&w, &untraced);
    facts.push(("trace".into(), trace_path.display().to_string()));
    drop(w);
    metrics.extend(ledger::run(args.seed, &scratch.0, args.quick));
    Report {
        metrics,
        facts,
        ops: untraced.ops + traced.ops,
        failed: untraced.failed + traced.failed,
    }
}

fn dispatch(workload: &str, args: &Args) -> Result<Report, String> {
    macro_rules! go {
        ($w:ty) => {
            if args.trace {
                run_traced::<$w>(args)
            } else {
                run::<$w>(args)
            }
        };
    }
    let mut report = match workload {
        "replay_conv" => go!(replay::ReplayConv),
        "replay_short_x86" => go!(replay::ReplayShortX86),
        "tune_cold" => go!(tune_cold::TuneCold),
        "serve_warm" => go!(serve_warm::ServeWarm),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    conform(&mut report, &Contract::load().expected(args.trace))?;
    Ok(report)
}

/// Orders the report's metrics as `BENCHMARK.json` declares them and
/// rejects any difference in names or units between the two.
fn conform(report: &mut Report, expected: &[(&str, &str)]) -> Result<(), String> {
    let mut ordered = Vec::with_capacity(expected.len());
    for (name, unit) in expected {
        let at = report
            .metrics
            .iter()
            .position(|m| m.name == *name)
            .ok_or(format!(
                "BENCHMARK.json declares {name}, which this run did not measure"
            ))?;
        let m = report.metrics.swap_remove(at);
        if m.unit != *unit {
            return Err(format!(
                "{name} is measured in {} but declared in {unit}",
                m.unit
            ));
        }
        ordered.push(m);
    }
    if !report.metrics.is_empty() {
        let extra: Vec<String> = report
            .metrics
            .iter()
            .map(|m| format!("{} [{}]", m.name, m.unit))
            .collect();
        return Err(format!(
            "measured but not declared in BENCHMARK.json: {}",
            extra.join(", ")
        ));
    }
    report.metrics = ordered;
    Ok(())
}

/// One full untraced run of `workload` in a process of its own (so that
/// `peak_rss_mb`, a high-water mark of the whole process, is the run's);
/// returns its end-to-end values in declaration order.
fn child_run(workload: &str, args: &Args, contract: &Contract) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .output()
        .map_err(|e| format!("{workload}: child run did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload}: child run ended with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim_end()
        ));
    }
    // The human-readable lines above the result line: `name value unit`.
    let stdout = String::from_utf8_lossy(&out.stdout);
    contract
        .end_to_end
        .iter()
        .map(|decl| {
            stdout
                .lines()
                .find_map(|line| {
                    let mut fields = line.split_whitespace();
                    (fields.next() == Some(decl.name.as_str()))
                        .then(|| fields.next()?.parse::<f64>().ok())
                        .flatten()
                })
                .ok_or(format!("{workload}: child run printed no {}", decl.name))
        })
        .collect()
}

/// A/A: every workload twice back to back, each run in a child process;
/// prints each end-to-end metric's relative difference next to its bound.
fn selftest(args: &Args) -> ExitCode {
    let contract = Contract::load();
    let mut worst = ExitCode::SUCCESS;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    for workload in WORKLOADS {
        let runs: Result<Vec<_>, _> = (0..2)
            .map(|_| child_run(workload, args, &contract))
            .collect();
        let runs = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("simtune-benchmark: {e}");
                worst = ExitCode::FAILURE;
                continue;
            }
        };
        for (decl, (a, b)) in contract.end_to_end.iter().zip(runs[0].iter().zip(&runs[1])) {
            let diff = (a - b).abs() / a.min(*b);
            let verdict = if diff > decl.bound {
                worst = ExitCode::FAILURE;
                "  EXCEEDS"
            } else {
                ""
            };
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>8.2} {:>7.0}{verdict}",
                workload,
                decl.name,
                a,
                b,
                diff * 100.0,
                decl.bound * 100.0
            );
        }
    }
    worst
}

/// JSON has no NaN or infinity; a metric that is not finite is a bug in
/// the benchmark and fails the run.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.ops.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn print_report(report: &Report) {
    for (name, value) in &report.facts {
        println!("# {name} = {value}");
    }
    for m in &report.metrics {
        println!("{:<40} {:>24} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(report));
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simtune-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = nproc();
    if nproc < 2 {
        eprintln!(
            "simtune-benchmark: needs at least 2 cores (found {nproc}): tune_cold and serve_warm \
             pin n_parallel = 2, and running them on fewer cores would silently measure \
             something else"
        );
        return ExitCode::from(2);
    }
    if args.selftest {
        return selftest(&args);
    }
    let Some(workload) = args.workload.clone() else {
        eprintln!("simtune-benchmark: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let report = match dispatch(&workload, &args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simtune-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("simtune-benchmark: metric {} is not finite", bad.name);
        return ExitCode::FAILURE;
    }
    println!("# nproc = {nproc}");
    print_report(&report);
    if report.failed > 0 {
        eprintln!(
            "simtune-benchmark: {} of {} checked results differ from the reference",
            report.failed, report.ops
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Per-layer metrics that are counts or simulated quantities: two
    /// runs on one seed must print them bit for bit.
    const EXACT: [&str; 16] = [
        "tensor.build_fail_share",
        "isa.insts_per_rep",
        "cache.l1d_miss_rate",
        "cache.l2_miss_rate",
        "hw.sim_ipc",
        "hw.cycles.pipeline",
        "hw.cycles.memory",
        "hw.cycles.control",
        "predict.holdout_spearman",
        "predict.top1_rank_pct",
        "memo.hit_rate",
        "autotune.escalation_rate",
        "autotune.simulations_per_trial",
        "bench.nproc",
        "bench.n_parallel",
        "bench.failed_ops",
    ];

    fn well_formed_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn contract_is_well_formed() {
        let c = Contract::load();
        assert!(c.command.len() <= 32 && c.command.iter().all(|a| a.len() <= 200));
        assert_eq!(c.paths, ["benchmark"]);
        assert!((1..=60).contains(&c.run_seconds));
        let declared: Vec<&str> = c.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(declared, WORKLOADS);
        assert!(c
            .workloads
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = c
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let largest = c.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");

        let mut names = BTreeSet::new();
        let all = c
            .end_to_end
            .iter()
            .map(|m| (&m.name, &m.unit, &m.better))
            .chain(c.per_layer.iter().map(|m| (&m.name, &m.unit, &m.better)));
        for (name, unit, better) in all {
            assert!(well_formed_name(name), "bad metric name {name:?}");
            assert!(names.insert(name.clone()), "{name} is declared twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
            assert!(better == "lower" || better == "higher");
        }
        for name in EXACT {
            assert!(
                c.per_layer.iter().any(|m| m.name == name),
                "{name} is not declared"
            );
        }
    }

    fn quick(workload: &str, trace: bool) -> Report {
        let args = Args {
            workload: Some(workload.to_string()),
            seed: 7,
            seconds: 1.0,
            trace,
            quick: true,
            selftest: false,
        };
        // `dispatch` itself rejects any difference between what was
        // measured and what BENCHMARK.json declares.
        let report = dispatch(workload, &args).expect("quick run conforms to BENCHMARK.json");
        assert!(
            report.ops > 0 && report.failed == 0,
            "{workload} failed its checks"
        );
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{workload}: {} is not finite", m.name);
            assert!(well_formed_name(&m.name));
        }
        let line = result_line(&report);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(!line.contains('\n'));
        report
    }

    fn quick_workload(workload: &str) {
        let untraced = quick(workload, false);
        assert_eq!(untraced.metrics.len(), Contract::load().end_to_end.len());
        assert!(
            untraced.metrics.iter().all(|m| m.value > 0.0),
            "end-to-end metrics are never 0"
        );
        let (first, second) = (quick(workload, true), quick(workload, true));
        for (a, b) in first.metrics.iter().zip(&second.metrics) {
            if EXACT.contains(&a.name.as_str()) {
                assert_eq!(
                    a.value.to_bits(),
                    b.value.to_bits(),
                    "{workload}: {} moved",
                    a.name
                );
            }
        }
    }

    #[test]
    fn quick_replay_conv() {
        quick_workload("replay_conv");
    }

    #[test]
    fn quick_replay_short_x86() {
        quick_workload("replay_short_x86");
    }

    #[test]
    fn quick_tune_cold() {
        quick_workload("tune_cold");
    }

    #[test]
    fn quick_serve_warm() {
        quick_workload("serve_warm");
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |v: &[&str]| {
            parse_args(
                std::iter::once("bin")
                    .chain(v.iter().copied())
                    .map(String::from),
            )
        };
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--selftest", "--trace", "1"]).is_err());
        assert!(parse(&["--selftest", "--seed", "3"]).is_ok());
        let ok = parse(&[
            "--workload",
            "tune_cold",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (9, 3.0, true));
        let args = Args { quick: true, ..ok };
        assert!(dispatch("nonesuch", &args).is_err());
    }
}
