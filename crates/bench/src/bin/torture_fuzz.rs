//! Differential torture fuzzer — the standing gate every engine and
//! backend tier must pass.
//!
//! Runs a time-budgeted fuzz session over the named torture scenario
//! corpus: each case generates one program from a journaled
//! `(config, seed)` identity and diffs it across every replay engine ×
//! backend fidelity × `n_parallel` combination
//! (`simtune_core::diffharness`). Divergent cases are delta-debugged to
//! a minimal repro and written as `.s` artifacts; stdout is one JSON
//! summary (schema `simtune-torture-fuzz-v2`) with throughput and
//! per-scenario coverage. Exit status is nonzero iff any case diverged
//! (or the session itself failed), so CI can gate on it directly.
//!
//! ```text
//! torture_fuzz [--seconds N] [--start-seed N] [--scenario NAME]
//!              [--fidelity SPEC] [--journal PATH] [--repro-dir PATH]
//! torture_fuzz --replay SCENARIO:SEED
//! torture_fuzz --list-scenarios
//! ```
//!
//! `--fidelity <spec>` (any `simtune_core::FidelitySpec` string, e.g.
//! `pipelined` or `pipelined:btb=64,ras=4`) adds a focus lane: every
//! case is also replayed on that tier on the decoded engine and must
//! report bit-identically to its interp run, cycles included — the
//! nightly long-fuzz matrix runs one lane per tier this way.
//!
//! `--replay` re-runs one journaled case verbosely (the workflow for a
//! failure found by the long-fuzz lane: copy the `scenario:seed` from
//! the journal or repro header, replay locally, then shrink under a
//! debugger). Seeds accept decimal or `0x`-prefixed hex.

use simtune_bench::fuzz::{replay_case, run_fuzz, FuzzOptions};
use simtune_isa::TortureConfig;
use std::process::exit;
use std::time::Duration;

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: torture_fuzz [--seconds N] [--start-seed N] [--scenario NAME] \
         [--fidelity SPEC] [--journal PATH] [--repro-dir PATH] \
         | --replay SCENARIO:SEED | --list-scenarios"
    );
    exit(2);
}

fn main() {
    let mut opts = FuzzOptions::default();
    let mut replay: Option<(String, u64)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2);
            })
        };
        match arg.as_str() {
            "--seconds" => {
                let v = value("--seconds");
                opts.budget = Duration::from_secs_f64(v.parse().unwrap_or_else(|_| {
                    eprintln!("--seconds: invalid number {v:?}");
                    exit(2);
                }));
            }
            "--start-seed" => {
                let v = value("--start-seed");
                opts.start_seed = parse_seed(&v).unwrap_or_else(|| {
                    eprintln!("--start-seed: invalid seed {v:?}");
                    exit(2);
                });
            }
            "--scenario" => opts.scenario = Some(value("--scenario")),
            "--fidelity" => {
                let v = value("--fidelity");
                opts.fidelity = Some(v.parse().unwrap_or_else(|e| {
                    eprintln!("--fidelity: {e}");
                    exit(2);
                }));
            }
            "--journal" => opts.journal = Some(value("--journal").into()),
            "--repro-dir" => opts.repro_dir = Some(value("--repro-dir").into()),
            "--replay" => {
                let v = value("--replay");
                let (scenario, seed) = v.rsplit_once(':').unwrap_or_else(|| {
                    eprintln!("--replay expects SCENARIO:SEED, got {v:?}");
                    exit(2);
                });
                let seed = parse_seed(seed).unwrap_or_else(|| {
                    eprintln!("--replay: invalid seed {seed:?}");
                    exit(2);
                });
                replay = Some((scenario.to_string(), seed));
            }
            "--list-scenarios" => {
                for name in TortureConfig::scenario_names() {
                    println!("{name}");
                }
                return;
            }
            _ => usage(),
        }
    }

    if let Some((scenario, seed)) = replay {
        let out = replay_case(&scenario, seed).unwrap_or_else(|e| {
            eprintln!("[fuzz] {e}");
            exit(2);
        });
        eprintln!(
            "[fuzz] replayed {scenario}:{seed:#x}: {} combos, faulted={}, {} divergences",
            out.combos,
            out.faulted,
            out.divergences.len()
        );
        for d in &out.divergences {
            println!("{d}");
        }
        exit(if out.passed() { 0 } else { 1 });
    }

    eprintln!(
        "[fuzz] session: {:.0}s budget, start seed {:#x}, scenario {}, focus tier {}",
        opts.budget.as_secs_f64(),
        opts.start_seed,
        opts.scenario.as_deref().unwrap_or("<whole corpus>"),
        opts.fidelity
            .as_ref()
            .map_or("<none>".into(), |f| f.digest()),
    );
    let summary = run_fuzz(&opts).unwrap_or_else(|e| {
        eprintln!("[fuzz] session failed: {e}");
        exit(2);
    });
    eprintln!(
        "[fuzz] {} cases ({:.1}/s), {} combos, {} divergent",
        summary.cases,
        summary.programs_per_second,
        summary.combos,
        summary.failures.len()
    );
    println!(
        "{}",
        serde_json::to_string(&summary).expect("summary serializes")
    );
    exit(if summary.pass { 0 } else { 1 });
}
