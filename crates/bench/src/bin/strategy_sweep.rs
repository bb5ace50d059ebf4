//! Compares the pluggable search strategies at a fixed simulation
//! budget on the paper's Conv2D workload.
//!
//! Pac-Sim and CAPSim (PAPERS.md) argue that once per-candidate
//! simulation is cheap, *candidate selection* dominates tuning cost.
//! This binary quantifies that on one group: every strategy gets the
//! same trial budget, the same predictor and the same simulators, and
//! the table reports what each one found and how fast it converged.
//!
//! ```text
//! cargo run --release --bin strategy_sweep -- --arch riscv --scale smoke
//! cargo run --release --bin strategy_sweep -- --strategy evolutionary
//! ```
//!
//! `--strategy <name>` restricts the sweep to one strategy
//! (`random|grid|hill|evolutionary|annealing`); the default sweeps all
//! five.
//!
//! `--fidelity <spec>` selects how candidates are simulated:
//! `accurate` (default) runs every trial on the accurate backend; any
//! other [`simtune_core::FidelitySpec`] tier (`fast-count`,
//! `sampled:fraction=F`, `pipelined[:btb=N,ras=N]`) explores there and
//! re-simulates the static top-k finalists accurately; and `predicted`
//! drives the learned tier with uncertainty-driven escalation. The
//! escalated modes add a row per strategy with the escalation rate
//! (and, for `predicted`, the avoided simulations and rank error).
//!
//! The `replay/sec` column is trials per second of pure simulator
//! replay (`TuneResult::replay_nanos`), without propose/build/score
//! and pool scheduling.

use simtune_bench::{Args, ExperimentConfig, FidelityMode};
use simtune_core::{
    collect_group_data, tune_with_fidelity_escalation, tune_with_predictor, CollectOptions,
    CoreError, EscalationOptions, EscalationPolicy, ScorePredictor, SimCache, StrategySpec,
    TuneOptions, TuneResult, UncertaintyPolicy,
};
use simtune_hw::TargetSpec;
use simtune_predict::PredictorKind;
use simtune_tensor::conv2d_bias_relu;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let strategies: Vec<StrategySpec> = match &args.strategy {
        Some(s) => vec![s.clone()],
        None => StrategySpec::all().to_vec(),
    };
    let n_trials = 48.min(args.impls.max(16));

    for cfg in ExperimentConfig::from_args(&args) {
        let Some(spec) = TargetSpec::by_name(&cfg.arch) else {
            eprintln!("[{}] unknown arch, skipping", cfg.arch);
            continue;
        };
        // Group 1 of Table II at the requested scale: the sweep workload.
        let shape = cfg.scale.conv_groups()[1];
        let def = conv2d_bias_relu(&shape);
        eprintln!(
            "[{}] training predictor on conv2d group 1 ({:.1}M MACs)...",
            cfg.arch,
            shape.macs() as f64 / 1e6
        );
        // One memo cache for the whole sweep: strategies revisit each
        // other's candidates, and the hit rate below measures how much
        // of the sweep was answered from memory.
        let memo = Arc::new(SimCache::new());
        let data = match collect_group_data(
            &def,
            &spec,
            1,
            &CollectOptions {
                n_impls: cfg.impls.min(60),
                n_parallel: cfg.n_parallel,
                seed: cfg.seed,
                max_attempts_factor: 40,
                ..CollectOptions::default()
            },
        ) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("[{}] collection failed: {e}", cfg.arch);
                continue;
            }
        };
        let mut predictor =
            ScorePredictor::new(PredictorKind::Xgboost, &cfg.arch, "conv2d_bias_relu", 1);
        if let Err(e) = predictor.train(std::slice::from_ref(&data)) {
            eprintln!("[{}] training failed: {e}", cfg.arch);
            continue;
        }

        println!(
            "\n[{}] {n_trials} trials, batch {}, seed {}",
            cfg.arch,
            n_trials.min(12),
            cfg.seed
        );
        println!(
            "{:>13} | {:>11} | {:>11} | {:>8} | {:>13} | {:>8} | {:>11} | {:>11}",
            "strategy",
            "best score",
            "simulations",
            "improves",
            "trials-to-best",
            "restarts",
            "trials/sec",
            "replay/sec"
        );
        println!("{}", "-".repeat(110));
        let (mut total_trials, mut total_replay_nanos) = (0usize, 0u64);
        let sweep_start = Instant::now();
        for strategy in &strategies {
            let opts = TuneOptions {
                n_trials,
                batch_size: n_trials.min(12),
                n_parallel: cfg.n_parallel,
                seed: cfg.seed,
                strategy: strategy.clone(),
                memo_cache: Some(memo.clone()),
                ..TuneOptions::default()
            };
            let t0 = Instant::now();
            match run_tune(&args, &def, &spec, &predictor, &opts) {
                Ok((result, accurate_runs)) => {
                    let wall = t0.elapsed().as_secs_f64();
                    let trials_per_sec = result.history.len() as f64 / wall.max(1e-9);
                    let replay_tps = replay_throughput(result.history.len(), result.replay_nanos);
                    let c = result.convergence;
                    println!(
                        "{:>13} | {:>11.4} | {:>11} | {:>8} | {:>13} | {:>8} | {:>11.1} | {:>11.1}",
                        result.strategy,
                        result.best().score,
                        result.simulations,
                        c.improvements,
                        c.trials_to_best,
                        c.restarts,
                        trials_per_sec,
                        replay_tps
                    );
                    if let Some(acc) = accurate_runs {
                        let ps = result.predictor.as_ref();
                        println!(
                            "{:>13} | escalated {acc}/{} ({:.0} %){}",
                            "",
                            result.history.len(),
                            acc as f64 / result.history.len().max(1) as f64 * 100.0,
                            ps.map_or(String::new(), |p| format!(
                                ", avoided {} sims, rank err {:.3}",
                                p.avoided_simulations, p.mean_abs_rank_error
                            ))
                        );
                    }
                    total_trials += result.history.len();
                    total_replay_nanos += result.replay_nanos;
                }
                Err(e) => eprintln!("{:>13} | failed: {e}", strategy.label()),
            }
        }
        let sweep_wall = sweep_start.elapsed().as_secs_f64();
        let memo_stats = memo.stats();
        println!(
            "sweep[{}]: {:.1} trials/sec ({:.1} replay/sec) over {total_trials} trials, memo hit rate {:.1} % ({} hits / {} lookups)",
            args.fidelity.label(),
            total_trials as f64 / sweep_wall.max(1e-9),
            replay_throughput(total_trials, total_replay_nanos),
            memo_stats.hit_ratio() * 100.0,
            memo_stats.hits,
            memo_stats.lookups(),
        );
    }
}

/// Replay-only throughput: trials per second of pure simulator replay
/// time; `0` when nothing replayed (fully memoized rerun).
fn replay_throughput(trials: usize, replay_nanos: u64) -> f64 {
    if replay_nanos == 0 {
        0.0
    } else {
        trials as f64 / (replay_nanos as f64 / 1e9)
    }
}

/// Runs one strategy's tune in the requested fidelity mode.
///
/// Returns the tune result plus the number of accurate simulations the
/// escalated modes spent (`None` for the accurate-only baseline, where
/// every simulation is accurate by construction).
fn run_tune(
    args: &Args,
    def: &simtune_tensor::ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
) -> Result<(TuneResult, Option<usize>), CoreError> {
    match &args.fidelity {
        FidelityMode::Tier(simtune_core::FidelitySpec::Accurate) => {
            Ok((tune_with_predictor(def, spec, predictor, opts)?, None))
        }
        FidelityMode::Tier(explore) => {
            // Pinned non-accurate tier: explore there, re-simulate the
            // static top-k finalists accurately so the sweep's scores
            // stay comparable across tiers.
            let esc = EscalationOptions {
                explore: Some(explore.clone()),
                ..EscalationOptions::default()
            };
            let out = tune_with_fidelity_escalation(def, spec, predictor, opts, &esc)?;
            Ok((out.result, Some(out.accurate_runs)))
        }
        FidelityMode::Predicted => {
            let esc = EscalationOptions {
                policy: EscalationPolicy::Uncertainty(UncertaintyPolicy {
                    min_train: 4,
                    ..UncertaintyPolicy::default()
                }),
                ..EscalationOptions::default()
            };
            let out = tune_with_fidelity_escalation(def, spec, predictor, opts, &esc)?;
            Ok((out.result, Some(out.accurate_runs)))
        }
    }
}
