//! `tune_cold`: the whole paper loop, cold.
//!
//! Each rep sweeps all five search strategies with
//! `tune_with_fidelity_escalation` — exploring on the pipelined tier,
//! re-simulating the top-k finalists accurately — against one fresh
//! memo cache the five strategies share, on two workers. Every layer
//! takes part the way a user's sweep drives it: propose, build,
//! fingerprint, in-flight dedup, pool scheduling, pipelined replay,
//! escalation, scoring.
//!
//! What a sweep costs is set by the trajectory its tune seed produces
//! (which candidates are proposed, how many are memo hits), so the
//! fixture holds `SCRIPTS` sweeps under as many seeds derived from
//! `--seed`, and the reps rotate through them.

use crate::harness::{Verdict, Workload, ROOT_SPAN};
use crate::inputs::{conv_def, mix, TrainingSet};
use crate::replay::pipelined_spec;
use crate::trace::Tracer;
use simtune_core::{
    memo_fingerprint, tune_with_fidelity_escalation, ConvergenceStats, EngineKind,
    EscalatedTuneResult, EscalationOptions, GroupData, KernelBuilder, MemoCacheStats,
    ScorePredictor, SimCache, StrategySpec, TuneOptions,
};
use simtune_hw::TargetSpec;
use simtune_isa::RunLimits;
use simtune_tensor::ComputeDef;
use std::path::Path;
use std::sync::Arc;

/// Trials per strategy and batch size of every sweep.
const N_TRIALS: usize = 16;
const BATCH: usize = 12;
/// Implementations the predictor is trained on.
pub const TRAIN_IMPLS: usize = 24;

/// Everything deterministic in one strategy's result; wall-clock fields
/// (`timings`, `replay_nanos`) are left out.
#[derive(Debug, PartialEq)]
pub struct TuneDigest {
    strategy: String,
    history: Vec<(String, u64)>,
    best_index: usize,
    simulations: usize,
    convergence: ConvergenceStats,
    explore_runs: usize,
    accurate_runs: usize,
}

impl TuneDigest {
    fn of(out: &EscalatedTuneResult) -> TuneDigest {
        let r = &out.result;
        TuneDigest {
            strategy: r.strategy.clone(),
            history: r
                .history
                .iter()
                .map(|h| (h.description.clone(), h.score.to_bits()))
                .collect(),
            best_index: r.best_index,
            simulations: r.simulations,
            convergence: r.convergence,
            explore_runs: out.explore_runs,
            accurate_runs: out.accurate_runs,
        }
    }
}

/// One rep's outputs: the five results and the rep cache's counters.
pub struct SweepOut {
    pub results: Vec<EscalatedTuneResult>,
    pub memo: MemoCacheStats,
}

/// One rep script: a tune seed and what the sweep under it must return.
struct Script {
    tune_seed: u64,
    reference: Vec<TuneDigest>,
    reference_memo: MemoCacheStats,
    trials: u64,
    insts: u64,
}

pub struct TuneCold {
    pub def: ComputeDef,
    pub spec: TargetSpec,
    pub data: GroupData,
    pub predictor: ScorePredictor,
    scripts: Vec<Script>,
}

impl TuneCold {
    fn sweep(
        &self,
        tune_seed: u64,
        memo: &Arc<SimCache>,
        mut tracer: Option<&mut Tracer>,
    ) -> Vec<EscalatedTuneResult> {
        let esc = EscalationOptions {
            explore: Some(pipelined_spec()),
            ..EscalationOptions::default()
        };
        StrategySpec::all()
            .into_iter()
            .map(|strategy| {
                let opts = TuneOptions {
                    n_trials: N_TRIALS,
                    batch_size: BATCH,
                    n_parallel: Self::N_PARALLEL,
                    seed: tune_seed,
                    strategy,
                    memo_cache: Some(memo.clone()),
                    engine: EngineKind::Decoded,
                    ..TuneOptions::default()
                };
                let run = || {
                    tune_with_fidelity_escalation(
                        &self.def,
                        &self.spec,
                        &self.predictor,
                        &opts,
                        &esc,
                    )
                    .expect("escalated tune completes on the conv kernel")
                };
                match tracer.as_deref_mut() {
                    Some(t) => t.span("autotune.tune", run),
                    None => run(),
                }
            })
            .collect()
    }

    /// The reference sweep under `tune_seed`: later reps of the script
    /// must reproduce it bit for bit.
    fn script(&self, tune_seed: u64) -> Script {
        let memo = Arc::new(SimCache::new());
        let results = self.sweep(tune_seed, &memo, None);
        Script {
            tune_seed,
            reference_memo: memo.stats(),
            trials: results.iter().map(|r| r.result.history.len() as u64).sum(),
            insts: self.delivered_insts(&results, &memo),
            reference: results.iter().map(TuneDigest::of).collect(),
        }
    }

    fn verdict(&self, script: usize, out: &SweepOut) -> Verdict {
        let script = &self.scripts[script];
        let differing = out
            .results
            .iter()
            .zip(&script.reference)
            .filter(|(got, want)| TuneDigest::of(got) != **want)
            .count();
        // The rep cache's hit/miss counts are part of the result too: a
        // rep that reached the same scores through different memo
        // traffic did different work.
        let memo_differs = u64::from(out.memo != script.reference_memo);
        Verdict {
            ops: script.reference.len() as u64 + 1,
            failed: differing as u64 + memo_differs,
            op_ms: Vec::new(),
        }
    }

    /// Retired instructions behind every exploration-tier report a sweep
    /// delivered, recalled from the sweep's memo cache. (Which finalists
    /// were delivered a second time, on the accurate tier, is not
    /// visible from outside, so that delivery is not counted.)
    fn delivered_insts(&self, results: &[EscalatedTuneResult], memo: &SimCache) -> u64 {
        let digest = pipelined_spec()
            .build(&self.spec.hierarchy)
            .expect("bundled tier builds")
            .fidelity_digest()
            .expect("bundled tiers memoize");
        let builder = KernelBuilder::new(self.def.clone(), self.spec.isa.clone());
        results
            .iter()
            .flat_map(|r| &r.result.history)
            // A failed build delivers no statistics.
            .filter_map(|record| builder.build(&record.schedule, "recall").ok())
            .filter_map(|exe| {
                let key =
                    memo_fingerprint(&exe, &digest, &RunLimits::default(), EngineKind::Decoded);
                memo.lookup(&key)
            })
            .map(|report| report.stats.inst_mix.total())
            .sum()
    }
}

impl Workload for TuneCold {
    const NAME: &'static str = "tune_cold";
    const N_PARALLEL: usize = 2;
    const SCRIPTS: usize = 4;
    const MIN_ROUNDS: usize = 6;
    type Out = SweepOut;

    fn setup(seed: u64, _scratch: &Path) -> Self {
        let spec = TargetSpec::riscv_u74();
        let def = conv_def();
        let (data, predictor) = TrainingSet {
            group: 1,
            kernel: "conv2d_bias_relu",
            impls: TRAIN_IMPLS,
            seed: mix(seed, 2),
            predictor_seed: 1,
        }
        .train(&def, &spec, None);
        let mut w = TuneCold {
            def,
            spec,
            data,
            predictor,
            scripts: Vec::new(),
        };
        w.scripts = (0..Self::SCRIPTS as u64)
            .map(|k| w.script(mix(seed, 10 + k)))
            .collect();
        w
    }

    fn trials_per_round(&self) -> u64 {
        self.scripts.iter().map(|s| s.trials).sum()
    }

    fn insts_per_round(&self) -> u64 {
        self.scripts.iter().map(|s| s.insts).sum()
    }

    fn rep(&mut self, script: usize) -> SweepOut {
        let memo = Arc::new(SimCache::new());
        let results = self.sweep(self.scripts[script].tune_seed, &memo, None);
        SweepOut {
            results,
            memo: memo.stats(),
        }
    }

    fn check(&mut self, script: usize, out: SweepOut) -> Verdict {
        self.verdict(script, &out)
    }

    fn traced_rep(&mut self, script: usize, tracer: &mut Tracer) -> Verdict {
        let root = tracer.enter(ROOT_SPAN);
        let memo = tracer.span("memo.cache_new", || Arc::new(SimCache::new()));
        let results = self.sweep(self.scripts[script].tune_seed, &memo, Some(tracer));
        tracer.exit(root);
        self.verdict(
            script,
            &SweepOut {
                results,
                memo: memo.stats(),
            },
        )
    }

    fn memo_hit_rate(&self) -> f64 {
        let (hits, lookups) = self.scripts.iter().fold((0, 0), |(h, l), s| {
            (h + s.reference_memo.hits, l + s.reference_memo.lookups())
        });
        hits as f64 / lookups as f64
    }
}
