//! The rep loop every workload is measured with.
//!
//! A timed region is always R repetitions ("reps") of a fixed,
//! deterministic script, preceded by one discarded warm-up rep. A
//! workload whose cost depends on the seed it searches under carries
//! several scripts — one per derived seed — and the loop rotates through
//! them, so a run averages over that many trajectories instead of
//! reporting one. Rates come from the fast rep time of each script (see
//! [`crate::clock::fast`]), summed over the scripts; the result check of
//! a rep runs after its clock has stopped.

use crate::clock::{fast, median, process_cpu_ns, quantile};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

/// What checking one rep's outputs found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Results compared against the reference.
    pub ops: u64,
    /// Results that differed from it.
    pub failed: u64,
    /// Round-trip latencies of the ops a caller waits for inside the
    /// rep, when an op is smaller than the rep (`serve_warm`: one
    /// `tune` request). Empty when the op is the rep itself.
    pub op_ms: Vec<f64>,
}

/// One benchmark workload: a fixture built from a seed and the rep
/// scripts over it.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Worker threads the workload pins; never above the two cores the
    /// benchmark demands.
    const N_PARALLEL: usize;
    /// Rep scripts the loop rotates through; one *round* is every script
    /// once.
    const SCRIPTS: usize;
    /// Floor on timed rounds, so every script's fast rep time has
    /// samples below it however slow the machine.
    const MIN_ROUNDS: usize;
    type Out;

    /// Builds the fixture: inputs from the seed, the reference pass,
    /// training, warming. `scratch` is a private directory inside the
    /// checkout for files the workload writes.
    fn setup(seed: u64, scratch: &Path) -> Self;
    /// Trials (candidates whose statistics are delivered) per round.
    fn trials_per_round(&self) -> u64;
    /// Simulated instructions whose statistics are delivered per round,
    /// replayed or recalled from the memo cache.
    fn insts_per_round(&self) -> u64;
    /// Runs one rep script once.
    fn rep(&mut self, script: usize) -> Self::Out;
    /// Compares a rep's outputs with the script's reference.
    fn check(&mut self, script: usize, out: Self::Out) -> Verdict;
    /// Runs one rep script once with spans around every call into a
    /// layer, checking results outside the spans.
    fn traced_rep(&mut self, script: usize, tracer: &mut Tracer) -> Verdict;
    /// Memo hits ÷ lookups a round produces.
    fn memo_hit_rate(&self) -> f64;
}

/// How long a rep loop runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Keep starting rounds until this much wall time has passed…
    pub seconds: f64,
    /// …and at least this many timed rounds are done.
    pub min_rounds: usize,
}

impl Budget {
    /// The budget of one of `parts` equal rep loops that share this one.
    pub fn split(self, parts: usize) -> Budget {
        Budget {
            seconds: self.seconds / parts as f64,
            min_rounds: self.min_rounds.div_ceil(parts),
        }
    }
}

/// A rep counts as calm when it ran no slower than this multiple of its
/// script's fast rep time.
pub const CALM_SLACK: f64 = 1.10;

/// Timings and check results of one or more rep loops. Rep `i` ran script
/// `i % scripts`, and every loop ends on a round boundary, so every
/// script has the same number of reps.
#[derive(Debug)]
pub struct RepLog {
    scripts: usize,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    /// Per rep, the op latencies it reported (empty when the op is the
    /// rep itself).
    pub op_ms: Vec<Vec<f64>>,
    pub ops: u64,
    pub failed: u64,
}

impl RepLog {
    pub fn new(scripts: usize) -> RepLog {
        RepLog {
            scripts,
            wall_s: Vec::new(),
            cpu_s: Vec::new(),
            op_ms: Vec::new(),
            ops: 0,
            failed: 0,
        }
    }

    /// The fast value of each script's reps.
    fn fast_per_script(&self, xs: &[f64]) -> Vec<f64> {
        (0..self.scripts)
            .map(|k| {
                let own: Vec<f64> = xs.iter().skip(k).step_by(self.scripts).copied().collect();
                fast(&own)
            })
            .collect()
    }

    /// The round time rates are computed from: the fast rep time of
    /// every script, summed.
    pub fn fast_round_wall_s(&self) -> f64 {
        self.fast_per_script(&self.wall_s).iter().sum()
    }

    pub fn fast_round_cpu_s(&self) -> f64 {
        self.fast_per_script(&self.cpu_s).iter().sum()
    }

    /// Interquartile range of rep times as a share of their median: how
    /// much of the run the neighbours had (and, with several scripts,
    /// how far the scripts differ).
    pub fn iqr_pct(&self) -> f64 {
        (quantile(&self.wall_s, 0.75) - quantile(&self.wall_s, 0.25)) / median(&self.wall_s) * 100.0
    }

    /// The median op latency in ms and the ops it was taken over. An op
    /// is what a rep reported, or the rep itself when it reported none;
    /// reps of one script repeat the same ops, so the median is taken
    /// per script and the scripts' medians are averaged. With
    /// `calm_only`, reps that ran slower than `CALM_SLACK` × their
    /// script's fast rep time are left out.
    pub fn op_p50_ms(&self, calm_only: bool) -> (f64, usize) {
        let limits = self.fast_per_script(&self.wall_s);
        let mut ops = vec![Vec::new(); self.scripts];
        for (i, (wall, rep_ops)) in self.wall_s.iter().zip(&self.op_ms).enumerate() {
            let script = i % self.scripts;
            if calm_only && *wall > limits[script] * CALM_SLACK {
                continue;
            }
            if rep_ops.is_empty() {
                ops[script].push(wall * 1e3);
            } else {
                ops[script].extend_from_slice(rep_ops);
            }
        }
        (
            ops.iter().map(|o| median(o)).sum::<f64>() / self.scripts as f64,
            ops.iter().map(Vec::len).sum(),
        )
    }
}

/// Runs one untraced rep and logs it (`timed` false discards the timing).
fn untraced_rep<W: Workload>(w: &mut W, script: usize, log: &mut RepLog, timed: bool) {
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let out = w.rep(script);
    let wall = t0.elapsed();
    let cpu = process_cpu_ns() - cpu0;
    let verdict = w.check(script, out);
    log.ops += verdict.ops;
    log.failed += verdict.failed;
    if timed {
        log.wall_s.push(wall.as_secs_f64());
        log.cpu_s.push(cpu as f64 * 1e-9);
        log.op_ms.push(verdict.op_ms);
    }
}

/// Whether the loop may stop after `reps` timed reps.
fn spent<W: Workload>(budget: Budget, reps: usize, started: Instant) -> bool {
    reps.is_multiple_of(W::SCRIPTS)
        && reps >= budget.min_rounds * W::SCRIPTS
        && started.elapsed().as_secs_f64() >= budget.seconds
}

/// Runs one discarded warm-up rep, then timed rounds until `budget` is
/// spent, appending them to `log`.
pub fn run_reps<W: Workload>(w: &mut W, budget: Budget, log: &mut RepLog) {
    let started = Instant::now();
    untraced_rep(w, 0, log, false);
    for rep in 0.. {
        untraced_rep(w, rep % W::SCRIPTS, log, true);
        if spent::<W>(budget, rep + 1, started) {
            break;
        }
    }
}

/// The traced run's loop: untraced reps and traced reps of the same
/// script, alternating so both see the same machine, after one discarded
/// warm-up of each. Returns `(untraced, traced)`; a traced rep's time is
/// the duration of its `bench.rep` root span, so its result check (which
/// runs outside the spans) is excluded exactly as in an untraced rep.
pub fn run_alternating_reps<W: Workload>(
    w: &mut W,
    budget: Budget,
    tracer: &mut Tracer,
) -> (RepLog, RepLog) {
    let (mut untraced, mut traced) = (RepLog::new(W::SCRIPTS), RepLog::new(W::SCRIPTS));
    let started = Instant::now();
    let mut pair = |script: usize, timed: bool, span_rep: u32| {
        untraced_rep(w, script, &mut untraced, timed);
        tracer.set_rep(span_rep);
        let verdict = w.traced_rep(script, tracer);
        traced.ops += verdict.ops;
        traced.failed += verdict.failed;
    };
    pair(0, false, 0);
    for rep in 0.. {
        pair(rep % W::SCRIPTS, true, rep as u32 + 1);
        if spent::<W>(budget, rep + 1, started) {
            break;
        }
    }
    traced.wall_s = tracer
        .durations_ns(ROOT_SPAN)
        .into_iter()
        .skip(1)
        .map(|ns| ns * 1e-9)
        .collect();
    (untraced, traced)
}

/// Name of the span every traced rep opens first.
pub const ROOT_SPAN: &str = "bench.rep";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_op_latency_are_taken_per_script() {
        // Two scripts, four rounds: script 0 takes ~1 s, script 1 ~10 s,
        // and the last round of both ran on a slow machine.
        let mut log = RepLog::new(2);
        log.wall_s = vec![1.0, 10.0, 1.0, 10.0, 1.0, 10.0, 1.7, 17.0];
        log.cpu_s = log.wall_s.clone();
        log.op_ms = vec![Vec::new(); 8];
        // The three fastest of [1, 1, 1, 1.7] and of [10, 10, 10, 17].
        assert_eq!(log.fast_round_wall_s(), 11.0);
        // Calm reps: the first three rounds. The scripts' medians (1 s
        // and 10 s) are averaged, not pooled.
        assert_eq!(log.op_p50_ms(true), (5500.0, 6));
        assert_eq!(log.op_p50_ms(false), (5500.0, 8));
        // Ops a rep reports replace the rep itself.
        log.op_ms[0] = vec![2.0, 4.0, 6.0];
        log.op_ms[2] = vec![2.0, 4.0, 6.0];
        log.op_ms[4] = vec![2.0, 4.0, 6.0];
        assert_eq!(log.op_p50_ms(true), ((4.0 + 10_000.0) / 2.0, 12));
    }
}
