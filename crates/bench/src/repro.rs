//! `repro`: every table and figure of the paper from one collection.
//!
//! [`run`] parses the flags once, collects the five Conv2D groups of
//! Table II once per target with [`collect_group_data`], and prints each
//! paper section from that one dataset, in this order:
//!
//! 1. Tables I and II: cache presets and conv shapes;
//! 2. Tables III–V: `E_top1`, `Q` and `R_top1` per predictor and group
//!    (Section IV-C, medians over `--rounds` random splits);
//! 3. Figure 5: group 3's test set ranked by the Bayesian predictor
//!    trained with and without group 3;
//! 4. the feature, window and replacement-policy ablations;
//! 5. the search-strategy sweep on group 1, under `--strategy` and
//!    `--fidelity`;
//! 6. one timing section, opened by a `== timing` line, holding every
//!    number read off the wall clock: collection seconds, `t_sim`,
//!    Equation 4's `K`, the accurate tier's MIPS, trials/sec, replay/sec
//!    and wall time.
//!
//! Everything above the timing section is a function of the flags, so
//! it can be diffed against a committed file. `--cache PATH` loads the
//! collection's [`SimCache`] from a snapshot and saves it back, so a warm
//! rerun simulates nothing during collection and prints the same text
//! above the timing section.
//!
//! ```text
//! repro [--arch x86,arm,riscv|all] [--scale paper|half|quarter|smoke]
//!       [--impls N] [--test N] [--rounds N] [--parallel N] [--seed N]
//!       [--strategy NAME|all] [--fidelity SPEC] [--cache PATH]
//! ```

use crate::Scale;
use simtune_cache::{CacheConfig, HierarchyConfig, ReplacementPolicy};
use simtune_core::{
    collect_group_data, evaluate_predictor, holdout_group_curves, parallel_speedup_k,
    prediction_metrics, sample_group_schedules, split_train_test, tune_with_fidelity_escalation,
    tune_with_predictor, CollectOptions, CoreError, EscalationOptions, FeatureConfig, FidelitySpec,
    GroupData, HardwareRunner, KernelBuilder, MemoCacheStats, ScorePredictor, SimCache, SimSession,
    SnapshotLoad, StrategySpec, TuneOptions, TuneResult, WindowKind,
};
use simtune_hw::{MeasureConfig, TargetSpec};
use simtune_linalg::stats::spearman;
use simtune_predict::PredictorKind;
use simtune_tensor::{conv2d_bias_relu, ComputeDef};
use std::fmt::Display;
use std::io::{self, Write};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: repro [--arch x86,arm,riscv|all] [--scale paper|half|quarter|smoke] \
                     [--impls N] [--test N] [--rounds N] [--parallel N] [--seed N] \
                     [--strategy NAME|all] [--fidelity SPEC] [--cache PATH]";
/// Column headers of the sections' tables.
const FEATURES: &str = "        features |  mean Etop1 |  max Rtop1 |  mean Qlow";
const WINDOWS: &str = "        window | rho(exact) | mean Rtop1 | mean Etop1";
const POLICIES: &str = "  policy |  mean Etop1 |  max Rtop1";
const STRATEGIES: &str =
    "     strategy |  best score | simulations | improves | trials-to-best | restarts";
const SPEEDUP: &str =
    "  arch |  t_ref min  t_ref max |    t_sim min    t_sim max |  K measured |  sim MIPS";
const KERNEL: &str = "conv2d_bias_relu";
/// The group Figure 5 holds out.
const EVAL_GROUP: usize = 3;
/// The sweep's workload and the groups of the replacement ablation.
const SWEEP_GROUP: usize = 1;
const POLICY_GROUPS: [usize; 2] = [1, 3];

#[derive(Debug)]
struct Args {
    targets: Vec<TargetSpec>,
    scale: Scale,
    impls: usize,
    test_count: usize,
    rounds: usize,
    n_parallel: usize,
    seed: u64,
    /// `None` sweeps every built-in strategy.
    strategy: Option<StrategySpec>,
    /// The sweep's tier; any tier but `accurate` explores there and
    /// re-simulates the top-k finalists accurately.
    fidelity: FidelitySpec,
    cache: Option<PathBuf>,
}

impl Args {
    /// How the collection, and the replacement ablation that draws its
    /// schedules the same way, sample each group (without a memo).
    fn collect_options(&self) -> CollectOptions {
        CollectOptions {
            n_impls: self.impls,
            n_parallel: self.n_parallel,
            seed: self.seed,
            max_attempts_factor: 30,
            memo_cache: None,
        }
    }
}

/// The targets of a comma-separated `--arch` list, `all` for every one.
fn targets(list: &str) -> Result<Vec<TargetSpec>, String> {
    let list = if list == "all" { "x86,arm,riscv" } else { list };
    let by_name = |name: &str| {
        TargetSpec::by_name(name.trim())
            .ok_or_else(|| format!("unknown arch {name} (x86|arm|riscv|all)"))
    };
    list.split(',').map(by_name).collect()
}

fn number<T: FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got {value:?}"))
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        targets: targets("all")?,
        scale: Scale::Quarter,
        impls: 120,
        test_count: 30,
        rounds: 10,
        n_parallel: std::thread::available_parallelism().map_or(8, |n| n.get()),
        seed: 42,
        strategy: None,
        fidelity: FidelitySpec::Accurate,
        cache: None,
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--arch" => a.targets = targets(&value()?)?,
            "--scale" => {
                let v = value()?;
                a.scale = Scale::parse(&v)
                    .ok_or_else(|| format!("unknown scale {v} (paper|half|quarter|smoke)"))?;
            }
            "--impls" => a.impls = number(&flag, value()?)?,
            "--test" => a.test_count = number(&flag, value()?)?,
            "--rounds" => a.rounds = number(&flag, value()?)?,
            "--parallel" => a.n_parallel = number(&flag, value()?)?,
            "--seed" => a.seed = number(&flag, value()?)?,
            "--strategy" => {
                let v = value()?;
                a.strategy = match v.as_str() {
                    "all" => None,
                    name => Some(name.parse().map_err(|e: CoreError| e.to_string())?),
                };
            }
            "--fidelity" => {
                let v = value()?;
                a.fidelity = v
                    .parse()
                    .map_err(|e| format!("unknown fidelity {v}: {e}"))?;
            }
            "--cache" => a.cache = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.test_count >= a.impls {
        return Err("--test must be below --impls".into());
    }
    if a.rounds == 0 || a.n_parallel == 0 {
        return Err("--rounds and --parallel must be at least 1".into());
    }
    Ok(a)
}

/// Runs `repro` on `argv` (without the program name), writing the report
/// to `out` and progress and errors to stderr. Returns the process exit
/// status: 0 on success, 1 when a collection, a predictor, a tune or a
/// write failed, 2 on a flag error.
pub fn run(argv: impl IntoIterator<Item = String>, out: &mut dyn Write) -> u8 {
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            return 2;
        }
    };
    let mut report = Report {
        args: &args,
        out,
        timing: Vec::new(),
        failures: 0,
    };
    match report.all() {
        Ok(()) if report.failures == 0 => 0,
        Ok(()) => {
            eprintln!("repro: {} step(s) failed", report.failures);
            1
        }
        Err(e) => {
            eprintln!("repro: cannot write the report: {e}");
            1
        }
    }
}

/// One target's dataset and what collecting it took.
struct Target {
    spec: TargetSpec,
    groups: Vec<GroupData>,
    seconds: f64,
    memo: MemoCacheStats,
}

impl Target {
    fn arch(&self) -> &'static str {
        self.spec.name()
    }
}

struct Report<'a> {
    args: &'a Args,
    out: &'a mut dyn Write,
    /// Lines of the closing timing section, gathered as sections run.
    timing: Vec<String>,
    failures: usize,
}

impl Report<'_> {
    fn fail(&mut self, arch: &str, what: impl Display) {
        eprintln!("[{arch}] {what}");
        self.failures += 1;
    }

    fn all(&mut self) -> io::Result<()> {
        let started = Instant::now();
        self.tables_i_ii()?;
        let targets = self.collect();
        self.predictor_tables(&targets)?;
        self.figure5(&targets)?;
        self.feature_ablation(&targets)?;
        self.window_ablation(&targets)?;
        self.replacement_ablation(&targets)?;
        self.strategy_sweep(&targets)?;
        self.timing_section(&targets, started.elapsed().as_secs_f64())
    }

    /// Table I from the presets the simulators replicate, and Table II
    /// at paper scale with its scaled variants.
    fn tables_i_ii(&mut self) -> io::Result<()> {
        fn level(cfg: Option<&CacheConfig>) -> String {
            match cfg {
                Some(c) => format!(
                    "{:>7} {:>6} {:>6}",
                    format!("{}K", c.size_bytes / 1024),
                    c.num_sets,
                    c.associativity
                ),
                None => format!("{:>7} {:>6} {:>6}", "-", "-", "-"),
            }
        }
        let out = &mut *self.out;
        writeln!(out, "TABLE I: Cache sizes and hierarchy of the used CPUs")?;
        writeln!(
            out,
            "{:<8}|{:^21}|{:^21}|{:^21}|{:^21}",
            "", "L1 Data", "L1 Instruction", "L2", "LLC (L3)"
        )?;
        let columns = format!("{:>7} {:>6} {:>6}", "size", "sets", "assoc");
        writeln!(out, "{:<8}|{columns}|{columns}|{columns}|{columns}", "")?;
        writeln!(out, "{}", "-".repeat(8 + 4 * 22))?;
        for h in HierarchyConfig::paper_presets() {
            writeln!(
                out,
                "{:<8}|{}|{}|{}|{}",
                h.name,
                level(Some(&h.l1d)),
                level(Some(&h.l1i)),
                level(Some(&h.l2)),
                level(h.l3.as_ref()),
            )?;
        }
        writeln!(
            out,
            "\nAll cache line sizes are 64 B; replacement policy LRU (gem5 classic default)."
        )?;
        for scale in [Scale::Paper, Scale::Half, Scale::Quarter, Scale::Smoke] {
            match scale {
                Scale::Paper => writeln!(
                    out,
                    "TABLE II: Shapes of the used Conv2D+Bias+ReLU kernels (paper scale)"
                )?,
                _ => writeln!(out, "Scaled variant: --scale {scale}")?,
            }
            writeln!(
                out,
                "{:>5} {:>3} {:>5} {:>5} {:>5} {:>5} {:>3} {:>3} {:>7} {:>7} {:>9}",
                "group", "N", "H", "W", "CO", "CI", "KH", "KW", "stride", "pad", "MMACs"
            )?;
            for (i, g) in scale.conv_groups().iter().enumerate() {
                let stride = format!("({},{})", g.stride.0, g.stride.1);
                let pad = format!("({},{})", g.pad.0, g.pad.1);
                let mmacs = g.macs() as f64 / 1e6;
                writeln!(
                    out,
                    "{:>5} {:>3} {:>5} {:>5} {:>5} {:>5} {:>3} {:>3} {:>7} {:>7} {:>9.2}",
                    i, g.n, g.h, g.w, g.co, g.ci, g.kh, g.kw, stride, pad, mmacs
                )?;
            }
            writeln!(out)?;
        }
        Ok(())
    }

    /// Collects every target's five groups through one memo, warmed from
    /// and saved back to `--cache` when it is given.
    fn collect(&mut self) -> Vec<Target> {
        let args = self.args;
        let memo = Arc::new(SimCache::new());
        if let Some(path) = &args.cache {
            match memo.load_from(path) {
                Ok(SnapshotLoad::Loaded(n)) => {
                    eprintln!("repro: loaded {n} memo entries from {}", path.display())
                }
                // A rejected snapshot was logged by `load_from`.
                Ok(_) => eprintln!("repro: no usable snapshot at {}", path.display()),
                Err(e) => eprintln!("repro: cannot read {}: {e}", path.display()),
            }
        }
        let shapes = args.scale.conv_groups();
        let mut targets = Vec::new();
        for spec in &args.targets {
            let (before, started) = (memo.stats(), Instant::now());
            let groups = shapes.iter().enumerate().map(|(gid, shape)| {
                let opts = CollectOptions {
                    memo_cache: Some(memo.clone()),
                    ..args.collect_options()
                };
                collect_group_data(&conv2d_bias_relu(shape), spec, gid, &opts)
            });
            match groups.collect::<Result<Vec<_>, _>>() {
                Ok(groups) => {
                    let after = memo.stats();
                    targets.push(Target {
                        spec: spec.clone(),
                        groups,
                        seconds: started.elapsed().as_secs_f64(),
                        memo: MemoCacheStats {
                            hits: after.hits - before.hits,
                            misses: after.misses - before.misses,
                        },
                    });
                }
                Err(e) => self.fail(spec.name(), format_args!("collection failed: {e}")),
            }
        }
        if let Some(path) = &args.cache {
            match memo.save_to(path) {
                Ok(n) => eprintln!("repro: saved {n} memo entries to {}", path.display()),
                Err(e) => self.fail(&path.display().to_string(), e),
            }
        }
        targets
    }

    /// Tables III–V: one row per group, one four-metric block per
    /// predictor.
    fn predictor_tables(&mut self, targets: &[Target]) -> io::Result<()> {
        let args = self.args;
        for t in targets {
            let started = Instant::now();
            let (mut names, mut blocks) = (Vec::new(), Vec::new());
            for kind in PredictorKind::all() {
                match evaluate_predictor(
                    kind,
                    &t.groups,
                    t.arch(),
                    KERNEL,
                    args.test_count,
                    args.rounds,
                    args.seed,
                    FeatureConfig::default(),
                ) {
                    Ok(report) => {
                        names.push(kind.label());
                        blocks.push(report.per_group);
                    }
                    Err(e) => self.fail(t.arch(), format_args!("{kind} failed: {e}")),
                }
            }
            let table_no = match t.arch() {
                "x86" => "III",
                "arm" => "IV",
                _ => "V",
            };
            let out = &mut *self.out;
            writeln!(
                out,
                "TABLE {table_no}: Prediction results for {}-based CPU \
                 (scale={}, impls={}, test={}, rounds={})",
                t.arch(),
                args.scale,
                args.impls,
                args.test_count,
                args.rounds
            )?;
            write!(out, "{:>3} ", "ID")?;
            for name in &names {
                write!(out, "| {name:^31} ")?;
            }
            write!(out, "\n{:>3} ", "")?;
            for _ in &names {
                write!(
                    out,
                    "| {:>7}{:>8}{:>8}{:>8} ",
                    "Etop1", "Qlow", "Qhigh", "Rtop1"
                )?;
            }
            writeln!(out, "\n{}", "-".repeat(4 + names.len() * 34))?;
            for g in 0..t.groups.len() {
                write!(out, "{g:>3} ")?;
                for m in blocks.iter().map(|block| &block[g]) {
                    write!(
                        out,
                        "| {:>6.1} {:>7.1} {:>7.1} {:>7.1} ",
                        m.e_top1, m.q_low, m.q_high, m.r_top1
                    )?;
                }
                writeln!(out)?;
            }
            writeln!(out)?;
            self.timing.push(format!(
                "Tables III-V [{}]: {:.1}s",
                t.arch(),
                started.elapsed().as_secs_f64()
            ));
        }
        Ok(())
    }

    /// Figure 5: group 3's test set in `t_ref` order and in the Bayesian
    /// predictor's order, trained (a)–(c) with group 3's training part
    /// and (d)–(f) without group 3.
    fn figure5(&mut self, targets: &[Target]) -> io::Result<()> {
        let args = self.args;
        for t in targets {
            let eval = &t.groups[EVAL_GROUP];
            let test_count = args.test_count.min(eval.len() - 1);
            let (_, test_idx) = split_train_test(eval.len(), test_count, args.seed);
            let train_idx: Vec<usize> = (0..eval.len()).filter(|i| !test_idx.contains(i)).collect();
            // Groups are in group-id order: index EVAL_GROUP is group 3.
            let mut included = t.groups.clone();
            included[EVAL_GROUP] = eval.subset(&train_idx);
            let mut excluded = t.groups.clone();
            excluded.remove(EVAL_GROUP);
            for (variant, training) in [("included", &included), ("excluded", &excluded)] {
                let curves = match holdout_group_curves(
                    PredictorKind::Bayes,
                    training,
                    eval,
                    &test_idx,
                    t.arch(),
                    KERNEL,
                    args.seed,
                ) {
                    Ok(curves) => curves,
                    Err(e) => {
                        self.fail(t.arch(), format_args!("Figure 5 {variant} failed: {e}"));
                        continue;
                    }
                };
                let title = format!(
                    "Figure 5 [{}, group {EVAL_GROUP} {variant} in training] \
                     sorted t_ref (*) vs prediction-ordered t_ref (+)",
                    t.arch()
                );
                let series = [
                    ("t_ref (sorted)", &curves.sorted_ref),
                    ("t_pred (prediction-ordered)", &curves.prediction_ordered),
                ];
                ascii_plot(self.out, &title, &series)?;
            }
        }
        Ok(())
    }

    /// How much of the prediction quality each feature family carries:
    /// XGBoost with one family removed at a time.
    fn feature_ablation(&mut self, targets: &[Target]) -> io::Result<()> {
        let args = self.args;
        let without = |drop: fn(&mut FeatureConfig)| {
            let mut features = FeatureConfig::default();
            drop(&mut features);
            features
        };
        let variants = [
            ("full (paper)", FeatureConfig::default()),
            ("no inst mix", without(|f| f.inst_mix = false)),
            ("no cache", without(|f| f.cache = false)),
            ("raw only", without(|f| f.normalized = false)),
            ("no total insts", without(|f| f.total_insts = false)),
        ];
        for t in targets {
            writeln!(
                self.out,
                "\nFeature ablation [{}] (XGBoost, rounds={}, test={}/group):\n\
                 {FEATURES}\n{}",
                t.arch(),
                args.rounds,
                args.test_count,
                "-".repeat(58)
            )?;
            for (label, features) in variants {
                match evaluate_predictor(
                    PredictorKind::Xgboost,
                    &t.groups,
                    t.arch(),
                    KERNEL,
                    args.test_count,
                    args.rounds,
                    args.seed,
                    features,
                ) {
                    Ok(report) => {
                        let mean_qlow = report.per_group.iter().map(|m| m.q_low).sum::<f64>()
                            / report.per_group.len() as f64;
                        writeln!(
                            self.out,
                            "{label:>16} | {:>10.2}% | {:>9.1}% | {mean_qlow:>9.2}%",
                            report.mean_e_top1(),
                            report.max_r_top1(),
                        )?;
                    }
                    Err(e) => self.fail(t.arch(), format_args!("features {label} failed: {e}")),
                }
            }
        }
        Ok(())
    }

    /// Section III-E: exact group means against static windows and the
    /// dynamic window, as the Spearman agreement between windowed and
    /// exact scores and the `R_top1`/`E_top1` the windowed scores reach.
    fn window_ablation(&mut self, targets: &[Target]) -> io::Result<()> {
        let args = self.args;
        let windows = [
            ("exact", WindowKind::Exact),
            ("static(8)", WindowKind::Static(8)),
            ("static(16)", WindowKind::Static(16)),
            ("static(32)", WindowKind::Static(32)),
            ("dynamic", WindowKind::Dynamic),
        ];
        for t in targets {
            let splits: Vec<(Vec<usize>, Vec<usize>)> = t
                .groups
                .iter()
                .map(|g| split_train_test(g.len(), args.test_count.min(g.len() - 1), args.seed))
                .collect();
            let train: Vec<GroupData> = t
                .groups
                .iter()
                .zip(&splits)
                .map(|(g, (train, _))| g.subset(train))
                .collect();
            let mut predictor =
                ScorePredictor::new(PredictorKind::Xgboost, t.arch(), KERNEL, args.seed);
            if let Err(e) = predictor.train(&train) {
                self.fail(t.arch(), format_args!("window training failed: {e}"));
                continue;
            }
            writeln!(
                self.out,
                "\nWindow ablation [{}] (XGBoost, scale={}, test={}/group):\n\
                 {WINDOWS}\n{}",
                t.arch(),
                args.scale,
                args.test_count,
                "-".repeat(55)
            )?;
            for (label, window) in windows {
                let row = t.groups.iter().zip(&splits).map(|(g, (_, test_idx))| {
                    let test = g.subset(test_idx);
                    let exact = predictor.score_group(&test.stats)?;
                    let windowed = predictor.score_with_window(&test.stats, window)?;
                    let m = prediction_metrics(&test.t_ref, &windowed);
                    Ok([spearman(&exact, &windowed), m.r_top1, m.e_top1])
                });
                match row.collect::<Result<Vec<_>, CoreError>>() {
                    Ok(row) => {
                        let mean =
                            |i: usize| row.iter().map(|r| r[i]).sum::<f64>() / row.len() as f64;
                        writeln!(
                            self.out,
                            "{label:>14} | {:>10.4} | {:>9.1}% | {:>9.2}%",
                            mean(0),
                            mean(1),
                            mean(2)
                        )?;
                    }
                    Err(e) => self.fail(t.arch(), format_args!("window {label} failed: {e}")),
                }
            }
        }
        Ok(())
    }

    /// The target's caches are LRU; how does prediction degrade when the
    /// simulator models another replacement policy? Groups 1 and 3 are
    /// drawn and labelled on the LRU board once; only the simulator's
    /// policy varies.
    fn replacement_ablation(&mut self, targets: &[Target]) -> io::Result<()> {
        let args = self.args;
        for t in targets {
            writeln!(
                self.out,
                "\nReplacement-policy ablation [{}] (XGBoost, groups {POLICY_GROUPS:?}, {} impls):\n\
                 {POLICIES}\n{}",
                t.arch(),
                args.impls,
                "-".repeat(37)
            )?;
            let shapes = args.scale.conv_groups();
            let labelled: Vec<_> = POLICY_GROUPS
                .iter()
                .map(|&gid| {
                    let def = conv2d_bias_relu(&shapes[gid]);
                    let (sampled, _) =
                        sample_group_schedules(&def, &t.spec.isa, gid, &args.collect_options());
                    let schedules: Vec<_> = sampled.into_iter().map(|(_, s)| s).collect();
                    let exes: Vec<_> = KernelBuilder::new(def.clone(), t.spec.isa.clone())
                        .build_batch(&schedules)
                        .into_iter()
                        .flatten()
                        .collect();
                    let labels = HardwareRunner::new(t.spec.clone()).run(&exes);
                    (gid, exes, labels)
                })
                .collect();
            for policy in ReplacementPolicy::all() {
                let session = SimSession::builder()
                    .accurate(&t.spec.hierarchy.with_policy(policy))
                    .n_parallel(args.n_parallel)
                    .build();
                let evaluated = session.and_then(|sim| {
                    let groups: Vec<GroupData> = labelled
                        .iter()
                        .map(|(gid, exes, labels)| {
                            let mut data = GroupData {
                                group_id: *gid,
                                ..GroupData::default()
                            };
                            for (s, m) in sim.run_stats(exes).into_iter().zip(labels) {
                                if let (Ok(s), Ok(m)) = (s, m) {
                                    data.stats.push(s);
                                    data.t_ref.push(m.t_ref);
                                }
                            }
                            data
                        })
                        .collect();
                    evaluate_predictor(
                        PredictorKind::Xgboost,
                        &groups,
                        t.arch(),
                        KERNEL,
                        args.test_count,
                        args.rounds.min(5),
                        args.seed,
                        FeatureConfig::default(),
                    )
                });
                match evaluated {
                    Ok(report) => writeln!(
                        self.out,
                        "{:>8} | {:>10.2}% | {:>9.1}%",
                        policy.label(),
                        report.mean_e_top1(),
                        report.max_r_top1()
                    )?,
                    Err(e) => self.fail(t.arch(), format_args!("{policy:?} failed: {e}")),
                }
            }
        }
        Ok(())
    }

    /// Every strategy tunes group 1 with the same trial budget, the same
    /// predictor (XGBoost trained on the collected group 1) and the same
    /// simulators.
    fn strategy_sweep(&mut self, targets: &[Target]) -> io::Result<()> {
        let args = self.args;
        let strategies = match &args.strategy {
            Some(s) => vec![s.clone()],
            None => StrategySpec::all().to_vec(),
        };
        let n_trials = 48.min(args.impls.max(16));
        let batch_size = n_trials.min(12);
        let def = conv2d_bias_relu(&args.scale.conv_groups()[SWEEP_GROUP]);
        for t in targets {
            let mut predictor = ScorePredictor::new(PredictorKind::Xgboost, t.arch(), KERNEL, 1);
            if let Err(e) = predictor.train(std::slice::from_ref(&t.groups[SWEEP_GROUP])) {
                self.fail(t.arch(), format_args!("sweep training failed: {e}"));
                continue;
            }
            writeln!(
                self.out,
                "\n[{}] {n_trials} trials, batch {batch_size}, seed {}\n{STRATEGIES}\n{}",
                t.arch(),
                args.seed,
                "-".repeat(82)
            )?;
            // A memo of the sweep's own, so its hit rate measures how
            // much of the sweep strategies answered for each other.
            let memo = Arc::new(SimCache::new());
            let (mut trials, mut replay_nanos, started) = (0, 0, Instant::now());
            for strategy in &strategies {
                let opts = TuneOptions {
                    n_trials,
                    batch_size,
                    n_parallel: args.n_parallel,
                    seed: args.seed,
                    strategy: strategy.clone(),
                    memo_cache: Some(memo.clone()),
                    ..TuneOptions::default()
                };
                let t0 = Instant::now();
                let (result, accurate_runs) =
                    match tune(&args.fidelity, &def, &t.spec, &predictor, &opts) {
                        Ok(tuned) => tuned,
                        Err(e) => {
                            self.fail(t.arch(), format_args!("{} failed: {e}", strategy.label()));
                            continue;
                        }
                    };
                let n = result.history.len();
                let c = result.convergence;
                writeln!(
                    self.out,
                    "{:>13} | {:>11.4} | {:>11} | {:>8} | {:>13} | {:>8}",
                    result.strategy,
                    result.best().score,
                    result.simulations,
                    c.improvements,
                    c.trials_to_best,
                    c.restarts
                )?;
                if let Some(acc) = accurate_runs {
                    writeln!(
                        self.out,
                        "{:>13} | escalated {acc}/{n} ({:.0} %)",
                        "",
                        acc as f64 / n.max(1) as f64 * 100.0
                    )?;
                }
                self.timing.push(format!(
                    "sweep [{}] {:>13}: {:.1} trials/sec, {:.1} replay/sec",
                    t.arch(),
                    result.strategy,
                    n as f64 / t0.elapsed().as_secs_f64().max(1e-9),
                    per_second(n, result.replay_nanos)
                ));
                trials += n;
                replay_nanos += result.replay_nanos;
            }
            let m = memo.stats();
            writeln!(
                self.out,
                "sweep[{}]: {trials} trials, memo hit rate {:.1} % ({} hits / {} lookups)",
                args.fidelity.digest(),
                m.hit_ratio() * 100.0,
                m.hits,
                m.lookups()
            )?;
            self.timing.push(format!(
                "sweep[{}] [{}]: {:.1} trials/sec ({:.1} replay/sec) over {trials} trials",
                args.fidelity.digest(),
                t.arch(),
                trials as f64 / started.elapsed().as_secs_f64().max(1e-9),
                per_second(trials, replay_nanos)
            ));
        }
        Ok(())
    }

    /// Every wall-clock number: collection, Equation 4 with the measured
    /// simulator speed, the sections' own timings and the total.
    fn timing_section(&mut self, targets: &[Target], wall: f64) -> io::Result<()> {
        let out = &mut *self.out;
        writeln!(
            out,
            "\n== timing: wall-clock numbers, different on every run =="
        )?;
        for t in targets {
            writeln!(
                out,
                "collection [{}]: {} groups in {:.1}s, memo {} hits / {} misses",
                t.arch(),
                t.groups.len(),
                t.seconds,
                t.memo.hits,
                t.memo.misses
            )?;
        }
        let protocol = MeasureConfig::default();
        writeln!(
            out,
            "Equation 4: K = ceil(t_sim / ((t_cooldown + t_ref) * N_exe)), \
             N_exe = {}, t_cooldown = {} s, scale = {}\n{SPEEDUP}\n{}",
            protocol.n_exe,
            protocol.cooldown_s,
            self.args.scale,
            "-".repeat(86)
        )?;
        for t in targets {
            let (mut k, mut t_ref, mut t_sim) =
                ((u64::MAX, 0), (f64::INFINITY, 0f64), (f64::INFINITY, 0f64));
            let (mut insts, mut sim_seconds) = (0u64, 0.0);
            for g in &t.groups {
                for ((&r, &s), stats) in g.t_ref.iter().zip(&g.sim_seconds).zip(&g.stats) {
                    let k_now = parallel_speedup_k(s, r, protocol.cooldown_s, protocol.n_exe);
                    k = (k.0.min(k_now), k.1.max(k_now));
                    t_ref = (t_ref.0.min(r), t_ref.1.max(r));
                    t_sim = (t_sim.0.min(s), t_sim.1.max(s));
                    insts += stats.inst_mix.total();
                    sim_seconds += s;
                }
            }
            writeln!(
                out,
                "{:>6} | {:>9.3}ms {:>9.3}ms | {:>11.3}ms {:>11.3}ms | {:>4} ..{:>4} | {:>9.1}",
                t.arch(),
                t_ref.0 * 1e3,
                t_ref.1 * 1e3,
                t_sim.0 * 1e3,
                t_sim.1 * 1e3,
                k.0,
                k.1,
                insts as f64 / 1e6 / sim_seconds.max(1e-12)
            )?;
        }
        writeln!(
            out,
            "K simulators in parallel match one board's benchmarking throughput.\n\
             sim MIPS: the accurate tier's retired instructions over its simulator\n\
             seconds, summed over the collection. The paper reports K_x86 in [7,97],\n\
             K_ARM in [4,31], K_RISCV in [3,21]; K scales with t_sim."
        )?;
        for line in &self.timing {
            writeln!(out, "{line}")?;
        }
        writeln!(out, "wall time: {wall:.1}s")
    }
}

/// Runs one strategy's tune on the sweep's tier. Returns the result
/// and, when it escalated, how many simulations ran on the accurate
/// tier.
fn tune(
    tier: &FidelitySpec,
    def: &ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
) -> Result<(TuneResult, Option<usize>), CoreError> {
    if *tier == FidelitySpec::Accurate {
        return Ok((tune_with_predictor(def, spec, predictor, opts)?, None));
    }
    let esc = EscalationOptions {
        explore: Some(tier.clone()),
        ..EscalationOptions::default()
    };
    let out = tune_with_fidelity_escalation(def, spec, predictor, opts, &esc)?;
    Ok((out.result, Some(out.accurate_runs)))
}

/// Trials per second of pure replay time; 0 when nothing replayed.
fn per_second(trials: usize, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        trials as f64 / (nanos as f64 / 1e9)
    }
}

/// Draws the series on one 16 x 72 character grid, scaled together, then
/// lists each series' values.
fn ascii_plot(out: &mut dyn Write, title: &str, series: &[(&str, &Vec<f64>)]) -> io::Result<()> {
    const HEIGHT: usize = 16;
    const WIDTH: usize = 72;
    const MARKS: [char; 2] = ['*', '+'];
    writeln!(out, "{title}")?;
    let all = series.iter().flat_map(|(_, v)| v.iter().copied());
    let lo = all.clone().fold(f64::INFINITY, f64::min);
    let hi = all.fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let mut grid = vec![[' '; WIDTH]; HEIGHT];
    for (values, mark) in series.iter().map(|(_, v)| v).zip(MARKS) {
        let n = values.len();
        for (i, &v) in values.iter().enumerate() {
            let x = if n <= 1 { 0 } else { i * (WIDTH - 1) / (n - 1) };
            let y = ((1.0 - (v - lo) / span) * (HEIGHT - 1) as f64).round() as usize;
            // Where points overlap, the later series' mark shows.
            grid[y.min(HEIGHT - 1)][x] = mark;
        }
    }
    for row in grid {
        writeln!(out, "|{}", row.iter().collect::<String>())?;
    }
    writeln!(out, "+{}", "-".repeat(WIDTH))?;
    for ((name, _), mark) in series.iter().zip(MARKS) {
        writeln!(out, "  {mark} {name}")?;
    }
    writeln!(out, "  y: [{lo:.3e}, {hi:.3e}]")?;
    for ((_, values), mark) in series.iter().zip(MARKS) {
        let values: Vec<String> = values.iter().map(|v| format!("{v:.6e}")).collect();
        writeln!(out, "  {mark} series: {}", values.join(" "))?;
    }
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    fn parse_err(s: &str) -> String {
        parse(s).expect_err("flags must be refused")
    }

    fn archs(a: &Args) -> Vec<&'static str> {
        a.targets.iter().map(TargetSpec::name).collect()
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse("").unwrap();
        assert_eq!(archs(&a), ["x86", "arm", "riscv"]);
        assert!(a.test_count < a.impls);
        assert!(a.cache.is_none());
    }

    #[test]
    fn parses_flags() {
        let a = parse(
            "--arch riscv --scale smoke --impls 40 --test 10 --rounds 3 --seed 7 --cache m.json",
        )
        .unwrap();
        assert_eq!(archs(&a), ["riscv"]);
        assert_eq!(a.scale, Scale::Smoke);
        assert_eq!(a.impls, 40);
        assert_eq!(a.test_count, 10);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.seed, 7);
        assert_eq!(a.cache, Some(PathBuf::from("m.json")));
    }

    #[test]
    fn fidelity_flag_parses_all_modes() {
        assert_eq!(parse("--seed 1").unwrap().fidelity, FidelitySpec::Accurate);
        for tier in FidelitySpec::all() {
            let flag = format!("--fidelity {}", tier.digest());
            assert_eq!(parse(&flag).unwrap().fidelity, tier);
        }
    }

    #[test]
    fn fidelity_flag_accepts_the_full_spec_grammar() {
        assert_eq!(
            parse("--fidelity accurate").unwrap().fidelity,
            FidelitySpec::Accurate
        );
        assert_eq!(
            parse("--fidelity fast-count").unwrap().fidelity,
            FidelitySpec::FastCount
        );
        let a = parse("--fidelity pipelined:btb=64,ras=4").unwrap();
        assert_eq!(a.fidelity, FidelitySpec::Pipelined { btb: 64, ras: 4 });
        assert_eq!(a.fidelity.digest(), "pipelined:btb=64,ras=4");
    }

    #[test]
    fn the_removed_sampled_tier_is_a_flag_error() {
        let spec = "--fidelity sampled:fraction=0.25";
        assert!(parse_err(spec).contains("unknown fidelity tier"));
        let mut out = Vec::new();
        let argv = spec.split_whitespace().map(str::to_string);
        assert_eq!(run(argv, &mut out), 2);
        assert!(out.is_empty());
    }

    #[test]
    fn the_removed_predicted_mode_is_a_flag_error() {
        let spec = "--fidelity predicted";
        assert!(parse_err(spec).contains("unknown fidelity predicted"));
        let mut out = Vec::new();
        let argv = spec.split_whitespace().map(str::to_string);
        assert_eq!(run(argv, &mut out), 2);
        assert!(out.is_empty());
    }

    #[test]
    fn bad_fidelity_is_refused() {
        assert!(parse_err("--fidelity exact").contains("unknown fidelity"));
    }

    #[test]
    fn arch_list_and_all() {
        assert_eq!(archs(&parse("--arch x86,arm").unwrap()), ["x86", "arm"]);
        assert_eq!(parse("--arch all").unwrap().targets.len(), 3);
        assert!(parse_err("--arch sparc").contains("unknown arch sparc"));
    }

    #[test]
    fn strategy_flag_parses_names_and_all() {
        assert!(parse("--seed 1").unwrap().strategy.is_none());
        assert!(parse("--strategy all").unwrap().strategy.is_none());
        let s = parse("--strategy evolutionary").unwrap().strategy.unwrap();
        assert_eq!(s.label(), "evolutionary");
        let s = parse("--strategy hill").unwrap().strategy.unwrap();
        assert_eq!(s.label(), "hill_climb");
    }

    #[test]
    fn bad_strategy_is_refused() {
        assert!(parse_err("--strategy bogus").contains("unknown strategy"));
    }

    #[test]
    fn unknown_flag_is_refused() {
        assert!(parse_err("--bogus").contains("unknown flag"));
        assert!(parse_err("--refresh").contains("unknown flag"));
    }

    #[test]
    fn test_count_validated() {
        assert!(parse_err("--impls 10 --test 10").contains("--test must be below"));
    }

    #[test]
    fn missing_value_is_refused() {
        assert_eq!(parse_err("--seed 1 --impls"), "--impls needs a value");
    }

    #[test]
    fn non_numeric_value_is_refused() {
        assert!(parse_err("--rounds many").contains("--rounds needs a number"));
        assert!(parse_err("--parallel -1").contains("--parallel needs a number"));
    }

    #[test]
    fn zero_rounds_or_workers_are_refused() {
        assert!(parse_err("--rounds 0").contains("at least 1"));
        assert!(parse_err("--parallel 0").contains("at least 1"));
    }

    #[test]
    fn ascii_plot_renders_series() {
        let (up, down) = (vec![1.0, 2.0, 3.0, 4.0], vec![4.0, 3.0, 2.0, 1.0]);
        let mut out = Vec::new();
        ascii_plot(&mut out, "demo", &[("up", &up), ("down", &down)]).unwrap();
        let plot = String::from_utf8(out).unwrap();
        assert!(plot.starts_with("demo\n"));
        assert_eq!(plot.lines().filter(|l| l.starts_with('|')).count(), 16);
        assert!(plot.contains('*') && plot.contains('+'));
        assert!(plot.contains("  y: [1.000e0, 4.000e0]"));
        assert!(plot.contains("  + series: 4.000000e0 3.000000e0 2.000000e0 1.000000e0"));
    }

    #[test]
    fn a_flag_error_exits_2_before_any_output() {
        let mut out = Vec::new();
        assert_eq!(run(["--bogus".to_string()], &mut out), 2);
        assert!(out.is_empty());
    }
}
