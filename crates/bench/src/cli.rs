//! Minimal flag parsing shared by the experiment binaries (no external
//! CLI dependency).

use crate::Scale;
use simtune_core::{FidelitySpec, StrategySpec};

/// Fidelity mode of the tuning loop the sweep binaries drive.
///
/// The sweep either explores on one [`FidelitySpec`] tier with top-k
/// escalation (`Tier`) or runs the uncertainty escalation policy on the
/// default exploration tier (`Predicted`). `--fidelity` therefore accepts
/// `predicted` *plus* the whole spec grammar: `--fidelity
/// pipelined:btb=64,ras=4` sweeps with top-k escalation exploring on
/// the pipelined tier.
#[derive(Debug, Clone, PartialEq)]
pub enum FidelityMode {
    /// Candidates explore on the named [`FidelitySpec`] tier; any tier
    /// other than `accurate` re-simulates the static top-k finalists
    /// accurately. `Tier(FidelitySpec::Accurate)` is the default.
    Tier(FidelitySpec),
    /// The learned tier, which is an escalation policy, not a backend:
    /// candidates explore on the default tier and an online model picks
    /// which escalate (`EscalationPolicy::Uncertainty`).
    Predicted,
}

impl FidelityMode {
    /// Parses the `--fidelity` values: `predicted`, or any
    /// [`FidelitySpec`] string (`accurate`, `fast-count`,
    /// `sampled:fraction=0.3`, `pipelined:btb=512,ras=8`, ...).
    pub fn parse(s: &str) -> Option<FidelityMode> {
        match s {
            "predicted" => Some(FidelityMode::Predicted),
            spec => spec.parse::<FidelitySpec>().ok().map(FidelityMode::Tier),
        }
    }

    /// Stable label for logs (the spec digest for `Tier` modes).
    pub fn label(&self) -> String {
        match self {
            FidelityMode::Tier(spec) => spec.digest(),
            FidelityMode::Predicted => "predicted".into(),
        }
    }
}

impl Default for FidelityMode {
    fn default() -> Self {
        FidelityMode::Tier(FidelitySpec::Accurate)
    }
}

/// Parsed command-line arguments with the defaults used throughout the
/// experiment suite.
#[derive(Debug, Clone)]
pub struct Args {
    /// Target architectures to run ("x86", "arm", "riscv").
    pub archs: Vec<String>,
    /// Workload scale.
    pub scale: Scale,
    /// Implementations per group.
    pub impls: usize,
    /// Test-set size per group.
    pub test_count: usize,
    /// Random train/test split repetitions.
    pub rounds: usize,
    /// Parallel simulator instances.
    pub n_parallel: usize,
    /// Base seed.
    pub seed: u64,
    /// Search strategy for the tuning binaries
    /// (`random|grid|hill|evolutionary|annealing`), or `None` to sweep
    /// every built-in strategy.
    pub strategy: Option<StrategySpec>,
    /// Ignore cached datasets and recollect.
    pub refresh: bool,
    /// Optional output directory for CSV artifacts.
    pub out_dir: Option<String>,
    /// Fidelity mode for the tuning sweeps (`--fidelity <spec>` with
    /// any [`FidelitySpec`] string, or `predicted` for the learned
    /// tier).
    pub fidelity: FidelityMode,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            archs: vec!["x86".into(), "arm".into(), "riscv".into()],
            scale: Scale::Quarter,
            impls: 120,
            test_count: 30,
            rounds: 10,
            n_parallel: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8),
            seed: 42,
            strategy: None,
            refresh: false,
            out_dir: None,
            fidelity: FidelityMode::default(),
        }
    }
}

impl Args {
    /// Parses `std::env::args()`-style flags:
    /// `--arch x86 --scale quarter --impls 120 --test 30 --rounds 10
    ///  --parallel 8 --seed 42 --strategy evolutionary --refresh
    ///  --out results/ --fidelity pipelined`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags or bad values (these
    /// binaries are developer tools; failing loudly is the feature).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Args {
        let mut out = Args::default();
        let mut it = args.into_iter();
        let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
            it.next().unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--arch" => {
                    let v = need(&mut it, "--arch");
                    out.archs = if v == "all" {
                        Args::default().archs
                    } else {
                        v.split(',').map(|s| s.trim().to_string()).collect()
                    };
                }
                "--scale" => {
                    let v = need(&mut it, "--scale");
                    out.scale = Scale::parse(&v)
                        .unwrap_or_else(|| panic!("unknown scale {v} (paper|half|quarter|smoke)"));
                }
                "--impls" => out.impls = need(&mut it, "--impls").parse().expect("--impls number"),
                "--test" => {
                    out.test_count = need(&mut it, "--test").parse().expect("--test number")
                }
                "--rounds" => {
                    out.rounds = need(&mut it, "--rounds").parse().expect("--rounds number")
                }
                "--parallel" => {
                    out.n_parallel = need(&mut it, "--parallel")
                        .parse()
                        .expect("--parallel number")
                }
                "--seed" => out.seed = need(&mut it, "--seed").parse().expect("--seed number"),
                "--strategy" => {
                    let v = need(&mut it, "--strategy");
                    out.strategy = if v == "all" {
                        None
                    } else {
                        Some(v.parse().unwrap_or_else(|e| panic!("{e}")))
                    };
                }
                "--refresh" => out.refresh = true,
                "--out" => out.out_dir = Some(need(&mut it, "--out")),
                "--fidelity" => {
                    let v = need(&mut it, "--fidelity");
                    out.fidelity = FidelityMode::parse(&v).unwrap_or_else(|| {
                        panic!(
                            "unknown fidelity {v} (predicted | accurate | fast-count | \
                             sampled[:fraction=F] | pipelined[:btb=N,ras=N])"
                        )
                    });
                }
                other => panic!("unknown flag {other}"),
            }
        }
        assert!(out.test_count < out.impls, "--test must be below --impls");
        out
    }

    /// Parses the process's real arguments (skipping `argv[0]`).
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(|x| x.to_string()))
    }

    #[test]
    fn defaults_are_sane() {
        let a = Args::default();
        assert_eq!(a.archs.len(), 3);
        assert!(a.test_count < a.impls);
    }

    #[test]
    fn parses_flags() {
        let a =
            parse("--arch riscv --scale smoke --impls 40 --test 10 --rounds 3 --seed 7 --refresh");
        assert_eq!(a.archs, vec!["riscv"]);
        assert_eq!(a.scale, Scale::Smoke);
        assert_eq!(a.impls, 40);
        assert_eq!(a.test_count, 10);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.seed, 7);
        assert!(a.refresh);
    }

    #[test]
    fn fidelity_flag_parses_all_modes() {
        assert_eq!(
            parse("--seed 1").fidelity,
            FidelityMode::Tier(FidelitySpec::Accurate)
        );
        assert_eq!(
            parse("--fidelity predicted").fidelity,
            FidelityMode::Predicted
        );
        assert_eq!(FidelityMode::Predicted.label(), "predicted");
    }

    #[test]
    fn fidelity_flag_accepts_the_full_spec_grammar() {
        assert_eq!(
            parse("--fidelity accurate").fidelity,
            FidelityMode::Tier(FidelitySpec::Accurate)
        );
        assert_eq!(
            parse("--fidelity fast-count").fidelity,
            FidelityMode::Tier(FidelitySpec::FastCount)
        );
        let a = parse("--fidelity pipelined:btb=64,ras=4");
        assert_eq!(
            a.fidelity,
            FidelityMode::Tier(FidelitySpec::Pipelined { btb: 64, ras: 4 })
        );
        assert_eq!(a.fidelity.label(), "pipelined:btb=64,ras=4");
        assert_eq!(
            parse("--fidelity sampled:fraction=0.25").fidelity.label(),
            "sampled:fraction=0.25"
        );
    }

    #[test]
    #[should_panic(expected = "unknown fidelity")]
    fn bad_fidelity_panics() {
        parse("--fidelity exact");
    }

    #[test]
    fn arch_list_and_all() {
        assert_eq!(parse("--arch x86,arm").archs, vec!["x86", "arm"]);
        assert_eq!(parse("--arch all").archs.len(), 3);
    }

    #[test]
    fn strategy_flag_parses_names_and_all() {
        assert!(parse("--seed 1").strategy.is_none());
        assert!(parse("--strategy all").strategy.is_none());
        let s = parse("--strategy evolutionary").strategy.expect("parsed");
        assert_eq!(s.label(), "evolutionary");
        assert_eq!(
            parse("--strategy hill").strategy.expect("parsed").label(),
            "hill_climb"
        );
    }

    #[test]
    #[should_panic(expected = "unknown strategy")]
    fn bad_strategy_panics() {
        parse("--strategy bogus");
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        parse("--bogus");
    }

    #[test]
    #[should_panic(expected = "--test must be below")]
    fn test_count_validated() {
        parse("--impls 10 --test 10");
    }
}
