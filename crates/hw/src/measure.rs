use crate::{NoiseModel, TargetSpec, TimingModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simtune_cache::CacheHierarchy;
use simtune_isa::{replay, EngineKind, Executable, RunLimits, SimError};
use simtune_linalg::stats::median;

/// Benchmarking protocol parameters (paper Section IV: `N_exe = 15`,
/// `t_cooldown = 1 s`, caches flushed, median taken).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureConfig {
    /// Repetitions per implementation.
    pub n_exe: usize,
    /// Idle seconds inserted between repetitions.
    pub cooldown_s: f64,
    /// Instruction budget per run.
    pub limits: RunLimits,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            n_exe: 15,
            cooldown_s: 1.0,
            limits: RunLimits::default(),
        }
    }
}

/// Result of benchmarking one implementation on the emulated target.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The noisy per-repetition wall times, in order.
    pub samples: Vec<f64>,
    /// Median of `samples`: the reference time `t_ref`.
    pub t_ref: f64,
    /// The deterministic (noise-free) model time, for diagnostics.
    pub base_seconds: f64,
}

impl Measurement {
    /// Applies the benchmarking protocol to a deterministic model time:
    /// `cfg.n_exe` noisy repetitions of `base_seconds` under `spec`'s
    /// noise model, cooldowns in between, median as `t_ref`. A pure
    /// post-pass — the board run that produced `base_seconds` may have
    /// happened anywhere, any time before, or come from a memo.
    pub fn from_base(
        base_seconds: f64,
        spec: &TargetSpec,
        cfg: &MeasureConfig,
        seed: u64,
    ) -> Measurement {
        let mut noise = NoiseModel::new(spec.noise.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
        let mut samples = Vec::with_capacity(cfg.n_exe);
        for rep in 0..cfg.n_exe {
            if rep > 0 {
                noise.cooldown(cfg.cooldown_s);
            }
            samples.push(noise.sample(base_seconds, &mut rng));
        }
        let t_ref = median(&samples);
        Measurement {
            samples,
            t_ref,
            base_seconds,
        }
    }

    /// Total wall-clock the benchmarking protocol occupies the device:
    /// `(t_cooldown + t_ref) · N_exe` — the denominator of the paper's
    /// Equation 4.
    pub fn native_benchmark_seconds(&self, cfg: &MeasureConfig) -> f64 {
        native_benchmark_seconds(self.t_ref, cfg)
    }
}

/// `(t_cooldown + t_ref) · N_exe` (paper Equation 4 denominator).
pub fn native_benchmark_seconds(t_ref: f64, cfg: &MeasureConfig) -> f64 {
    (cfg.cooldown_s + t_ref) * cfg.n_exe as f64
}

/// Runs the timing model once and returns the deterministic execution
/// time in seconds (no measurement noise).
///
/// # Errors
///
/// Propagates simulator faults ([`SimError`]).
pub fn measure_base_seconds(exe: &Executable, spec: &TargetSpec) -> Result<f64, SimError> {
    measure_base(exe, spec, RunLimits::default()).map(|m| m.seconds())
}

/// One board run: the program replays on the production engine with
/// [`TimingModel`] as the hook, on a fresh hierarchy of `spec`'s
/// geometry.
fn measure_base(
    exe: &Executable,
    spec: &TargetSpec,
    limits: RunLimits,
) -> Result<TimingModel, SimError> {
    let decoded = exe.decode()?;
    let hier = || CacheHierarchy::new(spec.hierarchy.clone());
    let mut model = TimingModel::new(spec);
    replay(exe, &decoded, hier, EngineKind::Decoded, limits, &mut model)?;
    Ok(model)
}

/// Benchmarks `exe` on the emulated target following the paper's
/// protocol: `n_exe` repetitions, cooldowns in between, caches flushed
/// before each repetition (each repetition starts from a cold simulator
/// state), median as `t_ref`.
///
/// The timing model itself is deterministic, so the expensive part runs
/// once; the repetitions sample the measurement-noise model around it
/// ([`Measurement::from_base`]) — which is exactly what distinguishes
/// repetitions on real hardware.
///
/// # Errors
///
/// Propagates simulator faults ([`SimError`]); a program the decoder
/// rejects is [`SimError::InvalidPc`].
///
/// # Example
///
/// See the crate-level example.
pub fn measure(
    exe: &Executable,
    spec: &TargetSpec,
    cfg: &MeasureConfig,
    seed: u64,
) -> Result<Measurement, SimError> {
    let base = measure_base(exe, spec, cfg.limits)?.seconds();
    Ok(Measurement::from_base(base, spec, cfg, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtune_isa::{Fpr, Gpr, Inst, ProgramBuilder};

    fn loop_exe(spec: &TargetSpec, iters: i64) -> Executable {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li {
            rd: Gpr(1),
            imm: 0x100_0000,
        });
        b.push(Inst::Li { rd: Gpr(2), imm: 0 });
        b.push(Inst::Li {
            rd: Gpr(3),
            imm: iters,
        });
        let top = b.bind_new_label();
        b.push(Inst::Flw {
            fd: Fpr(1),
            rs: Gpr(1),
            imm: 0,
        });
        b.push(Inst::Addi {
            rd: Gpr(1),
            rs: Gpr(1),
            imm: 4,
        });
        b.push(Inst::Addi {
            rd: Gpr(2),
            rs: Gpr(2),
            imm: 1,
        });
        b.branch_lt(Gpr(2), Gpr(3), top);
        b.push(Inst::Halt);
        Executable::new("loop", b.build().unwrap(), spec.isa.clone())
    }

    #[test]
    fn measurement_has_n_exe_samples_and_median() {
        let spec = TargetSpec::riscv_u74();
        let m = measure(&loop_exe(&spec, 1000), &spec, &MeasureConfig::default(), 1).unwrap();
        assert_eq!(m.samples.len(), 15);
        assert!(m.t_ref > 0.0);
        let mut sorted = m.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(m.t_ref, sorted[7], "median of 15 is the 8th");
    }

    #[test]
    fn measurements_are_reproducible_per_seed() {
        let spec = TargetSpec::arm_cortex_a72();
        let exe = loop_exe(&spec, 500);
        let cfg = MeasureConfig::default();
        let a = measure(&exe, &spec, &cfg, 7).unwrap();
        let b = measure(&exe, &spec, &cfg, 7).unwrap();
        let c = measure(&exe, &spec, &cfg, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.samples, c.samples);
        // Different seeds still agree on the underlying base time.
        assert_eq!(a.base_seconds, c.base_seconds);
    }

    #[test]
    fn median_is_robust_to_outliers() {
        // Long enough that the absolute timer floor is negligible.
        let spec = TargetSpec::x86_ryzen_5800x();
        let exe = loop_exe(&spec, 2_000_000);
        let m = measure(&exe, &spec, &MeasureConfig::default(), 3).unwrap();
        // t_ref stays within a few percent of base even though individual
        // samples may spike by up to 30 %.
        assert!((m.t_ref - m.base_seconds).abs() / m.base_seconds < 0.1);
    }

    #[test]
    fn short_runs_are_relatively_noisier_than_long_runs() {
        // The paper's observation: fast x86 kernels have noisier
        // references. Short program: floor noise dominates.
        let spec = TargetSpec::x86_ryzen_5800x();
        let short = measure(&loop_exe(&spec, 500), &spec, &MeasureConfig::default(), 3).unwrap();
        let long = measure(
            &loop_exe(&spec, 2_000_000),
            &spec,
            &MeasureConfig::default(),
            3,
        )
        .unwrap();
        let rel_err = |m: &Measurement| (m.t_ref - m.base_seconds).abs() / m.base_seconds;
        assert!(rel_err(&short) > rel_err(&long));
    }

    #[test]
    fn longer_programs_take_longer() {
        let spec = TargetSpec::riscv_u74();
        let short = measure_base_seconds(&loop_exe(&spec, 100), &spec).unwrap();
        let long = measure_base_seconds(&loop_exe(&spec, 10_000), &spec).unwrap();
        assert!(long > short * 10.0);
    }

    #[test]
    fn native_benchmark_time_follows_equation_4_denominator() {
        let cfg = MeasureConfig::default();
        let t = native_benchmark_seconds(0.5, &cfg);
        assert!((t - (1.0 + 0.5) * 15.0).abs() < 1e-12);
    }

    #[test]
    fn skipping_cooldown_inflates_thermal_targets() {
        // ARM with aggressive thermals: no cooldown -> later samples are
        // hotter -> median rises.
        let spec = TargetSpec::arm_cortex_a72();
        let exe = loop_exe(&spec, 5000);
        let with_cd = measure(&exe, &spec, &MeasureConfig::default(), 5).unwrap();
        let without = measure(
            &exe,
            &spec,
            &MeasureConfig {
                cooldown_s: 0.0,
                ..MeasureConfig::default()
            },
            5,
        )
        .unwrap();
        // The thermal effect needs a long enough base time to register;
        // with a tiny kernel the two are close, so only check ordering
        // weakly.
        assert!(without.t_ref >= with_cd.t_ref * 0.99);
    }
}
