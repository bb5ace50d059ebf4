//! Builders and runners: the paper's Contribution I.
//!
//! TVM autotuning needs a *builder* (compiles a candidate into an object
//! file) and a *runner* (executes it and reports a cost). The paper adds
//! a simulator runner (its Listing 3) that launches `n_parallel`
//! simulator instances instead of touching target hardware, plus an
//! overridable `simulator_run` hook so any simulator can be plugged in
//! — here [`crate::SimSession`] over a [`crate::SimBackend`]. This
//! module holds the two pieces around it:
//!
//! * [`KernelBuilder`] — schedule → standalone [`Executable`];
//! * [`HardwareRunner`] — sequential noisy measurements on the emulated
//!   target board (native execution is never parallel, Section IV).

use crate::CoreError;
use simtune_hw::{measure, MeasureConfig, Measurement, TargetSpec};
use simtune_isa::Executable;
use simtune_tensor::{build_executable, ComputeDef, Schedule, TargetIsa};

/// Compiles kernel schedules into standalone executables (the "builder"
/// box of the paper's Fig. 2).
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    def: ComputeDef,
    target: TargetIsa,
    /// Seed for input-tensor preparation; fixed per builder so every
    /// candidate computes on identical data.
    pub data_seed: u64,
}

impl KernelBuilder {
    /// Creates a builder for one kernel on one target.
    pub fn new(def: ComputeDef, target: TargetIsa) -> Self {
        KernelBuilder {
            def,
            target,
            data_seed: 0x5EED,
        }
    }

    /// The kernel being built.
    pub fn def(&self) -> &ComputeDef {
        &self.def
    }

    /// The target ISA.
    pub fn target(&self) -> &TargetIsa {
        &self.target
    }

    /// Builds one candidate.
    ///
    /// # Errors
    ///
    /// Invalid schedules return [`CoreError::Codegen`] — the autotuner
    /// treats these as failed builds and penalizes the configuration.
    pub fn build(&self, schedule: &Schedule, name: &str) -> Result<Executable, CoreError> {
        Ok(build_executable(
            &self.def,
            schedule,
            &self.target,
            self.data_seed,
            name,
        )?)
    }

    /// Builds a batch, keeping per-candidate results.
    pub fn build_batch(&self, schedules: &[Schedule]) -> Vec<Result<Executable, CoreError>> {
        schedules
            .iter()
            .enumerate()
            .map(|(i, s)| self.build(s, &format!("{}#{i}", self.def.name)))
            .collect()
    }
}

/// Benchmarks candidates sequentially on the emulated target hardware —
/// the flow the simulator interface replaces, and the source of training
/// labels (`t_ref`).
#[derive(Debug, Clone)]
pub struct HardwareRunner {
    /// The emulated board.
    pub spec: TargetSpec,
    /// Benchmarking protocol (repetitions, cooldown).
    pub config: MeasureConfig,
    /// Base seed for measurement noise; each candidate derives its own.
    pub noise_seed: u64,
}

impl HardwareRunner {
    /// Runner with the paper's measurement protocol.
    pub fn new(spec: TargetSpec) -> Self {
        HardwareRunner {
            spec,
            config: MeasureConfig::default(),
            noise_seed: 0x11AD,
        }
    }

    /// Measures one executable.
    ///
    /// # Errors
    ///
    /// Propagates simulation faults as [`CoreError::Sim`].
    pub fn run_one(&self, exe: &Executable, index: usize) -> Result<Measurement, CoreError> {
        Ok(measure(
            exe,
            &self.spec,
            &self.config,
            self.noise_seed.wrapping_add(index as u64 * 0x9E37),
        )?)
    }

    /// Measures every executable in order (never in parallel: parallel
    /// native execution would disturb the measurements, Section IV).
    pub fn run(&self, exes: &[Executable]) -> Vec<Result<Measurement, CoreError>> {
        exes.iter()
            .enumerate()
            .map(|(i, e)| self.run_one(e, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtune_tensor::matmul;

    fn builder() -> KernelBuilder {
        KernelBuilder::new(matmul(6, 6, 6), TargetIsa::riscv_u74())
    }

    fn exes(n: usize) -> Vec<Executable> {
        let b = builder();
        let s = Schedule::default_for(b.def());
        (0..n)
            .map(|i| b.build(&s, &format!("m{i}")).unwrap())
            .collect()
    }

    #[test]
    fn hardware_runner_measures_with_distinct_noise() {
        let exes = exes(2);
        let hw = HardwareRunner::new(TargetSpec::riscv_u74());
        let ms = hw.run(&exes);
        let a = ms[0].as_ref().unwrap();
        let b = ms[1].as_ref().unwrap();
        // Identical programs, identical base time, different noise draws.
        assert_eq!(a.base_seconds, b.base_seconds);
        assert_ne!(a.samples, b.samples);
    }

    #[test]
    fn builder_rejects_invalid_schedule() {
        let b = builder();
        let mut s = Schedule::default_for(b.def());
        s.order.pop();
        assert!(matches!(b.build(&s, "bad"), Err(CoreError::Codegen(_))));
    }

    #[test]
    fn build_batch_keeps_per_candidate_results() {
        let b = builder();
        let good = Schedule::default_for(b.def());
        let mut bad = good.clone();
        bad.order.pop();
        let rs = b.build_batch(&[good, bad]);
        assert!(rs[0].is_ok());
        assert!(rs[1].is_err());
    }
}
