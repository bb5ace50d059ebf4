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
//! * [`HardwareRunner`] — the benchmarking protocol of the emulated
//!   target board (Section IV): `N_exe` noisy repetitions around the
//!   board's deterministic model time.

use crate::board::BoardBackend;
use crate::{CoreError, SimBackend, SimReport};
use simtune_hw::{measure, MeasureConfig, Measurement, TargetSpec};
use simtune_isa::Executable;
use simtune_tensor::{build_executable, ComputeDef, Schedule, TargetIsa};
use std::sync::Arc;

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

/// The benchmarking protocol of the emulated target hardware — the flow
/// the simulator interface replaces, and the source of training labels
/// (`t_ref`).
///
/// A measurement has two parts. The board's timing run is deterministic,
/// so the workflows ([`crate::collect_group_data`],
/// [`crate::tune_on_hardware`]) submit it to the session's worker pool
/// as an internal backend, where it runs in parallel with the other
/// trials and is memoized like them. What stays here is the noise
/// protocol: candidate *i*'s repetitions are drawn under noise seed
/// `noise_seed + i·0x9E37`, whichever thread ran its board and whenever.
///
/// Host parallelism changes no number. On real hardware native runs
/// cannot overlap (Section IV), and that sequential device time is what
/// the paper charges: [`Measurement::native_benchmark_seconds`] (the
/// denominator of Equation 4) is computed from the model time, not
/// from the host clock.
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

    /// Measures one executable, its board run on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates simulation faults as [`CoreError::Sim`].
    pub fn run_one(&self, exe: &Executable, index: usize) -> Result<Measurement, CoreError> {
        Ok(measure(
            exe,
            &self.spec,
            &self.config,
            self.noise_seed(index),
        )?)
    }

    /// Measures every executable, one after another on the calling
    /// thread, candidate *i* under noise index *i*.
    pub fn run(&self, exes: &[Executable]) -> Vec<Result<Measurement, CoreError>> {
        exes.iter()
            .enumerate()
            .map(|(i, e)| self.run_one(e, i))
            .collect()
    }

    /// Noise seed of candidate `index`.
    pub(crate) fn noise_seed(&self, index: usize) -> u64 {
        self.noise_seed.wrapping_add(index as u64 * 0x9E37)
    }

    /// The board's timing run as a backend, for a session to submit to.
    pub(crate) fn board(&self) -> Arc<dyn SimBackend> {
        Arc::new(BoardBackend::new(&self.spec))
    }

    /// The noise protocol over a [`HardwareRunner::board`] report:
    /// candidate `index`'s measurement, or the report's error.
    pub(crate) fn measurement(
        &self,
        report: Result<SimReport, CoreError>,
        index: usize,
    ) -> Result<Measurement, CoreError> {
        let report = report?;
        let cycles = report.cycles.ok_or_else(|| {
            CoreError::Pipeline(format!(
                "a {:?} report has no cycle breakdown",
                report.backend
            ))
        })?;
        let base_seconds = cycles.total() / self.spec.freq_hz;
        Ok(Measurement::from_base(
            base_seconds,
            &self.spec,
            &self.config,
            self.noise_seed(index),
        ))
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
