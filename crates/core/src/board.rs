//! The emulated target board as a simulator backend.
//!
//! Every training label (`t_ref`) is a benchmark of one candidate on the
//! emulated board: one deterministic timing run ([`TimingModel`] as the
//! replay hook), then the paper's noise protocol around its model time
//! ([`simtune_hw::Measurement::from_base`]). [`BoardBackend`] is the
//! timing run as a [`SimBackend`] peer of the simulating tiers, so
//! collection and
//! hardware tuning submit it to the session's pool, on the session's
//! lane and replay engine, and the [`crate::SimCache`] keeps its reports
//! like any other tier's; [`crate::HardwareRunner`] keeps only the
//! noise protocol, a cheap post-pass keyed by the candidate's index.
//!
//! Running board trials in parallel on the host changes no number. The
//! paper's point that native runs cannot overlap is about the *device*
//! time, `native_benchmark_seconds` (its Equation 4), which is computed
//! from the model time, never from the host clock.

use crate::backend::{decode_and_run, hierarchy_digest, BackendError, SimBackend, SimReport};
use simtune_cache::CacheHierarchy;
use simtune_hw::{TargetSpec, TimingModel};
use simtune_isa::{replay, DecodedProgram, EngineKind, Executable, RunLimits};

/// Name stamped on board reports.
pub(crate) const BOARD: &str = "board";

/// The emulated board's timing run. Its reports carry the
/// [`TimingModel`]'s [`simtune_hw::CycleBreakdown`], so a candidate's
/// model time is `cycles.total() / freq_hz`.
#[derive(Debug, Clone)]
pub(crate) struct BoardBackend {
    spec: TargetSpec,
}

impl BoardBackend {
    /// The board of `spec`: its timing parameters, cache geometry and
    /// clock.
    pub(crate) fn new(spec: &TargetSpec) -> Self {
        BoardBackend { spec: spec.clone() }
    }
}

impl SimBackend for BoardBackend {
    fn name(&self) -> &str {
        BOARD
    }

    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
        decode_and_run(self, exe, limits)
    }

    fn run_one_decoded_on(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
        engine: EngineKind,
    ) -> Result<SimReport, BackendError> {
        let mut model = TimingModel::new(&self.spec);
        let hier = || CacheHierarchy::new(self.spec.hierarchy.clone());
        let (out, _) = replay(exe, decoded, hier, engine, *limits, None, &mut model)?;
        Ok(SimReport {
            cycles: Some(model.breakdown()),
            ..SimReport::full(out.stats, BOARD)
        })
    }

    /// Everything that moves a cycle: every [`simtune_hw::TimingParams`]
    /// field (by its `Debug` form, so a new field joins the key), the
    /// cache geometry and the 1024-entry direction predictor. The clock
    /// and the noise model only enter the post-pass, so they are not
    /// part of the key.
    fn fidelity_digest(&self) -> Option<String> {
        Some(format!(
            "board {:?} bp=1024 @ {}",
            self.spec.timing,
            hierarchy_digest(&self.spec.hierarchy)
        ))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::AccurateBackend;
    use crate::diffharness::{DiffHarness, Divergence};
    use crate::search::{RandomSearch, SearchStrategy, SketchSpace};
    use crate::{CoreError, HardwareRunner, KernelBuilder, SimSession};
    use simtune_hw::{measure, MeasureConfig, Measurement};
    use simtune_isa::{Gpr, Inst, ProgramBuilder, SimError, TortureConfig};
    use simtune_tensor::{conv2d_bias_relu, Conv2dShape, SketchGenerator};
    use std::sync::Arc;

    const TARGETS: [&str; 3] = ["x86", "arm", "riscv"];
    /// Budget of every board run here: enough for the programs under
    /// test, small enough that a shrink candidate which no longer
    /// terminates fails fast (and alike on every path).
    const LIMITS: RunLimits = RunLimits {
        max_insts: 2_000_000,
    };

    fn spec(name: &str) -> TargetSpec {
        TargetSpec::by_name(name).expect("paper target")
    }

    /// The board measurement of `exe` on `engine`, noise index `index`.
    fn board_measurement(
        spec: &TargetSpec,
        exe: &Executable,
        engine: EngineKind,
        index: usize,
    ) -> Result<Measurement, CoreError> {
        let decoded = exe.decode()?;
        let board = BoardBackend::new(spec);
        let report = board.run_one_decoded_on(exe, &decoded, &LIMITS, engine);
        HardwareRunner::new(spec.clone()).measurement(report.map_err(CoreError::from), index)
    }

    /// Board on the oracle engine (the path every label took before the
    /// board became a backend) against the production engine, and
    /// against `hw::measure`: `samples`, `t_ref` and `base_seconds`
    /// must agree bit for bit, or both runs fail with the same error.
    fn diff_board(spec: &TargetSpec, exe: &Executable, index: usize) -> Vec<Divergence> {
        let mut divs = Vec::new();
        let want = board_measurement(spec, exe, EngineKind::Interp, index);
        let seed = HardwareRunner::new(spec.clone()).noise_seed(index);
        let cfg = MeasureConfig {
            limits: LIMITS,
            ..MeasureConfig::default()
        };
        let hw = measure(exe, spec, &cfg, seed).map_err(CoreError::Sim);
        let got = [
            (
                "decoded",
                board_measurement(spec, exe, EngineKind::Decoded, index),
            ),
            ("hw::measure", hw),
        ];
        let bits = |m: &Measurement| {
            let samples: Vec<u64> = m.samples.iter().map(|s| s.to_bits()).collect();
            (samples, m.t_ref.to_bits(), m.base_seconds.to_bits())
        };
        for (name, got) in got {
            let combo = format!("board:{}×{name}", spec.name());
            let (field, expected, actual) = match (&want, &got) {
                (Ok(w), Ok(g)) if bits(w) == bits(g) => continue,
                (Ok(w), Ok(g)) => ("measurement", format!("{w:?}"), format!("{g:?}")),
                (Err(w), Err(g)) if format!("{w:?}") == format!("{g:?}") => continue,
                (w, g) => ("outcome", format!("{w:?}"), format!("{g:?}")),
            };
            divs.push(Divergence {
                combo,
                field: field.into(),
                expected,
                actual,
            });
        }
        divs
    }

    /// Fails with every divergence and a shrunk repro program; returns
    /// whether the board run completed.
    fn assert_board_agrees(spec: &TargetSpec, exe: &Executable, index: usize) -> bool {
        let divs = diff_board(spec, exe, index);
        if divs.is_empty() {
            return board_measurement(spec, exe, EngineKind::Decoded, index).is_ok();
        }
        let repro =
            DiffHarness::shrink_executable(exe, |cand| !diff_board(spec, cand, index).is_empty());
        let divs: Vec<String> = divs.iter().map(ToString::to_string).collect();
        panic!("{}: {divs:#?}\nshrunk repro:\n{repro:?}", exe.name);
    }

    #[test]
    fn board_is_bit_identical_on_interp_and_decoded_for_torture_presets() {
        let mut completed = 0;
        let corpus = TortureConfig::corpus();
        for (i, (scenario, config)) in corpus.iter().enumerate() {
            for target in TARGETS {
                let spec = spec(target);
                let seed = i as u64 * 31 + 7;
                let mut exe = DiffHarness::make_executable(scenario, config, seed, seed ^ 0xDA7A);
                exe.target = spec.isa.clone();
                completed += usize::from(assert_board_agrees(&spec, &exe, i));
            }
        }
        // Fault-injection presets may fault; the rest must measure.
        assert!(completed >= 3 * (corpus.len() - 1), "{completed} completed");
    }

    #[test]
    fn board_is_bit_identical_on_interp_and_decoded_for_conv_candidates() {
        let def = conv2d_bias_relu(&Conv2dShape {
            n: 1,
            h: 6,
            w: 6,
            co: 4,
            ci: 3,
            kh: 3,
            kw: 3,
            stride: (1, 1),
            pad: (1, 1),
        });
        let mut checked = 0;
        for target in TARGETS {
            let spec = spec(target);
            let generator = SketchGenerator::new(&def, spec.isa.clone());
            let mut sampler = RandomSearch::new(SketchSpace::new(generator.clone()), 3);
            let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
            let exes: Vec<Executable> = sampler
                .propose(&[], 24)
                .iter()
                .filter_map(|p| builder.build(&generator.schedule(p), "conv").ok())
                .take(12)
                .collect();
            for (i, exe) in exes.iter().enumerate() {
                assert!(assert_board_agrees(&spec, exe, i), "{target} #{i} measures");
            }
            checked += exes.len();
        }
        assert!(checked >= 32, "only {checked} conv candidates built");
    }

    #[test]
    fn digest_names_every_timing_parameter() {
        let base = spec("x86");
        let digest = |s: &TargetSpec| BoardBackend::new(s).fidelity_digest().unwrap();
        let reference = digest(&base);
        assert!(reference.starts_with("board "), "{reference}");
        let mutations: [fn(&mut simtune_hw::TimingParams); 14] = [
            |t| t.issue_width += 1.0,
            |t| t.int_cost += 0.125,
            |t| t.fp_cost += 0.125,
            |t| t.vec_cost += 0.125,
            |t| t.load_cost += 0.125,
            |t| t.store_cost += 0.125,
            |t| t.branch_cost += 0.125,
            |t| t.l2_cycles += 1.0,
            |t| t.l3_cycles += 1.0,
            |t| t.mem_cycles += 1.0,
            |t| t.miss_overlap /= 2.0,
            |t| t.mispredict_penalty += 1.0,
            |t| t.prefetch_streams += 1,
            |t| t.prefetch_degree += 1,
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut changed = base.clone();
            mutate(&mut changed.timing);
            assert_ne!(digest(&changed), reference, "field {i} is not in the key");
        }
        let mut geometry = base.clone();
        geometry.hierarchy.l2.num_sets *= 2;
        assert_ne!(digest(&geometry), reference, "cache geometry is in the key");
        // The clock and the noise model only enter the post-pass.
        let mut clock = base.clone();
        clock.freq_hz *= 2.0;
        assert_eq!(digest(&clock), reference);
    }

    /// One `Ld` in a two-iteration loop reads `0x1000`, then
    /// `i64::MIN + 64`: the prefetcher sees the second line before
    /// memory range-checks it.
    pub(crate) fn hostile_stride_exe(spec: &TargetSpec) -> Executable {
        let far = i64::MIN + 64;
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li {
            rd: Gpr(1),
            imm: 0x1000,
        });
        b.push(Inst::Li {
            rd: Gpr(3),
            imm: far.wrapping_sub(0x1000),
        });
        b.push(Inst::Li { rd: Gpr(4), imm: 0 });
        b.push(Inst::Li { rd: Gpr(5), imm: 2 });
        let top = b.bind_new_label();
        b.push(Inst::Ld {
            rd: Gpr(2),
            rs: Gpr(1),
            imm: 0,
        });
        b.push(Inst::Add {
            rd: Gpr(1),
            rs1: Gpr(1),
            rs2: Gpr(3),
        });
        b.push(Inst::Addi {
            rd: Gpr(4),
            rs: Gpr(4),
            imm: 1,
        });
        b.branch_lt(Gpr(4), Gpr(5), top);
        b.push(Inst::Halt);
        Executable::new("hostile-stride", b.build().unwrap(), spec.isa.clone())
    }

    #[test]
    fn hostile_stride_on_the_board_is_the_accurate_tiers_memory_fault() {
        let spec = spec("x86");
        let exe = hostile_stride_exe(&spec);
        let run = |backend: Arc<dyn SimBackend>| {
            let session = SimSession::builder()
                .backend(backend)
                .n_parallel(1)
                .build()
                .unwrap();
            session.run(std::slice::from_ref(&exe)).remove(0)
        };
        let accurate = run(Arc::new(AccurateBackend::new(spec.hierarchy.clone())));
        let board = run(Arc::new(BoardBackend::new(&spec)));
        let fault = SimError::MemoryFault {
            addr: (i64::MIN + 64) as u64,
        };
        for outcome in [accurate, board] {
            match outcome {
                Err(CoreError::Sim(e)) => assert_eq!(e, fault),
                other => panic!("expected the memory fault, got {other:?}"),
            }
        }
        assert_eq!(
            measure(&exe, &spec, &MeasureConfig::default(), 1),
            Err(fault)
        );
    }
}
