//! Pipelined in-order timing tier: instruction-accurate semantics plus
//! a cycle-level [`PipelineModel`].
//!
//! [`PipelinedBackend`] sits between [`crate::SampledBackend`] and
//! [`crate::AccurateBackend`] on the fidelity ladder: it runs the same
//! functional replay as the reference (architectural statistics are
//! bit-identical by construction), but hooks a 5-stage in-order timing
//! model into the µop stream via
//! [`simtune_isa::TimingBridge`] — RAW/load-use stalls, branch
//! misprediction flushes against a BTB+RAS predictor, and a stride
//! prefetcher filling the shared cache hierarchy. The extra signal
//! lands in [`SimReport::cycles`] as a [`CycleBreakdown`].
//!
//! # Determinism contract
//!
//! A fresh [`PipelineModel`] is created per trial and all of its
//! accounting is integral, so cycle counts are byte-identical at every
//! `n_parallel` and on every replay [`EngineKind`]. The engines deliver
//! the model's events in two ways: the interpreter per µop, the decoded
//! engine per basic block (the model times a hot block that stalled
//! on nothing by its cached issue schedule).
//! Both reach the same cycle breakdown, mispredict and prefetch counts
//! and cache counters — the property the differential harness
//! ([`crate::diffharness`]) locks in, with the interpreter as the
//! oracle. Because the prefetcher mutates the trial's cache hierarchy,
//! *cache* statistics legitimately differ from the accurate tier's;
//! instruction mix and architectural state do not.

use crate::backend::{decode_and_run, hierarchy_digest, BackendError, SimBackend, SimReport};
use simtune_cache::{CacheHierarchy, HierarchyConfig};
use simtune_hw::{PipelineModel, TargetSpec};
use simtune_isa::{replay, DecodedProgram, EngineKind, Executable, RunLimits, TimingBridge};

/// Canonical name of the pipelined timing flavor.
pub const PIPELINED: &str = "pipelined";

/// The cycle-level fidelity tier: accurate functional simulation with a
/// per-trial in-order pipeline timing model.
#[derive(Debug, Clone)]
pub struct PipelinedBackend {
    hierarchy: HierarchyConfig,
    btb_entries: usize,
    ras_depth: usize,
}

impl PipelinedBackend {
    /// Pipelined backend over `hierarchy` with a branch predictor BTB of
    /// `btb_entries` slots and a RAS of `ras_depth` slots.
    pub fn new(hierarchy: HierarchyConfig, btb_entries: usize, ras_depth: usize) -> Self {
        PipelinedBackend {
            hierarchy,
            btb_entries,
            ras_depth,
        }
    }

    /// The cache geometry each trial simulates.
    pub fn hierarchy(&self) -> &HierarchyConfig {
        &self.hierarchy
    }

    /// Configured BTB capacity.
    pub fn btb_entries(&self) -> usize {
        self.btb_entries
    }

    /// Configured RAS depth.
    pub fn ras_depth(&self) -> usize {
        self.ras_depth
    }

    /// Timing parameters for `exe`: the target spec matching the
    /// executable's ISA label (falling back to the U74 preset for
    /// custom ISAs), with the cache geometry overridden by this
    /// backend's configured hierarchy so timing and simulation agree.
    fn timing_spec(&self, exe: &Executable) -> TargetSpec {
        let mut spec = TargetSpec::by_name(exe.target.name).unwrap_or_else(TargetSpec::riscv_u74);
        spec.hierarchy = self.hierarchy.clone();
        spec
    }
}

impl SimBackend for PipelinedBackend {
    fn name(&self) -> &str {
        PIPELINED
    }

    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
        decode_and_run(self, exe, limits)
    }

    // The accurate tier's replay with the timing model as the hook.
    fn run_one_decoded_on(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
        engine: EngineKind,
    ) -> Result<SimReport, BackendError> {
        let mut model =
            PipelineModel::new(&self.timing_spec(exe), self.btb_entries, self.ras_depth);
        let mut bridge = TimingBridge::new(&mut model);
        let hier = || CacheHierarchy::new(self.hierarchy.clone());
        let (out, _) = replay(exe, decoded, hier, engine, *limits, None, &mut bridge)?;
        Ok(SimReport {
            cycles: Some(model.breakdown()),
            ..SimReport::full(out.stats, PIPELINED)
        })
    }

    fn fidelity_digest(&self) -> Option<String> {
        Some(format!(
            "pipelined:btb={},ras={} @ {}",
            self.btb_entries,
            self.ras_depth,
            hierarchy_digest(&self.hierarchy)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AccurateBackend;
    use crate::{CoreError, SimSession};
    use simtune_isa::{Fpr, Gpr, Inst, ProgramBuilder, SimError, TargetIsa};
    use std::sync::Arc;

    fn hier() -> HierarchyConfig {
        HierarchyConfig::tiny_for_tests()
    }

    /// Loop whose inner branch direction depends on the iteration
    /// count — hostile to the bimodal predictor.
    fn branchy(n: i64) -> Executable {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li { rd: Gpr(1), imm: 0 });
        b.push(Inst::Li { rd: Gpr(2), imm: n });
        let top = b.bind_new_label();
        b.push(Inst::Slli {
            rd: Gpr(4),
            rs: Gpr(1),
            shamt: 63,
        });
        let skip = b.new_label();
        b.branch_ne(Gpr(4), Gpr(5), skip);
        b.push(Inst::Addi {
            rd: Gpr(3),
            rs: Gpr(3),
            imm: 1,
        });
        b.bind(skip);
        b.push(Inst::Addi {
            rd: Gpr(1),
            rs: Gpr(1),
            imm: 1,
        });
        b.branch_lt(Gpr(1), Gpr(2), top);
        b.push(Inst::Halt);
        Executable::new("branchy", b.build().unwrap(), TargetIsa::riscv_u74())
    }

    /// Branch-free FP chain of comparable length.
    fn straightline(n: usize) -> Executable {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Fli {
            fd: Fpr(1),
            imm: 1.0,
        });
        for _ in 0..n {
            b.push(Inst::Fadd {
                fd: Fpr(1),
                fs1: Fpr(1),
                fs2: Fpr(1),
            });
        }
        b.push(Inst::Halt);
        Executable::new("straight", b.build().unwrap(), TargetIsa::riscv_u74())
    }

    #[test]
    fn cycles_present_and_dominate_instruction_count() {
        let backend = PipelinedBackend::new(hier(), 512, 8);
        let r = backend
            .run_one(&branchy(200), &RunLimits::default())
            .unwrap();
        assert_eq!(r.backend, "pipelined");
        let cycles = r.cycles.expect("pipelined tier reports a breakdown");
        assert!(cycles.total() >= r.stats.inst_mix.total() as f64);
    }

    #[test]
    fn arch_state_matches_the_accurate_tier() {
        let backend = PipelinedBackend::new(hier(), 512, 8);
        let acc = AccurateBackend::new(hier());
        let exe = branchy(100);
        let p = backend.run_one(&exe, &RunLimits::default()).unwrap();
        let a = acc.run_one(&exe, &RunLimits::default()).unwrap();
        assert_eq!(p.stats.inst_mix, a.stats.inst_mix);
    }

    #[test]
    fn cycles_are_deterministic_across_engines() {
        let backend = PipelinedBackend::new(hier(), 512, 8);
        let exe = branchy(150);
        let decoded = exe.decode().unwrap();
        let reference = backend.run_one(&exe, &RunLimits::default()).unwrap();
        for engine in EngineKind::ALL {
            let r = backend
                .run_one_decoded_on(&exe, &decoded, &RunLimits::default(), engine)
                .unwrap();
            assert_eq!(r.cycles, reference.cycles, "engine {engine:?}");
            assert_eq!(r.stats.inst_mix, reference.stats.inst_mix);
        }
    }

    #[test]
    fn branch_hostile_code_pays_control_cycles_branch_free_does_not() {
        let backend = PipelinedBackend::new(hier(), 512, 8);
        let hostile = backend
            .run_one(&branchy(300), &RunLimits::default())
            .unwrap();
        let straight = backend
            .run_one(&straightline(300), &RunLimits::default())
            .unwrap();
        assert!(hostile.cycles.unwrap().control > 0.0);
        assert_eq!(straight.cycles.unwrap().control, 0.0);
    }

    /// The pipelined report of `exe` on `engine` with wall time zeroed
    /// and the cycle breakdown as bit patterns, or the error's text.
    fn timed_report(
        backend: &PipelinedBackend,
        exe: &Executable,
        engine: EngineKind,
    ) -> Result<(simtune_isa::SimStats, Option<[u64; 3]>), String> {
        let decoded = exe.decode().map_err(|e| e.to_string())?;
        let limits = RunLimits {
            max_insts: 2_000_000,
        };
        let r = backend
            .run_one_decoded_on(exe, &decoded, &limits, engine)
            .map_err(|e| e.to_string())?;
        let cycles = r.cycles.map(|c| {
            [
                c.pipeline.to_bits(),
                c.memory.to_bits(),
                c.control.to_bits(),
            ]
        });
        let stats = simtune_isa::SimStats {
            host_nanos: 0,
            ..r.stats
        };
        Ok((stats, cycles))
    }

    /// The block schedule where it runs: on each paper target's own
    /// hierarchy (penalties, `miss_overlap` and prefetch degree differ,
    /// only x86 has an L3) loops hit in the caches, so hot blocks take
    /// their schedules instead of the per-µop step. The decoded
    /// engine's report — cycle bits, cache counters, instruction mix —
    /// must be the interpreter's, over the torture corpus and a handful
    /// of conv candidates per target.
    #[test]
    fn pipelined_reports_are_bit_identical_on_interp_and_decoded_on_paper_targets() {
        use crate::search::{RandomSearch, SearchStrategy, SketchSpace};
        use crate::KernelBuilder;
        use simtune_isa::TortureConfig;
        use simtune_tensor::{conv2d_bias_relu, Conv2dShape, SketchGenerator};

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
        for target in ["x86", "arm", "riscv"] {
            let spec = TargetSpec::by_name(target).expect("paper target");
            let backend = PipelinedBackend::new(
                spec.hierarchy.clone(),
                crate::DEFAULT_BTB_ENTRIES,
                crate::DEFAULT_RAS_DEPTH,
            );
            let mut exes: Vec<Executable> = TortureConfig::corpus()
                .iter()
                .enumerate()
                .map(|(i, (scenario, config))| {
                    let seed = i as u64 * 17 + 3;
                    let mut exe = crate::diffharness::DiffHarness::make_executable(
                        scenario,
                        config,
                        seed,
                        seed ^ 0xDA7A,
                    );
                    exe.target = spec.isa.clone();
                    exe
                })
                .collect();
            let generator = SketchGenerator::new(&def, spec.isa.clone());
            let mut sampler = RandomSearch::new(SketchSpace::new(generator.clone()), 5);
            let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
            let conv: Vec<Executable> = sampler
                .propose(&[], 12)
                .iter()
                .filter_map(|p| builder.build(&generator.schedule(p), "conv").ok())
                .take(4)
                .collect();
            assert_eq!(conv.len(), 4, "{target}: conv candidates build");
            exes.extend(conv);
            for exe in &exes {
                let want = timed_report(&backend, exe, EngineKind::Interp);
                let got = timed_report(&backend, exe, EngineKind::Decoded);
                assert_eq!(got, want, "{target}: {}", exe.name);
                checked += usize::from(want.is_ok());
            }
        }
        assert!(checked >= 3 * 12, "only {checked} programs completed");
    }

    #[test]
    fn digest_covers_every_knob() {
        let a = PipelinedBackend::new(hier(), 512, 8);
        let b = PipelinedBackend::new(hier(), 256, 8);
        let c = PipelinedBackend::new(hier(), 512, 4);
        assert_ne!(a.fidelity_digest(), b.fidelity_digest());
        assert_ne!(a.fidelity_digest(), c.fidelity_digest());
        assert!(a
            .fidelity_digest()
            .unwrap()
            .starts_with("pipelined:btb=512,ras=8 @ "));
    }

    #[test]
    fn hostile_stride_on_the_pipelined_tier_is_the_accurate_tiers_memory_fault() {
        let spec = TargetSpec::x86_ryzen_5800x();
        let exe = crate::board::tests::hostile_stride_exe(&spec);
        let run = |backend: Arc<dyn SimBackend>| {
            let session = SimSession::builder()
                .backend(backend)
                .n_parallel(1)
                .build()
                .unwrap();
            session.run(std::slice::from_ref(&exe)).remove(0)
        };
        let accurate = run(Arc::new(AccurateBackend::new(spec.hierarchy.clone())));
        let pipelined = run(Arc::new(PipelinedBackend::new(
            spec.hierarchy.clone(),
            512,
            8,
        )));
        let fault = SimError::MemoryFault {
            addr: (i64::MIN + 64) as u64,
        };
        for outcome in [accurate, pipelined] {
            match outcome {
                Err(CoreError::Sim(e)) => assert_eq!(e, fault),
                other => panic!("expected the memory fault, got {other:?}"),
            }
        }
    }
}
