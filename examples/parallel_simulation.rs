//! Demonstrates Contribution I in isolation: the simulator interface.
//!
//! * `n_parallel` simulator instances process a candidate batch
//!   concurrently (paper Fig. 1-I / Listing 3);
//! * every bundled fidelity tier (fast-count, accurate, pipelined) is
//!   one `FidelitySpec` away, and any other simulator plugs
//!   in behind the runner as an `impl SimBackend` handed to
//!   `SimSessionBuilder::backend`, mirroring the paper's TVM registry
//!   override (Listing 4).
//!
//! ```text
//! cargo run --release --example parallel_simulation
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use simtune::cache::HierarchyConfig;
use simtune::core::{FidelitySpec, KernelBuilder};
use simtune::hw::TargetSpec;
use simtune::isa::{simulate, Executable, RunLimits};
use simtune::tensor::{conv2d_bias_relu, Conv2dShape, SketchGenerator};
use simtune::{BackendError, SimBackend, SimReport, SimSession};
use std::sync::Arc;
use std::time::Instant;

/// A custom backend is one `run_one`: it could shell out to gem5/QEMU
/// here; this one wraps the built-in simulator and tags the result.
struct Gem5Wrapper(HierarchyConfig);

impl SimBackend for Gem5Wrapper {
    fn name(&self) -> &str {
        "gem5-wrapper"
    }

    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
        let mut stats = simulate(exe, &self.0, *limits)?.stats;
        stats.host_nanos |= 1; // visible marker of the custom path
        let backend = self.name().to_string();
        Ok(SimReport {
            stats,
            backend,
            cycles: None,
        })
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = TargetSpec::x86_ryzen_5800x();
    let shape = Conv2dShape {
        n: 1,
        h: 28,
        w: 28,
        co: 16,
        ci: 8,
        kh: 3,
        kw: 3,
        stride: (1, 1),
        pad: (1, 1),
    };
    let def = conv2d_bias_relu(&shape);

    // Build a batch of candidates.
    let generator = SketchGenerator::new(&def, spec.isa.clone());
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let mut rng = StdRng::seed_from_u64(4);
    let schedules: Vec<_> =
        std::iter::repeat_with(|| generator.schedule(&generator.random(&mut rng)))
            .filter(|s| s.apply(&def, &spec.isa).is_ok())
            .take(24)
            .collect();
    let exes: Vec<_> = builder
        .build_batch(&schedules)
        .into_iter()
        .flatten()
        .collect();
    println!(
        "built {} candidates ({:.2} MMACs each)",
        exes.len(),
        shape.macs() as f64 / 1e6
    );

    // Scaling over n_parallel.
    println!(
        "\n{:>10} | {:>9} | {:>8}",
        "n_parallel", "wall time", "speedup"
    );
    println!("{}", "-".repeat(34));
    let mut t1 = None;
    for n in [1usize, 2, 4, 8] {
        let session = SimSession::builder()
            .accurate(&spec.hierarchy)
            .n_parallel(n)
            .build()?;
        let t0 = Instant::now();
        let results = session.run(&exes);
        let dt = t0.elapsed().as_secs_f64();
        assert!(results.iter().all(|r| r.is_ok()));
        let base = *t1.get_or_insert(dt);
        println!("{n:>10} | {:>8.2}s | {:>7.2}x", dt, base / dt);
    }

    // Fidelity tiers: the same batch on every bundled backend, cheapest
    // first.
    println!("\nsame batch across the bundled fidelity tiers...");
    for tier in FidelitySpec::all() {
        let name = tier.label();
        let session = SimSession::builder()
            .fidelity(&tier, &spec.hierarchy)
            .n_parallel(8)
            .build()?;
        let t0 = Instant::now();
        let reports = session.run(&exes);
        let dt = t0.elapsed().as_secs_f64();
        let first = reports[0].as_ref().expect("runs");
        println!(
            "  {name:>10}: {:>9} insts, L1D miss {:>5.2} %, batch in {dt:.2}s",
            first.stats.inst_mix.total(),
            first.stats.cache.l1d.read_miss_ratio() * 100.0,
        );
    }

    // Custom backend: plug any simulator into the same session (the
    // paper's registry override, typed: `.backend(Arc::new(..))`).
    println!("\nplugging a custom simulator backend into the session...");
    let custom = Gem5Wrapper(spec.hierarchy.clone());
    let session = SimSession::builder().backend(Arc::new(custom)).build()?;
    let results = session.run(&exes[..4]);
    for (i, r) in results.iter().enumerate() {
        let report = r.as_ref().expect("runs");
        println!(
            "  candidate {i} via {:>12}: {:>9} insts, custom-path marker {}",
            report.backend,
            report.stats.inst_mix.total(),
            report.stats.host_nanos & 1
        );
    }
    Ok(())
}
