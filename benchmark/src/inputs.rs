//! Seeded input generation. The program under test only ever sees what
//! these functions generate; the same `--seed` generates the same inputs.
//!
//! The driver judges the benchmark by how far its numbers spread across
//! *different* seeds, so the two replay sets are stratified by size at
//! run time: a seed that happened to draw 15 % more simulated
//! instructions would otherwise read as a 15 % slower program. Every
//! other seed a workload needs is `mix(seed, k)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtune_bench::Scale;
use simtune_core::{
    collect_group_data, CollectOptions, FastCountBackend, GroupData, KernelBuilder, ScorePredictor,
    SimBackend, SimCache,
};
use simtune_hw::TargetSpec;
use simtune_isa::{torture_program_with, Executable, RunLimits, TortureConfig};
use simtune_predict::PredictorKind;
use simtune_tensor::{conv2d_bias_relu, ComputeDef, SketchGenerator, SketchParams};
use std::sync::Arc;

/// Candidates per `replay_conv` rep.
pub const CONV_SET: usize = 32;
/// Sketches drawn per selected candidate: the pool the stratified pick
/// chooses from.
const CONV_POOL_FACTOR: usize = 8;
/// Programs per torture preset in a `replay_short_x86` rep, and seeded
/// programs drawn per selected one.
const TORTURE_PER_PRESET: usize = 4;
const TORTURE_POOL_FACTOR: usize = 128;

/// The kernel every conv workload tunes: group 1 of the paper's Table II
/// at smoke scale — the same kernel `strategy_sweep` and the serve
/// protocol's `conv2d` workload use.
pub fn conv_def() -> ComputeDef {
    conv2d_bias_relu(&Scale::Smoke.conv_groups()[1])
}

/// SplitMix64 step: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `replay_conv` candidate set plus what producing it cost.
pub struct ConvSet {
    pub spec: TargetSpec,
    pub def: ComputeDef,
    pub generator: SketchGenerator,
    /// Genotypes of the selected candidates, in replay order.
    pub params: Vec<SketchParams>,
    /// The selected candidates, built.
    pub exes: Vec<Executable>,
    /// Sketches drawn for the pool.
    pub build_attempts: u64,
    /// Pool sketches whose build failed.
    pub build_failures: u64,
}

/// Draws a pool of `CONV_SET * 8` seeded sketches, sizes each on the
/// counting tier, sorts the pool by retired instructions and picks one
/// candidate per stratum of eight. Every seed therefore replays one
/// candidate from each octile-of-octiles of the cost distribution, and
/// the per-rep instruction total moves by ±4 % across seeds (9.17–9.95 M
/// over seeds 1–10; the top strata, which hold most of the instructions,
/// differ from pool to pool) instead of the ~9 % an unstratified draw of
/// 32 shows.
pub fn conv_set(seed: u64) -> ConvSet {
    let spec = TargetSpec::riscv_u74();
    let def = conv_def();
    let generator = SketchGenerator::new(&def, spec.isa.clone());
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let sizer = FastCountBackend::matching(&spec.hierarchy);
    let mut rng = StdRng::seed_from_u64(mix(seed, 1));

    let mut pool: Vec<(u64, SketchParams, Executable)> = Vec::new();
    let mut build_attempts = 0u64;
    let mut build_failures = 0u64;
    while pool.len() < CONV_SET * CONV_POOL_FACTOR {
        build_attempts += 1;
        assert!(
            build_attempts < 100 * (CONV_SET * CONV_POOL_FACTOR) as u64,
            "sketch generator yields almost no buildable candidates"
        );
        let params = generator.random(&mut rng);
        let schedule = generator.schedule(&params);
        let Ok(exe) = builder.build(&schedule, &format!("conv{}", pool.len())) else {
            build_failures += 1;
            continue;
        };
        let insts = sizer
            .run_one(&exe, &RunLimits::default())
            .expect("a built conv candidate runs on the counting tier")
            .stats
            .inst_mix
            .total();
        pool.push((insts, params, exe));
    }
    // Stable sort: ties keep draw order, so the pick is a pure function
    // of the seed.
    pool.sort_by_key(|(insts, _, _)| *insts);
    let mut params = Vec::with_capacity(CONV_SET);
    let mut exes = Vec::with_capacity(CONV_SET);
    let mut strata = pool.chunks(CONV_POOL_FACTOR);
    for _ in 0..CONV_SET {
        let stratum = strata.next().expect("pool holds CONV_SET strata");
        let (_, p, e) = &stratum[rng.gen_range(0..stratum.len())];
        params.push(p.clone());
        exes.push(e.clone());
    }
    ConvSet {
        spec,
        def,
        generator,
        params,
        exes,
        build_attempts,
        build_failures,
    }
}

/// The `replay_short_x86` programs: every `TortureConfig::corpus()`
/// preset × four programs, for the x86 target. Trials retire a few
/// hundred instructions at most, so a trial's *cost* is its fixed part
/// (hierarchy, memory image, timing model, decode) whatever the seed;
/// what a seed does move is the instructions delivered per rep (a
/// preset's programs retire anything from 15 to 550, faulting ones
/// deliver none), so each preset's four are the octile midpoints —
/// ranks 64, 192, 320 and 448 — of a pool of 512 seeded programs sorted
/// by retired instructions. Instructions per rep then move by ±4 %
/// across seeds (four random programs per preset: ±40 %).
pub fn torture_set(seed: u64) -> Vec<Executable> {
    let spec = TargetSpec::x86_ryzen_5800x();
    let sizer = FastCountBackend::matching(&spec.hierarchy);
    let mut exes = Vec::new();
    for (p, (name, cfg)) in TortureConfig::corpus().into_iter().enumerate() {
        let mut pool: Vec<(u64, Executable)> = (0..TORTURE_PER_PRESET * TORTURE_POOL_FACTOR)
            .map(|k| {
                let program =
                    torture_program_with(&cfg, mix(seed, 1000 * (p as u64 + 1) + k as u64));
                let exe = Executable::new(format!("{name}#{k}"), program, spec.isa.clone());
                // A faulting program delivers no statistics.
                let insts = sizer
                    .run_one(&exe, &RunLimits::default())
                    .map_or(0, |r| r.stats.inst_mix.total());
                (insts, exe)
            })
            .collect();
        pool.sort_by_key(|(insts, _)| *insts);
        // The middle of each stratum, not a random member: a preset's
        // top stratum spans 3x in retired instructions.
        for stratum in pool.chunks(TORTURE_POOL_FACTOR) {
            exes.push(stratum[stratum.len() / 2].1.clone());
        }
    }
    exes
}

/// Which training set a predictor is fit on.
pub struct TrainingSet {
    /// Group index and kernel name the data and the predictor carry.
    pub group: usize,
    pub kernel: &'static str,
    pub impls: usize,
    pub seed: u64,
    /// Seed of the predictor fit on the set.
    pub predictor_seed: u64,
}

impl TrainingSet {
    /// Collects the set on two workers; simulations go through `memo`
    /// when one is given.
    pub fn collect(
        &self,
        def: &ComputeDef,
        spec: &TargetSpec,
        memo: Option<Arc<SimCache>>,
    ) -> GroupData {
        collect_group_data(
            def,
            spec,
            self.group,
            &CollectOptions {
                n_impls: self.impls,
                n_parallel: 2,
                seed: self.seed,
                max_attempts_factor: 40,
                memo_cache: memo,
            },
        )
        .expect("training collection succeeds on the conv kernel")
    }

    /// Collects the set and fits the Xgboost score predictor on it: what
    /// the serve protocol's `open` does for a tenant.
    pub fn train(
        &self,
        def: &ComputeDef,
        spec: &TargetSpec,
        memo: Option<Arc<SimCache>>,
    ) -> (GroupData, ScorePredictor) {
        let data = self.collect(def, spec, memo);
        let mut predictor = ScorePredictor::new(
            PredictorKind::Xgboost,
            "riscv",
            self.kernel,
            self.predictor_seed,
        );
        predictor
            .train(std::slice::from_ref(&data))
            .expect("predictor trains on the collected group");
        (data, predictor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let a = conv_set(5);
        let b = conv_set(5);
        assert_eq!(a.params, b.params);
        assert_eq!(a.exes.len(), CONV_SET);
        assert_ne!(a.params, conv_set(6).params);
        let t = torture_set(5);
        assert_eq!(t.len(), 40);
        assert_eq!(t[7].program, torture_set(5)[7].program);
        assert_ne!(t[7].program, torture_set(6)[7].program);
    }
}
