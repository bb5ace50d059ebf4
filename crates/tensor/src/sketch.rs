//! Auto-Scheduler-style sketch generation and random annotation.
//!
//! TVM's Auto-Scheduler (Ansor, paper Section II-A) derives *sketches* —
//! skeleton loop structures — from the kernel's DAG by rule application,
//! then fills their placeholders in a random *annotation* phase (tile
//! sizes, unroll, vectorize) and evolves the population. This module
//! provides the equivalent machinery for this crate's kernels without
//! manual templates:
//!
//! * [`SketchParams`] is the genotype: per-variable tiling factors, an
//!   interleaving pattern, and annotation flags.
//! * [`SketchGenerator::random`] samples a valid genotype; structural
//!   validity (dividing factors, lane-exact vector tiles) holds by
//!   construction.
//! * [`SketchGenerator::mutate`] perturbs one aspect — the evolutionary
//!   search neighborhood.
//! * [`SketchGenerator::schedule`] materializes a genotype into a
//!   [`Schedule`].

use crate::expr::{ComputeDef, VarRef};
use crate::schedule::{Schedule, Split, SubVar, MAX_UNROLL};
use crate::TargetIsa;
use rand::Rng;

/// Structural interleaving of spatial and reduction pieces, from
/// register-friendliest to deliberately poor (the search space must
/// contain bad programs for the tuner to learn from).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SketchPattern {
    /// All spatial pieces outer, full reduction innermost.
    ReduceInner,
    /// Outer reduction pieces between the spatial tiles.
    ReduceBlocked,
    /// Reduction pieces above the innermost spatial pieces.
    SpatialInner,
}

impl SketchPattern {
    /// All patterns, in preference order.
    pub fn all() -> [SketchPattern; 3] {
        [
            SketchPattern::ReduceInner,
            SketchPattern::ReduceBlocked,
            SketchPattern::SpatialInner,
        ]
    }
}

/// The annotation genotype produced and evolved by the generator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SketchParams {
    /// Inner tile size per spatial variable (1 = unsplit).
    pub spatial_tiles: Vec<usize>,
    /// Inner tile size per reduction variable (1 = unsplit).
    pub reduce_tiles: Vec<usize>,
    /// Loop interleaving pattern.
    pub pattern: SketchPattern,
    /// Vectorize the innermost spatial dimension (lane-exact tile added).
    pub vectorize: bool,
    /// Unroll the innermost reduction piece.
    pub unroll_reduce: bool,
    /// Unroll the innermost spatial piece (when small enough).
    pub unroll_spatial: bool,
}

/// Sketch-and-annotation generator for one kernel on one target.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use simtune_tensor::{matmul, SketchGenerator, TargetIsa};
///
/// let def = matmul(16, 16, 16);
/// let gen = SketchGenerator::new(&def, TargetIsa::arm_cortex_a72());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let params = gen.random(&mut rng);
/// let schedule = gen.schedule(&params);
/// schedule.apply(&def, &TargetIsa::arm_cortex_a72()).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct SketchGenerator {
    spatial_extents: Vec<usize>,
    reduce_extents: Vec<usize>,
    target: TargetIsa,
}

/// Maximum candidate inner-tile size per spatial variable.
pub const MAX_SPATIAL_TILE: usize = 32;
/// Maximum candidate inner-tile size per reduction variable.
pub const MAX_REDUCE_TILE: usize = 16;
/// Probability of annotating an eligible loop with `unroll`.
const UNROLL_PROB: f64 = 0.5;
/// Probability of vectorizing when the tile admits it.
const VECTORIZE_PROB: f64 = 0.6;

impl SketchGenerator {
    /// Creates a generator for `def` on `target`: tiles are divisors of
    /// each extent up to [`MAX_SPATIAL_TILE`] or [`MAX_REDUCE_TILE`].
    pub fn new(def: &ComputeDef, target: TargetIsa) -> Self {
        SketchGenerator {
            spatial_extents: def.spatial_extents.clone(),
            reduce_extents: def.reduce_extents.clone(),
            target,
        }
    }

    /// The target this generator annotates for.
    pub fn target(&self) -> &TargetIsa {
        &self.target
    }

    /// Extents of the kernel's spatial variables, in variable order.
    pub fn spatial_extents(&self) -> &[usize] {
        &self.spatial_extents
    }

    /// Extents of the kernel's reduction variables, in variable order.
    pub fn reduce_extents(&self) -> &[usize] {
        &self.reduce_extents
    }

    /// Normalizes an externally constructed genotype into the valid
    /// region: clears `vectorize` when the innermost tile is not
    /// lane-exact and drops unroll flags whose effective trip count
    /// exceeds [`MAX_UNROLL`] — the same clamping every sampled, mutated
    /// or crossed-over genotype goes through. Enumerative searches use
    /// this to project lattice points into the space the random sampler
    /// draws from.
    pub fn canonicalize(&self, p: &mut SketchParams) {
        self.clamp(p);
    }

    /// True when `p` lies inside this generator's search space: every
    /// tile divides its extent and respects the tile caps, and the
    /// annotation flags survive [`SketchGenerator::canonicalize`]
    /// unchanged.
    pub fn contains(&self, p: &SketchParams) -> bool {
        if p.spatial_tiles.len() != self.spatial_extents.len()
            || p.reduce_tiles.len() != self.reduce_extents.len()
        {
            return false;
        }
        let tiles_ok = |tiles: &[usize], extents: &[usize], cap: usize| {
            tiles
                .iter()
                .zip(extents)
                .all(|(&t, &e)| t >= 1 && t <= cap && e.is_multiple_of(t))
        };
        if !tiles_ok(&p.spatial_tiles, &self.spatial_extents, MAX_SPATIAL_TILE)
            || !tiles_ok(&p.reduce_tiles, &self.reduce_extents, MAX_REDUCE_TILE)
        {
            return false;
        }
        let mut canonical = p.clone();
        self.clamp(&mut canonical);
        canonical == *p
    }

    /// Samples a random valid genotype.
    pub fn random<R: Rng>(&self, rng: &mut R) -> SketchParams {
        let spatial_tiles: Vec<usize> = self
            .spatial_extents
            .iter()
            .map(|&e| pick_divisor(e, MAX_SPATIAL_TILE, rng))
            .collect();
        let reduce_tiles: Vec<usize> = self
            .reduce_extents
            .iter()
            .map(|&e| pick_divisor(e, MAX_REDUCE_TILE, rng))
            .collect();
        let pattern = match rng.gen_range(0..10) {
            0..=4 => SketchPattern::ReduceInner,
            5..=7 => SketchPattern::ReduceBlocked,
            _ => SketchPattern::SpatialInner,
        };
        let mut p = SketchParams {
            spatial_tiles,
            reduce_tiles,
            pattern,
            vectorize: false,
            unroll_reduce: rng.gen_bool(UNROLL_PROB),
            unroll_spatial: rng.gen_bool(UNROLL_PROB * 0.5),
        };
        if self.vectorizable(&p) && rng.gen_bool(VECTORIZE_PROB) {
            p.vectorize = true;
        }
        self.clamp(&mut p);
        p
    }

    /// Perturbs one aspect of a genotype (tile size, pattern or a flag).
    pub fn mutate<R: Rng>(&self, params: &SketchParams, rng: &mut R) -> SketchParams {
        let mut p = params.clone();
        match rng.gen_range(0..5) {
            0 => {
                let i = rng.gen_range(0..p.spatial_tiles.len());
                p.spatial_tiles[i] = pick_divisor(self.spatial_extents[i], MAX_SPATIAL_TILE, rng);
            }
            1 => {
                if !p.reduce_tiles.is_empty() {
                    let i = rng.gen_range(0..p.reduce_tiles.len());
                    p.reduce_tiles[i] = pick_divisor(self.reduce_extents[i], MAX_REDUCE_TILE, rng);
                }
            }
            2 => {
                let all = SketchPattern::all();
                p.pattern = all[rng.gen_range(0..all.len())];
            }
            3 => p.unroll_reduce = !p.unroll_reduce,
            _ => {
                p.vectorize = !p.vectorize && self.vectorizable(&p);
            }
        }
        self.clamp(&mut p);
        p
    }

    /// Crossover: take each gene from one of the two parents.
    pub fn crossover<R: Rng>(
        &self,
        a: &SketchParams,
        b: &SketchParams,
        rng: &mut R,
    ) -> SketchParams {
        let mut p = SketchParams {
            spatial_tiles: a
                .spatial_tiles
                .iter()
                .zip(&b.spatial_tiles)
                .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
                .collect(),
            reduce_tiles: a
                .reduce_tiles
                .iter()
                .zip(&b.reduce_tiles)
                .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
                .collect(),
            pattern: if rng.gen_bool(0.5) {
                a.pattern
            } else {
                b.pattern
            },
            vectorize: if rng.gen_bool(0.5) {
                a.vectorize
            } else {
                b.vectorize
            },
            unroll_reduce: if rng.gen_bool(0.5) {
                a.unroll_reduce
            } else {
                b.unroll_reduce
            },
            unroll_spatial: if rng.gen_bool(0.5) {
                a.unroll_spatial
            } else {
                b.unroll_spatial
            },
        };
        if p.vectorize && !self.vectorizable(&p) {
            p.vectorize = false;
        }
        self.clamp(&mut p);
        p
    }

    /// True when the innermost spatial tile admits a lane-exact vector
    /// piece on this target.
    fn vectorizable(&self, p: &SketchParams) -> bool {
        if !self.target.has_vectors() {
            return false;
        }
        let last = p.spatial_tiles.len() - 1;
        p.spatial_tiles[last].is_multiple_of(self.target.vector_lanes)
            && p.spatial_tiles[last] >= self.target.vector_lanes
    }

    /// Keeps unroll flags within [`MAX_UNROLL`] after tile changes.
    fn clamp(&self, p: &mut SketchParams) {
        if p.vectorize && !self.vectorizable(p) {
            p.vectorize = false;
        }
        if p.unroll_reduce {
            let last_tile = p.reduce_tiles.last().copied().unwrap_or(1);
            let eff = if last_tile > 1 {
                last_tile
            } else {
                // Unsplit: unrolling applies to the whole innermost
                // reduce var.
                self.reduce_extents.last().copied().unwrap_or(1)
            };
            if eff > MAX_UNROLL {
                p.unroll_reduce = false;
            }
        }
        if p.unroll_spatial {
            let last = p.spatial_tiles.len() - 1;
            let eff = if p.vectorize {
                p.spatial_tiles[last] / self.target.vector_lanes
            } else {
                p.spatial_tiles[last]
            };
            if eff == 0 || eff > 8 {
                p.unroll_spatial = false;
            }
        }
    }

    /// Materializes a genotype into a schedule.
    pub fn schedule(&self, p: &SketchParams) -> Schedule {
        let lanes = self.target.vector_lanes;
        let mut splits = Vec::new();
        let mut outer_sp = Vec::new(); // piece 0 of each spatial var
        let mut inner_sp = Vec::new(); // inner pieces of spatial vars
        let mut vector_piece = None;

        for (i, (&extent, &tile)) in self
            .spatial_extents
            .iter()
            .zip(&p.spatial_tiles)
            .enumerate()
        {
            let var = VarRef::Spatial(i);
            let last = i == p.spatial_tiles.len() - 1;
            if p.vectorize && last {
                // tile = mid * lanes: pieces [extent/tile, tile/lanes, lanes].
                splits.push(Split {
                    var,
                    factors: vec![tile / lanes, lanes],
                });
                outer_sp.push(SubVar { var, piece: 0 });
                inner_sp.push(SubVar { var, piece: 1 });
                vector_piece = Some(SubVar { var, piece: 2 });
            } else if tile > 1 && tile < extent {
                splits.push(Split {
                    var,
                    factors: vec![tile],
                });
                outer_sp.push(SubVar { var, piece: 0 });
                inner_sp.push(SubVar { var, piece: 1 });
            } else {
                // Unsplit (tile 1 or tile == extent): single piece. Treat
                // tile == extent as "whole var inner".
                if tile == extent && tile > 1 {
                    inner_sp.push(SubVar::whole(var));
                } else {
                    outer_sp.push(SubVar::whole(var));
                }
            }
        }

        let mut outer_rd = Vec::new();
        let mut inner_rd = Vec::new();
        for (i, (&extent, &tile)) in self.reduce_extents.iter().zip(&p.reduce_tiles).enumerate() {
            let var = VarRef::Reduce(i);
            if tile > 1 && tile < extent {
                splits.push(Split {
                    var,
                    factors: vec![tile],
                });
                outer_rd.push(SubVar { var, piece: 0 });
                inner_rd.push(SubVar { var, piece: 1 });
            } else {
                inner_rd.push(SubVar::whole(var));
            }
        }

        let mut order = Vec::new();
        match p.pattern {
            SketchPattern::ReduceInner => {
                order.extend(&outer_sp);
                order.extend(&inner_sp);
                order.extend(&outer_rd);
                order.extend(&inner_rd);
            }
            SketchPattern::ReduceBlocked => {
                order.extend(&outer_sp);
                order.extend(&outer_rd);
                order.extend(&inner_sp);
                order.extend(&inner_rd);
            }
            SketchPattern::SpatialInner => {
                order.extend(&outer_sp);
                order.extend(&outer_rd);
                order.extend(&inner_rd);
                order.extend(&inner_sp);
            }
        }
        if let Some(v) = vector_piece {
            order.push(v);
        }

        let mut unroll = Vec::new();
        if p.unroll_reduce {
            if let Some(last) = inner_rd.last() {
                unroll.push(*last);
            }
        }
        if p.unroll_spatial {
            if let Some(last) = inner_sp.last() {
                unroll.push(*last);
            }
        }

        Schedule {
            splits,
            order,
            unroll,
            vectorize: vector_piece,
            parallel: None,
        }
    }
}

/// Uniformly picks a divisor of `n` that is at most `cap`.
fn pick_divisor<R: Rng>(n: usize, cap: usize, rng: &mut R) -> usize {
    let divs: Vec<usize> = (1..=n.min(cap)).filter(|d| n.is_multiple_of(*d)).collect();
    divs[rng.gen_range(0..divs.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{conv2d_bias_relu, matmul, Conv2dShape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn conv_def() -> ComputeDef {
        conv2d_bias_relu(&Conv2dShape {
            n: 1,
            h: 12,
            w: 16,
            co: 8,
            ci: 4,
            kh: 3,
            kw: 3,
            stride: (1, 1),
            pad: (1, 1),
        })
    }

    #[test]
    fn random_sketches_always_apply() {
        for target in TargetIsa::paper_targets() {
            let def = conv_def();
            let gen = SketchGenerator::new(&def, target.clone());
            let mut rng = StdRng::seed_from_u64(17);
            for i in 0..200 {
                let p = gen.random(&mut rng);
                let s = gen.schedule(&p);
                s.apply(&def, &target)
                    .unwrap_or_else(|e| panic!("sketch {i} invalid on {}: {e}", target.name));
            }
        }
    }

    #[test]
    fn mutations_preserve_validity() {
        let def = conv_def();
        let target = TargetIsa::x86_ryzen_5800x();
        let gen = SketchGenerator::new(&def, target.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = gen.random(&mut rng);
        for i in 0..300 {
            p = gen.mutate(&p, &mut rng);
            let s = gen.schedule(&p);
            s.apply(&def, &target)
                .unwrap_or_else(|e| panic!("mutation {i} invalid: {e}"));
        }
    }

    #[test]
    fn crossover_preserves_validity() {
        let def = matmul(16, 24, 32);
        let target = TargetIsa::arm_cortex_a72();
        let gen = SketchGenerator::new(&def, target.clone());
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..100 {
            let a = gen.random(&mut rng);
            let b = gen.random(&mut rng);
            let c = gen.crossover(&a, &b, &mut rng);
            gen.schedule(&c).apply(&def, &target).expect("valid child");
        }
    }

    #[test]
    fn scalar_target_never_vectorizes() {
        let def = conv_def();
        let gen = SketchGenerator::new(&def, TargetIsa::riscv_u74());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            assert!(!gen.random(&mut rng).vectorize);
        }
    }

    #[test]
    fn sketches_are_diverse() {
        let def = conv_def();
        let gen = SketchGenerator::new(&def, TargetIsa::x86_ryzen_5800x());
        let mut rng = StdRng::seed_from_u64(9);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..100 {
            distinct.insert(gen.random(&mut rng));
        }
        assert!(
            distinct.len() > 50,
            "only {} distinct sketches",
            distinct.len()
        );
    }

    #[test]
    fn sampled_genotypes_are_contained_and_canonical() {
        let def = conv_def();
        for target in TargetIsa::paper_targets() {
            let gen = SketchGenerator::new(&def, target);
            let mut rng = StdRng::seed_from_u64(31);
            for _ in 0..100 {
                let p = gen.random(&mut rng);
                assert!(gen.contains(&p), "sampled genotype outside space: {p:?}");
                let mut c = p.clone();
                gen.canonicalize(&mut c);
                assert_eq!(c, p, "sampled genotype must already be canonical");
            }
        }
    }

    #[test]
    fn contains_rejects_invalid_genotypes() {
        let def = conv_def();
        let gen = SketchGenerator::new(&def, TargetIsa::x86_ryzen_5800x());
        let mut rng = StdRng::seed_from_u64(4);
        let valid = gen.random(&mut rng);

        let mut bad_tile = valid.clone();
        bad_tile.spatial_tiles[0] = 7; // no extent here is divisible by 7
        assert!(!gen.contains(&bad_tile));

        let mut bad_arity = valid.clone();
        bad_arity.reduce_tiles.pop();
        assert!(!gen.contains(&bad_arity));

        // Vectorize on a scalar target is outside the space.
        let scalar = SketchGenerator::new(&def, TargetIsa::riscv_u74());
        let mut vec_on_scalar = scalar.random(&mut rng);
        vec_on_scalar.vectorize = true;
        assert!(!scalar.contains(&vec_on_scalar));
    }

    #[test]
    fn pick_divisor_respects_cap_and_divides() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let d = pick_divisor(24, 8, &mut rng);
            assert!(d <= 8 && 24 % d == 0);
        }
    }
}
