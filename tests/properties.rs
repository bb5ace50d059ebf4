//! Property-based tests (proptest) on the core invariants of the
//! substrates: cache bookkeeping, metric bounds, feature normalization,
//! measurement statistics and schedule correctness over randomized
//! shapes and schedules.

use proptest::prelude::*;
use simtune::cache::{
    AccessKind, Cache, CacheConfig, CacheHierarchy, HierarchyConfig, ReplacementPolicy,
};
use simtune::core::{prediction_metrics, quality_score, GroupMeans, RawSample};
use simtune::linalg::Matrix;
use simtune::tensor::{matmul, validate_schedule, Schedule, SketchGenerator, TargetIsa};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cache invariant: accesses = hits + misses per kind; replacements
    /// never exceed misses; occupancy never exceeds capacity.
    #[test]
    fn cache_counter_invariants(
        addrs in prop::collection::vec(0u64..65536, 1..300),
        writes in prop::collection::vec(any::<bool>(), 300),
        policy_idx in 0usize..4,
    ) {
        let policy = ReplacementPolicy::all()[policy_idx];
        let cfg = CacheConfig::new("t", 1024, 4, 4, 64, policy).expect("valid");
        let mut cache = Cache::new(cfg);
        for (i, addr) in addrs.iter().enumerate() {
            let kind = if writes[i % writes.len()] {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            cache.access(*addr, kind);
        }
        let s = *cache.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        prop_assert!(s.read_replacements <= s.read_misses);
        prop_assert!(s.write_replacements <= s.write_misses);
        // At most 16 lines can be resident (4 sets x 4 ways).
        let resident = (0u64..1024).filter(|i| cache.contains(i * 64)).count();
        prop_assert!(resident <= 16);
    }

    /// Hierarchy invariant: L2 accesses are bounded by L1 misses plus
    /// L1 write-backs (no traffic is invented).
    #[test]
    fn hierarchy_traffic_conservation(
        addrs in prop::collection::vec(0u64..(1 << 20), 1..300),
    ) {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
        for (i, addr) in addrs.iter().enumerate() {
            if i % 3 == 0 {
                h.data_write(*addr);
            } else {
                h.data_read(*addr);
            }
        }
        let s = h.stats();
        let l1_misses = s.l1d.read_misses + s.l1d.write_misses;
        let l1_evictions = s.l1d.read_replacements + s.l1d.write_replacements;
        prop_assert!(s.l2.accesses() <= l1_misses + l1_evictions);
        prop_assert!(s.dram_reads <= l1_misses);
    }

    /// Metric bounds: R_top1 in (0, 100]; E_top1 and Q non-negative;
    /// perfect orderings score zero.
    #[test]
    fn metric_bounds(
        times in prop::collection::vec(0.001f64..10.0, 2..80),
        seed in any::<u64>(),
    ) {
        // Random score permutation derived from the seed.
        let mut scores: Vec<f64> = (0..times.len())
            .map(|i| ((i as u64).wrapping_mul(seed | 1) % 1000) as f64)
            .collect();
        // Break ties deterministically.
        for (i, s) in scores.iter_mut().enumerate() {
            *s += i as f64 * 1e-6;
        }
        let m = prediction_metrics(&times, &scores);
        prop_assert!(m.r_top1 > 0.0 && m.r_top1 <= 100.0);
        prop_assert!(m.e_top1 >= 0.0);
        prop_assert!(m.q_low >= 0.0 && m.q_high >= 0.0);

        // Perfect prediction: scores equal to times.
        let perfect = prediction_metrics(&times, &times);
        prop_assert!(perfect.e_top1 < 1e-9);
        prop_assert!(perfect.q_low < 1e-9 && perfect.q_high < 1e-9);
    }

    /// Quality score is zero iff the sequence is non-decreasing.
    #[test]
    fn quality_score_zero_iff_sorted(
        mut times in prop::collection::vec(0.01f64..10.0, 2..50),
    ) {
        let q_raw = quality_score(&times);
        let sorted = {
            let mut t = times.clone();
            t.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            t
        };
        prop_assert!(quality_score(&sorted) < 1e-12);
        let is_sorted = times.windows(2).all(|w| w[0] <= w[1]);
        if !is_sorted {
            prop_assert!(q_raw > 0.0);
        }
        times.reverse();
    }

    /// Feature normalization (Eq. 2): the group-normalized features of a
    /// group have zero mean across the group.
    #[test]
    fn group_normalized_features_are_centered(
        values in prop::collection::vec(0.0f64..1.0, 4..40),
    ) {
        let samples: Vec<RawSample> = values
            .iter()
            .map(|&v| RawSample { ratios: vec![v], total_insts: 1.0 + v })
            .collect();
        let means = GroupMeans::exact(&samples);
        let cfg = simtune::core::FeatureConfig::default();
        let normalized: Vec<f64> = samples
            .iter()
            .map(|s| means.features(s, &cfg)[1]) // [raw, normalized, insts]
            .collect();
        let mean = normalized.iter().sum::<f64>() / normalized.len() as f64;
        prop_assert!(mean.abs() < 1e-9, "normalized mean {mean}");
    }

    /// Linear algebra: Cholesky solve residuals stay small for random
    /// SPD systems.
    #[test]
    fn cholesky_solves_random_spd(
        seed in any::<u64>(),
        n in 2usize..12,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let b_mat = Matrix::from_fn(n, n, |_, _| next());
        let mut a = b_mat.matmul(&b_mat.transpose()).expect("square");
        a.add_diagonal(n as f64);
        let rhs: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = a.cholesky().expect("spd").solve(&rhs).expect("solves");
        let r = a.mat_vec(&x);
        for (ri, bi) in r.iter().zip(&rhs) {
            prop_assert!((ri - bi).abs() < 1e-8);
        }
    }
}

proptest! {
    // Schedule correctness is expensive (build + simulate); fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any sketch the generator emits for random (small) matmul shapes
    /// compiles and computes the correct result on every target.
    #[test]
    fn random_sketches_compute_correctly(
        n in 2usize..7,
        m in 2usize..9,
        l in 2usize..9,
        seed in any::<u64>(),
        target_idx in 0usize..3,
    ) {
        let def = matmul(n, m * 4, l); // m*4 keeps vectorizable widths present
        let target = TargetIsa::paper_targets()[target_idx].clone();
        let gen = SketchGenerator::new(&def, target.clone());
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let params = gen.random(&mut rng);
        let schedule = gen.schedule(&params);
        prop_assume!(schedule.apply(&def, &target).is_ok());
        validate_schedule(
            &def,
            &schedule,
            &target,
            &HierarchyConfig::tiny_for_tests(),
            seed,
            1e-3,
        )
        .expect("schedule computes the correct matmul");
    }

    /// The default schedule is always valid and correct for any shape.
    #[test]
    fn default_schedule_always_valid(
        n in 1usize..6,
        m in 1usize..10,
        l in 1usize..10,
    ) {
        let def = matmul(n, m, l);
        let target = TargetIsa::riscv_u74();
        let schedule = Schedule::default_for(&def);
        validate_schedule(
            &def,
            &schedule,
            &target,
            &HierarchyConfig::tiny_for_tests(),
            1,
            1e-3,
        )
        .expect("default schedule correct");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every built-in search strategy proposes only candidates that lie
    /// inside the template space it was built over, for any seed, batch
    /// size and number of rounds, and never proposes a duplicate.
    #[test]
    fn template_strategies_stay_inside_the_space(
        seed in any::<u64>(),
        batch in 1usize..16,
        rounds in 1usize..5,
        strategy_idx in 0usize..5,
        m in 2usize..5,
    ) {
        let def = matmul(8, m * 4, 8);
        let space = simtune::tensor::ConfigSpace::matmul(&def, &TargetIsa::arm_cortex_a72());
        let template = simtune::TemplateSpace::new(space.clone());
        let spec = simtune::StrategySpec::all()[strategy_idx].clone();
        let mut strategy = spec
            .build_template(space, seed)
            .expect("built-ins drive template spaces");
        let mut seen = std::collections::HashSet::new();
        let mut history = Vec::new();
        for _ in 0..rounds {
            let proposals = strategy.propose(&history, batch);
            prop_assert!(proposals.len() <= batch);
            for cfg in &proposals {
                prop_assert!(
                    simtune::SearchSpace::contains(&template, cfg),
                    "{} proposed {:?} outside the space", strategy.name(), cfg
                );
                prop_assert!(
                    seen.insert(cfg.clone()),
                    "{} proposed {:?} twice", strategy.name(), cfg
                );
            }
            // Deterministic synthetic objective keeps the walk moving.
            let results: Vec<simtune::Evaluation<Vec<usize>>> = proposals
                .into_iter()
                .map(|cfg| {
                    let score = cfg.iter().sum::<usize>() as f64;
                    simtune::Evaluation { point: cfg, score }
                })
                .collect();
            strategy.observe(&results);
            history.extend(results);
        }
    }

    /// Every built-in strategy over the sketch space proposes only
    /// genotypes the generator itself considers members of the space.
    #[test]
    fn sketch_strategies_stay_inside_the_space(
        seed in any::<u64>(),
        batch in 1usize..12,
        strategy_idx in 0usize..5,
        target_idx in 0usize..3,
    ) {
        let def = matmul(8, 16, 8);
        let target = TargetIsa::paper_targets()[target_idx].clone();
        let gen = SketchGenerator::new(&def, target.clone());
        let spec = simtune::StrategySpec::all()[strategy_idx].clone();
        let mut strategy = spec.build_sketch(gen.clone(), seed);
        let mut history = Vec::new();
        for _ in 0..3 {
            let proposals = strategy.propose(&history, batch);
            for p in &proposals {
                prop_assert!(
                    gen.contains(p),
                    "{} proposed {:?} outside the space", strategy.name(), p
                );
            }
            let results: Vec<simtune::Evaluation<_>> = proposals
                .into_iter()
                .map(|p| {
                    let score = p.spatial_tiles.iter().sum::<usize>() as f64;
                    simtune::Evaluation { point: p, score }
                })
                .collect();
            strategy.observe(&results);
            history.extend(results);
        }
    }
}
