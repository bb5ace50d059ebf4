//! End-to-end correctness: every schedule a search space or sketch
//! generator produces must compute the same function as the host
//! reference, on every target, through lowering, code generation and
//! instruction-accurate simulation.
//!
//! This is the load-bearing guarantee of the whole reproduction: the
//! autotuner compares *implementations*, so all implementations must be
//! implementations *of the kernel*.

use rand::rngs::StdRng;
use rand::SeedableRng;
use simtune_cache::HierarchyConfig;
use simtune_tensor::{
    conv2d_bias_relu, matmul, validate_schedule, ConfigSpace, Conv2dShape, Schedule,
    SketchGenerator, TargetIsa, DEFAULT_TOLERANCE,
};

fn small_conv() -> Conv2dShape {
    Conv2dShape {
        n: 1,
        h: 10,
        w: 16,
        co: 8,
        ci: 4,
        kh: 3,
        kw: 3,
        stride: (1, 1),
        pad: (1, 1),
    }
}

fn strided_conv() -> Conv2dShape {
    Conv2dShape {
        n: 1,
        h: 9,
        w: 17,
        co: 4,
        ci: 3,
        kh: 3,
        kw: 3,
        stride: (2, 2),
        pad: (1, 1),
    }
}

fn hierarchy() -> HierarchyConfig {
    HierarchyConfig::tiny_for_tests()
}

#[test]
fn default_schedules_correct_on_all_targets() {
    let defs = vec![
        conv2d_bias_relu(&small_conv()),
        conv2d_bias_relu(&strided_conv()),
        matmul(7, 9, 11),
    ];
    for target in TargetIsa::paper_targets() {
        for def in &defs {
            validate_schedule(
                def,
                &Schedule::default_for(def),
                &target,
                &hierarchy(),
                42,
                DEFAULT_TOLERANCE,
            )
            .unwrap_or_else(|e| panic!("{} default on {}: {e}", def.name, target.name));
        }
    }
}

#[test]
fn random_sketches_correct_on_all_targets() {
    let def = conv2d_bias_relu(&small_conv());
    for target in TargetIsa::paper_targets() {
        let gen = SketchGenerator::new(&def, target.clone());
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for i in 0..20 {
            let params = gen.random(&mut rng);
            let schedule = gen.schedule(&params);
            validate_schedule(&def, &schedule, &target, &hierarchy(), 7, DEFAULT_TOLERANCE)
                .unwrap_or_else(|e| {
                    panic!("sketch {i} on {}: {e}\nparams: {params:?}", target.name)
                });
        }
    }
}

#[test]
fn random_sketches_correct_for_strided_conv() {
    // Stride-2 convs exercise the strided-gather vector path.
    let def = conv2d_bias_relu(&strided_conv());
    for target in TargetIsa::paper_targets() {
        let gen = SketchGenerator::new(&def, target.clone());
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for i in 0..12 {
            let params = gen.random(&mut rng);
            let schedule = gen.schedule(&params);
            validate_schedule(&def, &schedule, &target, &hierarchy(), 3, DEFAULT_TOLERANCE)
                .unwrap_or_else(|e| {
                    panic!(
                        "strided sketch {i} on {}: {e}\nparams: {params:?}",
                        target.name
                    )
                });
        }
    }
}

#[test]
fn template_configs_correct_where_valid() {
    let def = conv2d_bias_relu(&small_conv());
    for target in TargetIsa::paper_targets() {
        let space = ConfigSpace::conv2d(&def, &target);
        let mut rng = StdRng::seed_from_u64(99);
        let mut validated = 0;
        let mut attempts = 0;
        while validated < 15 && attempts < 400 {
            attempts += 1;
            let cfg = space.sample(&mut rng);
            let Ok(schedule) = space.schedule(&def, &cfg) else {
                continue;
            };
            if schedule.apply(&def, &target).is_err() {
                continue; // invalid configuration: tuner penalizes it
            }
            validate_schedule(&def, &schedule, &target, &hierarchy(), 5, DEFAULT_TOLERANCE)
                .unwrap_or_else(|e| panic!("config {cfg:?} on {}: {e}", target.name));
            validated += 1;
        }
        assert!(
            validated >= 15,
            "not enough valid configs on {}: {validated}",
            target.name
        );
    }
}

#[test]
fn matmul_template_configs_correct_where_valid() {
    let def = matmul(16, 24, 12);
    for target in TargetIsa::paper_targets() {
        let space = ConfigSpace::matmul(&def, &target);
        let mut rng = StdRng::seed_from_u64(1234);
        let mut validated = 0;
        let mut attempts = 0;
        while validated < 12 && attempts < 300 {
            attempts += 1;
            let cfg = space.sample(&mut rng);
            let Ok(schedule) = space.schedule(&def, &cfg) else {
                continue;
            };
            if schedule.apply(&def, &target).is_err() {
                continue;
            }
            validate_schedule(&def, &schedule, &target, &hierarchy(), 5, DEFAULT_TOLERANCE)
                .unwrap_or_else(|e| panic!("config {cfg:?} on {}: {e}", target.name));
            validated += 1;
        }
        assert!(
            validated >= 12,
            "not enough valid configs on {}",
            target.name
        );
    }
}

#[test]
fn different_schedules_produce_different_instruction_counts() {
    // Sanity: the search space is not degenerate — schedules differ in
    // observable simulator statistics.
    use simtune_isa::{simulate, RunLimits};
    use simtune_tensor::build_executable;

    let def = conv2d_bias_relu(&small_conv());
    let target = TargetIsa::x86_ryzen_5800x();
    let gen = SketchGenerator::new(&def, target.clone());
    let mut rng = StdRng::seed_from_u64(4);
    let mut totals = std::collections::HashSet::new();
    for _ in 0..10 {
        let schedule = gen.schedule(&gen.random(&mut rng));
        if schedule.apply(&def, &target).is_err() {
            continue;
        }
        let exe = build_executable(&def, &schedule, &target, 1, "probe").unwrap();
        let out = simulate(&exe, &hierarchy(), RunLimits::default()).unwrap();
        totals.insert(out.stats.inst_mix.total());
    }
    assert!(
        totals.len() >= 5,
        "schedules should differ in instruction counts: {totals:?}"
    );
}
