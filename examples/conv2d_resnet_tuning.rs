//! The paper's headline workload: tuning a ResNet Conv2D+Bias+ReLU
//! layer, comparing the two flows of its Fig. 2:
//!
//! * **hardware flow** — every candidate is benchmarked on the (emulated)
//!   target board with N_exe repetitions and cooldowns;
//! * **simulator flow** — candidates run on parallel instruction-accurate
//!   simulators and are ranked by a trained score predictor; only the
//!   final top candidates are re-measured (the paper's conclusion:
//!   "re-execute the top 2–3 % of the predictions").
//!
//! ```text
//! cargo run --release --example conv2d_resnet_tuning
//! ```

use simtune::core::{
    collect_group_data, tune_on_hardware, tune_with_predictor, CollectOptions, HardwareRunner,
    KernelBuilder, ScorePredictor, StrategySpec, TuneOptions,
};
use simtune::hw::TargetSpec;
use simtune::predict::PredictorKind;
use simtune::tensor::{conv2d_bias_relu, Conv2dShape};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = TargetSpec::arm_cortex_a72();
    // ResNet group 1 (Table II) at quarter scale: 14x14x16, 3x3 kernel.
    let shape = Conv2dShape::paper_groups()[1].scaled(4, 4);
    let def = conv2d_bias_relu(&shape);
    println!(
        "conv2d {}x{}x{} co={} ci={} ({:.2} MMACs) on {}",
        shape.h,
        shape.w,
        shape.co,
        shape.co,
        shape.ci,
        shape.macs() as f64 / 1e6,
        spec.name()
    );

    // Train the predictor on this group (in production it would come
    // pre-trained for the kernel type; see predictor_comparison.rs).
    println!("\ntraining score predictor...");
    let data = collect_group_data(
        &def,
        &spec,
        1,
        &CollectOptions {
            n_impls: 60,
            n_parallel: 8,
            seed: 3,
            max_attempts_factor: 40,
            ..CollectOptions::default()
        },
    )?;
    let mut predictor = ScorePredictor::new(PredictorKind::Xgboost, "arm", "conv2d_bias_relu", 1);
    predictor.train(std::slice::from_ref(&data))?;

    let opts = TuneOptions {
        n_trials: 40,
        batch_size: 10,
        n_parallel: 8,
        seed: 11,
        strategy: StrategySpec::Evolutionary,
        ..TuneOptions::default()
    };

    // Flow A: classic hardware-in-the-loop tuning. On a real board the
    // measurements run one after another; the emulated board's timing
    // runs share the worker pool, which changes no measured number.
    println!("flow A: tuning on the emulated board (noisy measurements)...");
    let hw_result = tune_on_hardware(&def, &spec, &opts)?;

    // Flow B: simulator + predictor; re-measure the predicted top 3.
    println!("flow B: tuning on parallel simulators with the predictor...");
    let sim_result = tune_with_predictor(&def, &spec, &predictor, &opts)?;

    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let hw_runner = HardwareRunner::new(spec.clone());
    let mut ranked: Vec<_> = sim_result.history.iter().collect();
    ranked.sort_by(|a, b| a.score.partial_cmp(&b.score).expect("finite or inf"));
    let mut best_sim_time = f64::INFINITY;
    for (i, record) in ranked.iter().take(3).enumerate() {
        let exe = builder.build(&record.schedule, &format!("top{i}"))?;
        let t = hw_runner.run_one(&exe, 100 + i)?.t_ref;
        println!("  predicted top-{} -> measured {:.3} ms", i + 1, t * 1e3);
        best_sim_time = best_sim_time.min(t);
    }

    let hw_best_time = hw_result.best().score;
    println!("\nhardware flow best:  {:.3} ms", hw_best_time * 1e3);
    println!(
        "simulator flow best: {:.3} ms (top-3 re-measured)",
        best_sim_time * 1e3
    );
    let ratio = best_sim_time / hw_best_time;
    println!(
        "simulator flow reaches {:.1} % of the hardware flow's result\n\
         without touching the board during search.",
        100.0 / ratio.max(1e-9)
    );
    Ok(())
}
