//! §V-C power-model validation — calibrate on the 123 stressors, validate
//! on the 23-kernel suite.
//!
//! Paper claims: mean absolute relative error 10.5 % ± 3.8 % (95 % CI),
//! Pearson r ≈ 0.8, with the model trained on micro-benchmarks only.
//!
//! Run: `cargo run --release -p st2-bench --bin power_validation [--scale test]`

use st2::power::calibrate::calibrate;
use st2::power::micro::{stressors, NUM_STRESSORS};
use st2::power::validate::validate;
use st2::prelude::*;
use st2_bench::{header, pct, timed_suite, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let cfg = args.gpu();
    let energy = EnergyModel::characterized();

    // "Silicon": hidden true scale factors + 8% measurement noise (the
    // paper probes NVML at 50-100 Hz).
    let mut oracle = SiliconOracle::new(0x7E57, 0.08);

    header("§V-C: power-model calibration");
    let micro = stressors();
    println!("micro-benchmark stressors: {NUM_STRESSORS}");
    let model = calibrate(&energy, &micro, &mut oracle, cfg.clock_ghz);
    println!(
        "fitted P_const = {:.1} W, P_idleSM = {:.3} W",
        model.p_const_w, model.p_idle_sm_w
    );
    println!("fitted scale factors:");
    for (c, s) in st2::power::component::all_components()
        .iter()
        .zip(model.scales.iter())
    {
        println!("  {c:<12} {s:.3}");
    }
    let truth = oracle.ground_truth().clone();
    let scale_err: f64 = model
        .scales
        .iter()
        .zip(truth.scales.iter())
        .map(|(f, t)| ((f - t) / t).abs())
        .sum::<f64>()
        / model.scales.len() as f64;
    println!(
        "avg scale-factor recovery error vs hidden truth: {}",
        pct(scale_err)
    );

    header("§V-C: validation on the 23-kernel suite (never seen in training)");
    // The oracle "measures" a full TITAN V running the largest inputs;
    // our simulation covers a 4-SM slice of a scaled-down grid.
    // Extrapolate the activity to chip level (the power model is linear,
    // so the per-kernel structure is preserved — only the magnitudes
    // change, which is what correlating against watts-scale measurements
    // requires).
    const CHIP_EVENTS: u64 = 2_000;
    const CHIP_SMS: u64 = 20; // 4 simulated SMs -> 80
    let pairs = timed_suite(args.scale, &cfg, args.kernels.as_deref());
    let runs: Vec<(&str, st2::sim::ActivityCounters)> = pairs
        .iter()
        .map(|p| {
            (
                p.name,
                p.baseline.activity.extrapolated(CHIP_EVENTS, CHIP_SMS),
            )
        })
        .collect();
    let report = validate(&energy, &model, &runs, &mut oracle, cfg.clock_ghz);
    println!("kernels            : {}", report.kernels);
    println!(
        "MARE               : {} ± {} (95% CI)   (paper: 10.5% ± 3.8%)",
        pct(report.mare),
        pct(report.ci95)
    );
    println!(
        "Pearson r          : {:.3}               (paper: ~0.8)",
        report.pearson_r
    );
}
