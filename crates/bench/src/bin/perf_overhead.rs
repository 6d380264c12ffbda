//! §VI performance overhead — ST² execution time vs baseline, per kernel.
//!
//! Paper claims: within 0.36 % of baseline on average; worst kernel is
//! dwt2d_K1 at 3.5 %.
//!
//! Run: `cargo run --release -p st2-bench --bin perf_overhead [--scale test]`

use st2_bench::{header, pct, timed_suite, write_csv, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let pairs = timed_suite(args.scale, &args.gpu(), args.kernels.as_deref());

    header("§VI: ST2 performance overhead");
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>12}",
        "kernel", "base cycles", "ST2 cycles", "slowdown", "stall cyc"
    );
    let mut sum = 0.0;
    let mut worst = ("", 0.0f64);
    for p in &pairs {
        let s = p.slowdown();
        sum += s;
        if s > worst.1 {
            worst = (p.name, s);
        }
        println!(
            "{:<14} {:>12} {:>12} {:>9.2}% {:>12}",
            p.name,
            p.baseline.cycles,
            p.st2.cycles,
            100.0 * s,
            p.st2.activity.stall_cycles,
        );
    }
    if let Some(dir) = &args.out {
        let rows: Vec<Vec<String>> = pairs
            .iter()
            .map(|p| {
                vec![
                    p.name.to_string(),
                    p.baseline.cycles.to_string(),
                    p.st2.cycles.to_string(),
                    format!("{:.6}", p.slowdown()),
                ]
            })
            .collect();
        write_csv(
            dir,
            "perf_overhead",
            &["kernel", "baseline_cycles", "st2_cycles", "slowdown"],
            &rows,
        );
    }
    println!(
        "\naverage slowdown: {} (paper: 0.36%)",
        pct(sum / pairs.len() as f64)
    );
    println!(
        "worst kernel    : {} at {} (paper: dwt2d_K1 at 3.5%)",
        worst.0,
        pct(worst.1)
    );
}
