//! Fig. 5 — design-space exploration of the carry-speculation mechanism.
//!
//! Paper claims: staticZero/staticOne are poor (staticOne worst);
//! VaLHALLA+Peek cuts VaLHALLA's misses ~18 %; Prev+Peek ~26 %;
//! Prev+ModPC4+Peek reaches ~12 % (57 % below VaLHALLA); the Gtid variant
//! is *worse* (destructive isolation); Ltid+Prev+ModPC4+Peek lands at
//! ~9 % (65 % below VaLHALLA); XOR hashing adds nothing.
//!
//! Run: `cargo run --release -p st2-bench --bin fig5 [--scale test]`

use st2::core::dse::{fig5_design_points, sweep};
use st2_bench::{functional_suite, header, pct, write_csv, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let runs = functional_suite(args.scale, true, args.kernels.as_deref());
    let points = fig5_design_points();

    // Per-kernel sweeps, averaged across kernels (the figure's
    // "Avg. Thread Misprediction Rate").
    let mut avg = vec![0.0f64; points.len()];
    for r in &runs {
        for (i, (_, stats)) in sweep(&r.out.records, &points).iter().enumerate() {
            avg[i] += stats.misprediction_rate();
        }
    }
    for a in &mut avg {
        *a /= runs.len() as f64;
    }

    header("Fig. 5: avg thread misprediction rate per design point");
    println!("{:<28} {:>10}", "design point", "miss rate");
    for (cfg, rate) in points.iter().zip(&avg) {
        println!("{:<28} {:>10}", cfg.label(), pct(*rate));
    }
    if let Some(dir) = &args.out {
        let rows: Vec<Vec<String>> = points
            .iter()
            .zip(&avg)
            .map(|(cfg, rate)| vec![cfg.label(), format!("{rate:.6}")])
            .collect();
        write_csv(dir, "fig5", &["design_point", "miss_rate"], &rows);
    }

    let find = |label: &str| {
        points
            .iter()
            .position(|c| c.label() == label)
            .map(|i| avg[i])
            .unwrap_or_else(|| panic!("missing {label}"))
    };
    let valhalla = find("VaLHALLA");
    let st2 = find("Ltid+Prev+ModPC4+Peek");
    println!("\nrelative improvements vs VaLHALLA:");
    for label in [
        "VaLHALLA+Peek",
        "Prev+Peek",
        "Prev+ModPC4+Peek",
        "Ltid+Prev+ModPC4+Peek",
    ] {
        println!(
            "  {:<26} {:>6.1}% fewer misses",
            label,
            100.0 * (1.0 - find(label) / valhalla)
        );
    }
    println!("\npaper: VaLHALLA+Peek −18%, Prev+Peek −26%, ModPC4 −57%, final −65%");
    println!(
        "final ST2 design: {} misses (paper: ~9%); accuracy {}",
        pct(st2),
        pct(1.0 - st2)
    );
}
