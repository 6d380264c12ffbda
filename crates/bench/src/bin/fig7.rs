//! Fig. 7 — normalized system energy, baseline vs ST² GPU, stacked by
//! component, plus the §VI headline aggregates.
//!
//! Paper claims: baseline spends 27 % of system energy in ALU+FPU (30 %
//! of chip energy); ST² saves 19 % system / 21 % chip on average; on the
//! 14 arithmetic-intensive kernels 26 % / 28 %, up to 40 % / 42 % for
//! msort_K2.
//!
//! Run: `cargo run --release -p st2-bench --bin fig7 [--scale test]`

use st2::power::breakdown::summarize;
use st2::prelude::*;
use st2_bench::{header, pct, timed_suite, write_csv, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let cfg = args.gpu();
    let pairs = timed_suite(args.scale, &cfg, args.kernels.as_deref());
    let energy = EnergyModel::characterized();

    let kernels: Vec<KernelEnergy> = pairs
        .iter()
        .map(|p| {
            KernelEnergy::from_activities(
                p.name,
                &energy,
                &p.baseline.activity,
                &p.st2.activity,
                cfg.clock_ghz,
            )
        })
        .collect();

    header("Fig. 7: normalized system energy (baseline = 1.00)");
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "kernel", "ALU+FPU", "RegFile", "Mem+NoC", "DRAM", "Others", "ST2 tot"
    );
    for k in &kernels {
        let b = |c: Component| k.baseline.get(c) / k.baseline.system();
        let memnoc = b(Component::CachesMc) + b(Component::Noc);
        let others = b(Component::Others)
            + b(Component::IntMulDiv)
            + b(Component::FpMulDiv)
            + b(Component::Sfu);
        println!(
            "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8.3}",
            k.name,
            pct(b(Component::AluFpu)),
            pct(b(Component::RegFile)),
            pct(memnoc),
            pct(b(Component::Dram)),
            pct(others),
            k.normalized_system(),
        );
    }

    if let Some(dir) = &args.out {
        let mut rows = Vec::new();
        for k in &kernels {
            for (c, b, s) in k.stacks() {
                rows.push(vec![
                    k.name.clone(),
                    c.to_string(),
                    format!("{b:.6}"),
                    format!("{s:.6}"),
                ]);
            }
        }
        write_csv(
            dir,
            "fig7",
            &["kernel", "component", "baseline_frac", "st2_frac"],
            &rows,
        );
    }
    let s = summarize(&kernels);
    header("Suite aggregates vs paper");
    println!(
        "baseline ALU+FPU share of system energy : {}  (paper: 27%)",
        pct(s.avg_alu_fpu_system_share)
    );
    println!(
        "baseline ALU+FPU share of chip energy   : {}  (paper: 30%)",
        pct(s.avg_alu_fpu_chip_share)
    );
    println!(
        "average system energy savings           : {}  (paper: 19%)",
        pct(s.avg_system_savings)
    );
    println!(
        "average chip energy savings             : {}  (paper: 21%)",
        pct(s.avg_chip_savings)
    );
    println!(
        "arithmetic-intensive kernels (>20%)     : {}  (paper: 14)",
        s.intense_kernels
    );
    println!(
        "  their avg system savings              : {}  (paper: 26%)",
        pct(s.intense_avg_system_savings)
    );
    println!(
        "  their avg chip savings                : {}  (paper: 28%)",
        pct(s.intense_avg_chip_savings)
    );
    let best = kernels
        .iter()
        .max_by(|a, b| {
            a.system_savings()
                .partial_cmp(&b.system_savings())
                .expect("finite")
        })
        .expect("non-empty");
    println!(
        "best kernel                             : {} at {} system savings (paper: msort_K2, 40%)",
        best.name,
        pct(best.system_savings())
    );
}
