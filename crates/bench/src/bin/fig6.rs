//! Fig. 6 — per-kernel thread misprediction rate for the final ST²
//! design, from the cycle-level simulation (per-SM Carry Register Files,
//! real warp interleaving and write-back contention).
//!
//! Paper claims: 9 % average thread misprediction rate; one misprediction
//! causes 1.94 slices (avg, up to 2.73) to recompute.
//!
//! Run: `cargo run --release -p st2-bench --bin fig6 [--scale test]`

use st2_bench::{header, pct, timed_suite, write_csv, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let pairs = timed_suite(args.scale, &args.gpu(), args.kernels.as_deref());

    header("Fig. 6: thread misprediction rate (ST2, Ltid+Prev+ModPC4+Peek)");
    println!(
        "{:<14} {:>10} {:>12} {:>14} {:>12} {:>12}",
        "kernel", "miss rate", "recomp/miss", "static bnd", "CRF wr", "CRF confl"
    );
    let mut rate_sum = 0.0;
    let mut rec_sum = 0.0;
    let mut rec_max = 0.0f64;
    for p in &pairs {
        let a = &p.st2.activity.adder;
        let rate = a.misprediction_rate();
        let rec = a.avg_recomputed_per_misprediction();
        rate_sum += rate;
        rec_sum += rec;
        rec_max = rec_max.max(rec);
        println!(
            "{:<14} {:>10} {:>12.2} {:>14} {:>12} {:>12}",
            p.name,
            pct(rate),
            rec,
            pct(a.static_fraction()),
            p.st2.activity.crf_writes,
            p.st2.activity.crf_conflicts,
        );
    }
    if let Some(dir) = &args.out {
        let rows: Vec<Vec<String>> = pairs
            .iter()
            .map(|p| {
                let a = &p.st2.activity.adder;
                vec![
                    p.name.to_string(),
                    format!("{:.6}", a.misprediction_rate()),
                    format!("{:.4}", a.avg_recomputed_per_misprediction()),
                    format!("{:.6}", a.static_fraction()),
                    p.st2.activity.crf_writes.to_string(),
                    p.st2.activity.crf_conflicts.to_string(),
                ]
            })
            .collect();
        write_csv(
            dir,
            "fig6",
            &[
                "kernel",
                "miss_rate",
                "recompute_per_miss",
                "static_fraction",
                "crf_writes",
                "crf_conflicts",
            ],
            &rows,
        );
    }
    let n = pairs.len() as f64;
    println!(
        "\naverage thread misprediction rate: {} (paper: ~9%)",
        pct(rate_sum / n)
    );
    println!(
        "average prediction accuracy      : {} (paper: 91%)",
        pct(1.0 - rate_sum / n)
    );
    println!(
        "slices recomputed per miss       : avg {:.2}, max {:.2} (paper: 1.94 avg, 2.73 max)",
        rec_sum / n,
        rec_max
    );
    let conflicts: u64 = pairs.iter().map(|p| p.st2.activity.crf_conflicts).sum();
    let writes: u64 = pairs.iter().map(|p| p.st2.activity.crf_writes).sum();
    println!(
        "CRF write-back conflicts         : {conflicts} of {writes} writes ({}) — the paper's\n\
         \"minimal contention, addressed with random arbitration\"",
        pct(conflicts as f64 / writes.max(1) as f64)
    );
}
