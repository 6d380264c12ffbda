//! Fig. 3 — 8-bit slice carry-in correlation across the temporal and
//! spatial axes, per kernel.
//!
//! Paper claim (averages): Prev+Gtid ≈ 50 %, Prev+FullPC+Gtid ≈ 83 %,
//! Prev+FullPC+Ltid ≈ 89 %.
//!
//! Run: `cargo run --release -p st2-bench --bin fig3 [--scale test]`

use st2::core::dse::{carry_correlation, fig3_schemes};
use st2_bench::{functional_suite, header, pct, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let runs = functional_suite(args.scale, true, args.kernels.as_deref());
    let schemes = fig3_schemes();

    header("Fig. 3: slice carry-in match rate vs previous execution");
    println!(
        "{:<14} {:>16} {:>18} {:>18}",
        "kernel", schemes[0].label, schemes[1].label, schemes[2].label
    );

    let mut sums = [0.0f64; 3];
    let mut counts = [0u32; 3];
    for r in &runs {
        let results: Vec<_> = schemes
            .iter()
            .map(|&s| carry_correlation(&r.out.records, s))
            .collect();
        let cell = |i: usize| {
            // A kernel where each (key) executes at most once has nothing
            // to compare against (a purely straight-line per-thread
            // kernel under per-thread keying): report n/a, as the rate is
            // undefined rather than zero.
            if results[i].compared == 0 {
                "n/a".to_string()
            } else {
                pct(results[i].match_rate())
            }
        };
        for i in 0..3 {
            if results[i].compared > 0 {
                sums[i] += results[i].match_rate();
                counts[i] += 1;
            }
        }
        println!(
            "{:<14} {:>16} {:>18} {:>18}",
            r.spec.name,
            cell(0),
            cell(1),
            cell(2),
        );
    }
    println!(
        "{:<14} {:>16} {:>18} {:>18}",
        "Average",
        pct(sums[0] / f64::from(counts[0].max(1))),
        pct(sums[1] / f64::from(counts[1].max(1))),
        pct(sums[2] / f64::from(counts[2].max(1))),
    );
    println!("\npaper averages:        ~50%              ~83%               ~89%");
    println!("reading: temporal correlation alone is weak; adding the PC");
    println!("(spatial axis) makes it strong; sharing across warp lanes");
    println!("keeps it strong while shrinking the table.");
}
