//! Quickstart: build an ST² speculative adder, feed it a loop-shaped
//! operand stream, and watch the history mechanism learn — then compare
//! against the baseline predictors from the paper's Fig. 5.
//!
//! Run with: `cargo run --example quickstart`

use st2::prelude::*;

fn main() {
    println!("== ST2 adder quickstart ==\n");

    // The paper's final design point: Ltid+Prev+ModPC4+Peek, here on a
    // 64-bit adder decomposed into 8-bit slices.
    let mut adder = SpeculativeAdder::st2();
    let int64 = SliceLayout::INT64;

    // A loop iterator (PC 5) and an accumulating sum (PC 6): the
    // canonical spatio-temporally correlated operand streams.
    let iter_pc = OpContext {
        pc: 5,
        gtid: 0,
        ltid: 0,
    };
    let acc_pc = OpContext {
        pc: 6,
        gtid: 0,
        ltid: 0,
    };
    let mut acc: u64 = 0;
    for i in 0..10_000u64 {
        let it = adder.add(&iter_pc, int64, i, 1, false);
        assert_eq!(it.sum, i + 1, "speculation never changes results");
        let ac = adder.add(&acc_pc, int64, acc, i * 3, false);
        acc = ac.sum;
    }
    let s = adder.stats();
    println!("ST2  (Ltid+Prev+ModPC4+Peek):");
    println!("  operations            : {}", s.ops);
    println!(
        "  misprediction rate    : {:.2}%",
        100.0 * s.misprediction_rate()
    );
    println!("  prediction accuracy   : {:.2}%", 100.0 * s.accuracy());
    println!(
        "  slices recomputed/miss: {:.2}",
        s.avg_recomputed_per_misprediction()
    );
    println!(
        "  boundaries static/peek: {:.1}%",
        100.0 * s.static_fraction()
    );

    // The same stream through the paper's comparison points.
    println!("\nSame stream through the Fig. 5 baselines:");
    for cfg in [
        SpeculationConfig::static_zero(),
        SpeculationConfig::static_one(),
        SpeculationConfig::valhalla(),
        SpeculationConfig::valhalla_peek(),
        SpeculationConfig::prev_peek(),
    ] {
        let mut a = SpeculativeAdder::new(cfg);
        let mut acc: u64 = 0;
        for i in 0..10_000u64 {
            let _ = a.add(&iter_pc, int64, i, 1, false);
            acc = a.add(&acc_pc, int64, acc, i * 3, false).sum;
        }
        println!(
            "  {:24} miss rate {:6.2}%",
            cfg.label(),
            100.0 * a.stats().misprediction_rate()
        );
    }

    println!("\nEvery result was bit-exact; speculation cost only latency.");
}
