//! Fig. 1 — dynamic instruction mix per kernel.
//!
//! Paper claim: ALU and FPU operations are prevalent — 21 of 23 kernels
//! execute more than 20 % ALU+FPU dynamic instructions.
//!
//! Run: `cargo run --release -p st2-bench --bin fig1 [--scale test] [--kernels <substr>]`

use st2::isa::InstClass::*;
use st2_bench::{functional_suite, header, pct, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let runs = functional_suite(args.scale, false, args.kernels.as_deref());

    header("Fig. 1: dynamic instruction mix (thread-level)");
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "kernel", "ALU Add", "ALU Oth", "FPU Add", "FPU Oth", "Other", "ALU+FPU"
    );

    let mut heavy = 0;
    let mut sum = [0.0f64; 5];
    for r in &runs {
        let m = &r.out.mix;
        let alu_add = m.fraction(AluAdd);
        let alu_other = m.fraction(AluOther) + m.fraction(IntMulDiv);
        let fpu_add = m.fraction(FpuAdd);
        let fpu_other = m.fraction(FpuOther) + m.fraction(FpMulDiv) + m.fraction(Sfu);
        let other = 1.0 - alu_add - alu_other - fpu_add - fpu_other;
        let arith = alu_add + alu_other + fpu_add + fpu_other;
        if arith > 0.20 {
            heavy += 1;
        }
        for (s, v) in sum
            .iter_mut()
            .zip([alu_add, alu_other, fpu_add, fpu_other, other])
        {
            *s += v;
        }
        println!(
            "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
            r.spec.name,
            pct(alu_add),
            pct(alu_other),
            pct(fpu_add),
            pct(fpu_other),
            pct(other),
            pct(arith),
        );
    }
    let n = runs.len() as f64;
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Average",
        pct(sum[0] / n),
        pct(sum[1] / n),
        pct(sum[2] / n),
        pct(sum[3] / n),
        pct(sum[4] / n),
    );
    println!(
        "\nkernels with >20% ALU+FPU instructions: {heavy}/{} (paper: 21/23)",
        runs.len()
    );
}
