//! **pathfinder** (Rodinia) — the paper's motivating example (Fig. 2).
//!
//! Dynamic programming over a weighted grid: each thread owns one column
//! and iteratively computes the cheapest path ending at its cell:
//!
//! ```c
//! for (int i = 0; i < iteration; i++) {
//!     if ((tx >= i+1) && (tx <= BLOCK_SIZE-2-i) && isValid) {
//!         int shortest = MIN(left, up);
//!         shortest = MIN(shortest, right);
//!         int index = cols*(startStep+i)+xidx;
//!         result[tx] = shortest + gpuWall[index];
//!     }
//! }
//! ```
//!
//! The seven additions of this hot loop (the paper's PC1–PC7, including
//! the subtract-based `MIN` comparisons) are exactly what our ISA emits,
//! so the value-evolution plot of Fig. 2 can be regenerated from this
//! kernel's trace.

use crate::data;
use crate::spec::{check_i32_region, BenchSuite, KernelSpec, Scale};
use st2_isa::{KernelBuilder, MemImage, Operand, Special};
use std::sync::Arc;

/// Threads per block (the tile width).
pub(crate) const BLOCK_SIZE: u32 = 64;

/// Builds the pathfinder kernel.
#[must_use]
pub fn build(scale: Scale) -> KernelSpec {
    let blocks = 2 * scale.factor();
    let cols = (BLOCK_SIZE * blocks) as usize;
    let rows = 16usize; // iterations = rows - 1 (pyramid fits the tile)
    let iterations = rows - 1;

    let mut rng = data::rng_for("pathfinder");
    let wall = data::smooth_i32_field(&mut rng, cols, rows, 10);

    // Memory layout: wall (rows×cols i32) | result (cols i32).
    let wall_bytes = (rows * cols * 4) as u64;
    let mut memory = MemImage::new(wall_bytes + cols as u64 * 4);
    for (i, &w) in wall.iter().enumerate() {
        memory.write_u32(i as u64 * 4, w as u32);
    }
    let result_base = wall_bytes;

    // CPU reference (identical tile-local pyramid semantics).
    let expect = reference(&wall, cols, rows, blocks as usize);

    let mut k = KernelBuilder::new("pathfinder");
    let s_prev = k.shared_alloc(u64::from(BLOCK_SIZE) * 4);
    let s_cur = k.shared_alloc(u64::from(BLOCK_SIZE) * 4);
    let bs = i64::from(BLOCK_SIZE);

    let tx = k.special(Special::Tid);
    let bx = k.special(Special::CtaId);
    let col = k.reg();
    k.imul(col, bx.into(), Operand::Imm(bs));
    k.iadd(col, col.into(), tx.into());

    // prev[tx] = wall[0][col]
    let addr = k.reg();
    k.imul(addr, col.into(), Operand::Imm(4));
    let v = k.reg();
    k.ld_global_u32(v, addr, 0);
    let sp_addr = k.reg();
    k.imul(sp_addr, tx.into(), Operand::Imm(4));
    k.iadd(sp_addr, sp_addr.into(), Operand::Imm(s_prev as i64));
    k.st_shared_u32(v.into(), sp_addr, 0);
    k.bar();

    let sc_addr = k.reg();
    k.imul(sc_addr, tx.into(), Operand::Imm(4));
    k.iadd(sc_addr, sc_addr.into(), Operand::Imm(s_cur as i64));

    k.for_range(Operand::Imm(0), Operand::Imm(iterations as i64), |k, i| {
        // left/up/right from the previous row (clamped at tile edges).
        let li = k.reg();
        k.isub(li, tx.into(), Operand::Imm(1));
        k.imax(li, li.into(), Operand::Imm(0));
        let ri = k.reg();
        k.iadd(ri, tx.into(), Operand::Imm(1));
        k.imin(ri, ri.into(), Operand::Imm(bs - 1));

        let la = k.reg();
        k.imul(la, li.into(), Operand::Imm(4));
        k.iadd(la, la.into(), Operand::Imm(s_prev as i64));
        let left = k.reg();
        k.ld_shared_u32(left, la, 0);

        let up = k.reg();
        k.ld_shared_u32(up, sp_addr, 0);

        let ra = k.reg();
        k.imul(ra, ri.into(), Operand::Imm(4));
        k.iadd(ra, ra.into(), Operand::Imm(s_prev as i64));
        let right = k.reg();
        k.ld_shared_u32(right, ra, 0);

        // PC4/PC5: MIN chains (subtract-compare on the ALU adder).
        let shortest = k.reg();
        k.imin(shortest, left.into(), up.into());
        k.imin(shortest, shortest.into(), right.into());

        // PC6: index = cols*(i+1) + col
        let row = k.reg();
        k.iadd(row, i.into(), Operand::Imm(1)); // PC1-style i+1
        let index = k.reg();
        k.imul(index, row.into(), Operand::Imm(cols as i64));
        k.iadd(index, index.into(), col.into());
        let wa = k.reg();
        k.imul(wa, index.into(), Operand::Imm(4));
        let w = k.reg();
        k.ld_global_u32(w, wa, 0);

        // PC7: result = shortest + wall[index]
        let new = k.reg();
        k.iadd(new, shortest.into(), w.into());

        // Pyramid guard: tx >= i+1 && tx <= BLOCK_SIZE-2-i (PC1/PC2/PC3).
        let lo_ok = k.reg();
        k.setle(lo_ok, row.into(), tx.into());
        let hi = k.reg();
        k.isub(hi, Operand::Imm(bs - 2), i.into());
        let hi_ok = k.reg();
        k.setle(hi_ok, tx.into(), hi.into());
        let valid = k.reg();
        k.iand(valid, lo_ok.into(), hi_ok.into());

        let old = k.reg();
        k.ld_shared_u32(old, sp_addr, 0);
        k.if_else(
            valid,
            |k| k.st_shared_u32(new.into(), sc_addr, 0),
            |k| k.st_shared_u32(old.into(), sc_addr, 0),
        );
        k.bar();
        let cur = k.reg();
        k.ld_shared_u32(cur, sc_addr, 0);
        k.st_shared_u32(cur.into(), sp_addr, 0);
        k.bar();
    });

    // result[col] = prev[tx]
    let out = k.reg();
    k.ld_shared_u32(out, sp_addr, 0);
    let oa = k.reg();
    k.imul(oa, col.into(), Operand::Imm(4));
    k.iadd(oa, oa.into(), Operand::Imm(result_base as i64));
    k.st_global_u32(out.into(), oa, 0);

    let program = k.finish();
    KernelSpec {
        name: "pathfinder",
        suite: BenchSuite::Rodinia,
        program,
        launch: st2_isa::LaunchConfig::new(blocks, BLOCK_SIZE),
        memory,
        check: Some(Arc::new(move |mem| {
            check_i32_region(mem, result_base, &expect)
        })),
    }
}

/// CPU reference with identical tile-local semantics.
fn reference(wall: &[i32], cols: usize, rows: usize, blocks: usize) -> Vec<i64> {
    let bs = BLOCK_SIZE as usize;
    let mut result = vec![0i64; cols];
    for b in 0..blocks {
        let mut prev: Vec<i64> = (0..bs).map(|t| i64::from(wall[b * bs + t])).collect();
        for i in 0..rows - 1 {
            let mut cur = prev.clone();
            for tx in 0..bs {
                if tx > i && tx <= bs - 2 - i {
                    let left = prev[tx.saturating_sub(1)];
                    let up = prev[tx];
                    let right = prev[(tx + 1).min(bs - 1)];
                    let shortest = left.min(up).min(right);
                    cur[tx] = shortest + i64::from(wall[cols * (i + 1) + b * bs + tx]);
                }
            }
            prev = cur;
        }
        for tx in 0..bs {
            result[b * bs + tx] = prev[tx];
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_and_verify;

    #[test]
    fn pathfinder_matches_reference() {
        run_and_verify(&build(Scale::Test));
    }

    #[test]
    fn pathfinder_full_scale_builds() {
        let spec = build(Scale::Full);
        assert!(spec.program.validate().is_ok());
        assert_eq!(spec.launch.block_dim, BLOCK_SIZE);
        assert!(spec.launch.grid_dim >= 8);
    }
}
