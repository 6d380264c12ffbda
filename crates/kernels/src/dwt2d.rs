//! **dwt2d_K1** (Rodinia) — one CDF 5/3 lifting level along rows.
//!
//! Each thread produces one (approximation, detail) coefficient pair of
//! its row: `d_i = x_{2i+1} − ½(x_{2i} + x_{2i+2})` then
//! `s_i = x_{2i} + ¼(d_{i−1} + d_i)`, with symmetric boundary extension.
//! Neighbour details are recomputed locally (as the register-blocked GPU
//! implementation does at tile edges), giving a dense FADD/FSUB stencil.
//! This is the kernel with the paper's worst — still tiny — ST² slowdown
//! (3.5 %).

use crate::data;
use crate::spec::{check_f32_region, BenchSuite, KernelSpec, Scale};
use st2_isa::{KernelBuilder, LaunchConfig, MemImage, Operand, Reg, Special};
use std::sync::Arc;

/// Builds dwt2d_K1.
#[must_use]
pub(crate) fn build(scale: Scale) -> KernelSpec {
    let w = 64 * scale.factor() as usize; // even
    let h = 16usize;
    let n = w * h;
    let half = w / 2;

    let mut rng = data::rng_for("dwt2d");
    let img = data::smooth_field(&mut rng, w, h, 128.0);

    let o_base = (n * 4) as u64;
    let mut memory = MemImage::new(2 * o_base);
    for (i, &v) in img.iter().enumerate() {
        memory.write_f32(i as u64 * 4, v);
    }

    // CPU reference.
    let clamp = |i: i64, hi: usize| -> usize { i.clamp(0, hi as i64 - 1) as usize };
    let detail = |row: &[f32], i: i64| -> f32 {
        let x0 = row[clamp(2 * i, w)];
        let x1 = row[clamp(2 * i + 1, w)];
        let x2 = row[clamp(2 * i + 2, w)];
        x1 - 0.5 * (x0 + x2)
    };
    let mut expect = vec![0.0f32; n];
    for y in 0..h {
        let row = &img[y * w..(y + 1) * w];
        for i in 0..half {
            let d = detail(row, i as i64);
            let dm1 = detail(row, i as i64 - 1);
            let s = row[2 * i] + 0.25 * (dm1 + d);
            expect[y * w + i] = s;
            expect[y * w + half + i] = d;
        }
    }

    let total = h * half;
    // Grid-stride launch: each thread lifts several coefficient pairs,
    // as the register-blocked fdwt53 kernel does along its column strip.
    let launch = LaunchConfig::new((total as u32 / 4).div_ceil(128).max(1), 128);
    let total_threads = launch.total_threads() as i64;
    let mut k = KernelBuilder::new("dwt2d_K1");
    let tid = k.special(Special::GlobalTid);
    let idx = k.reg();
    k.mov(idx, tid.into());
    k.while_(
        |k| {
            let c = k.reg();
            k.setlt(c, idx.into(), Operand::Imm(total as i64));
            c
        },
        |k| {
            let y = k.reg();
            k.idiv(y, idx.into(), Operand::Imm(half as i64));
            let i = k.reg();
            k.irem(i, idx.into(), Operand::Imm(half as i64));
            let row = k.reg();
            k.imul(row, y.into(), Operand::Imm(w as i64));

            // Loads x[clamp(2i+off)] from this row.
            let load_x = |k: &mut KernelBuilder, base2i: Reg, off: i64, row: Reg| -> Reg {
                let xi = k.reg();
                k.iadd(xi, base2i.into(), Operand::Imm(off));
                k.imax(xi, xi.into(), Operand::Imm(0));
                k.imin(xi, xi.into(), Operand::Imm(w as i64 - 1));
                let a = k.reg();
                k.iadd(a, row.into(), xi.into());
                k.imul(a, a.into(), Operand::Imm(4));
                let v = k.reg();
                k.ld_global_u32(v, a, 0);
                v
            };
            // Computes detail at pair index (2i + shift).
            let detail_at = |k: &mut KernelBuilder, base2i: Reg, shift: i64, row: Reg| -> Reg {
                let x0 = load_x(k, base2i, shift, row);
                let x1 = load_x(k, base2i, shift + 1, row);
                let x2 = load_x(k, base2i, shift + 2, row);
                let s = k.reg();
                k.fadd(s, x0.into(), x2.into());
                k.fmul(s, s.into(), Operand::f32(0.5));
                let d = k.reg();
                k.fsub(d, x1.into(), s.into());
                d
            };

            let base2i = k.reg();
            k.imul(base2i, i.into(), Operand::Imm(2));
            let d = detail_at(k, base2i, 0, row);
            let dm1 = detail_at(k, base2i, -2, row);
            let x0 = load_x(k, base2i, 0, row);
            let ds = k.reg();
            k.fadd(ds, dm1.into(), d.into());
            k.fmul(ds, ds.into(), Operand::f32(0.25));
            let s = k.reg();
            k.fadd(s, x0.into(), ds.into());

            // Store s to the low half, d to the high half of the output row.
            let sa = k.reg();
            k.iadd(sa, row.into(), i.into());
            k.imul(sa, sa.into(), Operand::Imm(4));
            k.st_global_u32(s.into(), sa, o_base as i64);
            let da = k.reg();
            k.iadd(da, row.into(), i.into());
            k.iadd(da, da.into(), Operand::Imm(half as i64));
            k.imul(da, da.into(), Operand::Imm(4));
            k.st_global_u32(d.into(), da, o_base as i64);
            k.iadd(idx, idx.into(), Operand::Imm(total_threads));
        },
    );

    KernelSpec {
        name: "dwt2d_K1",
        suite: BenchSuite::Rodinia,
        program: k.finish(),
        launch,
        memory,
        check: Some(Arc::new(move |mem| {
            check_f32_region(mem, o_base, &expect, 1e-3)
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_and_verify;

    #[test]
    fn dwt2d_matches_reference() {
        run_and_verify(&build(Scale::Test));
    }
}
