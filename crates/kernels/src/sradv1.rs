//! **sradv1_K1** (Rodinia SRAD v1) — speckle-reducing anisotropic
//! diffusion, kernel 1.
//!
//! Per pixel: four directional derivatives against clamped neighbours,
//! the normalised gradient/Laplacian statistics, and the diffusion
//! coefficient — a divide-heavy stencil over a smooth image, storing the
//! derivative fields for the follow-up kernel.

use crate::data;
use crate::spec::{check_f32_region, BenchSuite, KernelSpec, Scale};
use st2_isa::{KernelBuilder, LaunchConfig, MemImage, Operand, Special};
use std::sync::Arc;

const Q0SQR: f32 = 0.05 * 0.05;

/// Builds sradv1_K1.
#[must_use]
pub(crate) fn build(scale: Scale) -> KernelSpec {
    let w = 32 * scale.factor() as usize;
    let h = 24usize;
    let n = w * h;

    let mut rng = data::rng_for("sradv1");
    // Strictly positive intensities (J = exp(img) in the real code).
    let img: Vec<f32> = data::smooth_field(&mut rng, w, h, 1.0)
        .into_iter()
        .map(|v| v + 0.05)
        .collect();

    let j_base = 0u64;
    let c_base = (n * 4) as u64;
    let dn_base = 2 * c_base;
    let mut memory = MemImage::new(dn_base + (4 * n * 4) as u64);
    for (i, &v) in img.iter().enumerate() {
        memory.write_f32(i as u64 * 4, v);
    }

    // CPU reference (same clamped-neighbour and op order).
    let mut exp_c = vec![0.0f32; n];
    let mut exp_d = vec![0.0f32; 4 * n];
    for y in 0..h {
        for x in 0..w {
            let at = |xx: usize, yy: usize| img[yy * w + xx];
            let jc = at(x, y);
            let dn = at(x, y.saturating_sub(1)) - jc;
            let ds = at(x, (y + 1).min(h - 1)) - jc;
            let dw_ = at(x.saturating_sub(1), y) - jc;
            let de = at((x + 1).min(w - 1), y) - jc;
            let g2 = (dn * dn + ds * ds + dw_ * dw_ + de * de) / (jc * jc);
            let l = (dn + ds + dw_ + de) / jc;
            let num = 0.5 * g2 - (1.0 / 16.0) * (l * l);
            let den = 1.0 + 0.25 * l;
            let qsqr = num / (den * den);
            let dden = (qsqr - Q0SQR) / (Q0SQR * (1.0 + Q0SQR));
            let mut c = 1.0 / (1.0 + dden);
            c = c.clamp(0.0, 1.0);
            let i = y * w + x;
            exp_c[i] = c;
            exp_d[i] = dn;
            exp_d[n + i] = ds;
            exp_d[2 * n + i] = dw_;
            exp_d[3 * n + i] = de;
        }
    }

    let mut k = KernelBuilder::new("sradv1_K1");
    let tid = k.special(Special::GlobalTid);
    let in_range = k.reg();
    k.setlt(in_range, tid.into(), Operand::Imm(n as i64));
    k.if_(in_range, |k| {
        let y = k.reg();
        k.idiv(y, tid.into(), Operand::Imm(w as i64));
        let x = k.reg();
        k.irem(x, tid.into(), Operand::Imm(w as i64));

        // Clamped neighbour indices.
        let yn = k.reg();
        k.isub(yn, y.into(), Operand::Imm(1));
        k.imax(yn, yn.into(), Operand::Imm(0));
        let ys = k.reg();
        k.iadd(ys, y.into(), Operand::Imm(1));
        k.imin(ys, ys.into(), Operand::Imm(h as i64 - 1));
        let xw = k.reg();
        k.isub(xw, x.into(), Operand::Imm(1));
        k.imax(xw, xw.into(), Operand::Imm(0));
        let xe = k.reg();
        k.iadd(xe, x.into(), Operand::Imm(1));
        k.imin(xe, xe.into(), Operand::Imm(w as i64 - 1));

        let load = |k: &mut KernelBuilder, xx: st2_isa::Reg, yy: st2_isa::Reg| {
            let a = k.reg();
            k.imul(a, yy.into(), Operand::Imm(w as i64));
            k.iadd(a, a.into(), xx.into());
            k.imul(a, a.into(), Operand::Imm(4));
            let v = k.reg();
            k.ld_global_u32(v, a, j_base as i64);
            v
        };
        let jc = load(k, x, y);
        let jn = load(k, x, yn);
        let js = load(k, x, ys);
        let jw = load(k, xw, y);
        let je = load(k, xe, y);

        let dn = k.reg();
        k.fsub(dn, jn.into(), jc.into());
        let ds = k.reg();
        k.fsub(ds, js.into(), jc.into());
        let dw_ = k.reg();
        k.fsub(dw_, jw.into(), jc.into());
        let de = k.reg();
        k.fsub(de, je.into(), jc.into());

        // g2 = (dn²+ds²+dw²+de²)/jc²  (same association as the reference)
        let g2 = k.reg();
        k.fmul(g2, dn.into(), dn.into());
        let t = k.reg();
        k.fmul(t, ds.into(), ds.into());
        k.fadd(g2, g2.into(), t.into());
        k.fmul(t, dw_.into(), dw_.into());
        k.fadd(g2, g2.into(), t.into());
        k.fmul(t, de.into(), de.into());
        k.fadd(g2, g2.into(), t.into());
        let jc2 = k.reg();
        k.fmul(jc2, jc.into(), jc.into());
        k.fdiv(g2, g2.into(), jc2.into());

        // l = (dn+ds+dw+de)/jc
        let l = k.reg();
        k.fadd(l, dn.into(), ds.into());
        k.fadd(l, l.into(), dw_.into());
        k.fadd(l, l.into(), de.into());
        k.fdiv(l, l.into(), jc.into());

        let num = k.reg();
        k.fmul(num, g2.into(), Operand::f32(0.5));
        let l2 = k.reg();
        k.fmul(l2, l.into(), l.into());
        let t2 = k.reg();
        k.fmul(t2, l2.into(), Operand::f32(1.0 / 16.0));
        k.fsub(num, num.into(), t2.into());
        let den = k.reg();
        k.fmul(den, l.into(), Operand::f32(0.25));
        k.fadd(den, den.into(), Operand::f32(1.0));
        let den2 = k.reg();
        k.fmul(den2, den.into(), den.into());
        let qsqr = k.reg();
        k.fdiv(qsqr, num.into(), den2.into());

        let dden = k.reg();
        k.fsub(dden, qsqr.into(), Operand::f32(Q0SQR));
        k.fdiv(dden, dden.into(), Operand::f32(Q0SQR * (1.0 + Q0SQR)));
        let c = k.reg();
        k.fadd(c, dden.into(), Operand::f32(1.0));
        k.fdiv(c, Operand::f32(1.0), c.into());
        k.fmax(c, c.into(), Operand::f32(0.0));
        k.fmin(c, c.into(), Operand::f32(1.0));

        let off = k.reg();
        k.imul(off, tid.into(), Operand::Imm(4));
        let oa = k.reg();
        k.iadd(oa, off.into(), Operand::Imm(c_base as i64));
        k.st_global_u32(c.into(), oa, 0);
        for (slot, d) in [(0u64, dn), (1, ds), (2, dw_), (3, de)] {
            let da = k.reg();
            k.iadd(
                da,
                off.into(),
                Operand::Imm((dn_base + slot * (n as u64) * 4) as i64),
            );
            k.st_global_u32(d.into(), da, 0);
        }
    });

    let exp_all: Vec<f32> = exp_c.iter().chain(exp_d.iter()).copied().collect();
    KernelSpec {
        name: "sradv1_K1",
        suite: BenchSuite::Rodinia,
        program: k.finish(),
        launch: LaunchConfig::new((n as u32).div_ceil(128), 128),
        memory,
        check: Some(Arc::new(move |mem| {
            check_f32_region(mem, c_base, &exp_all, 2e-3)
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_and_verify;

    #[test]
    fn sradv1_matches_reference() {
        run_and_verify(&build(Scale::Test));
    }
}
