//! **dct8x8_K1** (CUDA Samples) — 8×8 block discrete cosine transform.
//!
//! Each thread computes one frequency coefficient of its 8×8 image block
//! from a precomputed cosine basis table (as the CUDA sample keeps in
//! constant memory): a 64-term double loop of table-driven FMAs.

use crate::data;
use crate::spec::{check_f32_region, BenchSuite, KernelSpec, Scale};
use st2_isa::{KernelBuilder, LaunchConfig, MemImage, Operand, Special};
use std::sync::Arc;

const B: usize = 8;

/// Builds dct8x8_K1.
#[must_use]
#[allow(clippy::needless_range_loop)] // index math mirrors the kernel
pub(crate) fn build(scale: Scale) -> KernelSpec {
    let blocks_x = 2 * scale.factor() as usize;
    let blocks_y = 2usize;
    let w = blocks_x * B;
    let h = blocks_y * B;

    let mut rng = data::rng_for("dct8x8");
    let image = data::smooth_field(&mut rng, w, h, 255.0);

    // Cosine basis: cos[(2i+1)uπ/16] with the DCT normalisation folded in
    // host-side, exactly like the sample's constant tables.
    let mut basis = [[0.0f32; B]; B];
    for (u, row) in basis.iter_mut().enumerate() {
        for (i, c) in row.iter_mut().enumerate() {
            let a = if u == 0 {
                (1.0f32 / B as f32).sqrt()
            } else {
                (2.0f32 / B as f32).sqrt()
            };
            *c = a * ((2.0 * i as f32 + 1.0) * u as f32 * std::f32::consts::PI / 16.0).cos();
        }
    }

    let i_base = 0u64;
    let t_base = (w * h * 4) as u64;
    let o_base = t_base + (B * B * 4) as u64;
    let mut memory = MemImage::new(o_base + (w * h * 4) as u64);
    for (i, &v) in image.iter().enumerate() {
        memory.write_f32(i as u64 * 4, v);
    }
    for u in 0..B {
        for i in 0..B {
            memory.write_f32(t_base + ((u * B + i) * 4) as u64, basis[u][i]);
        }
    }

    // CPU reference with the kernel's accumulation order.
    let mut expect = vec![0.0f32; w * h];
    for by in 0..blocks_y {
        for bx in 0..blocks_x {
            for v in 0..B {
                for u in 0..B {
                    let mut acc = 0.0f32;
                    for j in 0..B {
                        for i in 0..B {
                            let pix = image[(by * B + j) * w + bx * B + i];
                            let c = basis[u][i] * basis[v][j];
                            acc = pix.mul_add(c, acc);
                        }
                    }
                    expect[(by * B + v) * w + bx * B + u] = acc;
                }
            }
        }
    }

    let total = w * h;
    let mut k = KernelBuilder::new("dct8x8_K1");
    let tid = k.special(Special::GlobalTid);
    let in_range = k.reg();
    k.setlt(in_range, tid.into(), Operand::Imm(total as i64));
    k.if_(in_range, |k| {
        // Decode (block, v, u) from the thread id: threads are laid out
        // as row-major over the output image.
        let y = k.reg();
        k.idiv(y, tid.into(), Operand::Imm(w as i64));
        let x = k.reg();
        k.irem(x, tid.into(), Operand::Imm(w as i64));
        let by = k.reg();
        k.idiv(by, y.into(), Operand::Imm(B as i64));
        let v = k.reg();
        k.irem(v, y.into(), Operand::Imm(B as i64));
        let bx = k.reg();
        k.idiv(bx, x.into(), Operand::Imm(B as i64));
        let u = k.reg();
        k.irem(u, x.into(), Operand::Imm(B as i64));

        let urow = k.reg();
        k.imul(urow, u.into(), Operand::Imm((B * 4) as i64));
        let vrow = k.reg();
        k.imul(vrow, v.into(), Operand::Imm((B * 4) as i64));

        let acc = k.reg();
        k.mov(acc, Operand::f32(0.0));
        k.for_range(Operand::Imm(0), Operand::Imm(B as i64), |k, j| {
            // row base of the pixel block
            let py = k.reg();
            k.imul(py, by.into(), Operand::Imm(B as i64));
            k.iadd(py, py.into(), j.into());
            let prow = k.reg();
            k.imul(prow, py.into(), Operand::Imm(w as i64));
            let bvj = k.reg();
            let ja = k.reg();
            k.imul(ja, j.into(), Operand::Imm(4));
            k.iadd(ja, ja.into(), vrow.into());
            k.ld_global_u32(bvj, ja, t_base as i64);
            k.for_range(Operand::Imm(0), Operand::Imm(B as i64), |k, i| {
                let px = k.reg();
                k.imul(px, bx.into(), Operand::Imm(B as i64));
                k.iadd(px, px.into(), i.into());
                let pa = k.reg();
                k.iadd(pa, prow.into(), px.into());
                k.imul(pa, pa.into(), Operand::Imm(4));
                let pix = k.reg();
                k.ld_global_u32(pix, pa, i_base as i64);
                let bui = k.reg();
                let ia = k.reg();
                k.imul(ia, i.into(), Operand::Imm(4));
                k.iadd(ia, ia.into(), urow.into());
                k.ld_global_u32(bui, ia, t_base as i64);
                let c = k.reg();
                k.fmul(c, bui.into(), bvj.into());
                k.fmad(acc, pix.into(), c.into(), acc.into());
            });
        });
        let oa = k.reg();
        k.imul(oa, tid.into(), Operand::Imm(4));
        k.iadd(oa, oa.into(), Operand::Imm(o_base as i64));
        k.st_global_u32(acc.into(), oa, 0);
    });

    KernelSpec {
        name: "dct8x8_K1",
        suite: BenchSuite::CudaSamples,
        program: k.finish(),
        launch: LaunchConfig::new((total as u32).div_ceil(128), 128),
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
    fn dct_matches_reference() {
        run_and_verify(&build(Scale::Test));
    }

    #[test]
    fn dct_dc_coefficient_is_block_mean_scaled() {
        // Sanity of the reference: the (0,0) coefficient equals the block
        // sum divided by 8.
        let spec = build(Scale::Test);
        let mut mem = spec.memory.clone();
        let _ = st2_sim::run_functional(
            &spec.program,
            spec.launch,
            &mut mem,
            &st2_sim::FunctionalOptions::default(),
        );
        spec.verify(&mem).expect("dct");
    }
}
