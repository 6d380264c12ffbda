//! **bprop_K1 / bprop_K2** (Rodinia backprop).
//!
//! * K1 (`layerforward`): each hidden unit accumulates `Σ wᵢⱼ·xᵢ` and
//!   applies the sigmoid (SFU exp + divide).
//! * K2 (`adjust_weights`): `w += η·δⱼ·xᵢ + α·Δw_old`, the classic
//!   FMA-plus-memory update.

use crate::data;
use crate::spec::{check_f32_region, BenchSuite, KernelSpec, Scale};
use st2_isa::{KernelBuilder, LaunchConfig, MemImage, Operand, Special};
use std::sync::Arc;

const ETA: f32 = 0.3;
const MOMENTUM: f32 = 0.3;

/// Builds bprop_K1 (layer-forward).
#[must_use]
pub(crate) fn build_k1(scale: Scale) -> KernelSpec {
    let n_in = 64usize;
    let n_hidden = 64 * scale.factor() as usize;

    let mut rng = data::rng_for("bprop1");
    let input = data::f32_vec(&mut rng, n_in, 0.0, 1.0);
    let weights = data::f32_vec(&mut rng, n_in * n_hidden, -0.5, 0.5);

    let in_b = 0u64;
    let w_b = (n_in * 4) as u64;
    let out_b = w_b + (n_in * n_hidden * 4) as u64;
    let mut memory = MemImage::new(out_b + (n_hidden * 4) as u64);
    for (i, &v) in input.iter().enumerate() {
        memory.write_f32(in_b + i as u64 * 4, v);
    }
    for (i, &v) in weights.iter().enumerate() {
        memory.write_f32(w_b + i as u64 * 4, v);
    }

    let mut expect = vec![0.0f32; n_hidden];
    for j in 0..n_hidden {
        let mut sum = 0.0f32;
        for i in 0..n_in {
            sum = weights[i * n_hidden + j].mul_add(input[i], sum);
        }
        expect[j] = 1.0 / (1.0 + (-sum).exp());
    }

    let mut k = KernelBuilder::new("bprop_K1");
    let tid = k.special(Special::GlobalTid);
    let in_range = k.reg();
    k.setlt(in_range, tid.into(), Operand::Imm(n_hidden as i64));
    k.if_(in_range, |k| {
        let sum = k.reg();
        k.mov(sum, Operand::f32(0.0));
        k.for_range(Operand::Imm(0), Operand::Imm(n_in as i64), |k, i| {
            let wa = k.reg();
            k.imul(wa, i.into(), Operand::Imm((n_hidden * 4) as i64));
            let tj = k.reg();
            k.imul(tj, tid.into(), Operand::Imm(4));
            k.iadd(wa, wa.into(), tj.into());
            k.iadd(wa, wa.into(), Operand::Imm(w_b as i64));
            let wv = k.reg();
            k.ld_global_u32(wv, wa, 0);
            let ia = k.reg();
            k.imul(ia, i.into(), Operand::Imm(4));
            let iv = k.reg();
            k.ld_global_u32(iv, ia, 0);
            k.fmad(sum, wv.into(), iv.into(), sum.into());
        });
        // sigmoid = 1 / (1 + exp(-sum))
        let neg = k.reg();
        k.fsub(neg, Operand::f32(0.0), sum.into());
        let e = k.reg();
        k.fexp(e, neg.into());
        let den = k.reg();
        k.fadd(den, e.into(), Operand::f32(1.0));
        let sig = k.reg();
        k.fdiv(sig, Operand::f32(1.0), den.into());
        let oa = k.reg();
        k.imul(oa, tid.into(), Operand::Imm(4));
        k.iadd(oa, oa.into(), Operand::Imm(out_b as i64));
        k.st_global_u32(sig.into(), oa, 0);
    });

    KernelSpec {
        name: "bprop_K1",
        suite: BenchSuite::Rodinia,
        program: k.finish(),
        launch: LaunchConfig::new((n_hidden as u32).div_ceil(128), 128),
        memory,
        check: Some(Arc::new(move |mem| {
            check_f32_region(mem, out_b, &expect, 1e-4)
        })),
    }
}

/// Builds bprop_K2 (weight adjustment).
#[must_use]
pub(crate) fn build_k2(scale: Scale) -> KernelSpec {
    let n_in = 64usize;
    let n_hidden = 64 * scale.factor() as usize;
    let total = n_in * n_hidden;

    let mut rng = data::rng_for("bprop2");
    let input = data::f32_vec(&mut rng, n_in, 0.0, 1.0);
    let delta = data::f32_vec(&mut rng, n_hidden, -0.2, 0.2);
    let w = data::f32_vec(&mut rng, total, -0.5, 0.5);
    let oldw = data::f32_vec(&mut rng, total, -0.05, 0.05);

    let in_b = 0u64;
    let d_b = (n_in * 4) as u64;
    let w_b = d_b + (n_hidden * 4) as u64;
    let ow_b = w_b + (total * 4) as u64;
    let mut memory = MemImage::new(ow_b + (total * 4) as u64);
    let fill = |m: &mut MemImage, base: u64, v: &[f32]| {
        for (i, &f) in v.iter().enumerate() {
            m.write_f32(base + i as u64 * 4, f);
        }
    };
    fill(&mut memory, in_b, &input);
    fill(&mut memory, d_b, &delta);
    fill(&mut memory, w_b, &w);
    fill(&mut memory, ow_b, &oldw);

    let mut exp_w = vec![0.0f32; total];
    let mut exp_ow = vec![0.0f32; total];
    for (i, &inp) in input.iter().enumerate() {
        for (j, &dj) in delta.iter().enumerate() {
            let idx = i * n_hidden + j;
            let dw = (ETA * dj).mul_add(inp, MOMENTUM * oldw[idx]);
            exp_w[idx] = w[idx] + dw;
            exp_ow[idx] = dw;
        }
    }

    let mut k = KernelBuilder::new("bprop_K2");
    let tid = k.special(Special::GlobalTid);
    let in_range = k.reg();
    k.setlt(in_range, tid.into(), Operand::Imm(total as i64));
    k.if_(in_range, |k| {
        let i = k.reg();
        k.idiv(i, tid.into(), Operand::Imm(n_hidden as i64));
        let j = k.reg();
        k.irem(j, tid.into(), Operand::Imm(n_hidden as i64));
        let ia = k.reg();
        k.imul(ia, i.into(), Operand::Imm(4));
        let iv = k.reg();
        k.ld_global_u32(iv, ia, 0);
        let ja = k.reg();
        k.imul(ja, j.into(), Operand::Imm(4));
        k.iadd(ja, ja.into(), Operand::Imm(d_b as i64));
        let dv = k.reg();
        k.ld_global_u32(dv, ja, 0);
        let off = k.reg();
        k.imul(off, tid.into(), Operand::Imm(4));
        let owa = k.reg();
        k.iadd(owa, off.into(), Operand::Imm(ow_b as i64));
        let owv = k.reg();
        k.ld_global_u32(owv, owa, 0);
        // dw = (eta*delta)*input + momentum*oldw
        let ed = k.reg();
        k.fmul(ed, dv.into(), Operand::f32(ETA));
        let mo = k.reg();
        k.fmul(mo, owv.into(), Operand::f32(MOMENTUM));
        let dw = k.reg();
        k.fmad(dw, ed.into(), iv.into(), mo.into());
        let wa = k.reg();
        k.iadd(wa, off.into(), Operand::Imm(w_b as i64));
        let wv = k.reg();
        k.ld_global_u32(wv, wa, 0);
        let nw = k.reg();
        k.fadd(nw, wv.into(), dw.into());
        k.st_global_u32(nw.into(), wa, 0);
        k.st_global_u32(dw.into(), owa, 0);
    });

    let exp_all: Vec<f32> = exp_w.iter().chain(exp_ow.iter()).copied().collect();
    KernelSpec {
        name: "bprop_K2",
        suite: BenchSuite::Rodinia,
        program: k.finish(),
        launch: LaunchConfig::new((total as u32).div_ceil(128), 128),
        memory,
        check: Some(Arc::new(move |mem| {
            check_f32_region(mem, w_b, &exp_all, 1e-5)
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_and_verify;

    #[test]
    fn bprop_k1_matches_reference() {
        run_and_verify(&build_k1(Scale::Test));
    }

    #[test]
    fn bprop_k2_matches_reference() {
        run_and_verify(&build_k2(Scale::Test));
    }
}
