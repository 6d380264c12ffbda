//! **msort_K1 / msort_K2** (CUDA Samples mergeSort).
//!
//! K1 sorts short runs per thread (the bottom of the merge tree, here an
//! insertion sort with data-dependent inner loops — heavy subtract-compare
//! traffic). K2 merges pairs of sorted runs with the classic two-pointer
//! walk. msort_K2 is the paper's biggest winner (up to 40 % system energy
//! saved) because nearly everything it does is compares and index adds.

use crate::data;
use crate::spec::{check_i32_region, BenchSuite, KernelSpec, Scale};
use st2_isa::{KernelBuilder, LaunchConfig, MemImage, Operand, Special};
use std::sync::Arc;

const RUN: usize = 8; // keys per thread in K1; K2 merges pairs of RUNs

/// Builds msort_K1 (per-thread insertion sort of RUN-element chunks).
#[must_use]
pub(crate) fn build_k1(scale: Scale) -> KernelSpec {
    let threads = 128 * scale.factor() as usize;
    let n = threads * RUN;
    let keys = data::i32_vec(&mut data::rng_for("msort1"), n, 0, 1 << 16);
    let memory = MemImage::from_i32(&keys);

    let mut expect: Vec<i64> = Vec::with_capacity(n);
    for t in 0..threads {
        let mut run: Vec<i64> = keys[t * RUN..(t + 1) * RUN]
            .iter()
            .map(|&x| i64::from(x))
            .collect();
        run.sort_unstable();
        expect.extend(run);
    }

    let mut k = KernelBuilder::new("msort_K1");
    let tid = k.special(Special::GlobalTid);
    let in_range = k.reg();
    k.setlt(in_range, tid.into(), Operand::Imm(threads as i64));
    k.if_(in_range, |k| {
        let base = k.reg();
        k.imul(base, tid.into(), Operand::Imm((RUN * 4) as i64));
        // Insertion sort over the chunk.
        k.for_range(Operand::Imm(1), Operand::Imm(RUN as i64), |k, j| {
            let ja = k.reg();
            k.imul(ja, j.into(), Operand::Imm(4));
            k.iadd(ja, ja.into(), base.into());
            let key = k.reg();
            k.ld_global_u32(key, ja, 0);
            let i = k.reg();
            k.isub(i, j.into(), Operand::Imm(1));
            // while i >= 0 && a[i] > key { a[i+1] = a[i]; i -= 1 }
            k.while_(
                |k| {
                    let nonneg = k.reg();
                    k.setle(nonneg, Operand::Imm(0), i.into());
                    // Clamp the probe address so the load stays in
                    // bounds when i == -1 (the predicate still kills it).
                    let ic = k.reg();
                    k.imax(ic, i.into(), Operand::Imm(0));
                    let ia = k.reg();
                    k.imul(ia, ic.into(), Operand::Imm(4));
                    k.iadd(ia, ia.into(), base.into());
                    let av = k.reg();
                    k.ld_global_u32(av, ia, 0);
                    let gt = k.reg();
                    k.setlt(gt, key.into(), av.into());
                    let cont = k.reg();
                    k.iand(cont, nonneg.into(), gt.into());
                    cont
                },
                |k| {
                    let ia = k.reg();
                    k.imul(ia, i.into(), Operand::Imm(4));
                    k.iadd(ia, ia.into(), base.into());
                    let av = k.reg();
                    k.ld_global_u32(av, ia, 0);
                    k.st_global_u32(av.into(), ia, 4);
                    k.isub(i, i.into(), Operand::Imm(1));
                },
            );
            let dst = k.reg();
            k.iadd(dst, i.into(), Operand::Imm(1));
            let da = k.reg();
            k.imul(da, dst.into(), Operand::Imm(4));
            k.iadd(da, da.into(), base.into());
            k.st_global_u32(key.into(), da, 0);
        });
    });

    KernelSpec {
        name: "msort_K1",
        suite: BenchSuite::CudaSamples,
        program: k.finish(),
        launch: LaunchConfig::new((threads as u32).div_ceil(128), 128),
        memory,
        check: Some(Arc::new(move |mem| check_i32_region(mem, 0, &expect))),
    }
}

/// Builds msort_K2 (per-thread two-pointer merge of adjacent sorted runs).
#[must_use]
pub fn build_k2(scale: Scale) -> KernelSpec {
    let pairs = 64 * scale.factor() as usize;
    let n = pairs * 2 * RUN;
    // Input: adjacent pre-sorted runs (as K1 would have left them).
    let mut keys = data::i32_vec(&mut data::rng_for("msort2"), n, 0, 1 << 16);
    for r in 0..2 * pairs {
        keys[r * RUN..(r + 1) * RUN].sort_unstable();
    }
    let mut memory = MemImage::from_i32(&keys);
    memory.ensure_len((2 * n * 4) as u64); // output buffer after input

    let out_base = (n * 4) as u64;
    let mut expect: Vec<i64> = Vec::with_capacity(n);
    for p in 0..pairs {
        let mut merged: Vec<i64> = keys[p * 2 * RUN..(p + 1) * 2 * RUN]
            .iter()
            .map(|&x| i64::from(x))
            .collect();
        merged.sort_unstable(); // two sorted runs merged = sorted pair
        expect.extend(merged);
    }

    let mut k = KernelBuilder::new("msort_K2");
    let tid = k.special(Special::GlobalTid);
    let in_range = k.reg();
    k.setlt(in_range, tid.into(), Operand::Imm(pairs as i64));
    k.if_(in_range, |k| {
        let a_base = k.reg();
        k.imul(a_base, tid.into(), Operand::Imm((2 * RUN * 4) as i64));
        let b_base = k.reg();
        k.iadd(b_base, a_base.into(), Operand::Imm((RUN * 4) as i64));
        let o_base = k.reg();
        k.iadd(o_base, a_base.into(), Operand::Imm(out_base as i64));

        let i = k.reg();
        k.mov(i, Operand::Imm(0));
        let j = k.reg();
        k.mov(j, Operand::Imm(0));
        k.for_range(Operand::Imm(0), Operand::Imm((2 * RUN) as i64), |k, o| {
            let i_ok = k.reg();
            k.setlt(i_ok, i.into(), Operand::Imm(RUN as i64));
            let j_ok = k.reg();
            k.setlt(j_ok, j.into(), Operand::Imm(RUN as i64));
            // Probe both heads (clamped to stay in bounds).
            let ic = k.reg();
            k.imin(ic, i.into(), Operand::Imm((RUN - 1) as i64));
            let ia = k.reg();
            k.imul(ia, ic.into(), Operand::Imm(4));
            k.iadd(ia, ia.into(), a_base.into());
            let av = k.reg();
            k.ld_global_u32(av, ia, 0);
            let jc = k.reg();
            k.imin(jc, j.into(), Operand::Imm((RUN - 1) as i64));
            let ja = k.reg();
            k.imul(ja, jc.into(), Operand::Imm(4));
            k.iadd(ja, ja.into(), b_base.into());
            let bv = k.reg();
            k.ld_global_u32(bv, ja, 0);
            // take_a = i_ok && (!j_ok || a <= b)
            let le = k.reg();
            k.setle(le, av.into(), bv.into());
            let j_done = k.reg();
            k.seteq(j_done, j_ok.into(), Operand::Imm(0));
            let pick = k.reg();
            k.ior(pick, le.into(), j_done.into());
            let take_a = k.reg();
            k.iand(take_a, i_ok.into(), pick.into());
            let oa = k.reg();
            k.imul(oa, o.into(), Operand::Imm(4));
            k.iadd(oa, oa.into(), o_base.into());
            k.if_else(
                take_a,
                |k| {
                    k.st_global_u32(av.into(), oa, 0);
                    k.iadd(i, i.into(), Operand::Imm(1));
                },
                |k| {
                    k.st_global_u32(bv.into(), oa, 0);
                    k.iadd(j, j.into(), Operand::Imm(1));
                },
            );
        });
    });

    KernelSpec {
        name: "msort_K2",
        suite: BenchSuite::CudaSamples,
        program: k.finish(),
        launch: LaunchConfig::new((pairs as u32).div_ceil(128), 128),
        memory,
        check: Some(Arc::new(move |mem| {
            check_i32_region(mem, out_base, &expect)
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_and_verify;

    #[test]
    fn msort_k1_sorts_runs() {
        run_and_verify(&build_k1(Scale::Test));
    }

    #[test]
    fn msort_k2_merges_pairs() {
        run_and_verify(&build_k2(Scale::Test));
    }
}
