//! Test-only per-slice reference for the word-parallel slice arithmetic.
//!
//! These are the straightforward loops: one slice at a time, carry-in to
//! carry-out. [`crate::bits::carry_chain`],
//! [`crate::peek::peek`] and [`crate::slice::evaluate`] must agree with them
//! on every output field, for every layout.

use crate::bits::{effective_operands, mask, SliceLayout};
use crate::config::RecomputePolicy;
use crate::peek::PeekOutcome;
use crate::slice::SliceEval;

/// One slice's combinational result: masked sum and carry-out.
fn slice_add(layout: SliceLayout, a_slice: u64, b_slice: u64, cin: bool) -> (u64, bool) {
    let raw = u128::from(a_slice) + u128::from(b_slice) + u128::from(cin);
    (raw as u64 & layout.slice_mask(), raw >> layout.width() != 0)
}

/// Adds every slice with its own carry-in (`carry_ins` bit `i` for slice
/// `i`); returns the concatenated slice sums and carry-outs.
fn slices_with_carry_ins(layout: SliceLayout, a: u64, b: u64, carry_ins: u64) -> (u64, u64) {
    let mut sum = 0u64;
    let mut couts = 0u64;
    for i in 0..layout.count() {
        let cin = carry_ins >> i & 1 != 0;
        let (s, cout) = slice_add(layout, layout.slice_of(a, i), layout.slice_of(b, i), cin);
        sum |= s << (u32::from(i) * u32::from(layout.width()));
        couts |= u64::from(cout) << i;
    }
    (sum, couts)
}

/// The true carry chain, rippled slice by slice.
pub(crate) fn carry_chain(layout: SliceLayout, a: u64, b: u64, cin0: bool) -> (u64, u64) {
    let mut carries = 0u64;
    let mut sum = 0u64;
    let mut cin = cin0;
    for i in 0..layout.count() {
        let (s, cout) = slice_add(layout, layout.slice_of(a, i), layout.slice_of(b, i), cin);
        sum |= s << (u32::from(i) * u32::from(layout.width()));
        carries |= u64::from(cout) << i;
        cin = cout;
    }
    (sum, carries)
}

/// Peek, one boundary at a time.
pub(crate) fn peek(layout: SliceLayout, a_eff: u64, b_eff: u64) -> PeekOutcome {
    let mut out = PeekOutcome::default();
    for j in 0..layout.boundaries() {
        let msb = layout.msb_of_slice(j);
        let (a_bit, b_bit) = (a_eff >> msb & 1, b_eff >> msb & 1);
        if a_bit == b_bit {
            out.static_mask |= 1 << j;
            out.static_bits |= a_bit << j;
        }
    }
    out
}

/// The slice engine, one slice at a time, including the hardware's
/// carry-select reconstruction of the sum.
pub(crate) fn evaluate(
    layout: SliceLayout,
    a: u64,
    b: u64,
    sub: bool,
    predictions: u64,
    peek: PeekOutcome,
    policy: RecomputePolicy,
) -> SliceEval {
    let (a_eff, b_eff, cin0) = effective_operands(layout, a, b, sub);
    let (sum, true_carries) = carry_chain(layout, a_eff, b_eff, cin0);
    let boundaries = layout.boundaries();
    let boundary_mask = mask(u32::from(boundaries));
    let static_mask = peek.static_mask & boundary_mask;
    let predictions =
        ((predictions & !static_mask) | (peek.static_bits & static_mask)) & boundary_mask;

    let supplied = predictions << 1 | u64::from(cin0);
    let (_, couts) = slices_with_carry_ins(layout, a_eff, b_eff, supplied);
    let cycle1_carries = couts & boundary_mask;

    let error_mask = (predictions ^ cycle1_carries) & boundary_mask;
    let mispredicted = error_mask != 0;
    let recompute_mask = if !mispredicted {
        0
    } else {
        match policy {
            RecomputePolicy::PropagateToTop => boundary_mask & !mask(error_mask.trailing_zeros()),
            RecomputePolicy::CutAtStaticPeek => {
                let mut m = 0u64;
                let mut suspect_below = false;
                for j in 0..boundaries {
                    let is_static = static_mask >> j & 1 != 0;
                    let err = error_mask >> j & 1 != 0;
                    let suspect = !is_static && (err || suspect_below);
                    m |= u64::from(suspect) << j;
                    suspect_below = suspect;
                }
                m
            }
        }
    };

    // Every slice takes the result computed with its true carry-in.
    let true_ins = true_carries << 1 | u64::from(cin0);
    let (selected, _) = slices_with_carry_ins(layout, a_eff, b_eff, true_ins);
    assert_eq!(selected, sum, "carry-select reconstruction diverged");

    SliceEval {
        sum,
        carry_out: true_carries >> (layout.count() - 1) & 1 != 0,
        true_carries: true_carries & boundary_mask,
        cycle1_carries,
        supplied_predictions: predictions,
        error_mask,
        recompute_mask,
        mispredicted,
        cycles: if mispredicted { 2 } else { 1 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The simulator's layouts plus odd ones: 1-bit slices, widths that do
    /// not divide 64, one slice, and 63 boundaries.
    const LAYOUTS: [(u8, u8); 10] = [
        (8, 8),
        (8, 4),
        (8, 3),
        (8, 7),
        (1, 8),
        (3, 3),
        (5, 12),
        (16, 4),
        (64, 1),
        (1, 64),
    ];

    fn layouts() -> impl Iterator<Item = SliceLayout> {
        LAYOUTS.iter().map(|&(w, n)| SliceLayout::new(w, n))
    }

    /// Operand pairs that exercise long carry chains and static slices,
    /// not just uniformly random bits.
    fn operands() -> impl Strategy<Value = (u64, u64)> {
        prop_oneof![
            (any::<u64>(), any::<u64>()),
            any::<u64>().prop_map(|a| (a, !a)),
            any::<u64>().prop_map(|a| (a, a)),
            (any::<u64>(), 0u64..4).prop_map(|(a, b)| (a | 0x7f7f_7f7f_7f7f_7f7f, b)),
            (0u64..1024, 0u64..1024),
        ]
    }

    /// A prediction vector: random, the truth, or the truth with one bit
    /// flipped.
    fn prediction(kind: u8, random: u64, truth: u64) -> u64 {
        match kind {
            0 => random,
            1 => truth,
            _ => truth ^ 1 << (random % 64),
        }
    }

    #[test]
    fn exhaustive_small_layout_matches_reference() {
        let l = SliceLayout::new(3, 3);
        for a in 0..512u64 {
            for b in (0..512u64).step_by(3) {
                for sub in [false, true] {
                    let (ae, be, _) = effective_operands(l, a, b, sub);
                    let pk = crate::peek::peek(l, ae, be);
                    assert_eq!(pk, peek(l, ae, be), "a={a} b={b}");
                    for pred in 0..4u64 {
                        for policy in [
                            RecomputePolicy::CutAtStaticPeek,
                            RecomputePolicy::PropagateToTop,
                        ] {
                            for p in [pk, PeekOutcome::default()] {
                                assert_eq!(
                                    crate::slice::evaluate(l, a, b, sub, pred, p, policy),
                                    evaluate(l, a, b, sub, pred, p, policy),
                                    "a={a} b={b} sub={sub} pred={pred}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn carry_chain_matches_reference(ab in operands(), cin: bool) {
            for l in layouts() {
                let m = l.value_mask();
                let (a, b) = (ab.0 & m, ab.1 & m);
                prop_assert_eq!(crate::bits::carry_chain(l, a, b, cin), carry_chain(l, a, b, cin), "{}", l);
            }
        }

        #[test]
        fn peek_matches_reference(ab in operands(), sub: bool) {
            for l in layouts() {
                let (a, b, _) = effective_operands(l, ab.0, ab.1, sub);
                prop_assert_eq!(crate::peek::peek(l, a, b), peek(l, a, b), "{}", l);
            }
        }

        #[test]
        fn evaluate_matches_reference(
            ab in operands(),
            sub: bool,
            kind in 0u8..3,
            random: u64,
        ) {
            for l in layouts() {
                let (a, b) = ab;
                let (ae, be, cin0) = effective_operands(l, a, b, sub);
                let (_, truth) = carry_chain(l, ae, be, cin0);
                let pred = prediction(kind, random, truth);
                let pk = peek(l, ae, be);
                for p in [pk, PeekOutcome::default()] {
                    for policy in [RecomputePolicy::CutAtStaticPeek, RecomputePolicy::PropagateToTop] {
                        prop_assert_eq!(
                            crate::slice::evaluate(l, a, b, sub, pred, p, policy),
                            evaluate(l, a, b, sub, pred, p, policy),
                            "{} a={:#x} b={:#x} sub={} pred={:#x}", l, a, b, sub, pred
                        );
                    }
                }
            }
        }
    }
}
