//! The cycle-accurate slice engine: speculative first cycle, misprediction
//! detection, the second (recompute) cycle and the carry-select-style final
//! selection of the paper's Fig. 4.
//!
//! Bit conventions used throughout: for a layout with `n` slices there are
//! `n − 1` carry *boundaries*. Boundary `j` (bit `j` of every mask) is the
//! carry out of slice `j`, which is the carry **into slice `j + 1`**.
//! Slice 0 always receives the architectural carry-in and is never
//! speculated.
//!
//! # Word-parallel evaluation
//!
//! The engine evaluates every slice at once in `u64` words instead of
//! looping over slices. With `w`-bit slices, let `H` be the mask of slice
//! MSBs, `L` the mask of slice LSBs and `x = a ^ b`:
//!
//! * **True carries.** One wide add `s = a + b + cin` in a `u128`: bit `k`
//!   of `a ^ b ^ s` is the carry into bit `k`, so slice `i`'s true
//!   carry-out is that word's bit `(i + 1)·w`.
//! * **Generate / propagate.** `(a & !H) + (b & !H)` adds every slice's
//!   low `w − 1` bits at once; with the MSBs cleared no carry can leave a
//!   slice, so the sum's bit at each MSB is the carry into that MSB. The
//!   slice generates (carries out with carry-in 0) where
//!   `a & b | x & that-carry` is set at `H`. In `(x & !H) + L` the `+1`
//!   reaches a slice's MSB exactly when its low bits all propagate, so the
//!   slice propagates (passes its carry-in through) where `x & ((x & !H) +
//!   L)` is set at `H`.
//! * **Gather.** `SliceLayout::gather_msbs` compacts the `H` bits of a
//!   word to one bit per slice (one multiply for 8-bit slices, which every
//!   layout the simulator uses). With `G`, `P` gathered this way, the
//!   first-cycle carry-outs under the supplied carry-ins `c` (the
//!   architectural carry-in for slice 0, the predictions above it) are
//!   `G | (P & c)`.
//! * **Peek.** The static knowledge of [`crate::peek`] is
//!   `gather(!x & H)` (both MSBs equal, so the carry is known) with value
//!   `gather(a & b & H)`. It is sound because a slice's carry-out is the
//!   majority of its two MSBs and the carry into its MSB: when the two MSBs
//!   agree, they decide the majority whatever arrives from below.
//! * **Recompute wave.** Under [`RecomputePolicy::CutAtStaticPeek`] a wave
//!   starts at every detected error and climbs through dynamic (non-Peek)
//!   boundaries until it meets a static one. With `D` the dynamic
//!   boundaries and `E ⊆ D` the errors, adding `E` to `D` ripples a carry
//!   from the lowest error of each run of `D` to the run's top, flipping
//!   every bit it crosses, so the wave is `((D + E) ^ D) & D | E`.
//!
//! # Prepare, then speculate
//!
//! Only the Peek override, the cycle-1 carries, the error mask and the
//! recompute wave depend on the speculation configuration. `prepare`
//! computes everything else once per add (effective operands, the true
//! carries and sum, `G`, `P` and the Peek outcome); `speculate` finishes
//! the add under one configuration's predictions, Peek choice and
//! recompute policy. [`evaluate`] is the two in sequence, and the
//! design-space sweep reuses one prepared add across design points.
//!
//! A per-slice loop is kept as a test-only reference, and property tests
//! pin the two together field by field.

use crate::bits::{carry_chain, effective_operands, SliceLayout};
use crate::config::RecomputePolicy;
use crate::peek::{peek, PeekOutcome};

/// Everything the hardware produced for one add/sub operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceEval {
    /// The (always correct) result, masked to the adder width.
    pub sum: u64,
    /// Carry out of the most significant slice.
    pub(crate) carry_out: bool,
    /// True boundary carries (bit `j` = true carry into slice `j + 1`).
    /// These are what the history table learns.
    pub(crate) true_carries: u64,
    /// Boundary carry-outs observed at the end of the speculative first
    /// cycle (may differ from `true_carries` below a misprediction).
    pub(crate) cycle1_carries: u64,
    /// The carry-ins actually supplied to slices `1..n` in cycle 1, after
    /// the static Peek override.
    pub(crate) supplied_predictions: u64,
    /// Boundaries whose detector fired (`E` signals): the received
    /// prediction differed from the neighbour's first-cycle carry-out.
    pub(crate) error_mask: u64,
    /// Slices that re-executed in the second cycle; bit `j` set means slice
    /// `j + 1` recomputed with the inverted carry-in.
    pub(crate) recompute_mask: u64,
    /// Whether the operation needed a second cycle.
    pub mispredicted: bool,
    /// Latency in cycles (1 or 2).
    pub cycles: u8,
}

impl SliceEval {
    /// Number of slices that re-executed in the second cycle.
    #[must_use]
    pub fn recomputed_slices(&self) -> u32 {
        self.recompute_mask.count_ones()
    }

    /// Number of boundary detectors that fired.
    #[must_use]
    pub(crate) fn error_count(&self) -> u32 {
        self.error_mask.count_ones()
    }
}

/// The configuration-independent half of one add/sub: the effective
/// operands and everything the slice engine derives from them alone.
///
/// [`speculate`] turns it into a [`SliceEval`] under one set of
/// predictions, Peek override and recompute policy, so a design-space
/// sweep prepares each recorded add once and speculates it once per
/// design point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreparedAdd {
    /// The slice layout.
    pub(crate) layout: SliceLayout,
    /// First effective operand (masked to the layout).
    pub(crate) a: u64,
    /// Second effective operand (masked, inverted for subtraction).
    pub(crate) b: u64,
    /// Architectural carry-in of slice 0.
    pub(crate) cin0: bool,
    /// The exact result, masked to the adder width.
    pub(crate) sum: u64,
    /// Carry out of the most significant slice.
    pub(crate) carry_out: bool,
    /// True boundary carries.
    pub(crate) true_carries: u64,
    /// Slices that carry out with carry-in 0, one bit per slice.
    pub(crate) generate: u64,
    /// Slices that pass their carry-in through, one bit per slice.
    pub(crate) propagate: u64,
    /// Static carry knowledge for these operands.
    pub(crate) peek: PeekOutcome,
}

/// Prepares `a + b` (or `a − b` when `sub`) for [`speculate`]: effective
/// operands, the true carry chain, per-slice generate/propagate and Peek.
#[inline(always)]
pub(crate) fn prepare(layout: SliceLayout, a: u64, b: u64, sub: bool) -> PreparedAdd {
    let (a, b, cin0) = effective_operands(layout, a, b, sub);
    let h = layout.msb_mask();
    let x = a ^ b;
    let (sum, carries) = carry_chain(layout, a, b, cin0);
    let msb_carry_in = (a & !h) + (b & !h);
    PreparedAdd {
        layout,
        a,
        b,
        cin0,
        sum,
        carry_out: carries >> (layout.count() - 1) & 1 != 0,
        true_carries: carries & layout.boundary_mask(),
        generate: layout.gather_msbs(a & b | x & msb_carry_in),
        propagate: layout.gather_msbs(x & ((x & !h) + layout.lsb_mask())),
        peek: peek(layout, a, b),
    }
}

/// Runs one operation through the speculative slice engine.
///
/// * `predictions` — bit `j` is the dynamically speculated carry-in for
///   slice `j + 1` (from the Carry Register File or a baseline predictor).
/// * `peek` — static carry knowledge for these operands; statically known
///   boundaries override the dynamic prediction (they are guaranteed
///   correct) and, under [`RecomputePolicy::CutAtStaticPeek`], they stop
///   the recompute wave.
///
/// The returned [`SliceEval::sum`] is always the exact two's-complement
/// result — speculation affects only latency and energy, never correctness.
/// In debug builds every operation checks that each wrongly predicted
/// boundary falls inside the recompute wave, which is what makes the
/// hardware's carry-select (keep the cycle-1 slice result, or take the
/// cycle-2 one computed with the inverted carry-in) produce that sum.
#[must_use]
pub fn evaluate(
    layout: SliceLayout,
    a: u64,
    b: u64,
    sub: bool,
    predictions: u64,
    peek: PeekOutcome,
    policy: RecomputePolicy,
) -> SliceEval {
    speculate(&prepare(layout, a, b, sub), predictions, peek, policy)
}

/// The per-configuration half of [`evaluate`]: applies the Peek override
/// to `predictions`, then computes the cycle-1 carries, the error mask and
/// the recompute wave of a prepared add.
#[inline(always)]
pub(crate) fn speculate(
    prep: &PreparedAdd,
    predictions: u64,
    peek: PeekOutcome,
    policy: RecomputePolicy,
) -> SliceEval {
    let boundary_mask = prep.layout.boundary_mask();

    // Statically known carries override whatever was speculated.
    let static_mask = peek.static_mask & boundary_mask;
    let predictions =
        ((predictions & !static_mask) | (peek.static_bits & static_mask)) & boundary_mask;

    // --- Cycle 1: every slice computes with its supplied carry-in. -------
    let carry_ins = predictions << 1 | u64::from(prep.cin0);
    let cycle1_carries = (prep.generate | prep.propagate & carry_ins) & boundary_mask;

    // --- Detection: E[j] fires when the prediction for boundary j differs
    // from the neighbour slice's first-cycle carry-out. ------------------
    let error_mask = predictions ^ cycle1_carries;
    let mispredicted = error_mask != 0;

    // --- Recompute wave (cycle 2). ---------------------------------------
    let recompute_mask = match policy {
        RecomputePolicy::PropagateToTop => {
            // Everything at or above the first error is suspect.
            let first = error_mask & error_mask.wrapping_neg();
            boundary_mask & !first.wrapping_sub(1)
        }
        RecomputePolicy::CutAtStaticPeek => {
            // Each error's wave climbs its run of dynamic boundaries.
            let dynamic = boundary_mask & !static_mask;
            let seeds = error_mask & dynamic;
            ((dynamic + seeds) ^ dynamic) & dynamic | seeds
        }
    };

    // Correctness invariant: every boundary whose prediction disagrees with
    // the *true* carry must recompute (statically guaranteed boundaries can
    // never disagree, by the Peek soundness property).
    debug_assert_eq!(
        (predictions ^ prep.true_carries) & !recompute_mask,
        0,
        "a wrongly-predicted slice escaped the recompute wave"
    );

    SliceEval {
        sum: prep.sum,
        carry_out: prep.carry_out,
        true_carries: prep.true_carries,
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

    const L: SliceLayout = SliceLayout::INT64;
    const NO_PEEK: PeekOutcome = PeekOutcome {
        static_mask: 0,
        static_bits: 0,
    };

    #[test]
    fn perfect_prediction_is_single_cycle() {
        let a = 0x0123_4567_89ab_cdefu64;
        let b = 0x1111_2222_3333_4444u64;
        let (_, carries) = carry_chain(L, a, b, false);
        let eval = evaluate(
            L,
            a,
            b,
            false,
            carries,
            NO_PEEK,
            RecomputePolicy::CutAtStaticPeek,
        );
        assert!(!eval.mispredicted);
        assert_eq!(eval.cycles, 1);
        assert_eq!(eval.recomputed_slices(), 0);
        assert_eq!(eval.sum, a.wrapping_add(b));
    }

    #[test]
    fn wrong_prediction_detected_and_corrected() {
        let a = 0x00ff_0000_0000_00ffu64;
        let b = 1u64;
        // Predict all-zero carries; the true carry out of slice 0 is 1.
        let eval = evaluate(L, a, b, false, 0, NO_PEEK, RecomputePolicy::CutAtStaticPeek);
        assert!(eval.mispredicted);
        assert_eq!(eval.cycles, 2);
        assert_eq!(eval.sum, a.wrapping_add(b));
        assert!(eval.error_mask & 1 != 0);
    }

    #[test]
    fn subtraction_correct() {
        for (a, b) in [(100u64, 30u64), (0, 1), (u64::MAX, u64::MAX), (5, 500)] {
            let eval = evaluate(L, a, b, true, 0, NO_PEEK, RecomputePolicy::CutAtStaticPeek);
            assert_eq!(eval.sum, a.wrapping_sub(b), "{a} - {b}");
        }
    }

    #[test]
    fn propagate_to_top_recomputes_everything_above() {
        let a = 0x00ffu64;
        let b = 1u64;
        let eval = evaluate(L, a, b, false, 0, NO_PEEK, RecomputePolicy::PropagateToTop);
        assert!(eval.mispredicted);
        // First error at boundary 0 => all 7 boundaries recompute.
        assert_eq!(eval.recomputed_slices(), 7);
    }

    #[test]
    fn static_peek_cuts_recompute_wave() {
        let a = 0x00ffu64;
        let b = 1u64;
        // With peek, the upper slices are all statically zero (operand bits
        // 0), so only the slice right above the error recomputes.
        let p = peek(L, a, b);
        let eval = evaluate(L, a, b, false, 0, p, RecomputePolicy::CutAtStaticPeek);
        // Boundary 0: a-slice MSb is 1 (0xff), b is 0 -> dynamic, predicted
        // 0, true carry 1 -> error; boundaries 1.. are static-zero/correct.
        assert!(eval.mispredicted);
        assert_eq!(eval.recomputed_slices(), 1);
        assert_eq!(eval.sum, a + b);
    }

    #[test]
    fn static_override_beats_bad_prediction() {
        // Dynamic prediction says "carry everywhere", but every boundary is
        // statically zero: the override makes the op single-cycle.
        let p = peek(L, 0, 0);
        let eval = evaluate(L, 0, 0, false, 0x7f, p, RecomputePolicy::CutAtStaticPeek);
        assert!(!eval.mispredicted);
        assert_eq!(eval.supplied_predictions, 0);
    }

    #[test]
    fn all_static_boundaries_never_recompute() {
        let p = peek(L, 0, 0);
        let eval = evaluate(L, 0, 0, false, 0, p, RecomputePolicy::CutAtStaticPeek);
        assert!(!eval.mispredicted);
        assert_eq!(eval.recompute_mask, 0);
    }

    #[test]
    fn single_slice_layout_never_speculates() {
        let l = SliceLayout::new(8, 1);
        let eval = evaluate(
            l,
            200,
            100,
            false,
            0,
            NO_PEEK,
            RecomputePolicy::CutAtStaticPeek,
        );
        assert!(!eval.mispredicted);
        assert_eq!(eval.sum, 300 & l.value_mask());
    }

    #[test]
    fn exhaustive_small_layout() {
        // Exhaustive over a 3x3-bit layout and prediction masks: the sum is
        // always correct and the recompute invariant holds (debug asserts).
        let l = SliceLayout::new(3, 3);
        let m = l.value_mask();
        for a in (0..512u64).step_by(7) {
            for b in (0..512u64).step_by(11) {
                for pred in 0..4u64 {
                    for sub in [false, true] {
                        let (ae, be, _) = effective_operands(l, a, b, sub);
                        let pk = peek(l, ae, be);
                        for (peeked, policy) in [
                            (pk, RecomputePolicy::CutAtStaticPeek),
                            (NO_PEEK, RecomputePolicy::CutAtStaticPeek),
                            (NO_PEEK, RecomputePolicy::PropagateToTop),
                        ] {
                            let eval = evaluate(l, a, b, sub, pred, peeked, policy);
                            let expect = if sub {
                                a.wrapping_sub(b) & m
                            } else {
                                a.wrapping_add(b) & m
                            };
                            assert_eq!(eval.sum, expect, "a={a} b={b} sub={sub}");
                        }
                    }
                }
            }
        }
    }
}
