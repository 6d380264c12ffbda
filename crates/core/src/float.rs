//! FP32/FP64 mantissa-operand extraction.
//!
//! ST² GPU employs speculative adders inside FPUs and DPUs for *mantissa*
//! operations (24- and 53-bit significand additions after exponent
//! alignment); exponents stay on conventional narrow adders. This module
//! performs the IEEE-754 decomposition an FPU's pre-normalisation stage
//! would, producing the operand pair the mantissa adder actually sees, so
//! that floating-point kernels exercise the speculation machinery with
//! their real bit patterns.

use crate::event::WidthClass;

/// The operands of one mantissa addition, ready for a speculative adder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MantissaOp {
    /// Larger-magnitude significand (hidden bit included).
    pub a: u64,
    /// Smaller-magnitude significand, already alignment-shifted.
    pub b: u64,
    /// Effective operation: true when the signs differ (magnitude
    /// subtraction).
    pub sub: bool,
    /// Datapath class ([`WidthClass::Mant24`] or [`WidthClass::Mant53`]).
    pub(crate) width: WidthClass,
}

/// Whether the FP32 addition `x + y` reaches the mantissa adder: the
/// FPU's special-case path skips it entirely for NaN/∞ inputs. This is
/// exactly when [`f32_add_operands`] returns `Some`.
#[must_use]
pub fn f32_add_reaches_adder(x: f32, y: f32) -> bool {
    x.is_finite() && y.is_finite()
}

/// Whether the FP64 addition `x + y` reaches the mantissa adder; exactly
/// when [`f64_add_operands`] returns `Some`.
#[must_use]
pub fn f64_add_reaches_adder(x: f64, y: f64) -> bool {
    x.is_finite() && y.is_finite()
}

/// Extracts the mantissa-adder operands of `x + y` for FP32.
///
/// Returns `None` for non-finite inputs (the FPU's special-case path skips
/// the mantissa adder entirely for NaN/∞).
#[must_use]
pub fn f32_add_operands(x: f32, y: f32) -> Option<MantissaOp> {
    if !f32_add_reaches_adder(x, y) {
        return None;
    }
    let (ea, sa, signa) = decompose32(x);
    let (eb, sb, signb) = decompose32(y);
    Some(align(ea, sa, signa, eb, sb, signb, 24, WidthClass::Mant24))
}

/// Extracts the mantissa-adder operands of `x + y` for FP64.
///
/// Returns `None` for non-finite inputs.
#[must_use]
pub fn f64_add_operands(x: f64, y: f64) -> Option<MantissaOp> {
    if !f64_add_reaches_adder(x, y) {
        return None;
    }
    let (ea, sa, signa) = decompose64(x);
    let (eb, sb, signb) = decompose64(y);
    Some(align(ea, sa, signa, eb, sb, signb, 53, WidthClass::Mant53))
}

/// Extracts the accumulate-stage operands of an FP32 FMA `x·y + z`.
///
/// The FMA's accumulator adds the (wider) product significand to the
/// aligned addend; we model the operand stream with the rounded product,
/// which preserves the magnitude/alignment behaviour that drives carry
/// correlation.
#[must_use]
pub fn f32_fma_operands(x: f32, y: f32, z: f32) -> Option<MantissaOp> {
    f32_add_operands(x * y, z)
}

/// Extracts the accumulate-stage operands of an FP64 FMA `x·y + z`.
#[must_use]
pub fn f64_fma_operands(x: f64, y: f64, z: f64) -> Option<MantissaOp> {
    f64_add_operands(x * y, z)
}

/// (biased exponent, significand with hidden bit, sign)
fn decompose32(v: f32) -> (i32, u64, bool) {
    let bits = v.to_bits();
    let exp = (bits >> 23 & 0xff) as i32;
    let frac = u64::from(bits & 0x7f_ffff);
    let sig = if exp == 0 { frac } else { frac | 0x80_0000 };
    let eff_exp = if exp == 0 { 1 } else { exp };
    (eff_exp, sig, bits >> 31 != 0)
}

fn decompose64(v: f64) -> (i32, u64, bool) {
    let bits = v.to_bits();
    let exp = (bits >> 52 & 0x7ff) as i32;
    let frac = bits & 0xf_ffff_ffff_ffff;
    let sig = if exp == 0 { frac } else { frac | 1 << 52 };
    let eff_exp = if exp == 0 { 1 } else { exp };
    (eff_exp, sig, bits >> 63 != 0)
}

#[allow(clippy::too_many_arguments)]
fn align(
    ea: i32,
    sa: u64,
    signa: bool,
    eb: i32,
    sb: u64,
    signb: bool,
    width: u32,
    class: WidthClass,
) -> MantissaOp {
    // Larger magnitude (by exponent, then significand) goes first; the FPU
    // swaps so the adder's result is non-negative.
    let ((e_big, s_big), (e_small, s_small)) = if (ea, sa) >= (eb, sb) {
        ((ea, sa), (eb, sb))
    } else {
        ((eb, sb), (ea, sa))
    };
    let shift = (e_big - e_small) as u32;
    let aligned_small = if shift >= width { 0 } else { s_small >> shift };
    MantissaOp {
        a: s_big,
        b: aligned_small,
        sub: signa != signb,
        width: class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::SliceLayout;

    #[test]
    fn equal_exponents_add_significands() {
        let op = f32_add_operands(1.5, 1.25).expect("finite");
        // 1.5 = 1.1000.. (sig 0xC00000), 1.25 = 1.0100.. (sig 0xA00000).
        assert_eq!(op.a, 0xC0_0000);
        assert_eq!(op.b, 0xA0_0000);
        assert!(!op.sub);
        assert_eq!(op.width, WidthClass::Mant24);
    }

    #[test]
    fn alignment_shifts_smaller_operand() {
        let op = f32_add_operands(4.0, 0.5).expect("finite");
        // exp diff is 3: 0.5's significand shifted right by 3.
        assert_eq!(op.a, 0x80_0000);
        assert_eq!(op.b, 0x80_0000 >> 3);
    }

    #[test]
    fn opposite_signs_are_effective_subtraction() {
        let op = f32_add_operands(3.0, -1.0).expect("finite");
        assert!(op.sub);
        // Larger magnitude first regardless of argument order:
        let op2 = f32_add_operands(-1.0, 3.0).expect("finite");
        assert_eq!(op.a, op2.a);
        assert_eq!(op.b, op2.b);
    }

    #[test]
    fn huge_exponent_gap_zeroes_small_operand() {
        let op = f32_add_operands(1.0e30, 1.0).expect("finite");
        assert_eq!(op.b, 0);
    }

    #[test]
    fn non_finite_skips_mantissa_adder() {
        assert!(!f32_add_reaches_adder(1.0, f32::NAN));
        assert!(!f64_add_reaches_adder(f64::INFINITY, 1.0));
        assert!(f32_add_reaches_adder(f32::MIN_POSITIVE / 2.0, -0.0));
        assert!(f32_add_operands(f32::NAN, 1.0).is_none());
        assert!(f32_add_operands(1.0, f32::INFINITY).is_none());
        assert!(f64_add_operands(f64::NEG_INFINITY, 0.0).is_none());
    }

    #[test]
    fn f64_significand_width() {
        let op = f64_add_operands(1.0, 1.0).expect("finite");
        assert_eq!(op.a, 1 << 52);
        assert_eq!(op.width, WidthClass::Mant53);
        // Operands fit the MANT53 layout.
        assert!(op.a <= SliceLayout::MANT53.value_mask());
    }

    #[test]
    fn subnormals_have_no_hidden_bit() {
        let tiny = f32::from_bits(0x0000_0001); // smallest subnormal
        let op = f32_add_operands(tiny, tiny).expect("finite");
        assert_eq!(op.a, 1);
        assert_eq!(op.b, 1);
    }

    #[test]
    fn fma_uses_product_magnitude() {
        let op = f32_fma_operands(2.0, 3.0, 1.0).expect("finite");
        let direct = f32_add_operands(6.0, 1.0).expect("finite");
        assert_eq!(op, direct);
    }
}
