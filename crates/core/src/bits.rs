//! Slice layouts and carry-chain arithmetic shared by every adder model.
//!
//! Everything here is word-parallel: a layout is described to the
//! arithmetic by two masks, `L` (`SliceLayout::lsb_mask`, every slice's
//! least significant bit) and `H` (`SliceLayout::msb_mask`, every slice's
//! most significant bit), and per-slice facts are computed for all slices
//! at once in one `u64` and then compacted, one bit per slice, by
//! `SliceLayout::gather_msbs`. See the [`slice`](crate::slice) module
//! docs for how the slice engine uses them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// `LSB_PATTERNS[w]` has bit `i·w` set for every `i·w < 64`: the slice-LSB
/// mask of width-`w` slices before it is cut to a layout's total width.
const LSB_PATTERNS: [u64; 65] = lsb_patterns();

const fn lsb_patterns() -> [u64; 65] {
    let mut table = [0u64; 65];
    let mut w = 1;
    while w <= 64 {
        let mut bit = 0;
        while bit < 64 {
            table[w] |= 1 << bit;
            bit += w;
        }
        w += 1;
    }
    table
}

/// How a wide adder is decomposed into equal-width slices.
///
/// The paper's design point is 8-bit slices (identified as the best
/// energy/delay trade-off by the circuit design-space exploration in §V-B).
/// A 64-bit integer adder is 8 × 8-bit slices, an FP32 mantissa adder is
/// 3 × 8-bit slices and an FP64 mantissa adder is 7 × 8-bit slices.
///
/// ```
/// use st2_core::SliceLayout;
/// let l = SliceLayout::INT64;
/// assert_eq!(l.total_bits(), 64);
/// assert_eq!(l.count(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SliceLayout {
    width: u8,
    count: u8,
}

impl SliceLayout {
    /// 64-bit integer adder as 8 × 8-bit slices (the paper's general case).
    pub const INT64: SliceLayout = SliceLayout { width: 8, count: 8 };
    /// 32-bit integer adder as 4 × 8-bit slices (TITAN V's native ALU width).
    pub const INT32: SliceLayout = SliceLayout { width: 8, count: 4 };
    /// FP32 mantissa adder: 24-bit significand as 3 × 8-bit slices.
    pub const MANT24: SliceLayout = SliceLayout { width: 8, count: 3 };
    /// FP64 mantissa adder: 53-bit significand padded into 7 × 8-bit slices.
    pub const MANT53: SliceLayout = SliceLayout { width: 8, count: 7 };

    /// Creates a layout of `count` slices of `width` bits each.
    ///
    /// # Panics
    ///
    /// Panics if the layout is empty or wider than 64 bits, or if `width`
    /// is zero.
    #[must_use]
    pub fn new(width: u8, count: u8) -> Self {
        assert!(width > 0, "slice width must be non-zero");
        assert!(count > 0, "slice count must be non-zero");
        assert!(
            (width as u32) * (count as u32) <= 64,
            "layout exceeds 64 bits"
        );
        SliceLayout { width, count }
    }

    /// Bits per slice.
    #[must_use]
    pub(crate) fn width(self) -> u8 {
        self.width
    }

    /// Number of slices.
    #[must_use]
    pub fn count(self) -> u8 {
        self.count
    }

    /// Total adder width in bits.
    #[must_use]
    #[inline]
    pub fn total_bits(self) -> u32 {
        u32::from(self.width) * u32::from(self.count)
    }

    /// Number of inter-slice carry boundaries (`count - 1`).
    ///
    /// This is the number of carry-ins that must be speculated: slice 0
    /// receives the architectural carry-in, never a prediction.
    #[must_use]
    #[inline]
    pub(crate) fn boundaries(self) -> u8 {
        self.count - 1
    }

    /// Mask selecting the adder's `total_bits` low bits.
    #[must_use]
    #[inline]
    pub fn value_mask(self) -> u64 {
        mask(self.total_bits())
    }

    /// Mask selecting one slice's bits (before shifting into position).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn slice_mask(self) -> u64 {
        mask(u32::from(self.width))
    }

    /// Extracts slice `i`'s bits of `value`, right-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count`.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn slice_of(self, value: u64, i: u8) -> u64 {
        assert!(i < self.count, "slice index out of range");
        (value >> (u32::from(i) * u32::from(self.width))) & self.slice_mask()
    }

    /// Bit position of the most significant bit of slice `i`.
    #[must_use]
    pub(crate) fn msb_of_slice(self, i: u8) -> u32 {
        assert!(i < self.count, "slice index out of range");
        (u32::from(i) + 1) * u32::from(self.width) - 1
    }

    /// Mask selecting the `boundaries()` low bits of a compact
    /// boundary-carry vector.
    #[must_use]
    #[inline]
    pub(crate) fn boundary_mask(self) -> u64 {
        mask(u32::from(self.boundaries()))
    }

    /// `L`: the least significant bit of every slice.
    #[must_use]
    #[inline]
    pub(crate) fn lsb_mask(self) -> u64 {
        LSB_PATTERNS[usize::from(self.width)] & self.value_mask()
    }

    /// `H`: the most significant bit of every slice.
    #[must_use]
    #[inline]
    pub(crate) fn msb_mask(self) -> u64 {
        self.lsb_mask() << (self.width - 1)
    }

    /// Compacts the slice-MSB bits of `v` into one bit per slice: bit `i`
    /// of the result is bit [`msb_of_slice(i)`](Self::msb_of_slice) of
    /// `v`. Other bits of `v` are ignored.
    #[must_use]
    #[inline]
    pub(crate) fn gather_msbs(self, v: u64) -> u64 {
        let h = v & self.msb_mask();
        match self.width {
            // Slice i's MSB, shifted down to bit 8i, is copied by the
            // multiply to bit 8i + 7j + 7 for every j < 8; j = 7 − i lands
            // it on bit 56 + i. No two (i, j) pairs share a bit, so the
            // partial products never carry into each other.
            8 => (h >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56,
            1 => h,
            w => {
                let w = u32::from(w);
                (0..u32::from(self.count)).fold(0, |out, i| out | (h >> ((i + 1) * w - 1) & 1) << i)
            }
        }
    }
}

impl Default for SliceLayout {
    fn default() -> Self {
        SliceLayout::INT64
    }
}

impl fmt::Display for SliceLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}b", self.count, self.width)
    }
}

/// Mask with the low `bits` bits set (`bits <= 64`).
#[must_use]
#[inline]
pub(crate) fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The true carry chain of `a + b + cin0` under `layout`.
///
/// Returns `(sum, carries)` where `carries` bit `i` (for `i` in
/// `0..count`) is the **carry-out of slice i** — equivalently the true
/// carry-in of slice `i + 1`. The final carry-out of the whole adder is
/// bit `count - 1`.
///
/// One wide add does the work: bit `k` of `a ^ b ^ (a + b + cin0)` is the
/// carry into bit `k`, and slice `i`'s carry-out is the carry into the bit
/// just above its MSB.
#[must_use]
#[inline]
pub fn carry_chain(layout: SliceLayout, a: u64, b: u64, cin0: bool) -> (u64, u64) {
    let wide = u128::from(a) + u128::from(b) + u128::from(cin0);
    let carry_in = wide ^ u128::from(a ^ b);
    let carries = layout.gather_msbs((carry_in >> 1) as u64);
    (wide as u64 & layout.value_mask(), carries)
}

/// Effective operands of an add/sub as seen by the adder hardware.
///
/// Subtraction is performed as `a + !b + 1`, so the second operand is
/// bitwise-inverted (within the adder width) and the architectural carry-in
/// of slice 0 becomes 1.
#[must_use]
#[inline]
pub fn effective_operands(layout: SliceLayout, a: u64, b: u64, sub: bool) -> (u64, u64, bool) {
    let m = layout.value_mask();
    if sub {
        (a & m, !b & m, true)
    } else {
        (a & m, b & m, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_constants() {
        assert_eq!(SliceLayout::INT64.total_bits(), 64);
        assert_eq!(SliceLayout::INT32.total_bits(), 32);
        assert_eq!(SliceLayout::MANT24.total_bits(), 24);
        assert_eq!(SliceLayout::MANT53.total_bits(), 56);
        assert_eq!(SliceLayout::INT64.boundaries(), 7);
        assert_eq!(SliceLayout::MANT24.boundaries(), 2);
    }

    #[test]
    fn slice_extraction() {
        let l = SliceLayout::INT64;
        let v = 0x1122_3344_5566_7788u64;
        assert_eq!(l.slice_of(v, 0), 0x88);
        assert_eq!(l.slice_of(v, 7), 0x11);
        assert_eq!(l.msb_of_slice(0), 7);
        assert_eq!(l.msb_of_slice(7), 63);
    }

    #[test]
    #[should_panic(expected = "slice index out of range")]
    fn slice_extraction_out_of_range() {
        let _ = SliceLayout::MANT24.slice_of(0, 3);
    }

    #[test]
    fn carry_chain_matches_wide_add() {
        let l = SliceLayout::INT64;
        let cases = [
            (0u64, 0u64, false),
            (u64::MAX, 1, false),
            (0x00FF_00FF_00FF_00FF, 0x0001_0001_0001_0001, false),
            (0x8000_0000_0000_0000, 0x8000_0000_0000_0000, false),
            (12345, 99999, true),
        ];
        for (a, b, cin) in cases {
            let (sum, carries) = carry_chain(l, a, b, cin);
            let wide = (a as u128) + (b as u128) + u128::from(cin);
            assert_eq!(sum, wide as u64, "sum mismatch for {a:#x}+{b:#x}+{cin}");
            assert_eq!(
                carries >> 7 & 1,
                (wide >> 64) as u64 & 1,
                "final carry mismatch"
            );
        }
    }

    #[test]
    fn carry_chain_boundary_bits() {
        // 0x00FF + 0x0001 carries out of slice 0 only.
        let l = SliceLayout::new(8, 2);
        let (sum, carries) = carry_chain(l, 0x00FF, 0x0001, false);
        assert_eq!(sum, 0x0100);
        assert_eq!(carries, 0b01);
    }

    #[test]
    fn effective_operands_sub() {
        let l = SliceLayout::INT32;
        let (a, b, cin) = effective_operands(l, 10, 3, true);
        let (sum, _) = carry_chain(l, a, b, cin);
        assert_eq!(sum, 7);
    }

    #[test]
    fn mask_edges() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(1), 1);
        assert_eq!(mask(64), u64::MAX);
    }
}
