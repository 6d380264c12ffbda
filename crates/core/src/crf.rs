//! The Carry Register File (CRF) — the hardware realisation of the
//! `Ltid+Prev+ModPC4` history table (paper Fig. 4, §IV-C).
//!
//! Each SM holds one CRF structured as a 16 × 224-bit register file:
//! `PC[3:0]` selects a row, and each row holds 7 carry-prediction bits for
//! each of the warp's 32 lanes. The CRF is read alongside the operands in
//! the register-read stage and written back (only by mispredicting threads)
//! in the write-back stage. Lanes of *different warps* map to the same bits
//! — that is exactly the shared-thread mechanism that lets threads
//! "prefetch" correct carries for each other.
//!
//! The timed simulator speculates through one CRF per SM with
//! [`crate::adder::execute_st2_warp_op`]; the port accesses are counted
//! by its caller.

use serde::{Deserialize, Serialize};

/// Rows in the CRF (2⁴ — indexed by `PC[3:0]`).
pub const CRF_ROWS: usize = 16;
/// Lanes per row (warp width).
pub const CRF_LANES: usize = 32;
/// Carry-prediction bits per lane (boundaries of an 8-slice adder).
pub(crate) const CRF_BITS_PER_LANE: usize = 7;

/// Per-SM Carry Register File.
///
/// ```
/// use st2_core::CarryRegisterFile;
/// let mut crf = CarryRegisterFile::new();
/// crf.row_mut(0x23)[5] = 0b0000101;
/// // PC 0x23 and PC 0x13 share row 3:
/// assert_eq!(crf.row(0x13)[5], 0b0000101);
/// assert_eq!(crf.row(0x13)[6], 0);
/// assert_eq!(CarryRegisterFile::BYTES, 448);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CarryRegisterFile {
    rows: [[u8; CRF_LANES]; CRF_ROWS],
}

impl CarryRegisterFile {
    /// Total storage: 16 rows × 224 bits = 448 bytes per SM (the quantity
    /// behind the paper's 35 kB whole-chip figure for 80 SMs).
    pub const BYTES: usize = CRF_ROWS * CRF_LANES * CRF_BITS_PER_LANE / 8;

    /// Creates a zero-initialised CRF (cold predictions are "no carry").
    #[must_use]
    pub fn new() -> Self {
        CarryRegisterFile {
            rows: [[0; CRF_LANES]; CRF_ROWS],
        }
    }

    /// The row selected by a PC (`PC[3:0]`).
    #[must_use]
    pub fn row_of(pc: u32) -> usize {
        (pc & 0xF) as usize
    }

    /// The row for `pc`: each lane's carry-prediction bits.
    #[must_use]
    pub fn row(&self, pc: u32) -> &[u8; CRF_LANES] {
        &self.rows[Self::row_of(pc)]
    }

    /// The row for `pc`, for a warp instruction to read and update in
    /// place.
    pub fn row_mut(&mut self, pc: u32) -> &mut [u8; CRF_LANES] {
        &mut self.rows[Self::row_of(pc)]
    }
}

impl Default for CarryRegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_matches_paper() {
        assert_eq!(CarryRegisterFile::BYTES, 448);
    }

    #[test]
    fn rows_alias_by_low_pc_bits() {
        assert_eq!(CarryRegisterFile::row_of(0x10), 0);
        assert_eq!(CarryRegisterFile::row_of(0x1f), 15);
        assert_eq!(CarryRegisterFile::row_of(0x123), 3);
    }
}
