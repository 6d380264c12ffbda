//! Portable add-event records.
//!
//! The GPU simulator (or any other trace source) emits one [`AddRecord`] per
//! dynamic add/subtract that reaches an ALU/FPU/DPU adder. The design-space
//! exploration ([`crate::dse`]) and the correlation analysis of the paper's
//! Fig. 3 replay such streams through candidate speculation mechanisms.

use crate::bits::SliceLayout;
use serde::{Deserialize, Serialize};

/// Identity of a dynamic operation as seen by the speculation hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct OpContext {
    /// Program counter (instruction index) of the add.
    pub pc: u32,
    /// GPU-wide global thread id.
    pub gtid: u32,
    /// Warp-local lane id, 0‥31.
    pub ltid: u32,
}

/// Which adder datapath an operation uses, determining the slice layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WidthClass {
    /// Integer add/sub, analysed at the paper's general 64-bit width
    /// (32-bit operands are sign-extended, as in the paper's Fig. 3 study).
    Int64,
    /// FP32 mantissa addition (24-bit significand, 3 slices).
    Mant24,
    /// FP64 mantissa addition (53-bit significand, 7 slices).
    Mant53,
}

impl WidthClass {
    /// The slice layout used by this datapath.
    #[must_use]
    pub fn layout(self) -> SliceLayout {
        match self {
            WidthClass::Int64 => SliceLayout::INT64,
            WidthClass::Mant24 => SliceLayout::MANT24,
            WidthClass::Mant53 => SliceLayout::MANT53,
        }
    }
}

/// One dynamic addition as it reached an adder, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddRecord {
    /// Operation identity (PC and thread ids).
    pub ctx: OpContext,
    /// First operand (raw adder input, already sign-extended for Int64).
    pub a: u64,
    /// Second operand, *before* the subtraction inversion.
    pub b: u64,
    /// Whether this is a subtraction (`a - b`).
    pub sub: bool,
    /// Datapath / slice layout class.
    pub width: WidthClass,
}

impl AddRecord {
    /// Convenience constructor for a 64-bit integer add event.
    #[must_use]
    pub fn int64(pc: u32, gtid: u32, ltid: u32, a: i64, b: i64, sub: bool) -> Self {
        AddRecord {
            ctx: OpContext { pc, gtid, ltid },
            a: a as u64,
            b: b as u64,
            sub,
            width: WidthClass::Int64,
        }
    }
}

/// One lane's adder inputs within a warp instruction: what a simulator
/// hands [`crate::adder::execute_warp_op`] for each lane that reached an
/// adder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAdd {
    /// Warp-local lane id, 0‥31.
    pub lane: u32,
    /// Global thread id.
    pub gtid: u64,
    /// First effective operand.
    pub a: u64,
    /// Second operand (pre-inversion).
    pub b: u64,
    /// Subtraction flag.
    pub sub: bool,
}

impl LaneAdd {
    /// The identity of this lane's add in the instruction at `pc`.
    #[must_use]
    pub fn ctx(&self, pc: u32) -> OpContext {
        OpContext {
            pc,
            gtid: self.gtid as u32,
            ltid: self.lane,
        }
    }

    /// This lane's add as a portable [`AddRecord`], issued by the
    /// instruction at `pc` on a `width` datapath.
    #[must_use]
    pub fn record(&self, pc: u32, width: WidthClass) -> AddRecord {
        AddRecord {
            ctx: self.ctx(pc),
            a: self.a,
            b: self.b,
            sub: self.sub,
            width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_layouts() {
        assert_eq!(WidthClass::Int64.layout().count(), 8);
        assert_eq!(WidthClass::Mant24.layout().count(), 3);
        assert_eq!(WidthClass::Mant53.layout().count(), 7);
    }

    #[test]
    fn int64_constructor_sign_extends() {
        let r = AddRecord::int64(1, 2, 2, -1, 5, false);
        assert_eq!(r.a, u64::MAX);
        assert_eq!(r.b, 5);
        assert_eq!(r.ctx.ltid, 2);
    }
}
