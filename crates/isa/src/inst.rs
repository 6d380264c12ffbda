//! Instruction definitions and classification.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A per-thread register (64-bit raw storage; instructions give it
/// integer, f32 or f64 meaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A register or immediate source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Operand {
    /// Read a register.
    Reg(Reg),
    /// A 64-bit immediate (raw bits; float instructions reinterpret).
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl Operand {
    /// An f32 immediate (stored as raw bits).
    #[must_use]
    pub fn f32(v: f32) -> Operand {
        Operand::Imm(i64::from(v.to_bits()))
    }

    /// An f64 immediate (stored as raw bits).
    #[must_use]
    pub fn f64(v: f64) -> Operand {
        Operand::Imm(v.to_bits() as i64)
    }
}

/// Integer ALU operations (64-bit two's complement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntOp {
    /// `d = a + b` — uses the ALU adder.
    Add,
    /// `d = a - b` — uses the ALU adder.
    Sub,
    /// `d = a * b` (separate multiplier unit).
    Mul,
    /// `d = a / b` (0 when `b == 0`, matching GPU saturating semantics we
    /// adopt for robustness).
    Div,
    /// `d = a % b` (0 when `b == 0`).
    Rem,
    /// `d = min(a, b)` — the comparison subtracts, so it uses the adder.
    Min,
    /// `d = max(a, b)` — uses the adder.
    Max,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (`b & 63`).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sra,
    /// `d = (a < b) as i64` — subtract-compare, uses the adder.
    SetLt,
    /// `d = (a <= b) as i64` — uses the adder.
    SetLe,
    /// `d = (a == b) as i64` — uses the adder.
    SetEq,
    /// `d = (a != b) as i64` — uses the adder.
    SetNe,
}

impl IntOp {
    /// Whether the operation exercises the ALU adder datapath (add, sub,
    /// and the subtract-based comparisons — the paper's Fig. 2 marks
    /// `MIN` operations as additions for exactly this reason).
    #[must_use]
    pub fn uses_adder(self) -> bool {
        matches!(
            self,
            IntOp::Add
                | IntOp::Sub
                | IntOp::Min
                | IntOp::Max
                | IntOp::SetLt
                | IntOp::SetLe
                | IntOp::SetEq
                | IntOp::SetNe
        )
    }

    /// Whether the adder performs a subtraction for this operation.
    #[must_use]
    pub fn is_subtract(self) -> bool {
        self.uses_adder() && self != IntOp::Add
    }
}

/// Floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FloatOp {
    /// `d = a + b` — mantissa adder.
    Add,
    /// `d = a - b` — mantissa adder.
    Sub,
    /// `d = a * b` (multiplier).
    Mul,
    /// `d = a / b` (iterative; modelled as its own power class).
    Div,
    /// `d = min(a, b)`.
    Min,
    /// `d = max(a, b)`.
    Max,
    /// `d = (a < b) as i64`.
    SetLt,
    /// `d = (a <= b) as i64`.
    SetLe,
    /// `d = (a == b) as i64`.
    SetEq,
}

/// Floating-point width selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FloatWidth {
    /// IEEE binary32 (FPU).
    F32,
    /// IEEE binary64 (DPU).
    F64,
}

/// Special-function-unit operations (f32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SfuOp {
    /// Square root.
    Sqrt,
    /// Base-e exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Reciprocal.
    Rcp,
    /// Reciprocal square root.
    Rsqrt,
}

/// Numeric types for conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NumType {
    /// 64-bit signed integer.
    I64,
    /// IEEE binary32.
    F32,
    /// IEEE binary64.
    F64,
}

/// Memory spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Space {
    /// Device global memory.
    Global,
    /// Per-block shared memory.
    Shared,
}

/// Access widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemWidth {
    /// 4 bytes.
    W4,
    /// 8 bytes.
    W8,
}

impl MemWidth {}

/// Branch condition: taken when the register is non-zero (or zero, when
/// `if_nonzero` is false).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchCond {
    /// The predicate register.
    pub reg: Reg,
    /// Branch when the register is non-zero (else when zero).
    pub if_nonzero: bool,
}

/// Special per-thread values readable by kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Special {
    /// Thread index within the block.
    Tid,
    /// Block index within the grid.
    CtaId,
    /// Threads per block.
    NTid,
    /// Blocks in the grid.
    NCta,
    /// Lane id within the warp (0‥31).
    LaneId,
    /// Warp id within the block.
    WarpId,
    /// Global thread id (`CtaId * NTid + Tid`).
    GlobalTid,
}

/// One instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Inst {
    /// Integer ALU operation.
    Int {
        /// Operation.
        op: IntOp,
        /// Destination.
        d: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// Floating-point operation.
    Float {
        /// Operation.
        op: FloatOp,
        /// Width (FPU or DPU).
        w: FloatWidth,
        /// Destination.
        d: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// Fused multiply-add `d = a·b + c`.
    Fma {
        /// Width (FPU or DPU).
        w: FloatWidth,
        /// Destination.
        d: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// Special-function operation (f32).
    Sfu {
        /// Operation.
        op: SfuOp,
        /// Destination.
        d: Reg,
        /// Source.
        a: Operand,
    },
    /// Numeric conversion.
    Cvt {
        /// Destination.
        d: Reg,
        /// Source.
        a: Operand,
        /// Source type.
        from: NumType,
        /// Destination type.
        to: NumType,
    },
    /// Load `d = [space][addr + offset]`.
    Ld {
        /// Destination.
        d: Reg,
        /// Address register (byte address).
        addr: Reg,
        /// Byte offset.
        offset: i64,
        /// Memory space.
        space: Space,
        /// Access width.
        width: MemWidth,
    },
    /// Store `[space][addr + offset] = v`.
    St {
        /// Value source.
        v: Operand,
        /// Address register (byte address).
        addr: Reg,
        /// Byte offset.
        offset: i64,
        /// Memory space.
        space: Space,
        /// Access width.
        width: MemWidth,
    },
    /// Branch (conditional or unconditional) with an explicit SIMT
    /// reconvergence point for divergence handling.
    Bra {
        /// `None` = unconditional.
        cond: Option<BranchCond>,
        /// Target PC.
        target: u32,
        /// Immediate-post-dominator PC where diverged threads reconverge.
        reconv: u32,
    },
    /// Block-wide barrier (`__syncthreads`).
    Bar,
    /// Thread exit.
    Exit,
    /// Register move / immediate load.
    Mov {
        /// Destination.
        d: Reg,
        /// Source.
        a: Operand,
    },
    /// Read a special value.
    Special {
        /// Destination.
        d: Reg,
        /// Which special.
        s: Special,
    },
}

/// Instruction classes for the dynamic-mix (Fig. 1) and power accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstClass {
    /// Integer add/sub on the ALU adder.
    AluAdd,
    /// Other simple ALU work (logic, shifts, min/max, compares, selects).
    AluOther,
    /// FP32/FP64 add/sub on the FPU/DPU mantissa adder.
    FpuAdd,
    /// Other FPU/DPU work (FMA, min/max, compares).
    FpuOther,
    /// Integer multiply/divide (separate units).
    IntMulDiv,
    /// FP multiply/divide (separate units).
    FpMulDiv,
    /// Special function unit.
    Sfu,
    /// Loads and stores.
    Mem,
    /// Branches, barriers, exits.
    Control,
    /// Moves, specials, conversions.
    Other,
}

impl Inst {
    /// The instruction's class.
    #[must_use]
    pub fn class(&self) -> InstClass {
        match self {
            Inst::Int { op, .. } => match op {
                IntOp::Add | IntOp::Sub => InstClass::AluAdd,
                IntOp::Mul | IntOp::Div | IntOp::Rem => InstClass::IntMulDiv,
                _ => InstClass::AluOther,
            },
            Inst::Float { op, .. } => match op {
                FloatOp::Add | FloatOp::Sub => InstClass::FpuAdd,
                FloatOp::Mul | FloatOp::Div => InstClass::FpMulDiv,
                _ => InstClass::FpuOther,
            },
            Inst::Fma { .. } => InstClass::FpuOther,
            Inst::Sfu { .. } => InstClass::Sfu,
            Inst::Cvt { .. } => InstClass::Other,
            Inst::Ld { .. } | Inst::St { .. } => InstClass::Mem,
            Inst::Bra { .. } | Inst::Bar | Inst::Exit => InstClass::Control,
            Inst::Mov { .. } | Inst::Special { .. } => InstClass::Other,
        }
    }
}

/// All [`InstClass`] values, for iteration in reports.
#[must_use]
pub fn all_classes() -> [InstClass; 10] {
    [
        InstClass::AluAdd,
        InstClass::AluOther,
        InstClass::FpuAdd,
        InstClass::FpuOther,
        InstClass::IntMulDiv,
        InstClass::FpMulDiv,
        InstClass::Sfu,
        InstClass::Mem,
        InstClass::Control,
        InstClass::Other,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes() {
        let add = Inst::Int {
            op: IntOp::Add,
            d: Reg(0),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        };
        assert_eq!(add.class(), InstClass::AluAdd);
        assert!(IntOp::Add.uses_adder());

        let min = Inst::Int {
            op: IntOp::Min,
            d: Reg(0),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        };
        assert_eq!(min.class(), InstClass::AluOther);
        assert!(IntOp::Min.uses_adder(), "MIN compares by subtracting");

        let fma = Inst::Fma {
            w: FloatWidth::F32,
            d: Reg(0),
            a: Operand::f32(1.0),
            b: Operand::f32(2.0),
            c: Operand::f32(3.0),
        };
        assert_eq!(fma.class(), InstClass::FpuOther);

        let mul = Inst::Int {
            op: IntOp::Mul,
            d: Reg(0),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        };
        assert_eq!(mul.class(), InstClass::IntMulDiv);
        assert!(!IntOp::Mul.uses_adder());
    }

    #[test]
    fn float_immediates_round_trip() {
        if let Operand::Imm(raw) = Operand::f32(1.5) {
            assert_eq!(f32::from_bits(raw as u32), 1.5);
        } else {
            panic!("expected immediate");
        }
        if let Operand::Imm(raw) = Operand::f64(-2.25) {
            assert_eq!(f64::from_bits(raw as u64), -2.25);
        } else {
            panic!("expected immediate");
        }
    }

    #[test]
    fn subtract_flags() {
        assert!(IntOp::SetLt.is_subtract());
        assert!(IntOp::Sub.is_subtract());
        assert!(!IntOp::Add.is_subtract());
        assert!(!IntOp::Xor.is_subtract());
        assert!(!IntOp::Xor.uses_adder());
    }
}
