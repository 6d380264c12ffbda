//! Kernel programs and launch configurations.

use crate::inst::Inst;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A validated sequence of instructions; the PC is the instruction index
/// (this is also what the Carry Register File indexes with `PC[3:0]`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Program {
    name: String,
    insts: Vec<Inst>,
    num_regs: u16,
    shared_bytes: u64,
}

/// Program validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateProgramError {
    /// A branch target or reconvergence PC lies outside the program.
    BranchOutOfRange {
        /// PC of the offending branch.
        pc: u32,
        /// The bad target.
        target: u32,
    },
    /// An instruction references a register past `num_regs`.
    RegisterOutOfRange {
        /// PC of the offending instruction.
        pc: u32,
        /// The bad register index.
        reg: u16,
    },
}

impl fmt::Display for ValidateProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateProgramError::BranchOutOfRange { pc, target } => {
                write!(f, "branch at pc {pc} targets out-of-range pc {target}")
            }
            ValidateProgramError::RegisterOutOfRange { pc, reg } => {
                write!(
                    f,
                    "instruction at pc {pc} references register r{reg} out of range"
                )
            }
        }
    }
}

impl std::error::Error for ValidateProgramError {}

impl Program {
    /// Assembles a program (normally via [`crate::KernelBuilder`]).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        insts: Vec<Inst>,
        num_regs: u16,
        shared_bytes: u64,
    ) -> Self {
        Program {
            name: name.into(),
            insts,
            num_regs,
            shared_bytes,
        }
    }

    /// Kernel name.
    #[must_use]
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The instructions.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The instruction at `pc`, if in range.
    #[must_use]
    pub fn fetch(&self, pc: u32) -> Option<&Inst> {
        self.insts.get(pc as usize)
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Whether the program has no instructions.
    // Public beside the public `len`, as `clippy::len_without_is_empty` asks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Registers per thread.
    #[must_use]
    pub fn num_regs(&self) -> u16 {
        self.num_regs
    }

    /// Shared-memory bytes per block.
    #[must_use]
    pub fn shared_bytes(&self) -> u64 {
        self.shared_bytes
    }

    /// Structural validation: branch targets in range, registers within
    /// the declared register count.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateProgramError`] found.
    pub fn validate(&self) -> Result<(), ValidateProgramError> {
        use crate::inst::Operand;
        let len = self.len();
        let check_reg = |pc: u32, r: crate::inst::Reg| {
            if r.0 >= self.num_regs {
                Err(ValidateProgramError::RegisterOutOfRange { pc, reg: r.0 })
            } else {
                Ok(())
            }
        };
        let check_op = |pc: u32, o: Operand| match o {
            Operand::Reg(r) => check_reg(pc, r),
            Operand::Imm(_) => Ok(()),
        };
        for (i, inst) in self.insts.iter().enumerate() {
            let pc = i as u32;
            match *inst {
                Inst::Int { d, a, b, .. } | Inst::Float { d, a, b, .. } => {
                    check_reg(pc, d)?;
                    check_op(pc, a)?;
                    check_op(pc, b)?;
                }
                Inst::Fma { d, a, b, c, .. } => {
                    check_reg(pc, d)?;
                    check_op(pc, a)?;
                    check_op(pc, b)?;
                    check_op(pc, c)?;
                }
                Inst::Sfu { d, a, .. } | Inst::Cvt { d, a, .. } | Inst::Mov { d, a } => {
                    check_reg(pc, d)?;
                    check_op(pc, a)?;
                }
                Inst::Ld { d, addr, .. } => {
                    check_reg(pc, d)?;
                    check_reg(pc, addr)?;
                }
                Inst::St { v, addr, .. } => {
                    check_op(pc, v)?;
                    check_reg(pc, addr)?;
                }
                Inst::Bra {
                    cond,
                    target,
                    reconv,
                } => {
                    if let Some(c) = cond {
                        check_reg(pc, c.reg)?;
                    }
                    // A target equal to len() is a fall-off-the-end exit.
                    if target > len {
                        return Err(ValidateProgramError::BranchOutOfRange { pc, target });
                    }
                    if reconv > len {
                        return Err(ValidateProgramError::BranchOutOfRange { pc, target: reconv });
                    }
                }
                Inst::Bar | Inst::Exit => {}
                Inst::Special { d, .. } => check_reg(pc, d)?,
            }
        }
        Ok(())
    }
}

/// A 1-D kernel launch: `grid_dim` blocks of `block_dim` threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid_dim: u32,
    /// Threads per block (rounded up to whole warps at execution).
    pub block_dim: u32,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `block_dim` exceeds 1024.
    #[must_use]
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        assert!(grid_dim > 0, "grid must have at least one block");
        assert!(
            (1..=1024).contains(&block_dim),
            "block size must be 1..=1024"
        );
        LaunchConfig {
            grid_dim,
            block_dim,
        }
    }

    /// Total threads in the launch.
    #[must_use]
    pub fn total_threads(&self) -> u64 {
        u64::from(self.grid_dim) * u64::from(self.block_dim)
    }

    /// Warps per block (ceiling).
    #[must_use]
    pub fn warps_per_block(&self) -> u32 {
        self.block_dim.div_ceil(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{IntOp, Operand, Reg};

    #[test]
    fn validate_catches_bad_register() {
        let p = Program::new(
            "bad",
            vec![Inst::Int {
                op: IntOp::Add,
                d: Reg(9),
                a: Operand::Imm(0),
                b: Operand::Imm(0),
            }],
            4,
            0,
        );
        assert!(matches!(
            p.validate(),
            Err(ValidateProgramError::RegisterOutOfRange { pc: 0, reg: 9 })
        ));
    }

    #[test]
    fn validate_catches_bad_branch() {
        let p = Program::new(
            "bad",
            vec![Inst::Bra {
                cond: None,
                target: 99,
                reconv: 0,
            }],
            1,
            0,
        );
        assert!(matches!(
            p.validate(),
            Err(ValidateProgramError::BranchOutOfRange { pc: 0, target: 99 })
        ));
    }

    #[test]
    fn branch_to_end_is_allowed() {
        let p = Program::new(
            "ok",
            vec![Inst::Bra {
                cond: None,
                target: 1,
                reconv: 1,
            }],
            1,
            0,
        );
        assert!(p.validate().is_ok());
    }

    #[test]
    fn launch_arithmetic() {
        let l = LaunchConfig::new(10, 100);
        assert_eq!(l.total_threads(), 1000);
        assert_eq!(l.warps_per_block(), 4);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn oversized_block_rejected() {
        let _ = LaunchConfig::new(1, 2048);
    }
}
