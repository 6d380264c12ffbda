//! # A miniature SIMT ISA (PTX substitute)
//!
//! The paper's workloads are CUDA kernels compiled to PTX and executed on
//! GPGPU-Sim. This crate provides the equivalent substrate for the
//! reproduction: a small data-parallel instruction set, a structured
//! kernel-builder DSL that computes SIMT reconvergence points, and typed
//! memory images.
//!
//! What matters for ST² is that kernels produce *real operand streams* —
//! loop iterators, array indices, accumulating sums — because the paper's
//! entire mechanism rests on the spatio-temporal correlation of those
//! values. The ISA therefore keeps full data fidelity (64-bit integer,
//! IEEE f32/f64) while staying small enough to interpret quickly.
//!
//! ```
//! use st2_isa::{KernelBuilder, Operand, Special};
//!
//! // result[gtid] = gtid * 2 + 1  for every thread
//! let mut k = KernelBuilder::new("double_plus_one");
//! let tid = k.special(Special::GlobalTid);
//! let v = k.reg();
//! k.imul(v, tid.into(), Operand::Imm(2));
//! k.iadd(v, v.into(), Operand::Imm(1));
//! let addr = k.reg();
//! k.imul(addr, tid.into(), Operand::Imm(8));
//! k.st_global_u64(v.into(), addr, 0);
//! let program = k.finish();
//! assert!(program.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod builder;
pub mod disasm;
pub mod inst;
pub(crate) mod mem;
pub(crate) mod program;

pub use builder::KernelBuilder;
pub use inst::{
    BranchCond, FloatOp, FloatWidth, Inst, InstClass, IntOp, MemWidth, NumType, Operand, Reg,
    SfuOp, Space, Special,
};
pub use mem::MemImage;
pub use program::{LaunchConfig, Program, ValidateProgramError};
