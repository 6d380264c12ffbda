//! Structured kernel construction.
//!
//! [`KernelBuilder`] is the "compiler" of this reproduction: kernels are
//! written as structured Rust code (ifs, whiles, for-ranges) and the
//! builder lowers them to branches with **correct SIMT reconvergence
//! points** (the immediate post-dominator of every divergent branch),
//! which the simulator's divergence stack relies on.

use crate::inst::{
    BranchCond, FloatOp, FloatWidth, Inst, IntOp, MemWidth, NumType, Operand, Reg, SfuOp, Space,
    Special,
};
use crate::program::Program;

/// Builds one kernel program.
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    insts: Vec<Inst>,
    next_reg: u16,
    shared_bytes: u64,
}

const PLACEHOLDER: u32 = u32::MAX;

impl KernelBuilder {
    /// Starts a new kernel.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            insts: Vec::new(),
            next_reg: 0,
            shared_bytes: 0,
        }
    }

    /// Allocates a fresh register.
    ///
    /// # Panics
    ///
    /// Panics if more than 255 registers are allocated (the per-thread
    /// register budget).
    pub fn reg(&mut self) -> Reg {
        assert!(self.next_reg < 255, "register budget exhausted");
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Reserves `bytes` of per-block shared memory, returning its base
    /// byte address (8-byte aligned).
    pub fn shared_alloc(&mut self, bytes: u64) -> u64 {
        let base = self.shared_bytes;
        self.shared_bytes += bytes.div_ceil(8) * 8;
        base
    }

    /// Current PC (index of the next instruction).
    #[must_use]
    pub fn here(&self) -> u32 {
        self.insts.len() as u32
    }

    fn emit(&mut self, i: Inst) -> u32 {
        let pc = self.here();
        self.insts.push(i);
        pc
    }

    // ---- integer ops -----------------------------------------------------

    fn int(&mut self, op: IntOp, d: Reg, a: Operand, b: Operand) {
        self.emit(Inst::Int { op, d, a, b });
    }

    /// `d = a + b`.
    pub fn iadd(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::Add, d, a, b);
    }
    /// `d = a - b`.
    pub fn isub(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::Sub, d, a, b);
    }
    /// `d = a * b`.
    pub fn imul(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::Mul, d, a, b);
    }
    /// `d = a / b` (0 when b = 0).
    pub fn idiv(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::Div, d, a, b);
    }
    /// `d = a % b` (0 when b = 0).
    pub fn irem(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::Rem, d, a, b);
    }
    /// `d = min(a, b)`.
    pub fn imin(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::Min, d, a, b);
    }
    /// `d = max(a, b)`.
    pub fn imax(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::Max, d, a, b);
    }
    /// Bitwise AND.
    pub fn iand(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::And, d, a, b);
    }
    /// Bitwise OR.
    pub fn ior(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::Or, d, a, b);
    }
    /// Bitwise XOR.
    pub fn ixor(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::Xor, d, a, b);
    }
    /// Logical shift left.
    pub fn ishl(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::Shl, d, a, b);
    }
    /// Logical shift right.
    pub fn ishr(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::Shr, d, a, b);
    }
    /// Arithmetic shift right.
    pub fn isra(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::Sra, d, a, b);
    }
    /// `d = (a < b) as i64` (signed).
    pub fn setlt(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::SetLt, d, a, b);
    }
    /// `d = (a <= b) as i64`.
    pub fn setle(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::SetLe, d, a, b);
    }
    /// `d = (a == b) as i64`.
    pub fn seteq(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::SetEq, d, a, b);
    }
    /// `d = (a != b) as i64`.
    pub fn setne(&mut self, d: Reg, a: Operand, b: Operand) {
        self.int(IntOp::SetNe, d, a, b);
    }

    // ---- floating-point ops ----------------------------------------------

    fn float(&mut self, op: FloatOp, w: FloatWidth, d: Reg, a: Operand, b: Operand) {
        self.emit(Inst::Float { op, w, d, a, b });
    }

    /// f32 `d = a + b`.
    pub fn fadd(&mut self, d: Reg, a: Operand, b: Operand) {
        self.float(FloatOp::Add, FloatWidth::F32, d, a, b);
    }
    /// f32 `d = a - b`.
    pub fn fsub(&mut self, d: Reg, a: Operand, b: Operand) {
        self.float(FloatOp::Sub, FloatWidth::F32, d, a, b);
    }
    /// f32 `d = a * b`.
    pub fn fmul(&mut self, d: Reg, a: Operand, b: Operand) {
        self.float(FloatOp::Mul, FloatWidth::F32, d, a, b);
    }
    /// f32 `d = a / b`.
    pub fn fdiv(&mut self, d: Reg, a: Operand, b: Operand) {
        self.float(FloatOp::Div, FloatWidth::F32, d, a, b);
    }
    /// f32 `d = min(a, b)`.
    pub fn fmin(&mut self, d: Reg, a: Operand, b: Operand) {
        self.float(FloatOp::Min, FloatWidth::F32, d, a, b);
    }
    /// f32 `d = max(a, b)`.
    pub fn fmax(&mut self, d: Reg, a: Operand, b: Operand) {
        self.float(FloatOp::Max, FloatWidth::F32, d, a, b);
    }
    /// f32 `d = (a < b) as i64`.
    pub fn fsetlt(&mut self, d: Reg, a: Operand, b: Operand) {
        self.float(FloatOp::SetLt, FloatWidth::F32, d, a, b);
    }
    /// f32 `d = (a <= b) as i64`.
    pub fn fsetle(&mut self, d: Reg, a: Operand, b: Operand) {
        self.float(FloatOp::SetLe, FloatWidth::F32, d, a, b);
    }
    /// f32 fused multiply-add `d = a·b + c`.
    pub fn fmad(&mut self, d: Reg, a: Operand, b: Operand, c: Operand) {
        self.emit(Inst::Fma {
            w: FloatWidth::F32,
            d,
            a,
            b,
            c,
        });
    }
    /// f64 `d = a + b`.
    pub fn dadd(&mut self, d: Reg, a: Operand, b: Operand) {
        self.float(FloatOp::Add, FloatWidth::F64, d, a, b);
    }
    /// f64 `d = a * b`.
    pub fn dmul(&mut self, d: Reg, a: Operand, b: Operand) {
        self.float(FloatOp::Mul, FloatWidth::F64, d, a, b);
    }

    // ---- SFU and conversions ----------------------------------------------

    fn sfu(&mut self, op: SfuOp, d: Reg, a: Operand) {
        self.emit(Inst::Sfu { op, d, a });
    }

    /// f32 square root (SFU).
    pub fn fsqrt(&mut self, d: Reg, a: Operand) {
        self.sfu(SfuOp::Sqrt, d, a);
    }
    /// f32 exponential (SFU).
    pub fn fexp(&mut self, d: Reg, a: Operand) {
        self.sfu(SfuOp::Exp, d, a);
    }
    /// f32 sine (SFU).
    pub fn fsin(&mut self, d: Reg, a: Operand) {
        self.sfu(SfuOp::Sin, d, a);
    }
    /// f32 cosine (SFU).
    pub fn fcos(&mut self, d: Reg, a: Operand) {
        self.sfu(SfuOp::Cos, d, a);
    }
    /// f32 reciprocal (SFU).
    pub fn frcp(&mut self, d: Reg, a: Operand) {
        self.sfu(SfuOp::Rcp, d, a);
    }
    /// f32 reciprocal square root (SFU).
    pub fn frsqrt(&mut self, d: Reg, a: Operand) {
        self.sfu(SfuOp::Rsqrt, d, a);
    }

    fn cvt(&mut self, d: Reg, a: Operand, from: NumType, to: NumType) {
        self.emit(Inst::Cvt { d, a, from, to });
    }

    /// i64 → f32.
    pub fn i2f(&mut self, d: Reg, a: Operand) {
        self.cvt(d, a, NumType::I64, NumType::F32);
    }
    /// f32 → i64 (truncating).
    pub fn f2i(&mut self, d: Reg, a: Operand) {
        self.cvt(d, a, NumType::F32, NumType::I64);
    }
    /// i64 → f64.
    pub fn i2d(&mut self, d: Reg, a: Operand) {
        self.cvt(d, a, NumType::I64, NumType::F64);
    }
    /// f64 → i64 (truncating).
    pub fn d2i(&mut self, d: Reg, a: Operand) {
        self.cvt(d, a, NumType::F64, NumType::I64);
    }
    /// f32 → f64.
    pub fn f2d(&mut self, d: Reg, a: Operand) {
        self.cvt(d, a, NumType::F32, NumType::F64);
    }
    /// f64 → f32.
    pub fn d2f(&mut self, d: Reg, a: Operand) {
        self.cvt(d, a, NumType::F64, NumType::F32);
    }

    // ---- memory ------------------------------------------------------------

    fn ld(&mut self, d: Reg, addr: Reg, offset: i64, space: Space, width: MemWidth) {
        self.emit(Inst::Ld {
            d,
            addr,
            offset,
            space,
            width,
        });
    }

    fn st(&mut self, v: Operand, addr: Reg, offset: i64, space: Space, width: MemWidth) {
        self.emit(Inst::St {
            v,
            addr,
            offset,
            space,
            width,
        });
    }

    /// Global 4-byte load (sign-extended into the 64-bit register; f32
    /// users read the low 32 bits).
    pub fn ld_global_u32(&mut self, d: Reg, addr: Reg, offset: i64) {
        self.ld(d, addr, offset, Space::Global, MemWidth::W4);
    }
    /// Global 8-byte load.
    pub fn ld_global_u64(&mut self, d: Reg, addr: Reg, offset: i64) {
        self.ld(d, addr, offset, Space::Global, MemWidth::W8);
    }
    /// Global 4-byte store (truncating).
    pub fn st_global_u32(&mut self, v: Operand, addr: Reg, offset: i64) {
        self.st(v, addr, offset, Space::Global, MemWidth::W4);
    }
    /// Global 8-byte store.
    pub fn st_global_u64(&mut self, v: Operand, addr: Reg, offset: i64) {
        self.st(v, addr, offset, Space::Global, MemWidth::W8);
    }
    /// Shared 4-byte load.
    pub fn ld_shared_u32(&mut self, d: Reg, addr: Reg, offset: i64) {
        self.ld(d, addr, offset, Space::Shared, MemWidth::W4);
    }
    /// Shared 8-byte load.
    pub fn ld_shared_u64(&mut self, d: Reg, addr: Reg, offset: i64) {
        self.ld(d, addr, offset, Space::Shared, MemWidth::W8);
    }
    /// Shared 4-byte store.
    pub fn st_shared_u32(&mut self, v: Operand, addr: Reg, offset: i64) {
        self.st(v, addr, offset, Space::Shared, MemWidth::W4);
    }
    /// Shared 8-byte store.
    pub fn st_shared_u64(&mut self, v: Operand, addr: Reg, offset: i64) {
        self.st(v, addr, offset, Space::Shared, MemWidth::W8);
    }

    // ---- misc ---------------------------------------------------------------

    /// `d = a`.
    pub fn mov(&mut self, d: Reg, a: Operand) {
        self.emit(Inst::Mov { d, a });
    }

    /// Reads a special value into a fresh register.
    pub fn special(&mut self, s: Special) -> Reg {
        let d = self.reg();
        self.emit(Inst::Special { d, s });
        d
    }

    /// Reads a special value into an existing register.
    pub fn special_into(&mut self, d: Reg, s: Special) {
        self.emit(Inst::Special { d, s });
    }

    /// Block-wide barrier.
    pub fn bar(&mut self) {
        self.emit(Inst::Bar);
    }

    /// Thread exit.
    pub fn exit(&mut self) {
        self.emit(Inst::Exit);
    }

    // ---- structured control flow ---------------------------------------------

    /// Executes `then` for threads where `cond != 0`; all threads
    /// reconverge after it.
    pub fn if_(&mut self, cond: Reg, then: impl FnOnce(&mut Self)) {
        let bra = self.emit(Inst::Bra {
            cond: Some(BranchCond {
                reg: cond,
                if_nonzero: false, // skip the body when cond == 0
            }),
            target: PLACEHOLDER,
            reconv: PLACEHOLDER,
        });
        then(self);
        let end = self.here();
        self.patch(bra, end, end);
    }

    /// Executes `then` where `cond != 0`, `els` elsewhere; reconverges
    /// after both.
    pub fn if_else(
        &mut self,
        cond: Reg,
        then: impl FnOnce(&mut Self),
        els: impl FnOnce(&mut Self),
    ) {
        let bra_else = self.emit(Inst::Bra {
            cond: Some(BranchCond {
                reg: cond,
                if_nonzero: false,
            }),
            target: PLACEHOLDER,
            reconv: PLACEHOLDER,
        });
        then(self);
        let bra_end = self.emit(Inst::Bra {
            cond: None,
            target: PLACEHOLDER,
            reconv: PLACEHOLDER,
        });
        let else_pc = self.here();
        els(self);
        let end = self.here();
        self.patch(bra_else, else_pc, end);
        self.patch(bra_end, end, end);
    }

    /// `while cond { body }` — `cond` is regenerated each iteration and
    /// must return a predicate register; exited threads wait at the loop's
    /// post-dominator.
    pub fn while_(&mut self, cond: impl FnOnce(&mut Self) -> Reg, body: impl FnOnce(&mut Self)) {
        let start = self.here();
        let c = cond(self);
        let exit_bra = self.emit(Inst::Bra {
            cond: Some(BranchCond {
                reg: c,
                if_nonzero: false, // leave the loop when cond == 0
            }),
            target: PLACEHOLDER,
            reconv: PLACEHOLDER,
        });
        body(self);
        self.emit(Inst::Bra {
            cond: None,
            target: start,
            reconv: start,
        });
        let end = self.here();
        self.patch(exit_bra, end, end);
    }

    /// `for i in start..end { body(i) }` with a fresh iterator register
    /// incremented by the canonical loop-iterator `IADD` the paper's
    /// motivation section describes.
    pub fn for_range(&mut self, start: Operand, end: Operand, body: impl FnOnce(&mut Self, Reg)) {
        let i = self.reg();
        self.mov(i, start);
        self.while_(
            |k| {
                let c = k.reg();
                k.setlt(c, i.into(), end);
                c
            },
            |k| {
                body(k, i);
                k.iadd(i, i.into(), Operand::Imm(1));
            },
        );
    }

    fn patch(&mut self, pc: u32, target: u32, reconv: u32) {
        match &mut self.insts[pc as usize] {
            Inst::Bra {
                target: t,
                reconv: r,
                ..
            } => {
                *t = target;
                *r = reconv;
            }
            other => unreachable!("patching non-branch {other:?}"),
        }
    }

    /// Finalises the program (appends a trailing `Exit` if needed and
    /// validates).
    ///
    /// # Panics
    ///
    /// Panics if the generated program fails validation — that would be a
    /// builder bug, not a user error.
    #[must_use]
    pub fn finish(mut self) -> Program {
        if !matches!(self.insts.last(), Some(Inst::Exit)) {
            self.emit(Inst::Exit);
        }
        let p = Program::new(
            self.name,
            self.insts,
            self.next_reg.max(1),
            self.shared_bytes,
        );
        p.validate().expect("builder produced an invalid program");
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn if_patches_reconvergence() {
        let mut k = KernelBuilder::new("t");
        let c = k.reg();
        let x = k.reg();
        k.if_(c, |k| {
            k.iadd(x, x.into(), Operand::Imm(1));
            k.iadd(x, x.into(), Operand::Imm(2));
        });
        let p = k.finish();
        match p.insts()[0] {
            Inst::Bra {
                target,
                reconv,
                cond,
            } => {
                assert_eq!(target, 3, "skip both body instructions");
                assert_eq!(reconv, 3);
                assert!(!cond.expect("conditional").if_nonzero);
            }
            ref other => panic!("expected Bra, got {other:?}"),
        }
    }

    #[test]
    fn if_else_layout() {
        let mut k = KernelBuilder::new("t");
        let c = k.reg();
        let x = k.reg();
        k.if_else(
            c,
            |k| k.mov(x, Operand::Imm(1)),
            |k| k.mov(x, Operand::Imm(2)),
        );
        let p = k.finish();
        // 0: Bra(!c) -> 3 (else), reconv 4
        // 1: mov x,1
        // 2: Bra -> 4
        // 3: mov x,2
        // 4: Exit
        match p.insts()[0] {
            Inst::Bra { target, reconv, .. } => {
                assert_eq!(target, 3);
                assert_eq!(reconv, 4);
            }
            ref other => panic!("{other:?}"),
        }
        match p.insts()[2] {
            Inst::Bra { target, cond, .. } => {
                assert_eq!(target, 4);
                assert!(cond.is_none());
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn while_loop_back_edge() {
        let mut k = KernelBuilder::new("t");
        let i = k.reg();
        k.mov(i, Operand::Imm(0));
        k.while_(
            |k| {
                let c = k.reg();
                k.setlt(c, i.into(), Operand::Imm(10));
                c
            },
            |k| k.iadd(i, i.into(), Operand::Imm(1)),
        );
        let p = k.finish();
        // 0: mov; 1: setlt; 2: bra exit -> 5; 3: iadd; 4: bra -> 1; 5: Exit
        match p.insts()[2] {
            Inst::Bra { target, reconv, .. } => {
                assert_eq!(target, 5);
                assert_eq!(reconv, 5);
            }
            ref other => panic!("{other:?}"),
        }
        match p.insts()[4] {
            Inst::Bra { target, .. } => assert_eq!(target, 1),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn for_range_emits_iterator_add() {
        let mut k = KernelBuilder::new("t");
        let acc = k.reg();
        k.for_range(Operand::Imm(0), Operand::Imm(4), |k, i| {
            k.iadd(acc, acc.into(), i.into());
        });
        let p = k.finish();
        let adds = p
            .insts()
            .iter()
            .filter(|i| matches!(i, Inst::Int { op: IntOp::Add, .. }))
            .count();
        assert_eq!(adds, 2, "body add + iterator increment");
        assert!(p.validate().is_ok());
    }

    #[test]
    fn shared_alloc_is_aligned() {
        let mut k = KernelBuilder::new("t");
        let a = k.shared_alloc(5);
        let b = k.shared_alloc(16);
        assert_eq!(a, 0);
        assert_eq!(b, 8);
        let p = k.finish();
        assert_eq!(p.shared_bytes(), 24);
    }

    #[test]
    fn nested_structures_validate() {
        let mut k = KernelBuilder::new("t");
        let c1 = k.reg();
        let c2 = k.reg();
        let x = k.reg();
        k.if_(c1, |k| {
            k.for_range(Operand::Imm(0), Operand::Imm(3), |k, i| {
                k.if_else(
                    c2,
                    |k| k.iadd(x, x.into(), i.into()),
                    |k| k.isub(x, x.into(), i.into()),
                );
            });
        });
        let p = k.finish();
        assert!(p.validate().is_ok());
        assert!(p.len() > 8);
    }
}
