//! Program disassembly: human-readable listings of kernel programs.
//!
//! The builder DSL generates code the author never sees; when a kernel
//! misbehaves (or when correlating the Fig. 2 trace PCs with source
//! constructs), a listing with branch annotations is the first thing a
//! user reaches for.

use crate::inst::{
    FloatOp, FloatWidth, Inst, IntOp, MemWidth, NumType, Operand, SfuOp, Space, Special,
};
use crate::program::Program;
use std::fmt::Write as _;

fn op(o: Operand) -> String {
    match o {
        Operand::Reg(r) => r.to_string(),
        Operand::Imm(v) => {
            if (-4096..=4096).contains(&v) {
                format!("{v}")
            } else {
                format!("{v:#x}")
            }
        }
    }
}

fn int_op_name(o: IntOp) -> &'static str {
    match o {
        IntOp::Add => "add",
        IntOp::Sub => "sub",
        IntOp::Mul => "mul",
        IntOp::Div => "div",
        IntOp::Rem => "rem",
        IntOp::Min => "min",
        IntOp::Max => "max",
        IntOp::And => "and",
        IntOp::Or => "or",
        IntOp::Xor => "xor",
        IntOp::Shl => "shl",
        IntOp::Shr => "shr",
        IntOp::Sra => "sra",
        IntOp::SetLt => "set.lt",
        IntOp::SetLe => "set.le",
        IntOp::SetEq => "set.eq",
        IntOp::SetNe => "set.ne",
    }
}

fn float_op_name(o: FloatOp) -> &'static str {
    match o {
        FloatOp::Add => "add",
        FloatOp::Sub => "sub",
        FloatOp::Mul => "mul",
        FloatOp::Div => "div",
        FloatOp::Min => "min",
        FloatOp::Max => "max",
        FloatOp::SetLt => "set.lt",
        FloatOp::SetLe => "set.le",
        FloatOp::SetEq => "set.eq",
    }
}

fn width_tag(w: FloatWidth) -> &'static str {
    match w {
        FloatWidth::F32 => "f32",
        FloatWidth::F64 => "f64",
    }
}

fn space_tag(s: Space) -> &'static str {
    match s {
        Space::Global => "global",
        Space::Shared => "shared",
    }
}

fn mem_tag(w: MemWidth) -> &'static str {
    match w {
        MemWidth::W4 => "u32",
        MemWidth::W8 => "u64",
    }
}

fn num_tag(t: NumType) -> &'static str {
    match t {
        NumType::I64 => "i64",
        NumType::F32 => "f32",
        NumType::F64 => "f64",
    }
}

fn special_tag(s: Special) -> &'static str {
    match s {
        Special::Tid => "%tid",
        Special::CtaId => "%ctaid",
        Special::NTid => "%ntid",
        Special::NCta => "%nctaid",
        Special::LaneId => "%laneid",
        Special::WarpId => "%warpid",
        Special::GlobalTid => "%gtid",
    }
}

/// Renders one instruction (without its PC).
#[must_use]
pub fn disasm_inst(inst: &Inst) -> String {
    match *inst {
        Inst::Int { op: o, d, a, b } => {
            format!("{}.i64   {d}, {}, {}", int_op_name(o), op(a), op(b))
        }
        Inst::Float { op: o, w, d, a, b } => {
            format!(
                "{}.{}   {d}, {}, {}",
                float_op_name(o),
                width_tag(w),
                op(a),
                op(b)
            )
        }
        Inst::Fma { w, d, a, b, c } => {
            format!(
                "fma.{}   {d}, {}, {}, {}",
                width_tag(w),
                op(a),
                op(b),
                op(c)
            )
        }
        Inst::Sfu { op: o, d, a } => {
            let name = match o {
                SfuOp::Sqrt => "sqrt",
                SfuOp::Exp => "exp",
                SfuOp::Log => "log",
                SfuOp::Sin => "sin",
                SfuOp::Cos => "cos",
                SfuOp::Rcp => "rcp",
                SfuOp::Rsqrt => "rsqrt",
            };
            format!("{name}.sfu  {d}, {}", op(a))
        }
        Inst::Cvt { d, a, from, to } => {
            format!("cvt.{}.{} {d}, {}", num_tag(to), num_tag(from), op(a))
        }
        Inst::Ld {
            d,
            addr,
            offset,
            space,
            width,
        } => format!(
            "ld.{}.{} {d}, [{addr}{offset:+}]",
            space_tag(space),
            mem_tag(width)
        ),
        Inst::St {
            v,
            addr,
            offset,
            space,
            width,
        } => format!(
            "st.{}.{} [{addr}{offset:+}], {}",
            space_tag(space),
            mem_tag(width),
            op(v)
        ),
        Inst::Bra {
            cond,
            target,
            reconv,
        } => match cond {
            None => format!("bra      -> {target}"),
            Some(c) => format!(
                "bra.{}  {} -> {target} (reconv {reconv})",
                if c.if_nonzero { "nz" } else { "z " },
                c.reg
            ),
        },
        Inst::Bar => "bar.sync".to_string(),
        Inst::Exit => "exit".to_string(),
        Inst::Mov { d, a } => format!("mov      {d}, {}", op(a)),
        Inst::Special { d, s } => format!("mov      {d}, {}", special_tag(s)),
    }
}

/// Renders a whole program as a listing with PCs and branch-target
/// arrows.
///
/// ```
/// use st2_isa::{disasm::disasm, KernelBuilder, Operand};
/// let mut k = KernelBuilder::new("demo");
/// let r = k.reg();
/// k.iadd(r, r.into(), Operand::Imm(1));
/// let text = disasm(&k.finish());
/// assert!(text.contains("add.i64"));
/// assert!(text.contains("exit"));
/// ```
// Public with no caller in the workspace: a debugging aid for kernel
// authors, shown by the example above.
#[must_use]
pub fn disasm(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// kernel {} — {} insts, {} regs, {} B shared",
        program.name(),
        program.len(),
        program.num_regs(),
        program.shared_bytes()
    );
    // Mark branch targets for readability.
    let mut is_target = vec![false; program.len() as usize + 1];
    for inst in program.insts() {
        if let Inst::Bra { target, .. } = inst {
            if (*target as usize) < is_target.len() {
                is_target[*target as usize] = true;
            }
        }
    }
    for (pc, inst) in program.insts().iter().enumerate() {
        let mark = if is_target[pc] { ">" } else { " " };
        let _ = writeln!(out, "{mark}{pc:>4}:  {}", disasm_inst(inst));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelBuilder, Operand, Special};

    #[test]
    fn listing_covers_every_instruction_kind() {
        let mut k = KernelBuilder::new("all");
        let a = k.reg();
        let b = k.reg();
        k.iadd(a, a.into(), Operand::Imm(1));
        k.fmad(b, a.into(), b.into(), Operand::f32(1.0));
        k.dadd(b, b.into(), Operand::f64(2.0));
        k.fsqrt(b, b.into());
        k.i2f(b, a.into());
        k.ld_global_u32(a, b, 4);
        k.st_shared_u64(a.into(), b, -8);
        let _ = k.special(Special::LaneId);
        k.bar();
        let c = k.reg();
        k.if_(c, |k| k.mov(a, Operand::Imm(0x10000)));
        let text = disasm(&k.finish());
        for needle in [
            "add.i64",
            "fma.f32",
            "add.f64",
            "sqrt.sfu",
            "cvt.f32.i64",
            "ld.global.u32",
            "st.shared.u64",
            "%laneid",
            "bar.sync",
            "bra.z ",
            "0x10000",
            "exit",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn branch_targets_are_marked() {
        let mut k = KernelBuilder::new("m");
        let c = k.reg();
        k.while_(
            |k| {
                let t = k.reg();
                k.setlt(t, c.into(), Operand::Imm(3));
                t
            },
            |k| k.iadd(c, c.into(), Operand::Imm(1)),
        );
        let text = disasm(&k.finish());
        assert!(text.lines().any(|l| l.starts_with('>')), "{text}");
    }

    #[test]
    fn header_reports_metadata() {
        let mut k = KernelBuilder::new("hdr");
        let _ = k.shared_alloc(64);
        let r = k.reg();
        k.mov(r, Operand::Imm(0));
        let text = disasm(&k.finish());
        assert!(text.contains("kernel hdr"));
        assert!(text.contains("64 B shared"));
    }
}
