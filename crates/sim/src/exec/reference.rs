//! A per-lane executor, kept as the reference for the whole-warp
//! [`super::step`]: every lane re-matches the opcode and operand kinds and
//! always builds its [`LaneAdd`]. The equivalence proptest in the parent
//! module runs single instructions through both and compares everything
//! they touch.

use super::*;

fn int_op(op: IntOp, a: i64, b: i64) -> i64 {
    match op {
        IntOp::Add => a.wrapping_add(b),
        IntOp::Sub => a.wrapping_sub(b),
        IntOp::Mul => a.wrapping_mul(b),
        IntOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        IntOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        IntOp::Min => a.min(b),
        IntOp::Max => a.max(b),
        IntOp::And => a & b,
        IntOp::Or => a | b,
        IntOp::Xor => a ^ b,
        IntOp::Shl => ((a as u64) << (b as u64 & 63)) as i64,
        IntOp::Shr => (a as u64 >> (b as u64 & 63)) as i64,
        IntOp::Sra => a >> (b as u64 & 63),
        IntOp::SetLt => i64::from(a < b),
        IntOp::SetLe => i64::from(a <= b),
        IntOp::SetEq => i64::from(a == b),
        IntOp::SetNe => i64::from(a != b),
    }
}

/// Executes the instruction at the warp's current PC one lane at a time,
/// writing its lane adds and memory addresses into `lanes`.
pub(super) fn step(
    warp: &mut WarpCtx,
    env: &mut ExecEnv<'_>,
    hooks: &mut StepHooks<'_>,
    lanes: &mut LaneBuffers,
) -> StepInfo {
    let pc = warp.stack.pc();
    let mask = warp.stack.active_mask();
    let active = mask.count_ones();
    let inst = *env.program.fetch(pc).unwrap_or(&Inst::Exit); // falling off the end exits

    let mut info = StepInfo {
        pc,
        class: inst.class(),
        active_threads: active,
        reg_reads: 0,
        reg_writes: 0,
        mem: None,
        adder: None,
        adder_lanes: 0,
        barrier: false,
    };

    let lanes_of = |m: Mask| (0..32u32).filter(move |l| m >> l & 1 != 0);

    // Operand read with bookkeeping.
    macro_rules! read {
        ($lane:expr, $op:expr) => {
            match $op {
                Operand::Reg(r) => {
                    info.reg_reads += 1;
                    warp.reg($lane, r)
                }
                Operand::Imm(v) => v as u64,
            }
        };
    }
    macro_rules! write {
        ($lane:expr, $d:expr, $v:expr) => {{
            info.reg_writes += 1;
            warp.set_reg($lane, $d, $v);
        }};
    }

    let trace_target: Option<u64> = hooks.trace.as_ref().map(|(_, g)| *g);
    let mut traced: Option<(u32, i64)> = None; // (lane, value)

    lanes.adds.clear();
    lanes.addrs.clear();
    let mut adder_width: Option<WidthClass> = None;

    match inst {
        Inst::Int { op, d, a, b } => {
            for lane in lanes_of(mask) {
                let av = read!(lane, a) as i64;
                let bv = read!(lane, b) as i64;
                let r = int_op(op, av, bv);
                write!(lane, d, r as u64);
                if op.uses_adder() {
                    adder_width = Some(WidthClass::Int64);
                    lanes.adds.push(LaneAdd {
                        lane,
                        gtid: warp.gtid_base + u64::from(lane),
                        a: av as u64,
                        b: bv as u64,
                        sub: op.is_subtract(),
                    });
                }
                if trace_target == Some(warp.gtid_base + u64::from(lane)) {
                    traced = Some((lane, r));
                }
            }
            warp.stack.advance();
        }
        Inst::Float { op, w, d, a, b } => {
            let is_pred = matches!(op, FloatOp::SetLt | FloatOp::SetLe | FloatOp::SetEq);
            for lane in lanes_of(mask) {
                let ab = read!(lane, a);
                let bb = read!(lane, b);
                let (res_bits, res_val) = match w {
                    FloatWidth::F32 => {
                        let (x, y) = (as_f32(ab), as_f32(bb));
                        if is_pred {
                            let p = match op {
                                FloatOp::SetLt => x < y,
                                FloatOp::SetLe => x <= y,
                                _ => x == y,
                            };
                            (u64::from(p), f64::from(u8::from(p)))
                        } else {
                            let r = match op {
                                FloatOp::Add => x + y,
                                FloatOp::Sub => x - y,
                                FloatOp::Mul => x * y,
                                FloatOp::Div => x / y,
                                FloatOp::Min => x.min(y),
                                _ => x.max(y),
                            };
                            (from_f32(r), f64::from(r))
                        }
                    }
                    FloatWidth::F64 => {
                        let (x, y) = (as_f64(ab), as_f64(bb));
                        if is_pred {
                            let p = match op {
                                FloatOp::SetLt => x < y,
                                FloatOp::SetLe => x <= y,
                                _ => x == y,
                            };
                            (u64::from(p), f64::from(u8::from(p)))
                        } else {
                            let r = match op {
                                FloatOp::Add => x + y,
                                FloatOp::Sub => x - y,
                                FloatOp::Mul => x * y,
                                FloatOp::Div => x / y,
                                FloatOp::Min => x.min(y),
                                _ => x.max(y),
                            };
                            (from_f64(r), r)
                        }
                    }
                };
                write!(lane, d, res_bits);
                if matches!(op, FloatOp::Add | FloatOp::Sub) {
                    let mant = match w {
                        FloatWidth::F32 => {
                            let (x, y) = (as_f32(ab), as_f32(bb));
                            let y = if op == FloatOp::Sub { -y } else { y };
                            f32_add_operands(x, y).map(|m| (m.a, m.b, m.sub, WidthClass::Mant24))
                        }
                        FloatWidth::F64 => {
                            let (x, y) = (as_f64(ab), as_f64(bb));
                            let y = if op == FloatOp::Sub { -y } else { y };
                            f64_add_operands(x, y).map(|m| (m.a, m.b, m.sub, WidthClass::Mant53))
                        }
                    };
                    if let Some((ma, mb, msub, mw)) = mant {
                        adder_width = Some(mw);
                        lanes.adds.push(LaneAdd {
                            lane,
                            gtid: warp.gtid_base + u64::from(lane),
                            a: ma,
                            b: mb,
                            sub: msub,
                        });
                    }
                }
                if trace_target == Some(warp.gtid_base + u64::from(lane)) {
                    traced = Some((lane, res_val as i64));
                }
            }
            warp.stack.advance();
        }
        Inst::Fma { w, d, a, b, c } => {
            for lane in lanes_of(mask) {
                let av = read!(lane, a);
                let bv = read!(lane, b);
                let cv = read!(lane, c);
                match w {
                    FloatWidth::F32 => {
                        let (x, y, z) = (as_f32(av), as_f32(bv), as_f32(cv));
                        let r = x.mul_add(y, z);
                        write!(lane, d, from_f32(r));
                        if let Some(m) = f32_fma_operands(x, y, z) {
                            adder_width = Some(WidthClass::Mant24);
                            lanes.adds.push(LaneAdd {
                                lane,
                                gtid: warp.gtid_base + u64::from(lane),
                                a: m.a,
                                b: m.b,
                                sub: m.sub,
                            });
                        }
                        if trace_target == Some(warp.gtid_base + u64::from(lane)) {
                            traced = Some((lane, r as i64));
                        }
                    }
                    FloatWidth::F64 => {
                        let (x, y, z) = (as_f64(av), as_f64(bv), as_f64(cv));
                        let r = x.mul_add(y, z);
                        write!(lane, d, from_f64(r));
                        if let Some(m) = f64_fma_operands(x, y, z) {
                            adder_width = Some(WidthClass::Mant53);
                            lanes.adds.push(LaneAdd {
                                lane,
                                gtid: warp.gtid_base + u64::from(lane),
                                a: m.a,
                                b: m.b,
                                sub: m.sub,
                            });
                        }
                        if trace_target == Some(warp.gtid_base + u64::from(lane)) {
                            traced = Some((lane, r as i64));
                        }
                    }
                }
            }
            warp.stack.advance();
        }
        Inst::Sfu { op, d, a } => {
            use st2_isa::SfuOp;
            for lane in lanes_of(mask) {
                let x = as_f32(read!(lane, a));
                let r = match op {
                    SfuOp::Sqrt => x.sqrt(),
                    SfuOp::Exp => x.exp(),
                    SfuOp::Log => x.ln(),
                    SfuOp::Sin => x.sin(),
                    SfuOp::Cos => x.cos(),
                    SfuOp::Rcp => 1.0 / x,
                    SfuOp::Rsqrt => 1.0 / x.sqrt(),
                };
                write!(lane, d, from_f32(r));
            }
            warp.stack.advance();
        }
        Inst::Cvt { d, a, from, to } => {
            for lane in lanes_of(mask) {
                let v = read!(lane, a);
                let out = match (from, to) {
                    (NumType::I64, NumType::F32) => from_f32(v as i64 as f32),
                    (NumType::I64, NumType::F64) => from_f64(v as i64 as f64),
                    (NumType::F32, NumType::I64) => as_f32(v) as i64 as u64,
                    (NumType::F64, NumType::I64) => as_f64(v) as i64 as u64,
                    (NumType::F32, NumType::F64) => from_f64(f64::from(as_f32(v))),
                    (NumType::F64, NumType::F32) => from_f32(as_f64(v) as f32),
                    (NumType::I64, NumType::I64) => v,
                    (NumType::F32, NumType::F32) | (NumType::F64, NumType::F64) => v,
                };
                write!(lane, d, out);
            }
            warp.stack.advance();
        }
        Inst::Ld {
            d,
            addr,
            offset,
            space,
            width,
        } => {
            for lane in lanes_of(mask) {
                info.reg_reads += 1;
                let base = warp.reg(lane, addr);
                let ea = base.wrapping_add_signed(offset);
                lanes.addrs.push(ea);
                let v = match (space, width) {
                    (Space::Global, MemWidth::W4) => env.global.read_i32_sext(ea) as u64,
                    (Space::Global, MemWidth::W8) => env.global.read_u64(ea),
                    (Space::Shared, MemWidth::W4) => env.shared.read_i32_sext(ea) as u64,
                    (Space::Shared, MemWidth::W8) => env.shared.read_u64(ea),
                };
                write!(lane, d, v);
            }
            info.mem = Some(MemAccess {
                space,
                width,
                store: false,
            });
            warp.stack.advance();
        }
        Inst::St {
            v,
            addr,
            offset,
            space,
            width,
        } => {
            for lane in lanes_of(mask) {
                info.reg_reads += 1;
                let base = warp.reg(lane, addr);
                let ea = base.wrapping_add_signed(offset);
                lanes.addrs.push(ea);
                let val = read!(lane, v);
                match (space, width) {
                    (Space::Global, MemWidth::W4) => env.global.write_u32(ea, val as u32),
                    (Space::Global, MemWidth::W8) => env.global.write_u64(ea, val),
                    (Space::Shared, MemWidth::W4) => env.shared.write_u32(ea, val as u32),
                    (Space::Shared, MemWidth::W8) => env.shared.write_u64(ea, val),
                }
            }
            info.mem = Some(MemAccess {
                space,
                width,
                store: true,
            });
            warp.stack.advance();
        }
        Inst::Bra {
            cond,
            target,
            reconv,
        } => match cond {
            None => warp.stack.set_pc(target),
            Some(c) => {
                let mut taken: Mask = 0;
                for lane in lanes_of(mask) {
                    info.reg_reads += 1;
                    let v = warp.reg(lane, c.reg);
                    if (v != 0) == c.if_nonzero {
                        taken |= 1 << lane;
                    }
                }
                warp.stack.branch(taken, target, pc + 1, reconv);
            }
        },
        Inst::Bar => {
            info.barrier = true;
            warp.stack.advance();
        }
        Inst::Exit => {
            warp.stack.exit_threads(mask);
        }
        Inst::Mov { d, a } => {
            for lane in lanes_of(mask) {
                let v = read!(lane, a);
                write!(lane, d, v);
            }
            warp.stack.advance();
        }
        Inst::Special { d, s } => {
            for lane in lanes_of(mask) {
                let v = match s {
                    Special::Tid => u64::from(warp.warp_in_block * 32 + lane),
                    Special::CtaId => u64::from(warp.block_id),
                    Special::NTid => u64::from(env.launch.block_dim),
                    Special::NCta => u64::from(env.launch.grid_dim),
                    Special::LaneId => u64::from(lane),
                    Special::WarpId => u64::from(warp.warp_in_block),
                    Special::GlobalTid => warp.gtid_base + u64::from(lane),
                };
                write!(lane, d, v);
            }
            warp.stack.advance();
        }
    }

    // The width is set exactly when a lane add is pushed.
    info.adder = adder_width;
    info.adder_lanes = lanes.adds.len() as u32;
    if let (Some(sink), Some(width)) = (hooks.records.as_deref_mut(), adder_width) {
        sink.extend(lanes.adds.iter().map(|l| l.record(pc, width)));
    }

    if let (Some((trace, _)), Some((_, value))) = (hooks.trace.as_mut(), traced) {
        trace.record(pc, value, info.class);
    }

    info
}
