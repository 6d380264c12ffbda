//! The functional execution core: one warp instruction at a time.
//!
//! Both execution modes (fast functional and cycle-level timed) call
//! [`step`]; it updates architectural state (registers, memory, the SIMT
//! stack) and reports everything the caller needs for statistics, timing
//! and speculation: the instruction class, active-lane count, per-lane
//! adder operations, and memory access addresses.

use crate::simt::{Mask, SimtStack};
use crate::trace::ValueTrace;
use st2_core::event::{AddRecord, OpContext, WidthClass};
use st2_core::float::{f32_add_operands, f32_fma_operands, f64_add_operands, f64_fma_operands};
use st2_isa::{
    FloatOp, FloatWidth, Inst, InstClass, IntOp, LaunchConfig, MemImage, MemWidth, NumType,
    Operand, Program, Reg, Space, Special,
};

/// Architectural state of one warp.
#[derive(Debug, Clone)]
pub struct WarpCtx {
    /// Warp index within its block.
    pub warp_in_block: u32,
    /// Block index within the grid.
    pub block_id: u32,
    /// Global thread id of lane 0.
    pub gtid_base: u64,
    /// Live lanes in this warp (the last warp of a block may be partial).
    pub lanes: u32,
    /// Register file: `lanes × num_regs`, lane-major.
    regs: Vec<u64>,
    num_regs: u16,
    /// Divergence stack.
    pub stack: SimtStack,
}

impl WarpCtx {
    /// Creates a warp with zeroed registers.
    #[must_use]
    pub fn new(
        warp_in_block: u32,
        block_id: u32,
        gtid_base: u64,
        lanes: u32,
        num_regs: u16,
    ) -> Self {
        let lanes = lanes.clamp(1, 32);
        WarpCtx {
            warp_in_block,
            block_id,
            gtid_base,
            lanes,
            regs: vec![0; lanes as usize * usize::from(num_regs)],
            num_regs,
            stack: SimtStack::new(lanes),
        }
    }

    /// Whether every thread has exited.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.stack.is_done()
    }

    /// Register read.
    #[must_use]
    pub fn reg(&self, lane: u32, r: Reg) -> u64 {
        self.regs[lane as usize * usize::from(self.num_regs) + usize::from(r.0)]
    }

    /// Register write.
    pub fn set_reg(&mut self, lane: u32, r: Reg, v: u64) {
        self.regs[lane as usize * usize::from(self.num_regs) + usize::from(r.0)] = v;
    }
}

/// A warp-level memory access (post-execution, for timing/energy). Its
/// per-lane addresses are in [`LaneBuffers::addrs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Memory space.
    pub space: Space,
    /// Access width.
    pub width: MemWidth,
    /// Whether this was a store.
    pub store: bool,
}

/// One lane's adder inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAdd {
    /// Lane index.
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
    /// This lane's add as a portable [`AddRecord`] for the design-space
    /// analyses, issued by the instruction at `pc` on a `width` datapath.
    fn record(&self, pc: u32, width: WidthClass) -> AddRecord {
        AddRecord {
            ctx: OpContext {
                pc,
                gtid: self.gtid as u32,
                ltid: self.lane,
            },
            a: self.a,
            b: self.b,
            sub: self.sub,
            width,
        }
    }
}

/// Caller-owned per-lane outputs of [`step`], reused across steps so
/// that executing an instruction allocates nothing once they have grown
/// to a warp's width. Each [`step`] clears both before it runs.
#[derive(Debug, Clone, Default)]
pub struct LaneBuffers {
    /// The adder inputs of the step's lanes that reached an adder
    /// datapath (inactive and special-cased lanes omitted), lane order;
    /// empty when [`StepInfo::adder`] is `None`.
    pub adds: Vec<LaneAdd>,
    /// The byte address of each active lane of a memory access, lane
    /// order; empty when [`StepInfo::mem`] is `None`.
    pub addrs: Vec<u64>,
}

/// What one [`step`] did. Its per-lane detail is in the
/// [`LaneBuffers`] passed to the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInfo {
    /// PC of the executed instruction.
    pub pc: u32,
    /// Its class.
    pub class: InstClass,
    /// Active threads that executed it.
    pub active_threads: u32,
    /// Thread-level register reads performed.
    pub reg_reads: u64,
    /// Thread-level register writes performed.
    pub reg_writes: u64,
    /// Memory access, if any.
    pub mem: Option<MemAccess>,
    /// Datapath width class of the adds in [`LaneBuffers::adds`], if
    /// any lane reached an adder.
    pub adder: Option<WidthClass>,
    /// The warp reached a barrier.
    pub barrier: bool,
}

impl StepInfo {
    /// The functional-unit pool code used in telemetry issue events
    /// (see `st2_telemetry::event::pool_name`), inferred from the
    /// instruction class.
    #[must_use]
    pub fn pool_code(&self) -> u8 {
        match self.class {
            InstClass::FpuAdd | InstClass::FpuOther => 1,
            InstClass::IntMulDiv | InstClass::FpMulDiv => 3,
            InstClass::Sfu => 4,
            InstClass::Mem => 5,
            _ => 0,
        }
    }
}

/// Mutable execution environment shared by a block's warps.
pub struct ExecEnv<'a> {
    /// The kernel.
    pub program: &'a Program,
    /// Launch geometry.
    pub launch: LaunchConfig,
    /// Device global memory.
    pub global: &'a mut MemImage,
    /// This block's shared memory.
    pub shared: &'a mut MemImage,
}

/// Optional per-step hooks.
#[derive(Default)]
pub struct StepHooks<'a> {
    /// Collect adder records here (one per lane add).
    pub records: Option<&'a mut Vec<AddRecord>>,
    /// Trace result values of one global thread id.
    pub trace: Option<(&'a mut ValueTrace, u64)>,
}

fn as_f32(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

fn from_f32(v: f32) -> u64 {
    u64::from(v.to_bits())
}

fn as_f64(bits: u64) -> f64 {
    f64::from_bits(bits)
}

fn from_f64(v: f64) -> u64 {
    v.to_bits()
}

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

/// Executes the instruction at the warp's current PC, writing its lane
/// adds and memory addresses into `lanes`.
///
/// # Panics
///
/// Panics if the warp has already finished, or on out-of-bounds memory
/// accesses (a kernel bug, surfaced loudly).
pub fn step(
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
    if let (Some(sink), Some(width)) = (hooks.records.as_deref_mut(), adder_width) {
        sink.extend(lanes.adds.iter().map(|l| l.record(pc, width)));
    }

    if let (Some((trace, _)), Some((_, value))) = (hooks.trace.as_mut(), traced) {
        trace.record(pc, value, info.class);
    }

    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use st2_isa::KernelBuilder;

    fn env<'a>(
        program: &'a Program,
        launch: LaunchConfig,
        global: &'a mut MemImage,
        shared: &'a mut MemImage,
    ) -> ExecEnv<'a> {
        ExecEnv {
            program,
            launch,
            global,
            shared,
        }
    }

    fn run_one_warp(program: &Program, global: &mut MemImage, lanes: u32) -> WarpCtx {
        let launch = LaunchConfig::new(1, lanes);
        let mut shared = MemImage::new(program.shared_bytes().max(8));
        let mut warp = WarpCtx::new(0, 0, 0, lanes, program.num_regs());
        let mut e = env(program, launch, global, &mut shared);
        let mut hooks = StepHooks::default();
        let mut lanes = LaneBuffers::default();
        let mut steps = 0;
        while !warp.is_done() {
            let _ = step(&mut warp, &mut e, &mut hooks, &mut lanes);
            steps += 1;
            assert!(steps < 100_000, "runaway kernel");
        }
        warp
    }

    #[test]
    fn arithmetic_and_store() {
        let mut k = KernelBuilder::new("t");
        let tid = k.special(Special::GlobalTid);
        let v = k.reg();
        k.imul(v, tid.into(), Operand::Imm(3));
        k.iadd(v, v.into(), Operand::Imm(10));
        let a = k.reg();
        k.imul(a, tid.into(), Operand::Imm(8));
        k.st_global_u64(v.into(), a, 0);
        let p = k.finish();
        let mut g = MemImage::new(8 * 32);
        let _ = run_one_warp(&p, &mut g, 32);
        for t in 0..32u64 {
            assert_eq!(g.read_u64(t * 8), t * 3 + 10);
        }
    }

    #[test]
    fn divergent_if_else() {
        // even lanes: out = 100 + lane; odd lanes: out = lane - 100.
        let mut k = KernelBuilder::new("t");
        let tid = k.special(Special::GlobalTid);
        let parity = k.reg();
        k.iand(parity, tid.into(), Operand::Imm(1));
        let out = k.reg();
        let is_odd = k.reg();
        k.setne(is_odd, parity.into(), Operand::Imm(0));
        k.if_else(
            is_odd,
            |k| k.isub(out, tid.into(), Operand::Imm(100)),
            |k| k.iadd(out, tid.into(), Operand::Imm(100)),
        );
        let a = k.reg();
        k.imul(a, tid.into(), Operand::Imm(8));
        k.st_global_u64(out.into(), a, 0);
        let p = k.finish();
        let mut g = MemImage::new(8 * 32);
        let _ = run_one_warp(&p, &mut g, 32);
        for t in 0..32i64 {
            let expect = if t % 2 == 1 { t - 100 } else { t + 100 };
            assert_eq!(g.read_u64(t as u64 * 8) as i64, expect, "lane {t}");
        }
    }

    #[test]
    fn data_dependent_loop() {
        // out[t] = sum of 0..t
        let mut k = KernelBuilder::new("t");
        let tid = k.special(Special::GlobalTid);
        let acc = k.reg();
        k.mov(acc, Operand::Imm(0));
        k.for_range(Operand::Imm(0), tid.into(), |k, i| {
            k.iadd(acc, acc.into(), i.into());
        });
        let a = k.reg();
        k.imul(a, tid.into(), Operand::Imm(8));
        k.st_global_u64(acc.into(), a, 0);
        let p = k.finish();
        let mut g = MemImage::new(8 * 32);
        let _ = run_one_warp(&p, &mut g, 32);
        for t in 0..32u64 {
            assert_eq!(g.read_u64(t * 8), t * t.saturating_sub(1) / 2, "lane {t}");
        }
    }

    #[test]
    fn float_pipeline() {
        // out[t] = sqrt(t) * 2.0 + 1.0 via fma
        let mut k = KernelBuilder::new("t");
        let tid = k.special(Special::GlobalTid);
        let f = k.reg();
        k.i2f(f, tid.into());
        k.fsqrt(f, f.into());
        let r = k.reg();
        k.fmad(r, f.into(), Operand::f32(2.0), Operand::f32(1.0));
        let a = k.reg();
        k.imul(a, tid.into(), Operand::Imm(4));
        k.st_global_u32(r.into(), a, 0);
        let p = k.finish();
        let mut g = MemImage::new(4 * 32);
        let _ = run_one_warp(&p, &mut g, 32);
        for t in 0..32u32 {
            let expect = (t as f32).sqrt().mul_add(2.0, 1.0);
            assert!((g.read_f32(u64::from(t) * 4) - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn adder_records_emitted() {
        let mut k = KernelBuilder::new("t");
        let tid = k.special(Special::GlobalTid);
        let x = k.reg();
        k.iadd(x, tid.into(), Operand::Imm(7));
        k.imin(x, x.into(), Operand::Imm(100));
        k.imul(x, x.into(), Operand::Imm(2)); // not an adder op
        let p = k.finish();
        let launch = LaunchConfig::new(1, 32);
        let mut g = MemImage::new(8);
        let mut sh = MemImage::new(8);
        let mut warp = WarpCtx::new(0, 0, 0, 32, p.num_regs());
        let mut recs = Vec::new();
        let mut hooks = StepHooks {
            records: Some(&mut recs),
            trace: None,
        };
        let mut e = env(&p, launch, &mut g, &mut sh);
        let mut lanes = LaneBuffers::default();
        while !warp.is_done() {
            let _ = step(&mut warp, &mut e, &mut hooks, &mut lanes);
        }
        // 32 lanes × (1 add + 1 min) = 64 records; the min is a subtract.
        assert_eq!(recs.len(), 64);
        assert!(recs.iter().any(|r| r.sub));
        assert!(recs.iter().any(|r| !r.sub));
        assert_eq!(recs[0].width, WidthClass::Int64);
    }

    #[test]
    fn partial_warp_masks_high_lanes() {
        let mut k = KernelBuilder::new("t");
        let tid = k.special(Special::GlobalTid);
        let a = k.reg();
        k.imul(a, tid.into(), Operand::Imm(8));
        k.st_global_u64(Operand::Imm(7), a, 0);
        let p = k.finish();
        let mut g = MemImage::new(8 * 32);
        let _ = run_one_warp(&p, &mut g, 5);
        for t in 0..5u64 {
            assert_eq!(g.read_u64(t * 8), 7);
        }
        for t in 5..32u64 {
            assert_eq!(g.read_u64(t * 8), 0, "inactive lane {t} must not store");
        }
    }
}
