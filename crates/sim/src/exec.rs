//! The functional execution core: one warp instruction at a time.
//!
//! Both execution modes (fast functional and cycle-level timed) call
//! [`step`]; it updates architectural state (registers, memory, the SIMT
//! stack) and reports everything the caller needs for statistics, timing
//! and speculation: the instruction class, active-lane count, per-lane
//! adder operations, and memory access addresses.
//!
//! [`step`] executes a whole warp at once. It resolves the opcode, width,
//! memory space and each operand once per instruction (an operand is a
//! register column or a splatted immediate), then runs one tight loop
//! over the active lanes: a plain range when the mask is full, the set
//! bits otherwise. Registers are stored register-major, so each operand is
//! one contiguous slice. Lanes are visited in lane order wherever the
//! order shows: lane adds and addresses, records, memory accesses (two
//! lanes of one store may hit the same address) and the traced lane.

use crate::simt::{full_mask, Mask, SimtStack};
use crate::trace::ValueTrace;
use st2_core::event::{AddRecord, WidthClass};
use st2_core::float::{
    f32_add_operands, f32_add_reaches_adder, f32_fma_operands, f64_add_operands,
    f64_add_reaches_adder, f64_fma_operands, MantissaOp,
};
use st2_isa::{
    FloatOp, FloatWidth, Inst, InstClass, IntOp, LaunchConfig, MemImage, MemWidth, NumType,
    Operand, Program, Reg, SfuOp, Space, Special,
};

pub(crate) use st2_core::event::LaneAdd;

#[cfg(test)]
mod reference;

/// Architectural state of one warp.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WarpCtx {
    /// Warp index within its block.
    pub(crate) warp_in_block: u32,
    /// Block index within the grid.
    pub(crate) block_id: u32,
    /// Global thread id of lane 0.
    pub(crate) gtid_base: u64,
    /// Live lanes in this warp (the last warp of a block may be partial).
    pub(crate) lanes: u32,
    /// Register file: `num_regs × lanes`, register-major (register `r` of
    /// lane `l` at `r × lanes + l`), so one register of every lane is a
    /// contiguous column.
    regs: Vec<u64>,
    /// Divergence stack.
    pub(crate) stack: SimtStack,
}

impl WarpCtx {
    /// Creates a warp with zeroed registers.
    #[must_use]
    pub(crate) fn new(
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
            stack: SimtStack::new(lanes),
        }
    }

    /// Whether every thread has exited.
    #[must_use]
    pub(crate) fn is_done(&self) -> bool {
        self.stack.is_done()
    }

    /// Register read.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn reg(&self, lane: u32, r: Reg) -> u64 {
        self.column(r)[lane as usize]
    }

    /// Register write.
    #[cfg(test)]
    pub(crate) fn set_reg(&mut self, lane: u32, r: Reg, v: u64) {
        self.column_mut(r)[lane as usize] = v;
    }

    /// Register `r` of every lane.
    fn column(&self, r: Reg) -> &[u64] {
        let n = self.lanes as usize;
        &self.regs[usize::from(r.0) * n..][..n]
    }

    /// Register `r` of every lane, for writing.
    fn column_mut(&mut self, r: Reg) -> &mut [u64] {
        let n = self.lanes as usize;
        &mut self.regs[usize::from(r.0) * n..][..n]
    }

    /// Copies operand `op` of every lane into `out`: a register column, or
    /// the immediate in every slot. Returns the register reads one lane
    /// makes for it (1 or 0).
    fn load(&self, op: Operand, out: &mut [u64; 32]) -> u64 {
        match op {
            Operand::Reg(r) => {
                let col = self.column(r);
                out[..col.len()].copy_from_slice(col);
                1
            }
            Operand::Imm(v) => {
                out.fill(v as u64);
                0
            }
        }
    }
}

/// A warp-level memory access (post-execution, for timing/energy). Its
/// per-lane addresses are in [`LaneBuffers::addrs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemAccess {
    /// Memory space.
    pub(crate) space: Space,
    /// Access width.
    pub(crate) width: MemWidth,
    /// Whether this was a store.
    pub(crate) store: bool,
}

/// Caller-owned per-lane outputs of [`step`], reused across steps so
/// that executing an instruction allocates nothing once they have grown
/// to a warp's width. Each [`step`] clears both before it runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LaneBuffers {
    /// The adder inputs of the step's lanes that reached an adder
    /// datapath (inactive and special-cased lanes omitted), lane order.
    /// Filled only when the step's [`StepHooks`] consume lane adds;
    /// [`StepInfo::adder_lanes`] counts them either way.
    pub(crate) adds: Vec<LaneAdd>,
    /// The byte address of each active lane of a memory access, lane
    /// order; empty when [`StepInfo::mem`] is `None`.
    pub(crate) addrs: Vec<u64>,
}

/// What one [`step`] did. Its per-lane detail is in the
/// [`LaneBuffers`] passed to the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StepInfo {
    /// PC of the executed instruction.
    pub(crate) pc: u32,
    /// Its class.
    pub(crate) class: InstClass,
    /// Active threads that executed it.
    pub(crate) active_threads: u32,
    /// Thread-level register reads performed.
    pub(crate) reg_reads: u64,
    /// Thread-level register writes performed.
    pub(crate) reg_writes: u64,
    /// Memory access, if any.
    pub(crate) mem: Option<MemAccess>,
    /// Datapath width class of the step's adds, if any lane reached an
    /// adder.
    pub(crate) adder: Option<WidthClass>,
    /// Lanes that reached an adder (0 exactly when `adder` is `None`).
    pub(crate) adder_lanes: u32,
    /// The warp reached a barrier.
    pub(crate) barrier: bool,
}

impl StepInfo {
    /// The functional-unit pool code used in telemetry issue events
    /// (see `st2_telemetry::event::pool_name`), inferred from the
    /// instruction class.
    #[must_use]
    pub(crate) fn pool_code(&self) -> u8 {
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
pub(crate) struct ExecEnv<'a> {
    /// The kernel.
    pub(crate) program: &'a Program,
    /// Launch geometry.
    pub(crate) launch: LaunchConfig,
    /// Device global memory.
    pub(crate) global: &'a mut MemImage,
    /// This block's shared memory.
    pub(crate) shared: &'a mut MemImage,
}

/// Optional per-step hooks.
#[derive(Default)]
pub(crate) struct StepHooks<'a> {
    /// Collect adder records here (one per lane add).
    pub(crate) records: Option<&'a mut Vec<AddRecord>>,
    /// Trace result values of one global thread id.
    pub(crate) trace: Option<(&'a mut ValueTrace, u64)>,
    /// Fill [`LaneBuffers::adds`] (speculation consumes them); the
    /// records hook fills them regardless.
    pub(crate) lane_adds: bool,
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

/// Writes `f` of each active lane's operand to `dst`.
#[inline(always)]
fn map1(active: Active, dst: &mut [u64], a: &[u64; 32], f: impl Fn(u64) -> u64) {
    active.each(|l| dst[l] = f(a[l]));
}

/// Writes `f` of each active lane's two operands to `dst`.
#[inline(always)]
fn map2(
    active: Active,
    dst: &mut [u64],
    a: &[u64; 32],
    b: &[u64; 32],
    f: impl Fn(u64, u64) -> u64,
) {
    active.each(|l| dst[l] = f(a[l], b[l]));
}

/// The active lanes of one step.
#[derive(Debug, Clone, Copy)]
struct Active {
    mask: Mask,
    full: bool,
    width: usize,
}

impl Active {
    fn new(mask: Mask, lanes: u32) -> Self {
        Active {
            mask,
            full: mask == full_mask(lanes),
            width: lanes as usize,
        }
    }

    /// Runs `f` on every active lane in lane order: over the whole warp
    /// when the mask is full, otherwise over the mask's set bits.
    #[inline(always)]
    fn each(self, mut f: impl FnMut(usize)) {
        if self.full {
            for lane in 0..self.width {
                f(lane);
            }
        } else {
            let mut m = self.mask;
            while m != 0 {
                f(m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
    }

    /// Whether `lane` is active.
    fn has(self, lane: u64) -> bool {
        lane < 32 && self.mask >> lane & 1 != 0
    }
}

/// Counts the active lanes whose floating-point add reaches the mantissa
/// adder (`reaches`), and when `adds` is given pushes each one's operands
/// (`operands`, `Some` exactly where `reaches` holds) in lane order.
#[inline(always)]
fn mantissa_lanes(
    active: Active,
    gtid_base: u64,
    adds: Option<&mut Vec<LaneAdd>>,
    reaches: impl Fn(usize) -> bool,
    operands: impl Fn(usize) -> Option<MantissaOp>,
) -> u32 {
    match adds {
        Some(adds) => {
            let before = adds.len();
            active.each(|l| {
                if let Some(m) = operands(l) {
                    adds.push(LaneAdd {
                        lane: l as u32,
                        gtid: gtid_base + l as u64,
                        a: m.a,
                        b: m.b,
                        sub: m.sub,
                    });
                }
            });
            (adds.len() - before) as u32
        }
        None => {
            let mut n = 0;
            active.each(|l| n += u32::from(reaches(l)));
            n
        }
    }
}

/// Executes the instruction at the warp's current PC across every active
/// lane, writing its lane adds and memory addresses into `lanes`.
///
/// # Panics
///
/// Panics if the warp has already finished, or on out-of-bounds memory
/// accesses (a kernel bug, surfaced loudly).
pub(crate) fn step(
    warp: &mut WarpCtx,
    env: &mut ExecEnv<'_>,
    hooks: &mut StepHooks<'_>,
    lanes: &mut LaneBuffers,
) -> StepInfo {
    let pc = warp.stack.pc();
    let mask = warp.stack.active_mask();
    let active = Active::new(mask, warp.lanes);
    let n_active = u64::from(mask.count_ones());
    let inst = *env.program.fetch(pc).unwrap_or(&Inst::Exit); // falling off the end exits

    let mut info = StepInfo {
        pc,
        class: inst.class(),
        active_threads: mask.count_ones(),
        reg_reads: 0,
        reg_writes: 0,
        mem: None,
        adder: None,
        adder_lanes: 0,
        barrier: false,
    };

    lanes.adds.clear();
    lanes.addrs.clear();
    let adds = (hooks.lane_adds || hooks.records.is_some()).then_some(&mut lanes.adds);
    let gtid_base = warp.gtid_base;
    // The traced thread's lane, if it is active in this step.
    let trace_lane = hooks
        .trace
        .as_ref()
        .and_then(|(_, g)| g.checked_sub(gtid_base))
        .filter(|&l| active.has(l))
        .map(|l| l as usize);
    let mut traced: Option<i64> = None;
    let (mut av, mut bv, mut cv) = ([0u64; 32], [0u64; 32], [0u64; 32]);

    match inst {
        Inst::Int { op, d, a, b } => {
            let reads = warp.load(a, &mut av) + warp.load(b, &mut bv);
            let dst = warp.column_mut(d);
            // One lane loop per opcode, on the operands as `i64`.
            macro_rules! lanes {
                (|$x:ident, $y:ident| $e:expr) => {
                    map2(active, dst, &av, &bv, |a, b| {
                        let ($x, $y) = (a as i64, b as i64);
                        ($e) as u64
                    })
                };
            }
            match op {
                IntOp::Add => lanes!(|a, b| a.wrapping_add(b)),
                IntOp::Sub => lanes!(|a, b| a.wrapping_sub(b)),
                IntOp::Mul => lanes!(|a, b| a.wrapping_mul(b)),
                IntOp::Div => lanes!(|a, b| if b == 0 { 0 } else { a.wrapping_div(b) }),
                IntOp::Rem => lanes!(|a, b| if b == 0 { 0 } else { a.wrapping_rem(b) }),
                IntOp::Min => lanes!(|a, b| a.min(b)),
                IntOp::Max => lanes!(|a, b| a.max(b)),
                IntOp::And => lanes!(|a, b| a & b),
                IntOp::Or => lanes!(|a, b| a | b),
                IntOp::Xor => lanes!(|a, b| a ^ b),
                IntOp::Shl => lanes!(|a, b| (a as u64) << (b as u64 & 63)),
                IntOp::Shr => lanes!(|a, b| a as u64 >> (b as u64 & 63)),
                IntOp::Sra => lanes!(|a, b| a >> (b as u64 & 63)),
                IntOp::SetLt => lanes!(|a, b| a < b),
                IntOp::SetLe => lanes!(|a, b| a <= b),
                IntOp::SetEq => lanes!(|a, b| a == b),
                IntOp::SetNe => lanes!(|a, b| a != b),
            }
            info.reg_reads = n_active * reads;
            info.reg_writes = n_active;
            if op.uses_adder() && n_active > 0 {
                info.adder = Some(WidthClass::Int64);
                info.adder_lanes = info.active_threads;
                if let Some(adds) = adds {
                    let sub = op.is_subtract();
                    active.each(|l| {
                        adds.push(LaneAdd {
                            lane: l as u32,
                            gtid: gtid_base + l as u64,
                            a: av[l],
                            b: bv[l],
                            sub,
                        });
                    });
                }
            }
            traced = trace_lane.map(|l| dst[l] as i64);
            warp.stack.advance();
        }
        Inst::Float { op, w, d, a, b } => {
            let reads = warp.load(a, &mut av) + warp.load(b, &mut bv);
            let dst = warp.column_mut(d);
            // One lane loop per opcode and width; comparisons write 1 or 0.
            macro_rules! lanes {
                ($as:ident, $from:ident) => {
                    match op {
                        FloatOp::Add => map2(active, dst, &av, &bv, |a, b| $from($as(a) + $as(b))),
                        FloatOp::Sub => map2(active, dst, &av, &bv, |a, b| $from($as(a) - $as(b))),
                        FloatOp::Mul => map2(active, dst, &av, &bv, |a, b| $from($as(a) * $as(b))),
                        FloatOp::Div => map2(active, dst, &av, &bv, |a, b| $from($as(a) / $as(b))),
                        FloatOp::Min => {
                            map2(active, dst, &av, &bv, |a, b| $from($as(a).min($as(b))))
                        }
                        FloatOp::Max => {
                            map2(active, dst, &av, &bv, |a, b| $from($as(a).max($as(b))))
                        }
                        FloatOp::SetLt => {
                            map2(active, dst, &av, &bv, |a, b| u64::from($as(a) < $as(b)))
                        }
                        FloatOp::SetLe => {
                            map2(active, dst, &av, &bv, |a, b| u64::from($as(a) <= $as(b)))
                        }
                        FloatOp::SetEq => {
                            map2(active, dst, &av, &bv, |a, b| u64::from($as(a) == $as(b)))
                        }
                    }
                };
            }
            match w {
                FloatWidth::F32 => lanes!(as_f32, from_f32),
                FloatWidth::F64 => lanes!(as_f64, from_f64),
            }
            info.reg_reads = n_active * reads;
            info.reg_writes = n_active;
            if matches!(op, FloatOp::Add | FloatOp::Sub) {
                let neg = op == FloatOp::Sub;
                macro_rules! mantissa {
                    ($as:ident, $reaches:ident, $operands:ident, $width:expr) => {{
                        let y = |l: usize| if neg { -$as(bv[l]) } else { $as(bv[l]) };
                        let n = mantissa_lanes(
                            active,
                            gtid_base,
                            adds,
                            |l| $reaches($as(av[l]), y(l)),
                            |l| $operands($as(av[l]), y(l)),
                        );
                        (n, $width)
                    }};
                }
                let (count, width) = match w {
                    FloatWidth::F32 => {
                        mantissa!(
                            as_f32,
                            f32_add_reaches_adder,
                            f32_add_operands,
                            WidthClass::Mant24
                        )
                    }
                    FloatWidth::F64 => {
                        mantissa!(
                            as_f64,
                            f64_add_reaches_adder,
                            f64_add_operands,
                            WidthClass::Mant53
                        )
                    }
                };
                info.adder = (count > 0).then_some(width);
                info.adder_lanes = count;
            }
            traced = trace_lane.map(|l| match (op, w) {
                (FloatOp::SetLt | FloatOp::SetLe | FloatOp::SetEq, _) => dst[l] as i64,
                (_, FloatWidth::F32) => as_f32(dst[l]) as i64,
                (_, FloatWidth::F64) => as_f64(dst[l]) as i64,
            });
            warp.stack.advance();
        }
        Inst::Fma { w, d, a, b, c } => {
            let reads = warp.load(a, &mut av) + warp.load(b, &mut bv) + warp.load(c, &mut cv);
            let dst = warp.column_mut(d);
            macro_rules! fma {
                ($as:ident, $from:ident, $reaches:ident, $operands:ident, $width:expr) => {{
                    let xyz = |l: usize| ($as(av[l]), $as(bv[l]), $as(cv[l]));
                    active.each(|l| {
                        let (x, y, z) = xyz(l);
                        dst[l] = $from(x.mul_add(y, z));
                    });
                    // The accumulate stage adds the rounded product to the addend.
                    let n = mantissa_lanes(
                        active,
                        gtid_base,
                        adds,
                        |l| {
                            let (x, y, z) = xyz(l);
                            $reaches(x * y, z)
                        },
                        |l| {
                            let (x, y, z) = xyz(l);
                            $operands(x, y, z)
                        },
                    );
                    traced = trace_lane.map(|l| $as(dst[l]) as i64);
                    (n, $width)
                }};
            }
            let (count, width) = match w {
                FloatWidth::F32 => fma!(
                    as_f32,
                    from_f32,
                    f32_add_reaches_adder,
                    f32_fma_operands,
                    WidthClass::Mant24
                ),
                FloatWidth::F64 => fma!(
                    as_f64,
                    from_f64,
                    f64_add_reaches_adder,
                    f64_fma_operands,
                    WidthClass::Mant53
                ),
            };
            info.reg_reads = n_active * reads;
            info.reg_writes = n_active;
            info.adder = (count > 0).then_some(width);
            info.adder_lanes = count;
            warp.stack.advance();
        }
        Inst::Sfu { op, d, a } => {
            info.reg_reads = n_active * warp.load(a, &mut av);
            info.reg_writes = n_active;
            let dst = warp.column_mut(d);
            let f: fn(f32) -> f32 = match op {
                SfuOp::Sqrt => f32::sqrt,
                SfuOp::Exp => f32::exp,
                SfuOp::Log => f32::ln,
                SfuOp::Sin => f32::sin,
                SfuOp::Cos => f32::cos,
                SfuOp::Rcp => |x| 1.0 / x,
                SfuOp::Rsqrt => |x| 1.0 / x.sqrt(),
            };
            map1(active, dst, &av, |a| from_f32(f(as_f32(a))));
            warp.stack.advance();
        }
        Inst::Cvt { d, a, from, to } => {
            info.reg_reads = n_active * warp.load(a, &mut av);
            info.reg_writes = n_active;
            let dst = warp.column_mut(d);
            let f: fn(u64) -> u64 = match (from, to) {
                (NumType::I64, NumType::F32) => |v| from_f32(v as i64 as f32),
                (NumType::I64, NumType::F64) => |v| from_f64(v as i64 as f64),
                (NumType::F32, NumType::I64) => |v| as_f32(v) as i64 as u64,
                (NumType::F64, NumType::I64) => |v| as_f64(v) as i64 as u64,
                (NumType::F32, NumType::F64) => |v| from_f64(f64::from(as_f32(v))),
                (NumType::F64, NumType::F32) => |v| from_f32(as_f64(v) as f32),
                (NumType::I64, NumType::I64)
                | (NumType::F32, NumType::F32)
                | (NumType::F64, NumType::F64) => |v| v,
            };
            map1(active, dst, &av, f);
            warp.stack.advance();
        }
        Inst::Ld {
            d,
            addr,
            offset,
            space,
            width,
        } => {
            let base = warp.column(addr);
            active.each(|l| lanes.addrs.push(base[l].wrapping_add_signed(offset)));
            let mem: &MemImage = match space {
                Space::Global => env.global,
                Space::Shared => env.shared,
            };
            let dst = warp.column_mut(d);
            let mut addrs = lanes.addrs.iter();
            let mut next = || *addrs.next().expect("one address per active lane");
            match width {
                MemWidth::W4 => active.each(|l| dst[l] = mem.read_i32_sext(next()) as u64),
                MemWidth::W8 => active.each(|l| dst[l] = mem.read_u64(next())),
            }
            info.reg_reads = n_active;
            info.reg_writes = n_active;
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
            let reads = 1 + warp.load(v, &mut av);
            let base = warp.column(addr);
            active.each(|l| lanes.addrs.push(base[l].wrapping_add_signed(offset)));
            let mem: &mut MemImage = match space {
                Space::Global => env.global,
                Space::Shared => env.shared,
            };
            let mut addrs = lanes.addrs.iter();
            let mut next = || *addrs.next().expect("one address per active lane");
            match width {
                MemWidth::W4 => active.each(|l| mem.write_u32(next(), av[l] as u32)),
                MemWidth::W8 => active.each(|l| mem.write_u64(next(), av[l])),
            }
            info.reg_reads = n_active * reads;
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
                let col = warp.column(c.reg);
                let mut taken: Mask = 0;
                active.each(|l| {
                    if (col[l] != 0) == c.if_nonzero {
                        taken |= 1 << l;
                    }
                });
                info.reg_reads = n_active;
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
            info.reg_reads = n_active * warp.load(a, &mut av);
            info.reg_writes = n_active;
            let dst = warp.column_mut(d);
            active.each(|l| dst[l] = av[l]);
            warp.stack.advance();
        }
        Inst::Special { d, s } => {
            // Every special is a per-warp base plus, for the thread ids,
            // the lane index.
            let (base, per_lane) = match s {
                Special::Tid => (u64::from(warp.warp_in_block * 32), 1),
                Special::CtaId => (u64::from(warp.block_id), 0),
                Special::NTid => (u64::from(env.launch.block_dim), 0),
                Special::NCta => (u64::from(env.launch.grid_dim), 0),
                Special::LaneId => (0, 1),
                Special::WarpId => (u64::from(warp.warp_in_block), 0),
                Special::GlobalTid => (gtid_base, 1),
            };
            info.reg_writes = n_active;
            let dst = warp.column_mut(d);
            active.each(|l| dst[l] = base + per_lane * l as u64);
            warp.stack.advance();
        }
    }

    if let (Some(sink), Some(width)) = (hooks.records.as_deref_mut(), info.adder) {
        sink.extend(lanes.adds.iter().map(|l| l.record(pc, width)));
    }

    if let (Some((trace, _)), Some(value)) = (hooks.trace.as_mut(), traced) {
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
            ..StepHooks::default()
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

    /// A deterministic generator for the equivalence test's instructions
    /// and machine state (xorshift64*).
    struct Gen(u64);

    /// Registers of the equivalence test's warps.
    const REGS: u16 = 6;
    /// Bytes of each memory image; every generated access stays inside.
    const MEM_BYTES: u64 = 128;

    /// NaN (quiet, and negative with a payload), ±0, ±inf, the smallest
    /// and the largest negative subnormal, 1, −1.5, the largest finite
    /// value and 2²³ + 1.
    const F32_SPECIALS: [u32; 12] = [
        0x7fc0_0000,
        0xffc0_0001,
        0x0000_0000,
        0x8000_0000,
        0x7f80_0000,
        0xff80_0000,
        0x0000_0001,
        0x807f_ffff,
        0x3f80_0000,
        0xbfc0_0000,
        0x7f7f_ffff,
        0x4b00_0001,
    ];
    /// The same values at double width (2⁵² + 1 for the last).
    const F64_SPECIALS: [u64; 12] = [
        0x7ff8_0000_0000_0000,
        0xfff8_0000_0000_0001,
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x800f_ffff_ffff_ffff,
        0x3ff0_0000_0000_0000,
        0xbff8_0000_0000_0000,
        0x7fef_ffff_ffff_ffff,
        0x4330_0000_0000_0001,
    ];

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize]
        }

        /// A register value: arbitrary bits, a small integer, or an IEEE
        /// special or ordinary value at either width.
        fn value(&mut self) -> u64 {
            match self.below(5) {
                0 => self.next(),
                1 => (self.below(9) as i64 - 4) as u64,
                2 => u64::from(self.pick(&F32_SPECIALS)),
                3 => self.pick(&F64_SPECIALS),
                _ => match self.below(2) {
                    0 => from_f32(self.below(2000) as f32 / 16.0 - 60.0),
                    _ => from_f64(self.below(2000) as f64 / 16.0 - 60.0),
                },
            }
        }

        fn reg(&mut self) -> Reg {
            Reg(self.below(u64::from(REGS)) as u16)
        }

        fn operand(&mut self) -> Operand {
            if self.below(3) == 0 {
                Operand::Imm(self.value() as i64)
            } else {
                Operand::Reg(self.reg())
            }
        }

        fn pc(&mut self) -> u32 {
            self.below(5) as u32
        }
    }

    /// One instance of every instruction form the executor distinguishes,
    /// with random registers and operands.
    fn every_inst(g: &mut Gen) -> Vec<Inst> {
        use st2_isa::{BranchCond, SfuOp};
        const INT_OPS: [IntOp; 17] = [
            IntOp::Add,
            IntOp::Sub,
            IntOp::Mul,
            IntOp::Div,
            IntOp::Rem,
            IntOp::Min,
            IntOp::Max,
            IntOp::And,
            IntOp::Or,
            IntOp::Xor,
            IntOp::Shl,
            IntOp::Shr,
            IntOp::Sra,
            IntOp::SetLt,
            IntOp::SetLe,
            IntOp::SetEq,
            IntOp::SetNe,
        ];
        const FLOAT_OPS: [FloatOp; 9] = [
            FloatOp::Add,
            FloatOp::Sub,
            FloatOp::Mul,
            FloatOp::Div,
            FloatOp::Min,
            FloatOp::Max,
            FloatOp::SetLt,
            FloatOp::SetLe,
            FloatOp::SetEq,
        ];
        const SFU_OPS: [SfuOp; 7] = [
            SfuOp::Sqrt,
            SfuOp::Exp,
            SfuOp::Log,
            SfuOp::Sin,
            SfuOp::Cos,
            SfuOp::Rcp,
            SfuOp::Rsqrt,
        ];
        const NUM_TYPES: [NumType; 3] = [NumType::I64, NumType::F32, NumType::F64];
        const SPECIALS: [Special; 7] = [
            Special::Tid,
            Special::CtaId,
            Special::NTid,
            Special::NCta,
            Special::LaneId,
            Special::WarpId,
            Special::GlobalTid,
        ];
        let mut v = Vec::new();
        for op in INT_OPS {
            let (d, a, b) = (g.reg(), g.operand(), g.operand());
            v.push(Inst::Int { op, d, a, b });
        }
        for w in [FloatWidth::F32, FloatWidth::F64] {
            for op in FLOAT_OPS {
                let (d, a, b) = (g.reg(), g.operand(), g.operand());
                v.push(Inst::Float { op, w, d, a, b });
            }
            let (d, a, b, c) = (g.reg(), g.operand(), g.operand(), g.operand());
            v.push(Inst::Fma { w, d, a, b, c });
        }
        for op in SFU_OPS {
            let (d, a) = (g.reg(), g.operand());
            v.push(Inst::Sfu { op, d, a });
        }
        for from in NUM_TYPES {
            for to in NUM_TYPES {
                let (d, a) = (g.reg(), g.operand());
                v.push(Inst::Cvt { d, a, from, to });
            }
        }
        let (d, a) = (g.reg(), g.operand());
        v.push(Inst::Mov { d, a });
        for s in SPECIALS {
            v.push(Inst::Special { d: g.reg(), s });
        }
        for space in [Space::Global, Space::Shared] {
            for width in [MemWidth::W4, MemWidth::W8] {
                let offset = g.pick(&[-16, -4, 0, 4, 8]);
                let (d, addr) = (g.reg(), g.reg());
                v.push(Inst::Ld {
                    d,
                    addr,
                    offset,
                    space,
                    width,
                });
                let offset = g.pick(&[-16, -4, 0, 4, 8]);
                let (val, addr) = (g.operand(), g.reg());
                v.push(Inst::St {
                    v: val,
                    addr,
                    offset,
                    space,
                    width,
                });
            }
        }
        let (target, reconv) = (g.pc(), g.pc());
        v.push(Inst::Bra {
            cond: None,
            target,
            reconv,
        });
        for if_nonzero in [false, true] {
            let cond = Some(BranchCond {
                reg: g.reg(),
                if_nonzero,
            });
            let (target, reconv) = (g.pc(), g.pc());
            v.push(Inst::Bra {
                cond,
                target,
                reconv,
            });
        }
        v.push(Inst::Bar);
        v.push(Inst::Exit);
        v
    }

    /// Everything one step can touch, for comparing two executors.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        info: StepInfo,
        warp: WarpCtx,
        global: MemImage,
        shared: MemImage,
        lanes: LaneBuffers,
        records: Vec<AddRecord>,
        trace: ValueTrace,
    }

    type Executor =
        fn(&mut WarpCtx, &mut ExecEnv<'_>, &mut StepHooks<'_>, &mut LaneBuffers) -> StepInfo;

    /// Runs `exec` once from the given state, with the records hook if
    /// `records`, the value-trace hook on `trace`'s thread if any, and
    /// lane adds asked for if `lane_adds`.
    #[allow(clippy::too_many_arguments)]
    fn run_step(
        exec: Executor,
        program: &Program,
        launch: LaunchConfig,
        warp: &WarpCtx,
        memory: &MemImage,
        records: bool,
        trace: Option<u64>,
        lane_adds: bool,
    ) -> Outcome {
        let mut warp = warp.clone();
        let mut global = memory.clone();
        let mut shared = memory.clone();
        let mut recs = Vec::new();
        let mut values = ValueTrace::default();
        let mut lanes = LaneBuffers::default();
        let info = {
            let mut e = env(program, launch, &mut global, &mut shared);
            let mut hooks = StepHooks {
                records: records.then_some(&mut recs),
                trace: trace.map(|g| (&mut values, g)),
                lane_adds,
            };
            exec(&mut warp, &mut e, &mut hooks, &mut lanes)
        };
        Outcome {
            info,
            warp,
            global,
            shared,
            lanes,
            records: recs,
            trace: values,
        }
    }

    /// `out` with every NaN that `inst` wrote replaced by one canonical
    /// NaN. Rust leaves the payload of a NaN result unspecified, and the
    /// optimiser may commute a float operation's operands in one executor
    /// and not the other, so two NaN results count as the same value.
    fn nan_blind(inst: Inst, mut out: Outcome) -> Outcome {
        let (d, w) = match inst {
            Inst::Float {
                op: FloatOp::SetLt | FloatOp::SetLe | FloatOp::SetEq,
                ..
            } => return out,
            Inst::Float { w, d, .. } | Inst::Fma { w, d, .. } => (d, w),
            Inst::Sfu { d, .. }
            | Inst::Cvt {
                d,
                to: NumType::F32,
                ..
            } => (d, FloatWidth::F32),
            Inst::Cvt {
                d,
                to: NumType::F64,
                ..
            } => (d, FloatWidth::F64),
            _ => return out,
        };
        for lane in 0..out.warp.lanes {
            let v = out.warp.reg(lane, d);
            match w {
                FloatWidth::F32 if as_f32(v).is_nan() && v >> 32 == 0 => {
                    out.warp.set_reg(lane, d, from_f32(f32::NAN));
                }
                FloatWidth::F64 if as_f64(v).is_nan() => {
                    out.warp.set_reg(lane, d, from_f64(f64::NAN))
                }
                _ => {}
            }
        }
        out
    }

    proptest::proptest! {
        /// The whole-warp executor matches the per-lane reference on every
        /// instruction form, from random registers and memory, under
        /// random active masks and warp widths, with and without hooks.
        #[test]
        fn step_matches_per_lane_reference(
            lanes in 1u32..33,
            mask_bits: u32,
            full: bool,
            seed: u64,
            records: bool,
            traced: bool,
            lane_adds: bool,
        ) {
            let mut g = Gen(seed | 1);
            let mask = if full { crate::simt::full_mask(lanes) } else { mask_bits & crate::simt::full_mask(lanes) };
            let launch = LaunchConfig::new(1 + g.below(8) as u32, 1 + g.below(1024) as u32);
            let warp_in_block = g.below(32) as u32;
            let gtid_base = g.below(1 << 20);
            let trace = traced.then(|| gtid_base + g.below(34));
            for inst in every_inst(&mut g) {
                let mut warp = WarpCtx::new(warp_in_block, g.below(8) as u32, gtid_base, lanes, REGS);
                for lane in 0..lanes {
                    for r in 0..REGS {
                        warp.set_reg(lane, Reg(r), g.value());
                    }
                }
                if let Inst::Ld { addr, .. } | Inst::St { addr, .. } = inst {
                    // A few bases shared by many lanes, so that two lanes
                    // of one store often hit the same address.
                    let bases = [16 + 4 * g.below(16), 16 + 4 * g.below(16), 16 + g.below(64)];
                    for lane in 0..lanes {
                        warp.set_reg(lane, addr, g.pick(&bases));
                    }
                }
                warp.stack.force_mask(mask);
                let mut memory = MemImage::new(MEM_BYTES);
                for a in (0..MEM_BYTES).step_by(8) {
                    memory.write_u64(a, g.value());
                }
                let program = Program::new("one", vec![inst, Inst::Exit, Inst::Exit, Inst::Exit, Inst::Exit], REGS, MEM_BYTES);
                let fast = run_step(step, &program, launch, &warp, &memory, records, trace, lane_adds);
                let mut slow = run_step(reference::step, &program, launch, &warp, &memory, records, trace, lane_adds);
                // The reference always builds lane adds; the executor only
                // when they are consumed, and counts them either way.
                if !(records || lane_adds) {
                    slow.lanes.adds.clear();
                }
                let (fast, slow) = (nan_blind(inst, fast), nan_blind(inst, slow));
                proptest::prop_assert_eq!(&fast, &slow, "{:?} on lanes {} mask {:#x}", inst, lanes, mask);
            }
        }
    }
}
