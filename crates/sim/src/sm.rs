//! The per-SM simulation core.
//!
//! [`SmCore`] owns everything one streaming multiprocessor needs to step
//! a cycle — resident warps, block slots, the register scoreboard,
//! functional-unit pipes, the ST² Carry Register File,
//! and per-SM activity counters — and nothing shared with other SMs.
//! It reads and writes global memory directly but reaches the cache
//! hierarchy only through a [`RequestQueue`]: the driver
//! ([`crate::timed`]) serves the queued requests in SM-index order at
//! the end of every cycle.
//!
//! One cycle is three phases, all driven from outside:
//!
//! 1. [`SmCore::step_cycle`] — schedule and issue up to `issue_width`
//!    warp instructions, executing them functionally and queueing global
//!    memory transactions (scoreboard destinations of in-flight loads are
//!    parked at `u64::MAX`).
//! 2. The driver runs the queued transactions through their L2
//!    partitions and hands the completed results back through
//!    [`SmCore::complete_memory`], which resolves the parked scoreboard
//!    entries ([`SmCore::drain_memory`] bundles the whole phase for
//!    single-SM callers).
//! 3. [`SmCore::finish_cycle`] — release satisfied block barriers and
//!    retire finished blocks.

use crate::addrdec::AddressDecoder;
use crate::config::{GpuConfig, SchedulerKind};
use crate::exec::{step, ExecEnv, LaneAdd, LaneBuffers, StepHooks, WarpCtx};
use crate::memory::{
    apply_access_counters, coalesce, Completion, MemoryHierarchy, MshrView, RequestQueue,
};
use crate::stats::ActivityCounters;
use st2_core::adder::execute_st2_warp_op;
use st2_core::crf::CRF_ROWS;
use st2_core::sink::EventSink;
use st2_core::{CarryRegisterFile, WidthClass};
use st2_isa::{
    FloatOp, FloatWidth, Inst, IntOp, LaunchConfig, MemImage, Operand, Program, Reg, Space,
};
use st2_telemetry::{CycleProfile, MemTxn, StallReason, Telemetry};

#[derive(Debug)]
struct BlockSlot {
    shared: MemImage,
    warps_waiting: u32,
    /// The block's warps, all resident from admission to retirement.
    resident: u32,
    /// Those of them that have exited (counted at the issue that
    /// finished them), so barrier release and retirement need no scan.
    done: u32,
}

impl BlockSlot {
    /// Every warp of the block has exited: the slot retires.
    fn finished(&self) -> bool {
        self.resident > 0 && self.done == self.resident
    }
}

#[derive(Debug)]
struct TimedWarp {
    ctx: WarpCtx,
    slot: usize,
    reg_ready: Vec<u64>,
    /// Whether the pending write to each register came from a deferred
    /// global load (profiler: distinguishes `MemPending` from
    /// `Scoreboard` stalls). Tracks the *latest* write per register.
    mem_dep: Vec<bool>,
    /// Outstanding ST² mispredict repair cycles charged to this warp:
    /// incremented per mispredicting issue, consumed by the profiler to
    /// reclassify one observed dependency-stall cycle as `AdderRepair`.
    repair_debt: u64,
    waiting_barrier: bool,
}

/// One SM's ST² speculation state: its Carry Register File and the
/// cycle each CRF row was last written.
#[derive(Debug)]
struct SmSpec {
    crf: CarryRegisterFile,
    /// Cycle of the most recent CRF write per row (row = `pc & 0xF`);
    /// `u64::MAX` = never written. A fixed array — not a hash map — keeps
    /// the same-cycle conflict check off the adder hot path's allocator
    /// and hasher.
    row_writes: [u64; CRF_ROWS],
}

impl SmSpec {
    fn new() -> Self {
        SmSpec {
            crf: CarryRegisterFile::new(),
            row_writes: [u64::MAX; CRF_ROWS],
        }
    }

    /// Runs the lane adds of the warp instruction at `pc` through the
    /// speculative adders and this SM's CRF in one warp-level call
    /// ([`execute_st2_warp_op`]); returns whether any lane
    /// mispredicted (stalling the warp one cycle). Adder/CRF activity is
    /// mirrored into `sink`.
    fn process<S: EventSink + ?Sized>(
        &mut self,
        pc: u32,
        width: WidthClass,
        lanes: &[LaneAdd],
        act: &mut ActivityCounters,
        now: u64,
        sink: &mut S,
    ) -> bool {
        act.crf_reads += 1; // one row read per warp operation
        sink.crf_read(pc);
        let any = execute_st2_warp_op(
            &mut self.crf,
            width.layout(),
            pc,
            lanes,
            &mut act.adder,
            sink,
        );
        if any {
            // Mispredicting threads write back their new carries: one CRF
            // row write per warp; same-cycle writes to the same row from
            // different warps contend (random arbitration in hardware).
            let row = CarryRegisterFile::row_of(pc);
            let conflict = self.row_writes[row] == now;
            if conflict {
                act.crf_conflicts += 1;
            }
            self.row_writes[row] = now;
            act.crf_writes += 1;
            sink.crf_write(pc, conflict);
        }
        any
    }
}

/// Functional-unit pool count (dense [`Pool`] indices).
const NUM_POOLS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    Alu,
    Fpu,
    Dpu,
    MulDiv,
    Sfu,
    Ldst,
}

impl Pool {
    /// Dense index into the per-SM pipe table. Doubles as the pool code
    /// used in telemetry issue events
    /// (see `st2_telemetry::event::pool_name`).
    fn index(self) -> usize {
        match self {
            Pool::Alu => 0,
            Pool::Fpu => 1,
            Pool::Dpu => 2,
            Pool::MulDiv => 3,
            Pool::Sfu => 4,
            Pool::Ldst => 5,
        }
    }

    fn telemetry_code(self) -> u8 {
        self.index() as u8
    }
}

/// What the scheduler's per-warp check and the issue path need to know
/// about one instruction, decoded once per run — the software analogue
/// of the control bits a decoded instruction carries in hardware, so no
/// check re-matches the instruction.
#[derive(Debug, Clone, Copy)]
struct DecodedInst {
    /// Scoreboard registers in check order: the register sources in
    /// operand order, then the destination. The first of them to reach
    /// the latest ready time is the binding dependency.
    regs: [Reg; 4],
    num_regs: u8,
    /// Register written, if any.
    dest: Option<Reg>,
    pool: Pool,
    /// A global LD/ST: issue is gated by MSHR credits (shared-memory ops
    /// never leave the SM).
    global_mem: bool,
    /// An integer or floating-point divide (or remainder): the divider's
    /// latency and a four-cycle issue interval.
    div: bool,
    fma: bool,
}

impl DecodedInst {
    fn new(inst: &Inst) -> Self {
        let mut regs = [Reg(0); 4];
        let mut num_regs = 0u8;
        let mut read = |o: Operand| {
            if let Operand::Reg(r) = o {
                regs[usize::from(num_regs)] = r;
                num_regs += 1;
            }
        };
        let dest = match *inst {
            Inst::Int { d, a, b, .. } | Inst::Float { d, a, b, .. } => {
                read(a);
                read(b);
                Some(d)
            }
            Inst::Fma { d, a, b, c, .. } => {
                read(a);
                read(b);
                read(c);
                Some(d)
            }
            Inst::Sfu { d, a, .. } | Inst::Cvt { d, a, .. } | Inst::Mov { d, a } => {
                read(a);
                Some(d)
            }
            Inst::Ld { d, addr, .. } => {
                read(Operand::Reg(addr));
                Some(d)
            }
            Inst::St { v, addr, .. } => {
                read(v);
                read(Operand::Reg(addr));
                None
            }
            Inst::Bra { cond, .. } => {
                if let Some(c) = cond {
                    read(Operand::Reg(c.reg));
                }
                None
            }
            Inst::Bar | Inst::Exit => None,
            Inst::Special { d, .. } => Some(d),
        };
        if let Some(d) = dest {
            regs[usize::from(num_regs)] = d;
            num_regs += 1;
        }
        let pool = match inst {
            Inst::Int {
                op: IntOp::Mul | IntOp::Div | IntOp::Rem,
                ..
            }
            | Inst::Float {
                op: FloatOp::Mul | FloatOp::Div,
                ..
            } => Pool::MulDiv,
            Inst::Float {
                w: FloatWidth::F32, ..
            }
            | Inst::Fma {
                w: FloatWidth::F32, ..
            } => Pool::Fpu,
            Inst::Float {
                w: FloatWidth::F64, ..
            }
            | Inst::Fma {
                w: FloatWidth::F64, ..
            } => Pool::Dpu,
            Inst::Sfu { .. } => Pool::Sfu,
            Inst::Ld { .. } | Inst::St { .. } => Pool::Ldst,
            _ => Pool::Alu,
        };
        DecodedInst {
            regs,
            num_regs,
            dest,
            pool,
            global_mem: matches!(
                inst,
                Inst::Ld {
                    space: Space::Global,
                    ..
                } | Inst::St {
                    space: Space::Global,
                    ..
                }
            ),
            div: matches!(
                inst,
                Inst::Int {
                    op: IntOp::Div | IntOp::Rem,
                    ..
                } | Inst::Float {
                    op: FloatOp::Div,
                    ..
                }
            ),
            fma: matches!(inst, Inst::Fma { .. }),
        }
    }

    fn scoreboard_regs(&self) -> &[Reg] {
        &self.regs[..usize::from(self.num_regs)]
    }
}

/// A program decoded for the timed SM step: one `DecodedInst` per
/// instruction, built once per run and shared by reference by every
/// [`SmCore`].
#[derive(Debug)]
pub struct DecodedProgram<'p> {
    program: &'p Program,
    /// One entry per instruction, plus a trailing `exit` that every
    /// out-of-range PC reads (as [`step`] executes one).
    insts: Vec<DecodedInst>,
}

impl<'p> DecodedProgram<'p> {
    /// Decodes every instruction of `program`.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        let insts = program
            .insts()
            .iter()
            .chain(std::iter::once(&Inst::Exit))
            .map(DecodedInst::new)
            .collect();
        DecodedProgram { program, insts }
    }

    /// The decoded instruction at `pc`; out-of-range PCs read `exit`.
    fn at(&self, pc: u32) -> &DecodedInst {
        &self.insts[(pc as usize).min(self.insts.len() - 1)]
    }

    /// Whether `pc` is past the end of the program.
    fn out_of_range(&self, pc: u32) -> bool {
        pc as usize >= self.insts.len() - 1
    }
}

/// One global-memory access in flight between [`SmCore::step_cycle`] and
/// [`SmCore::drain_memory`] (same cycle): which warp issued it and the
/// scoreboard destination to resolve (None for stores, which retire
/// without blocking the warp).
#[derive(Debug, Clone, Copy)]
struct PendingAccess {
    warp: usize,
    dest: Option<Reg>,
}

/// What one [`SmCore::step_cycle`] call did, aggregated by the driver
/// into the global clock decision.
#[derive(Debug, Clone, Copy)]
pub struct CycleReport {
    /// The SM had resident warps this cycle.
    pub resident: bool,
    /// At least one warp instruction issued.
    pub issued: bool,
    /// Earliest future cycle at which a currently-stalled warp could
    /// issue (`u64::MAX` = no stalled warp); lets the driver fast-forward
    /// idle stretches. Memory stalls always publish a *finite* wake:
    /// `MemPending` reports `ready_at.max(pipe_free)` (load completions
    /// resolve the same cycle the fill lands, via `complete_memory`) and
    /// `MemThrottle` reports the MSHR wake hint — only `Done`/`Barrier`
    /// warps are `u64::MAX`. That exactness is what lets the driver
    /// park the SM until this cycle with no intermediate polling, and
    /// why a machine-wide `next_wake == u64::MAX` means every warp is
    /// finished or barrier-parked. Fills still in flight then (stores,
    /// say) are covered by their SM's calendar entry, which is at or
    /// before its `fill_wake`, so the quiet-machine jump in `timed.rs`
    /// needs no memory-side term.
    pub next_wake: u64,
}

impl Default for CycleReport {
    fn default() -> Self {
        CycleReport {
            resident: false,
            issued: false,
            next_wake: u64::MAX,
        }
    }
}

/// A self-contained per-SM simulation core. See the module docs for the
/// cycle protocol.
#[derive(Debug)]
pub struct SmCore {
    index: usize,
    cfg: GpuConfig,
    /// Resident warps in admission order: [`SmCore::admit_block`] appends
    /// a block's warps and [`SmCore::finish_cycle`] removes retired ones
    /// with an order-preserving `retain`. The index order is therefore
    /// oldest first, which is GTO's "oldest" order without an age key.
    warps: Vec<TimedWarp>,
    slots: Vec<Option<BlockSlot>>,
    pipes: [Vec<u64>; NUM_POOLS],
    spec: Option<SmSpec>,
    last_issued: Option<usize>,
    act: ActivityCounters,
    pending: Vec<PendingAccess>,
    /// Reused per-issue buffers: the issuing step's lane adds and
    /// addresses, the coalesced segments of a global access, and the
    /// per-access completion times of [`SmCore::complete_memory`].
    lanes: LaneBuffers,
    segs: Vec<u64>,
    worst: Vec<u64>,
    /// Copy of the hierarchy's address decoder, so the issue stage can
    /// charge the right per-partition credit without shared state.
    decoder: AddressDecoder,
    /// Per-partition mirror of this SM's free MSHR entries, refreshed by
    /// [`SmCore::complete_memory`] each cycle (so the issue stage can
    /// gate global LD/ST without reading shared hierarchy state
    /// mid-step). Stale by at most the accesses issued since the last
    /// drain, which the per-segment decrement below accounts for.
    mem_credit: Vec<u32>,
    /// Earliest in-flight fill time across this SM's MSHR slices
    /// (`u64::MAX` when none): the wake hint for `MemThrottle`-stalled
    /// warps, and the unconditional fill wake for the event-driven
    /// driver (sleeping past it would let a retirement change the
    /// credit mirrors behind the frozen report's back).
    mem_wake: u64,
    /// Occupied-MSHR count and any-slice-full flag as of the last
    /// [`SmCore::complete_memory`]: the values the skipped completion
    /// phases of a sleeping SM would keep reproducing (no fill retires
    /// mid-sleep — the driver wakes the core at `mem_wake` — and a
    /// parked SM allocates nothing), replayed by
    /// [`SmCore::replay_parked`].
    last_occupied: u32,
    last_any_full: bool,
    /// Earliest future cycle at which a stalled warp's *stall
    /// classification* — not just its wake time — could change while the
    /// SM is parked: a scoreboard/mem-pending dependency clearing can
    /// hand the warp to a pipe stall, and `AdderRepair` consumes repair
    /// debt every profiled cycle. Bounds how long the frozen
    /// `cycle_profile` stays replayable; `u64::MAX` when nothing can
    /// reclassify before `next_wake`. Only maintained when profiling
    /// (without a collector the profile is never committed).
    stall_stable_until: u64,
    /// Per-cycle profiling scratch, flushed by [`SmCore::commit_profile`]
    /// once the driver knows the cycle's global length.
    cycle_profile: CycleProfile,
    /// Stall reasons of non-issued warps this cycle, scheduler order
    /// (reused buffer for issue-slot attribution).
    stall_scratch: Vec<StallReason>,
}

impl SmCore {
    /// Creates the core for SM `index` with `block_slots` resident-block
    /// slots.
    #[must_use]
    pub fn new(index: usize, cfg: &GpuConfig, block_slots: u32) -> Self {
        SmCore {
            index,
            cfg: *cfg,
            warps: Vec::new(),
            slots: (0..block_slots).map(|_| None).collect(),
            pipes: [
                vec![0u64; cfg.alu_pipes as usize],
                vec![0u64; cfg.fpu_pipes as usize],
                vec![0u64; cfg.dpu_pipes as usize],
                vec![0u64; cfg.muldiv_pipes as usize],
                vec![0u64; cfg.sfu_pipes as usize],
                vec![0u64; cfg.ldst_pipes as usize],
            ],
            spec: cfg.st2.then(SmSpec::new),
            last_issued: None,
            act: ActivityCounters::default(),
            pending: Vec::new(),
            lanes: LaneBuffers::default(),
            segs: Vec::new(),
            worst: Vec::new(),
            decoder: AddressDecoder::new(cfg.l1_line, cfg.l2_partitions.max(1)),
            mem_credit: vec![
                (cfg.mshr_entries / cfg.l2_partitions.max(1)).max(1);
                cfg.l2_partitions.max(1) as usize
            ],
            mem_wake: u64::MAX,
            last_occupied: 0,
            last_any_full: false,
            stall_stable_until: u64::MAX,
            cycle_profile: CycleProfile::default(),
            stall_scratch: Vec::new(),
        }
    }

    /// This core's SM index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether no block is resident.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.warps.is_empty()
    }

    /// The per-SM activity accumulated so far.
    #[must_use]
    pub fn activity(&self) -> &ActivityCounters {
        &self.act
    }

    /// Earliest in-flight fill across this SM's MSHR slices
    /// (`u64::MAX` when none), as of the last completion phase. The
    /// event-driven driver never sleeps an SM past this: waking *at*
    /// the earliest fill means no retirement can happen mid-sleep, so
    /// the credit mirrors, occupancy and throttle state stay exactly
    /// what the frozen report and [`SmCore::replay_parked`] assume.
    #[must_use]
    pub fn fill_wake(&self) -> u64 {
        self.mem_wake
    }

    /// Whether a resident-block slot is free. An SM that could admit a
    /// block must stay awake while the grid has blocks left: admission
    /// is SM-index ordered, so a sleeping admissible SM would steal a
    /// different block than the step-everything path hands it.
    #[must_use]
    pub fn has_free_slot(&self) -> bool {
        self.slots.iter().any(Option::is_none)
    }

    /// Earliest cycle a stalled warp's classification could change (see
    /// the field docs); the profiling-mode component of the sleep bound.
    #[must_use]
    pub fn stall_stable_until(&self) -> u64 {
        self.stall_stable_until
    }

    /// Places block `block` into a free slot, materialising its warps.
    /// Returns `false` (without consuming the block) when every slot is
    /// occupied.
    pub fn admit_block(&mut self, block: u32, program: &Program, launch: LaunchConfig) -> bool {
        let Some(slot) = self.slots.iter().position(Option::is_none) else {
            return false;
        };
        let warps_per_block = launch.warps_per_block();
        self.slots[slot] = Some(BlockSlot {
            shared: MemImage::new(program.shared_bytes().max(8)),
            warps_waiting: 0,
            resident: warps_per_block,
            done: 0,
        });
        for w in 0..warps_per_block {
            let lanes = (launch.block_dim - w * 32).min(32);
            self.warps.push(TimedWarp {
                ctx: WarpCtx::new(
                    w,
                    block,
                    u64::from(block) * u64::from(launch.block_dim) + u64::from(w) * 32,
                    lanes,
                    program.num_regs(),
                ),
                slot,
                reg_ready: vec![0; usize::from(program.num_regs())],
                mem_dep: vec![false; usize::from(program.num_regs())],
                repair_debt: 0,
                waiting_barrier: false,
            });
        }
        true
    }

    /// Schedules and issues up to `issue_width` warp instructions of
    /// `code` at cycle `now`, executing them functionally against
    /// `global` and queueing coalesced global-memory transactions on
    /// `queue` (resolved later by [`SmCore::complete_memory`]).
    ///
    /// Every per-warp check is constant-time and allocation-free: it
    /// reads the instruction's decoded entry, the warp's scoreboard and
    /// per-step copies of the issue gates (each pool's earliest free
    /// pipe and the any-credit-exhausted flag), which are refreshed at
    /// each issue — the only point either can change within a step.
    pub fn step_cycle(
        &mut self,
        now: u64,
        code: &DecodedProgram<'_>,
        launch: LaunchConfig,
        global: &mut MemImage,
        queue: &mut RequestQueue,
        tele: &mut Telemetry,
    ) -> CycleReport {
        let mut report = CycleReport::default();
        let cfg = self.cfg;
        // Profiling classifies why each warp failed to issue. It reads
        // the same state the issue decision reads and never changes which
        // warps issue, so enabling it cannot perturb timing.
        let profiling = tele.is_enabled();
        self.stall_stable_until = u64::MAX;
        if profiling {
            self.cycle_profile.reset();
        }
        if self.warps.is_empty() {
            if profiling {
                self.cycle_profile.slot_stalls[StallReason::NoBlock.index()] = cfg.issue_width;
            }
            return report;
        }
        report.resident = true;

        let mut pool_free = [u64::MAX; NUM_POOLS];
        for (free, pipes) in pool_free.iter_mut().zip(&self.pipes) {
            *free = pipes.iter().copied().min().unwrap_or(u64::MAX);
        }
        let mut credit_zero = self.mem_credit.contains(&0);

        // Candidate order per the configured scheduler, over the
        // admission-ordered `warps`: GTO tries the last issuer first,
        // then the rest oldest first (index order); round-robin starts
        // after the last issuer and wraps.
        let n = self.warps.len();
        let (front, rotate) = match cfg.scheduler {
            SchedulerKind::Gto => (self.last_issued.filter(|&l| l < n), 0),
            SchedulerKind::RoundRobin => (None, self.last_issued.map_or(0, |l| (l + 1) % n)),
        };

        let mut issued_this_sm = 0u32;
        for k in 0..n {
            let wi = match front {
                Some(f) if k == 0 => f,
                Some(f) if k <= f => k - 1,
                Some(_) => k,
                None if k + rotate < n => k + rotate,
                None => k + rotate - n,
            };
            // When profiling, keep scanning past the issue-width cap so
            // every warp-cycle gets a stall attribution; otherwise stop
            // early exactly as before. Issuing is capped either way, and
            // the extra `next_wake` candidates the profiling scan finds
            // are irrelevant: the clock only fast-forwards on cycles
            // where *no* SM issued, and reaching the cap means we issued.
            if issued_this_sm >= cfg.issue_width && !profiling {
                break;
            }
            // Split-borrow dance: check conditions first. `reason` is the
            // profiler's stall attribution (None when issuable),
            // `consume_repair` flags a dependency stall reclassified as
            // ST² mispredict repair, and `stable` is the earliest cycle
            // this warp's classification could *change* while the SM is
            // parked (`u64::MAX` = not before its wake): dependency
            // stalls reclassify when the register clears, and repair
            // stalls consume debt every profiled cycle so they pin the
            // SM awake. Done/barrier warps need a sibling to issue
            // (impossible while parked), throttle clears with the fill
            // wake, and a pipe stall's transition *is* its wake time.
            let (can_issue, wake, reason, consume_repair, stable) = {
                let w = &self.warps[wi];
                if w.ctx.is_done() {
                    (false, u64::MAX, Some(StallReason::Done), false, u64::MAX)
                } else if w.waiting_barrier {
                    (false, u64::MAX, Some(StallReason::Barrier), false, u64::MAX)
                } else {
                    let d = code.at(w.ctx.stack.pc());
                    // Track the first register attaining the max ready
                    // time: the binding dependency for stall attribution
                    // (`>` keeps the first among ties — deterministic).
                    let mut ready_at = now;
                    let mut dep_reg: Option<Reg> = None;
                    for &r in d.scoreboard_regs() {
                        let t = w.reg_ready[usize::from(r.0)];
                        if t > ready_at {
                            ready_at = t;
                            dep_reg = Some(r);
                        }
                    }
                    let pipe_free = pool_free[d.pool.index()];
                    // Global LD/ST additionally needs free MSHR
                    // credits: with any partition slice full the memory
                    // subsystem back-pressures the LDST pipe until a
                    // fill retires (conservative — the access might
                    // route elsewhere — but cheap and deterministic).
                    let throttled = d.global_mem && credit_zero;
                    let at = ready_at.max(pipe_free);
                    if at <= now && !throttled {
                        (true, at, None, false, u64::MAX)
                    } else if ready_at > now {
                        // Register dependency binds (checked before the
                        // pipe: the operand must exist before structural
                        // hazards matter).
                        let on_load = dep_reg
                            .map(|r| w.mem_dep[usize::from(r.0)])
                            .unwrap_or(false);
                        if on_load {
                            (false, at, Some(StallReason::MemPending), false, ready_at)
                        } else if w.repair_debt > 0 {
                            (false, at, Some(StallReason::AdderRepair), true, now + 1)
                        } else {
                            (false, at, Some(StallReason::Scoreboard), false, ready_at)
                        }
                    } else if throttled {
                        (
                            false,
                            self.mem_wake,
                            Some(StallReason::MemThrottle),
                            false,
                            u64::MAX,
                        )
                    } else {
                        (
                            false,
                            at,
                            Some(StallReason::pipe(d.pool.index())),
                            false,
                            u64::MAX,
                        )
                    }
                }
            };
            if !can_issue {
                if wake != u64::MAX {
                    report.next_wake = report.next_wake.min(wake.max(now + 1));
                }
                if profiling {
                    self.stall_stable_until = self.stall_stable_until.min(stable);
                    if consume_repair {
                        self.warps[wi].repair_debt -= 1;
                    }
                    let reason = reason.unwrap_or(StallReason::Scoreboard);
                    self.stall_scratch.push(reason);
                    if reason != StallReason::Done {
                        let pc = self.warps[wi].ctx.stack.pc();
                        self.cycle_profile.pc_stalls.push((pc, reason));
                    }
                }
                continue;
            }
            if issued_this_sm >= cfg.issue_width {
                // Profiling scan only: ready warp that lost arbitration
                // (every issue slot already taken this cycle).
                self.cycle_profile.eligible_warps += 1;
                let pc = self.warps[wi].ctx.stack.pc();
                self.cycle_profile
                    .pc_stalls
                    .push((pc, StallReason::NotSelected));
                self.stall_scratch.push(StallReason::NotSelected);
                continue;
            }

            // Issue: execute functionally and account timing.
            let slot = self.warps[wi].slot;
            let pc = self.warps[wi].ctx.stack.pc();
            if code.out_of_range(pc) {
                // Out-of-range PC masked to a clean exit: legal for the
                // fallthrough off the last instruction, but worth
                // counting — a nonzero total on a well-formed program
                // means a control-flow bug upstream.
                self.act.fetch_oob += 1;
                if profiling {
                    self.cycle_profile.fetch_oob += 1;
                }
            }
            let d = *code.at(pc);
            let info = {
                let shared = &mut self.slots[slot]
                    .as_mut()
                    .expect("warp belongs to a live block")
                    .shared;
                let mut env = ExecEnv {
                    program: code.program,
                    launch,
                    global,
                    shared,
                };
                let mut hooks = StepHooks {
                    lane_adds: self.spec.is_some(),
                    ..StepHooks::default()
                };
                step(
                    &mut self.warps[wi].ctx,
                    &mut env,
                    &mut hooks,
                    &mut self.lanes,
                )
            };

            let act = &mut self.act;
            act.mix.add(info.class, u64::from(info.active_threads));
            if d.fma {
                act.fma_ops += u64::from(info.active_threads);
            }
            act.warp_instructions += 1;
            act.regfile_reads += info.reg_reads;
            act.regfile_writes += info.reg_writes;
            if let Some(width) = info.adder {
                let adds = u64::from(info.adder_lanes);
                match width {
                    WidthClass::Int64 => act.adder_int_ops += adds,
                    WidthClass::Mant24 => act.adder_f32_ops += adds,
                    WidthClass::Mant53 => act.adder_f64_ops += adds,
                }
            }

            // Timing.
            let mut latency = u64::from(match d.pool {
                Pool::Alu => cfg.alu_latency,
                Pool::Fpu => cfg.fpu_latency,
                Pool::Dpu => cfg.dpu_latency,
                Pool::MulDiv if d.div => cfg.div_latency,
                Pool::MulDiv => cfg.mul_latency,
                Pool::Sfu => cfg.sfu_latency,
                Pool::Ldst => 0, // set below (shared) or at drain (global)
            });
            let mut interval = if d.div {
                4
            } else if d.pool == Pool::Sfu {
                u64::from(cfg.sfu_interval)
            } else {
                1
            };

            // ST² speculation: a misprediction adds one recompute cycle
            // to both occupancy (stall) and result latency.
            if let (Some(spec), Some(width)) = (self.spec.as_mut(), info.adder) {
                tele.set_context(self.index, now);
                if spec.process(pc, width, &self.lanes.adds, &mut self.act, now, tele) {
                    interval += 1;
                    latency += 1;
                    self.act.stall_cycles += 1;
                    self.warps[wi].repair_debt += 1;
                }
            }

            // Memory timing. Shared memory is SM-local and resolves
            // inline; global transactions are queued on `queue` and
            // their worst-case completion time lands on the scoreboard
            // at drain time. A fully predicated-off access (every lane
            // masked) touches nothing and is not modeled at all.
            let mut deferred_load = false;
            if let Some(m) = info.mem.filter(|_| !self.lanes.addrs.is_empty()) {
                match m.space {
                    Space::Shared => {
                        let degree =
                            u64::from(crate::memory::bank_conflict_degree(&self.lanes.addrs));
                        self.act.shared_accesses += degree;
                        if degree > 1 {
                            self.act.shared_bank_conflicts += degree - 1;
                        }
                        latency = u64::from(cfg.shared_latency) + degree - 1;
                        interval = degree;
                    }
                    Space::Global => {
                        coalesce(&self.lanes.addrs, cfg.l1_line, &mut self.segs);
                        let token = self.pending.len() as u32;
                        for &seg in &self.segs {
                            queue.request(token, seg, m.store);
                            // Each segment may allocate an MSHR entry in
                            // its partition at the drain; spend the
                            // credit now so one cycle cannot
                            // oversubscribe a slice (exact state is
                            // re-mirrored at the completion phase).
                            let part = self.decoder.decode(seg);
                            self.mem_credit[part] = self.mem_credit[part].saturating_sub(1);
                        }
                        credit_zero = self.mem_credit.contains(&0);
                        self.pending.push(PendingAccess {
                            warp: wi,
                            dest: if m.store { None } else { d.dest },
                        });
                        interval = self.segs.len() as u64;
                        deferred_load = !m.store;
                    }
                }
                if m.store {
                    // Stores retire without blocking the warp (their
                    // bandwidth and MSHR occupancy are still charged at
                    // the drain — write-allocate).
                    latency = 0;
                }
            }

            // Occupy the pipe.
            let pipes = &mut self.pipes[d.pool.index()];
            let pipe = pipes.iter_mut().min().expect("pools are non-empty");
            *pipe = now + interval;
            pool_free[d.pool.index()] = pipes.iter().copied().min().unwrap_or(u64::MAX);

            // Scoreboard. Global-load destinations are parked until the
            // drain phase supplies the hierarchy latency.
            if let Some(dst) = d.dest {
                self.warps[wi].reg_ready[usize::from(dst.0)] = if deferred_load {
                    u64::MAX
                } else {
                    now + latency.max(1)
                };
                self.warps[wi].mem_dep[usize::from(dst.0)] = deferred_load;
            }

            // Block bookkeeping: barrier arrival, and the exit that
            // finished the warp (only `exit` can, and a done warp never
            // issues again, so each warp is counted once).
            let bs = self.slots[slot]
                .as_mut()
                .expect("warp belongs to a live block");
            if self.warps[wi].ctx.is_done() {
                bs.done += 1;
            }
            if info.barrier {
                self.warps[wi].waiting_barrier = true;
                bs.warps_waiting += 1;
                tele.barrier(self.index, now, wi as u32);
            }

            tele.issue(self.index, now, wi as u32, pc, d.pool.telemetry_code());
            if profiling {
                self.cycle_profile.issued += 1;
                self.cycle_profile.eligible_warps += 1;
                self.cycle_profile.pc_issued.push(pc);
            }
            self.last_issued = Some(wi);
            issued_this_sm += 1;
            report.issued = true;
        }

        if profiling {
            self.cycle_profile.active_warps = self.warps.len() as u32;
            // Issue-slot attribution: the `issue_width - issued` empty
            // slots are charged to the first non-issued warps' reasons in
            // scheduler order; slots with no stalled warp left to blame
            // had no candidate at all. `NotSelected` entries only exist
            // when every slot issued (empty == 0), so they are never
            // charged to a slot.
            let empty = cfg.issue_width - issued_this_sm;
            let mut charged = 0u32;
            for &r in &self.stall_scratch {
                if charged >= empty {
                    break;
                }
                if r == StallReason::NotSelected {
                    continue;
                }
                self.cycle_profile.slot_stalls[r.index()] += 1;
                charged += 1;
            }
            self.cycle_profile.slot_stalls[StallReason::NoWarp.index()] += empty - charged;
            self.stall_scratch.clear();
        }
        report
    }

    /// Flushes this cycle's profiling scratch into `tele`'s profile
    /// collector, scaled to the `dt` clock ticks the driver decided the
    /// cycle covers (> 1 only when no SM issued and the clock
    /// fast-forwarded to the next wake-up). The driver calls this once
    /// per SM per stepped cycle, before advancing telemetry time; a
    /// disabled collector makes it a no-op.
    pub fn commit_profile(&mut self, dt: u64, tele: &mut Telemetry) {
        tele.profile_commit(self.index, dt, &self.cycle_profile);
    }

    /// Applies this cycle's completed transactions (issued during
    /// [`SmCore::step_cycle`] at cycle `now`, routed to the partitions
    /// and drained by the driver) in issue order: replays their counter
    /// updates, records per-transaction telemetry, and resolves parked
    /// scoreboard entries to the completion cycles the partitions
    /// computed (MSHR merges, crossbar and bandwidth queueing, throttle
    /// waits included). `views` is this SM's post-drain MSHR slice state
    /// in partition-index order; it refreshes the per-partition credit
    /// mirrors, the `MemThrottle` wake hint and the telemetry occupancy
    /// timeline (integrated over the `dt` clock ticks this cycle
    /// covers). The driver calls this once per SM per cycle — all
    /// updates are SM-local, so the call order across SMs is free; the
    /// per-SM issue order is what keeps runs bit-identical.
    pub fn complete_memory(
        &mut self,
        completions: &mut Vec<Completion>,
        views: &[MshrView],
        now: u64,
        dt: u64,
        tele: &mut Telemetry,
    ) {
        if !self.pending.is_empty() || !completions.is_empty() {
            self.worst.clear();
            self.worst.resize(self.pending.len(), now);
            for c in completions.drain(..) {
                let r = c.result;
                apply_access_counters(
                    &mut self.act,
                    &r,
                    self.cfg.l1_line,
                    c.store,
                    self.cfg.l2_partitions > 1,
                );
                tele.mem_transaction(
                    self.index,
                    now,
                    &MemTxn {
                        addr: c.addr,
                        latency: r.latency,
                        level: r.level(),
                        store: c.store,
                        partition: c.partition,
                        mshr_wait: r.mshr_wait,
                        xbar_wait: r.xbar_wait,
                        l2_wait: r.l2_wait,
                        dram_wait: r.dram_wait,
                        xbar_hop: self.cfg.l2_partitions > 1,
                    },
                );
                let worst = &mut self.worst[c.token as usize];
                *worst = (*worst).max(r.ready_at);
            }
            for (p, &w) in self.pending.drain(..).zip(&self.worst) {
                if let Some(d) = p.dest {
                    self.warps[p.warp].reg_ready[usize::from(d.0)] = w.max(now + 1);
                }
            }
        }
        // Refresh the issue-gate mirrors. They go stale again as soon as
        // warps issue next cycle, but staleness only delays the
        // back-pressure by the accesses already credited at issue.
        let mut occupied = 0u32;
        let mut earliest = u64::MAX;
        let mut any_full = false;
        for (credit, v) in self.mem_credit.iter_mut().zip(views) {
            *credit = v.free;
            occupied += v.occupied;
            earliest = earliest.min(v.earliest);
            any_full |= v.free == 0;
        }
        if any_full {
            // A slice ends the cycle saturated: further global memory
            // issue is gated until a fill retires.
            self.act.mem_throttle += 1;
        }
        tele.mem_occupancy(self.index, occupied, dt);
        tele.energy_cycles(dt);
        self.mem_wake = earliest;
        self.last_occupied = occupied;
        self.last_any_full = any_full;
    }

    /// Replays the side effects of the driver iterations a sleeping SM
    /// skipped: `iters` completion phases spanning `cycles` clock ticks.
    /// Bit-identical to having run them because nothing they read can
    /// change while the SM sleeps — the core issues nothing (so the
    /// frozen `cycle_profile`, queue and scoreboard are fixed points),
    /// no fill retires before `fill_wake` (so occupancy and the
    /// any-slice-full gate are frozen), and the profile commit is linear
    /// in `dt` for a zero-issue cycle (every accumulator is `+= k * dt`
    /// with `k` from the frozen profile). The throttle counter counts
    /// completion *calls*, not cycles, hence the separate `iters`.
    pub fn replay_parked(&mut self, iters: u64, cycles: u64, tele: &mut Telemetry) {
        if cycles == 0 {
            return;
        }
        if self.last_any_full {
            self.act.mem_throttle += iters;
        }
        tele.mem_occupancy(self.index, self.last_occupied, cycles);
        // The slept span still burns static/leakage power: credit the
        // frozen interval's SM-resident cycles so event-driven runs
        // price energy identically to lockstep.
        tele.energy_cycles(cycles);
        tele.profile_commit(self.index, cycles, &self.cycle_profile);
    }

    /// Single-SM bundle of the whole memory phase: retire fills, run
    /// this core's queued requests through their partitions, and apply
    /// the completions. The driver runs the phases separately across all
    /// SMs; this wrapper serves single-core callers and tests.
    pub fn drain_memory(
        &mut self,
        queue: &mut RequestQueue,
        hier: &mut MemoryHierarchy,
        now: u64,
        dt: u64,
        tele: &mut Telemetry,
    ) {
        // Retire completed line fills first so this cycle's requests and
        // the refreshed credit mirrors both see the post-retirement
        // files.
        hier.retire_fills(self.index, now);
        let decoder = hier.decoder();
        let mut completions = Vec::new();
        for (token, addr, store) in queue.drain() {
            let p = decoder.decode(addr);
            let result = hier.partition_mut(p).access(self.index, addr, now);
            completions.push(Completion {
                token,
                addr,
                store,
                partition: p as u32,
                result,
            });
        }
        let mut views = Vec::new();
        hier.mshr_views(self.index, &mut views);
        self.complete_memory(&mut completions, &views, now, dt, tele);
    }

    /// End-of-cycle bookkeeping: releases block barriers once every
    /// resident warp is waiting or done, and retires fully-finished
    /// blocks (freeing their slots for the next admission). Both tests
    /// read the per-slot counters, so the cycle costs one pass over the
    /// slots plus, only when a barrier releases or a block retires, one
    /// pass over the warps.
    pub fn finish_cycle(&mut self) {
        debug_assert!(
            self.slot_counts_match(),
            "SM {}: block-slot counters disagree with the resident warps",
            self.index
        );
        let mut released = false;
        let mut retired = false;
        for bs in self.slots.iter_mut().flatten() {
            if bs.warps_waiting > 0 && bs.warps_waiting + bs.done == bs.resident {
                bs.warps_waiting = 0;
                released = true;
            }
            retired |= bs.finished();
        }
        let slots = &mut self.slots;
        if released {
            // A waiting warp's slot count only returns to zero at a
            // release, so this clears exactly the released slots' warps.
            for w in &mut self.warps {
                if slots[w.slot]
                    .as_ref()
                    .is_some_and(|bs| bs.warps_waiting == 0)
                {
                    w.waiting_barrier = false;
                }
            }
        }
        if retired {
            self.warps
                .retain(|w| !slots[w.slot].as_ref().is_some_and(BlockSlot::finished));
            for slot in slots.iter_mut() {
                if slot.as_ref().is_some_and(BlockSlot::finished) {
                    *slot = None;
                }
            }
            self.last_issued = None;
        }
    }

    /// Whether every slot's `resident`/`done` counters equal a recount
    /// over the resident warps (and no warp sits in a free slot).
    fn slot_counts_match(&self) -> bool {
        self.slots.iter().enumerate().all(|(i, slot)| {
            let mut resident = 0u32;
            let mut done = 0u32;
            for w in self.warps.iter().filter(|w| w.slot == i) {
                resident += 1;
                done += u32::from(w.ctx.is_done());
            }
            match slot {
                Some(bs) => bs.resident == resident && bs.done == done,
                None => resident == 0,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crf_row_conflicts_use_fixed_rows() {
        use st2_core::NullSink;
        let mut spec = SmSpec::new();
        let mut act = ActivityCounters::default();
        // 0xff + 1 carries out of slice 0, which a cold entry predicts
        // not to: the lane mispredicts until its entry has learned.
        let add = |lane| LaneAdd {
            lane,
            gtid: u64::from(lane),
            a: 0xff,
            b: 1,
            sub: false,
        };
        let mut process = |pc, lane, now| {
            let any = spec.process(
                pc,
                WidthClass::Int64,
                &[add(lane)],
                &mut act,
                now,
                &mut NullSink,
            );
            (any, act.crf_writes, act.crf_conflicts)
        };
        // Two mispredicting ops on row 5 (pc & 0xF) in one cycle: two
        // writes, the second in conflict.
        assert_eq!(process(5, 0, 40), (true, 1, 0));
        assert_eq!(process(21, 1, 40), (true, 2, 1));
        // The same row in the next cycle does not conflict.
        assert_eq!(process(5, 2, 41), (true, 3, 1));
        // Lane 0 has learned its carries: no misprediction, no write.
        assert_eq!(process(5, 0, 41), (false, 3, 1));
        assert_eq!(act.crf_reads, 4, "one row read per warp operation");
        assert_eq!(act.adder.ops, 4);
    }

    #[test]
    fn predicated_off_mem_ops_are_not_modeled() {
        use st2_isa::KernelBuilder;
        // One op of each kind in both address spaces.
        let mut k = KernelBuilder::new("masked_mem");
        let zero = k.reg();
        k.mov(zero, Operand::Imm(0));
        let ds = k.reg();
        k.ld_shared_u64(ds, zero, 0);
        k.st_shared_u64(Operand::Imm(1), zero, 0);
        let dg = k.reg();
        k.ld_global_u64(dg, zero, 0);
        k.st_global_u64(Operand::Imm(1), zero, 0);
        let p = k.finish();
        let launch = LaunchConfig::new(1, 32);
        let cfg = GpuConfig::scaled(1);
        let mut core = SmCore::new(0, &cfg, 1);
        let code = DecodedProgram::new(&p);
        assert!(core.admit_block(0, &p, launch));
        // Empty the warp's SIMT mask: the warp still steps through every
        // instruction, but with zero active lanes — the shape a fully
        // predicated-off warp has. (`WarpCtx::new` clamps lanes to >= 1,
        // and the public stack API never leaves a live entry empty, so
        // the test forces the state directly.)
        core.warps[0].ctx.stack.force_mask(0);
        let mut g = MemImage::new(1024);
        let mut q = RequestQueue::new();
        let mut hier = MemoryHierarchy::new(&cfg);
        let mut tele = Telemetry::disabled();
        // An empty-mask warp never retires (`Exit` has no lanes to kill),
        // so run a fixed window that covers all five instructions.
        for now in 0..50u64 {
            core.step_cycle(now, &code, launch, &mut g, &mut q, &mut tele);
            assert!(q.is_empty(), "zero-lane op queued a transaction");
            core.drain_memory(&mut q, &mut hier, now, 1, &mut tele);
            core.finish_cycle();
        }
        let act = core.activity();
        assert_eq!(act.shared_accesses, 0, "phantom shared transaction");
        assert_eq!(act.shared_bank_conflicts, 0);
        assert_eq!(act.l1_accesses, 0, "phantom global transaction");
        assert_eq!(act.mem_throttle, 0);
    }

    #[test]
    fn admit_fills_slots_then_refuses() {
        use st2_isa::KernelBuilder;
        let k = KernelBuilder::new("noop").finish();
        let launch = LaunchConfig::new(4, 64);
        let cfg = GpuConfig::scaled(1);
        let mut core = SmCore::new(0, &cfg, 2);
        assert!(core.is_idle());
        assert!(core.admit_block(0, &k, launch));
        assert!(core.admit_block(1, &k, launch));
        assert!(!core.admit_block(2, &k, launch), "both slots occupied");
        assert!(!core.is_idle());
        assert_eq!(core.warps.len(), 2 * launch.warps_per_block() as usize);
    }
}
