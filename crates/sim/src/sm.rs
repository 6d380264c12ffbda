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
//!    entries.
//! 3. [`SmCore::finish_cycle`] — release satisfied block barriers and
//!    retire finished blocks.

use crate::addrdec::AddressDecoder;
use crate::config::{GpuConfig, SchedulerKind};
use crate::exec::{step, ExecEnv, LaneAdd, LaneBuffers, StepHooks, WarpCtx};
use crate::memory::{apply_access_counters, coalesce, Completion, MshrView, RequestQueue};
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

/// What a warp's issue gate and the issue path need to know about one
/// instruction, decoded once per run — the software analogue
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
pub(crate) struct DecodedProgram<'p> {
    program: &'p Program,
    /// One entry per instruction, plus a trailing `exit` that every
    /// out-of-range PC reads (as [`step`] executes one).
    insts: Vec<DecodedInst>,
}

impl<'p> DecodedProgram<'p> {
    /// Decodes every instruction of `program`.
    #[must_use]
    pub(crate) fn new(program: &'p Program) -> Self {
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

/// Where a warp's [`Gate`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateStatus {
    /// Something the gate reads changed since it was built: the next
    /// scan rebuilds it from the warp before reading it.
    Stale,
    /// Running: the other fields describe its next instruction.
    Live,
    /// Exited; never issues again.
    Done,
    /// Parked at a block barrier until [`SmCore::finish_cycle`]
    /// releases it.
    Barrier,
}

/// Everything the scheduler's per-warp check reads about one resident
/// warp, kept dense and parallel to [`SmCore::warps`] so that a check
/// reads one small record instead of the warp's SIMT stack, scoreboard
/// and decoded instruction. A warp's gate only changes at an event that
/// marks it [`GateStatus::Stale`]: its own issue, a load completion
/// writing its scoreboard, a barrier release or its admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Gate {
    /// Latest `reg_ready` over the next instruction's scoreboard
    /// registers (0 when it reads none).
    ready: u64,
    /// Outstanding ST² mispredict repair cycles charged to this warp:
    /// incremented per mispredicting issue, consumed by the profiler to
    /// reclassify one observed dependency-stall cycle as `AdderRepair`.
    /// The gate owns this count; rebuilding the gate keeps it.
    repair_debt: u64,
    /// The warp's PC (unread once it is done).
    pc: u32,
    status: GateStatus,
    pool: Pool,
    global_mem: bool,
    /// The binding dependency — the first scoreboard register to reach
    /// `ready` — is the destination of a deferred global load.
    on_load: bool,
}

impl Gate {
    fn stale() -> Self {
        Gate {
            ready: 0,
            repair_debt: 0,
            pc: 0,
            status: GateStatus::Stale,
            pool: Pool::Alu,
            global_mem: false,
            on_load: false,
        }
    }

    /// Rebuilds the gate from the warp and its next instruction. Fields a
    /// done or barrier-parked warp's checks never read are left as they
    /// were.
    fn refresh(&mut self, w: &TimedWarp, code: &DecodedProgram<'_>) {
        if w.ctx.is_done() {
            self.status = GateStatus::Done;
            return;
        }
        self.pc = w.ctx.stack.pc();
        if w.waiting_barrier {
            self.status = GateStatus::Barrier;
            return;
        }
        let d = code.at(self.pc);
        // `>` keeps the first register among ties, so the binding
        // dependency is deterministic.
        let mut ready = 0;
        let mut dep: Option<Reg> = None;
        for &r in d.scoreboard_regs() {
            let t = w.reg_ready[usize::from(r.0)];
            if t > ready {
                ready = t;
                dep = Some(r);
            }
        }
        self.status = GateStatus::Live;
        self.ready = ready;
        self.on_load = dep.is_some_and(|r| w.mem_dep[usize::from(r.0)]);
        self.pool = d.pool;
        self.global_mem = d.global_mem;
    }

    /// Whether the warp can issue at `now`: its operands are ready, its
    /// pool has a free pipe, and a global LD/ST finds no MSHR credit at
    /// zero (conservative — the access might route to a partition with
    /// credit left — but cheap and deterministic).
    fn can_issue(&self, now: u64, pool_free: &[u64; NUM_POOLS], credit_zero: bool) -> bool {
        debug_assert_ne!(self.status, GateStatus::Stale, "stale gate read");
        self.status == GateStatus::Live
            && self.ready <= now
            && pool_free[self.pool.index()] <= now
            && !(self.global_mem && credit_zero)
    }

    /// Earliest cycle a warp that cannot issue at `now` could
    /// (`u64::MAX` for done and barrier waits): its operands' ready
    /// time, then its pool's free pipe, or the MSHR fill wake
    /// `mem_wake` while the credit gate binds.
    fn wake(
        &self,
        now: u64,
        pool_free: &[u64; NUM_POOLS],
        credit_zero: bool,
        mem_wake: u64,
    ) -> u64 {
        match self.status {
            GateStatus::Live => {
                let pipe_free = pool_free[self.pool.index()];
                if self.ready > now {
                    self.ready.max(pipe_free)
                } else if self.global_mem && credit_zero {
                    mem_wake
                } else {
                    pipe_free
                }
            }
            GateStatus::Done | GateStatus::Barrier => u64::MAX,
            GateStatus::Stale => unreachable!("stale gate read"),
        }
    }

    /// The profiler's stall reason for a warp that cannot issue at
    /// `now`, and the earliest cycle that reason could change while the
    /// SM is parked (see [`SmCore::stall_stable_until`]). A register
    /// dependency binds before structural hazards (the operand must
    /// exist first); it reclassifies when the register clears, and a
    /// repair stall consumes debt every profiled cycle, so it pins the
    /// SM awake. Done and barrier warps need a sibling to issue
    /// (impossible while parked), throttle clears with the fill wake,
    /// and a pipe stall's transition is its wake time.
    fn stall(&self, now: u64, credit_zero: bool) -> (StallReason, u64) {
        match self.status {
            GateStatus::Done => (StallReason::Done, u64::MAX),
            GateStatus::Barrier => (StallReason::Barrier, u64::MAX),
            GateStatus::Live if self.ready > now => {
                if self.on_load {
                    (StallReason::MemPending, self.ready)
                } else if self.repair_debt > 0 {
                    (StallReason::AdderRepair, now + 1)
                } else {
                    (StallReason::Scoreboard, self.ready)
                }
            }
            GateStatus::Live if self.global_mem && credit_zero => {
                (StallReason::MemThrottle, u64::MAX)
            }
            GateStatus::Live => (StallReason::pipe(self.pool.index()), u64::MAX),
            GateStatus::Stale => unreachable!("stale gate read"),
        }
    }
}

/// One global-memory access in flight between [`SmCore::step_cycle`] and
/// [`SmCore::complete_memory`] (same cycle): which warp issued it and the
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
pub(crate) struct CycleReport {
    /// The SM had resident warps this cycle.
    pub(crate) resident: bool,
    /// At least one warp instruction issued.
    pub(crate) issued: bool,
    /// Earliest future cycle at which a currently-stalled warp could
    /// issue (`u64::MAX` = no stalled warp); lets the driver fast-forward
    /// idle stretches. Computed only when nothing issued: the driver
    /// reads it only then (the clock steps by one after any issue, and
    /// an issuing SM never sleeps), so an issuing report carries
    /// `u64::MAX`. Memory stalls always publish a *finite* wake:
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
    pub(crate) next_wake: u64,
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
pub(crate) struct SmCore {
    index: usize,
    cfg: GpuConfig,
    /// Resident warps in admission order: [`SmCore::admit_block`] appends
    /// a block's warps and [`SmCore::finish_cycle`] removes retired ones
    /// with an order-preserving `retain`. The index order is therefore
    /// oldest first, which is GTO's "oldest" order without an age key.
    warps: Vec<TimedWarp>,
    /// One [`Gate`] per resident warp, index-parallel to `warps`.
    gates: Vec<Gate>,
    /// Gate rebuilds so far: the scheduler checks that read a warp
    /// rather than only its gate.
    warp_checks: u64,
    slots: Vec<Option<BlockSlot>>,
    pipes: [Vec<u64>; NUM_POOLS],
    /// Each pool's earliest free pipe, refreshed at each issue: the only
    /// point a pipe changes.
    pool_free: [u64; NUM_POOLS],
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
    /// Whether any partition's credit mirror is at zero, refreshed
    /// wherever a mirror changes: at an issue and at the completion
    /// phase. A sleeping SM issues nothing, so while it sleeps this is
    /// the any-slice-full flag of its last completion phase, which
    /// [`SmCore::replay_parked`] replays.
    credit_zero: bool,
    /// Earliest in-flight fill time across this SM's MSHR slices
    /// (`u64::MAX` when none): the wake hint for `MemThrottle`-stalled
    /// warps, and the unconditional fill wake for the event-driven
    /// driver (sleeping past it would let a retirement change the
    /// credit mirrors behind the frozen report's back).
    mem_wake: u64,
    /// Occupied-MSHR count as of the last [`SmCore::complete_memory`]:
    /// the value the skipped completion phases of a sleeping SM would
    /// keep reproducing (no fill retires mid-sleep — the driver wakes
    /// the core at `mem_wake` — and a parked SM allocates nothing),
    /// replayed by [`SmCore::replay_parked`].
    last_occupied: u32,
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
    pub(crate) fn new(index: usize, cfg: &GpuConfig, block_slots: u32) -> Self {
        SmCore {
            index,
            cfg: *cfg,
            warps: Vec::new(),
            gates: Vec::new(),
            warp_checks: 0,
            slots: (0..block_slots).map(|_| None).collect(),
            pipes: [
                vec![0u64; cfg.alu_pipes as usize],
                vec![0u64; cfg.fpu_pipes as usize],
                vec![0u64; cfg.dpu_pipes as usize],
                vec![0u64; cfg.muldiv_pipes as usize],
                vec![0u64; cfg.sfu_pipes as usize],
                vec![0u64; cfg.ldst_pipes as usize],
            ],
            pool_free: [0; NUM_POOLS],
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
            credit_zero: false,
            mem_wake: u64::MAX,
            last_occupied: 0,
            stall_stable_until: u64::MAX,
            cycle_profile: CycleProfile::default(),
            stall_scratch: Vec::new(),
        }
    }

    /// Scheduler checks that read a warp's own state (gate rebuilds) so
    /// far.
    #[must_use]
    pub(crate) fn warp_checks(&self) -> u64 {
        self.warp_checks
    }

    /// The per-SM activity accumulated so far.
    #[must_use]
    pub(crate) fn activity(&self) -> &ActivityCounters {
        &self.act
    }

    /// Earliest in-flight fill across this SM's MSHR slices
    /// (`u64::MAX` when none), as of the last completion phase. The
    /// event-driven driver never sleeps an SM past this: waking *at*
    /// the earliest fill means no retirement can happen mid-sleep, so
    /// the credit mirrors, occupancy and throttle state stay exactly
    /// what the frozen report and [`SmCore::replay_parked`] assume.
    #[must_use]
    pub(crate) fn fill_wake(&self) -> u64 {
        self.mem_wake
    }

    /// Whether a resident-block slot is free. An SM that could admit a
    /// block must stay awake while the grid has blocks left: admission
    /// is SM-index ordered, so a sleeping admissible SM would steal a
    /// different block than the step-everything path hands it.
    #[must_use]
    pub(crate) fn has_free_slot(&self) -> bool {
        self.slots.iter().any(Option::is_none)
    }

    /// Earliest cycle a stalled warp's classification could change (see
    /// the field docs); the profiling-mode component of the sleep bound.
    #[must_use]
    pub(crate) fn stall_stable_until(&self) -> u64 {
        self.stall_stable_until
    }

    /// Places block `block` into a free slot, materialising its warps.
    /// Returns `false` (without consuming the block) when every slot is
    /// occupied.
    pub(crate) fn admit_block(
        &mut self,
        block: u32,
        program: &Program,
        launch: LaunchConfig,
    ) -> bool {
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
                waiting_barrier: false,
            });
            self.gates.push(Gate::stale());
        }
        true
    }

    /// Schedules and issues up to `issue_width` warp instructions of
    /// `code` at cycle `now`, executing them functionally against
    /// `global` and queueing coalesced global-memory transactions on
    /// `queue` (resolved later by [`SmCore::complete_memory`]).
    ///
    /// Each per-warp check reads the warp's [`Gate`], each pool's
    /// earliest free pipe and the any-credit-exhausted flag; the last two
    /// are refreshed at each issue, the only point either can change
    /// within a step. A check reads the warp itself only to rebuild a
    /// stale gate. Unprofiled, the scan skips every warp whose gate
    /// cannot issue and stops at the issue-width cap; profiled, it also
    /// takes each skipped warp's stall reason from its gate, in
    /// scheduler order. When nothing issued, one pass over the (then all
    /// clean) gates computes `next_wake`.
    pub(crate) fn step_cycle(
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
        debug_assert!(
            self.gates_match(code),
            "SM {}: a clean gate disagrees with its warp",
            self.index
        );

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
            // early. Issuing is capped either way.
            if issued_this_sm >= cfg.issue_width && !profiling {
                break;
            }
            let gate = &mut self.gates[wi];
            if gate.status == GateStatus::Stale {
                gate.refresh(&self.warps[wi], code);
                self.warp_checks += 1;
            }
            if !gate.can_issue(now, &self.pool_free, self.credit_zero) {
                if profiling {
                    let (reason, stable) = gate.stall(now, self.credit_zero);
                    self.stall_stable_until = self.stall_stable_until.min(stable);
                    if reason == StallReason::AdderRepair {
                        gate.repair_debt -= 1;
                    }
                    self.stall_scratch.push(reason);
                    if reason != StallReason::Done {
                        self.cycle_profile.pc_stalls.push((gate.pc, reason));
                    }
                }
                continue;
            }
            if issued_this_sm >= cfg.issue_width {
                // Profiling scan only: ready warp that lost arbitration
                // (every issue slot already taken this cycle).
                self.cycle_profile.eligible_warps += 1;
                let pc = self.gates[wi].pc;
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
                    self.gates[wi].repair_debt += 1;
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
                        self.credit_zero = self.mem_credit.contains(&0);
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
            self.pool_free[d.pool.index()] = pipes.iter().copied().min().unwrap_or(u64::MAX);

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

            // The issue moved the PC and may have written the scoreboard,
            // exited or reached a barrier.
            self.gates[wi].status = GateStatus::Stale;
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

        if !report.issued {
            // The scan visited, and so rebuilt, every gate, and with no
            // issue the pipes and credits are as it saw them.
            for g in &self.gates {
                let wake = g.wake(now, &self.pool_free, self.credit_zero, self.mem_wake);
                if wake != u64::MAX {
                    report.next_wake = report.next_wake.min(wake.max(now + 1));
                }
            }
            debug_assert_eq!(
                report.next_wake,
                self.wake_from_warps(now, code),
                "SM {}: the gates' wake disagrees with the warps'",
                self.index
            );
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
    pub(crate) fn commit_profile(&mut self, dt: u64, tele: &mut Telemetry) {
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
    pub(crate) fn complete_memory(
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
                    self.gates[p.warp].status = GateStatus::Stale;
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
        self.credit_zero = any_full;
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
    pub(crate) fn replay_parked(&mut self, iters: u64, cycles: u64, tele: &mut Telemetry) {
        if cycles == 0 {
            return;
        }
        if self.credit_zero {
            self.act.mem_throttle += iters;
        }
        tele.mem_occupancy(self.index, self.last_occupied, cycles);
        // The slept span still burns static/leakage power: credit the
        // frozen interval's SM-resident cycles so event-driven runs
        // price energy identically to lockstep.
        tele.energy_cycles(cycles);
        tele.profile_commit(self.index, cycles, &self.cycle_profile);
    }

    /// End-of-cycle bookkeeping: releases block barriers once every
    /// resident warp is waiting or done, and retires fully-finished
    /// blocks (freeing their slots for the next admission). Both tests
    /// read the per-slot counters, so the cycle costs one pass over the
    /// slots plus, only when a barrier releases or a block retires, one
    /// pass over the warps.
    pub(crate) fn finish_cycle(&mut self) {
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
            for (w, g) in self.warps.iter_mut().zip(&mut self.gates) {
                if w.waiting_barrier
                    && slots[w.slot]
                        .as_ref()
                        .is_some_and(|bs| bs.warps_waiting == 0)
                {
                    w.waiting_barrier = false;
                    g.status = GateStatus::Stale;
                }
            }
        }
        if retired {
            let finished = |w: &TimedWarp| slots[w.slot].as_ref().is_some_and(BlockSlot::finished);
            // `retain` visits the gates once each, in order, so `owners`
            // walks the parallel warp list in step.
            let mut owners = self.warps.iter();
            self.gates
                .retain(|_| owners.next().is_some_and(|w| !finished(w)));
            self.warps.retain(|w| !finished(w));
            for slot in slots.iter_mut() {
                if slot.as_ref().is_some_and(BlockSlot::finished) {
                    *slot = None;
                }
            }
            self.last_issued = None;
        }
    }

    /// Whether there is one gate per warp and every clean gate equals a
    /// fresh rebuild from its warp, i.e. no event changed a warp without
    /// marking its gate stale.
    fn gates_match(&self, code: &DecodedProgram<'_>) -> bool {
        self.gates.len() == self.warps.len()
            && self.gates.iter().zip(&self.warps).all(|(g, w)| {
                let mut fresh = *g;
                fresh.refresh(w, code);
                g.status == GateStatus::Stale || fresh == *g
            })
    }

    /// `next_wake` of a step that issued nothing, computed from the warps
    /// themselves (SIMT stack, scoreboard and decoded instruction)
    /// instead of their gates: the reference the gate pass is checked
    /// against.
    fn wake_from_warps(&self, now: u64, code: &DecodedProgram<'_>) -> u64 {
        let mut next = u64::MAX;
        for w in &self.warps {
            if w.ctx.is_done() || w.waiting_barrier {
                continue;
            }
            let d = code.at(w.ctx.stack.pc());
            let ready_at = d
                .scoreboard_regs()
                .iter()
                .map(|r| w.reg_ready[usize::from(r.0)])
                .fold(now, u64::max);
            let pipe_free = self.pipes[d.pool.index()].iter().copied().min();
            let pipe_free = pipe_free.unwrap_or(u64::MAX);
            let wake = if ready_at > now {
                ready_at.max(pipe_free)
            } else if d.global_mem && self.mem_credit.contains(&0) {
                self.mem_wake
            } else {
                pipe_free
            };
            if wake != u64::MAX {
                next = next.min(wake.max(now + 1));
            }
        }
        next
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
    use crate::memory::MemoryHierarchy;

    /// One core's whole memory phase: retire fills, run the core's queued
    /// requests through their partitions, and apply the completions (the
    /// driver runs these phases across all SMs).
    fn drain_memory(
        core: &mut SmCore,
        queue: &mut RequestQueue,
        hier: &mut MemoryHierarchy,
        now: u64,
        tele: &mut Telemetry,
    ) {
        hier.retire_fills(core.index, now);
        let decoder = hier.decoder();
        let mut completions = Vec::new();
        for (token, addr, store) in queue.drain() {
            let p = decoder.decode(addr);
            let result = hier.partition_mut(p).access(core.index, addr, now);
            completions.push(Completion {
                token,
                addr,
                store,
                partition: p as u32,
                result,
            });
        }
        let mut views = Vec::new();
        hier.mshr_views(core.index, &mut views);
        core.complete_memory(&mut completions, &views, now, 1, tele);
    }

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
            assert_eq!(q.drain().len(), 0, "zero-lane op queued a transaction");
            drain_memory(&mut core, &mut q, &mut hier, now, &mut tele);
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
        assert!(core.warps.is_empty());
        assert!(core.admit_block(0, &k, launch));
        assert!(core.admit_block(1, &k, launch));
        assert!(!core.admit_block(2, &k, launch), "both slots occupied");
        assert!(!core.warps.is_empty());
        assert_eq!(core.warps.len(), 2 * launch.warps_per_block() as usize);
    }
}
