//! Warp-stall attribution profiling: per-PC hotspot counters and per-SM
//! issue-slot accounting, captured with the collector's interval
//! timelines into a portable per-kernel profile.
//!
//! The cycle-level simulator classifies, every cycle, why each resident
//! warp did not issue ([`StallReason`]) and reports the classification
//! here through a per-SM scratch buffer ([`CycleProfile`]). The collector
//! keeps two complementary views:
//!
//! * **Issue-slot accounting** ([`SmProfile`]) — every SM owns
//!   `issue_width` issue slots per cycle; each slot either issued or is
//!   attributed to exactly one [`StallReason`]. The invariant
//!   `issued + Σ stalls == cycles × issue_width` holds *exactly* (see
//!   [`SmProfile::unattributed`]), which is what lets per-kernel stall
//!   breakdowns reconcile against total cycles the way CUPTI/nvprof
//!   metrics do.
//! * **Per-PC hotspots** (`PcCounters`) — a bounded table keyed by
//!   program counter: slots issued at that PC, and warp-cycles stalled
//!   *at* that PC by reason (the PC of the instruction that could not
//!   issue, as in nvprof's per-instruction stall attribution). Joined at
//!   capture time with the adder per-PC accuracy the collector already
//!   tracks.
//!
//! [`KernelProfile`] is the portable snapshot: captured from a finalized
//! [`Telemetry`], rendered as an nvprof-style text report
//! ([`KernelProfile::render`]) with source-DSL labels from [`st2_isa`],
//! and exported as JSON ([`KernelProfile::to_json`]).

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::json::Writer;
use crate::metrics::{accuracy, EnergyPoint, MemPoint, OccPoint};
use crate::Telemetry;

/// Number of [`StallReason`] values (dense indices `0..NUM_STALL_REASONS`).
pub const NUM_STALL_REASONS: usize = 15;

/// Why a warp (or an SM issue slot) failed to issue in a cycle.
///
/// The first block of reasons is warp-centric — the binding constraint
/// of one resident warp. The final three only appear in issue-slot
/// accounting: [`StallReason::NotSelected`] marks a ready warp that lost
/// scheduler arbitration (every slot already filled), and
/// [`StallReason::NoWarp`] / [`StallReason::NoBlock`] mark slots with no
/// candidate warp at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// RAW/WAW dependency on the register scoreboard (an ALU/FPU result
    /// not yet written back).
    Scoreboard,
    /// Dependency on an in-flight global-memory load.
    MemPending,
    /// Dependency stall whose final cycle was added by an ST² speculative
    /// -adder misprediction repair (the paper's variable-latency penalty).
    AdderRepair,
    /// Waiting at a block-wide barrier.
    Barrier,
    /// ALU pipes all busy.
    PipeAlu,
    /// FPU pipes all busy.
    PipeFpu,
    /// DPU pipes all busy.
    PipeDpu,
    /// Multiply/divide pipes all busy.
    PipeMulDiv,
    /// SFU pipe busy (long issue interval).
    PipeSfu,
    /// LD/ST ports all busy.
    PipeLdst,
    /// LD/ST issue blocked by memory-subsystem back-pressure: the SM's
    /// MSHR file is full, so no new global transaction can start until
    /// an outstanding line fill retires.
    MemThrottle,
    /// Warp finished (`exit` on every lane) but its block has not retired
    /// yet.
    Done,
    /// Warp was ready to issue but every issue slot was already taken
    /// this cycle (scheduler arbitration loss; slot accounting never uses
    /// it).
    NotSelected,
    /// Issue slot had no candidate warp left (fewer resident warps than
    /// slots).
    NoWarp,
    /// SM had no resident block at all (idle slot).
    NoBlock,
}

/// All reasons in dense-index order.
pub const ALL_STALL_REASONS: [StallReason; NUM_STALL_REASONS] = [
    StallReason::Scoreboard,
    StallReason::MemPending,
    StallReason::AdderRepair,
    StallReason::Barrier,
    StallReason::PipeAlu,
    StallReason::PipeFpu,
    StallReason::PipeDpu,
    StallReason::PipeMulDiv,
    StallReason::PipeSfu,
    StallReason::PipeLdst,
    StallReason::MemThrottle,
    StallReason::Done,
    StallReason::NotSelected,
    StallReason::NoWarp,
    StallReason::NoBlock,
];

impl StallReason {
    /// Dense index (`0..NUM_STALL_REASONS`).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Pipe-busy reason for a functional-unit pool's dense index (the
    /// same encoding as `crate::event::pool_name`).
    #[must_use]
    pub fn pipe(pool: usize) -> StallReason {
        match pool {
            0 => StallReason::PipeAlu,
            1 => StallReason::PipeFpu,
            2 => StallReason::PipeDpu,
            3 => StallReason::PipeMulDiv,
            4 => StallReason::PipeSfu,
            _ => StallReason::PipeLdst,
        }
    }

    /// Stable snake_case name (used as the JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Scoreboard => "scoreboard",
            StallReason::MemPending => "mem_pending",
            StallReason::AdderRepair => "adder_repair",
            StallReason::Barrier => "barrier",
            StallReason::PipeAlu => "pipe_alu",
            StallReason::PipeFpu => "pipe_fpu",
            StallReason::PipeDpu => "pipe_dpu",
            StallReason::PipeMulDiv => "pipe_muldiv",
            StallReason::PipeSfu => "pipe_sfu",
            StallReason::PipeLdst => "pipe_ldst",
            StallReason::MemThrottle => "mem_throttle",
            StallReason::Done => "done",
            StallReason::NotSelected => "not_selected",
            StallReason::NoWarp => "no_warp",
            StallReason::NoBlock => "no_block",
        }
    }
}

/// One cycle's profiling scratch, owned by the simulator's per-SM core
/// and flushed into the collector once the cycle's global length is
/// known (the driver may fast-forward idle stretches, so a "cycle" can
/// cover `dt > 1` clock ticks).
///
/// The vectors are reused across cycles — [`CycleProfile::reset`] clears
/// them without releasing capacity, keeping the hot path allocation-free
/// after warm-up.
#[derive(Debug, Clone, Default)]
pub struct CycleProfile {
    /// Warp instructions issued this cycle.
    pub issued: u32,
    /// Non-issued slot attribution for this cycle
    /// (`issued + Σ slot_stalls == issue_width` for a stepped SM).
    pub slot_stalls: [u32; NUM_STALL_REASONS],
    /// Resident warps this cycle.
    pub active_warps: u32,
    /// Warps that were ready to issue (issued or lost arbitration).
    pub eligible_warps: u32,
    /// Out-of-range instruction fetches masked to `exit` this cycle.
    pub fetch_oob: u32,
    /// PCs of the instructions issued this cycle.
    pub pc_issued: Vec<u32>,
    /// `(pc, reason)` of every resident warp that failed to issue this
    /// cycle (finished warps carry no meaningful PC and are excluded).
    pub pc_stalls: Vec<(u32, StallReason)>,
}

impl CycleProfile {
    /// Clears the scratch for the next cycle, keeping allocations.
    pub fn reset(&mut self) {
        self.issued = 0;
        self.slot_stalls = [0; NUM_STALL_REASONS];
        self.active_warps = 0;
        self.eligible_warps = 0;
        self.fetch_oob = 0;
        self.pc_issued.clear();
        self.pc_stalls.clear();
    }
}

/// Per-SM issue-slot accounting.
///
/// Every cycle contributes `issue_width` slots; each slot either issued
/// a warp instruction or is charged to exactly one [`StallReason`], so
/// `issued + Σ stalls == slots` exactly — see
/// [`SmProfile::unattributed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmProfile {
    /// Clock cycles covered (equals the run's total cycles).
    pub cycles: u64,
    /// Issue slots owned (`cycles × issue_width`).
    pub slots: u64,
    /// Slots that issued a warp instruction.
    pub issued: u64,
    /// Slots attributed per stall reason (dense [`StallReason`] index).
    pub stalls: [u64; NUM_STALL_REASONS],
    /// Out-of-range instruction fetches masked to `exit` (should be 0
    /// for any well-formed program).
    pub fetch_oob: u64,
}

impl SmProfile {
    /// Total slots attributed to stall reasons.
    #[must_use]
    pub fn stalled(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Slots neither issued nor attributed (0 when the accounting
    /// reconciles exactly; negative would mean double-charging).
    #[must_use]
    pub fn unattributed(&self) -> i128 {
        i128::from(self.slots) - i128::from(self.issued) - i128::from(self.stalled())
    }

    /// Folds another SM profile into this one.
    pub(crate) fn merge(&mut self, other: &SmProfile) {
        self.cycles += other.cycles;
        self.slots += other.slots;
        self.issued += other.issued;
        for (s, o) in self.stalls.iter_mut().zip(other.stalls.iter()) {
            *s += o;
        }
        self.fetch_oob += other.fetch_oob;
    }
}

/// Per-PC hotspot counters: issue slots and warp-cycle stalls charged to
/// one program counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PcCounters {
    /// Issue slots spent at this PC.
    pub(crate) issued: u64,
    /// Warp-cycles stalled at this PC, per reason (dense index).
    pub(crate) stalls: [u64; NUM_STALL_REASONS],
}

/// PC key used for hotspot entries evicted by the table bound.
pub(crate) const PC_OVERFLOW: u32 = u32::MAX;

/// The stall and hotspot collector carried inside [`Telemetry`].
#[derive(Debug, Clone)]
pub(crate) struct ProfileCollector {
    sms: Vec<SmProfile>,
    pcs: HashMap<u32, PcCounters>,
    pc_capacity: usize,
}

impl ProfileCollector {
    /// A collector for `num_sms` SMs with a per-PC table bound of
    /// `pc_capacity` entries.
    #[must_use]
    pub(crate) fn new(num_sms: usize, pc_capacity: usize) -> Self {
        ProfileCollector {
            sms: vec![SmProfile::default(); num_sms.max(1)],
            pcs: HashMap::new(),
            pc_capacity: pc_capacity.max(1),
        }
    }

    fn pc_entry(&mut self, pc: u32) -> &mut PcCounters {
        if self.pcs.len() >= self.pc_capacity && !self.pcs.contains_key(&pc) {
            return self.pcs.entry(PC_OVERFLOW).or_default();
        }
        self.pcs.entry(pc).or_default()
    }

    /// Folds one SM's cycle scratch, covering `dt` clock ticks, into the
    /// collector. Issued slots always occur in `dt == 1` cycles (the
    /// driver only fast-forwards when nothing issued anywhere), so only
    /// stall attribution is scaled. Returns the issue slots the cycle
    /// covered (`width × dt`).
    pub(crate) fn commit(&mut self, sm: usize, dt: u64, cp: &CycleProfile) -> u64 {
        let idx = sm.min(self.sms.len().saturating_sub(1));
        let s = &mut self.sms[idx];
        let width =
            u64::from(cp.issued) + cp.slot_stalls.iter().map(|&c| u64::from(c)).sum::<u64>();
        s.cycles += dt;
        s.slots += width * dt;
        s.issued += u64::from(cp.issued);
        // Issued slots cover one tick; the remaining (dt - 1) ticks of a
        // fast-forwarded interval are, by construction, full-width stalls
        // already reflected in slot_stalls (nothing can issue until the
        // wake point), so scaling them by dt keeps the identity exact:
        // issued + Σ stalls == width·dt  requires the issued slots' share
        // of the extra ticks to be re-charged to their stall reasons.
        // Since issued > 0 forces dt == 1, both cases collapse to simple
        // scaling.
        for (acc, &c) in s.stalls.iter_mut().zip(cp.slot_stalls.iter()) {
            *acc += u64::from(c) * dt;
        }
        s.fetch_oob += u64::from(cp.fetch_oob);

        for &pc in &cp.pc_issued {
            self.pc_entry(pc).issued += 1;
        }
        for &(pc, reason) in &cp.pc_stalls {
            self.pc_entry(pc).stalls[reason.index()] += dt;
        }
        width * dt
    }

    /// Per-SM issue-slot profiles, SM-index order.
    #[must_use]
    pub(crate) fn sms(&self) -> &[SmProfile] {
        &self.sms
    }

    /// The per-PC hotspot table, sorted by PC (the `PC_OVERFLOW`
    /// sentinel, if present, sorts last).
    #[must_use]
    pub(crate) fn pcs_sorted(&self) -> Vec<(u32, PcCounters)> {
        let mut v: Vec<(u32, PcCounters)> = self.pcs.iter().map(|(&pc, &c)| (pc, c)).collect();
        v.sort_by_key(|(pc, _)| *pc);
        v
    }
}

/// One per-PC row of a captured [`KernelProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct PcRow {
    /// Program counter.
    pub pc: u32,
    /// Disassembled instruction at this PC (when a program was supplied
    /// at capture; the `PC_OVERFLOW` bucket has none).
    pub label: Option<String>,
    /// Issue slots spent at this PC.
    pub issued: u64,
    /// Warp-cycles stalled at this PC per reason.
    pub(crate) stalls: [u64; NUM_STALL_REASONS],
    /// Speculative-adder warp operations at this PC.
    pub adder_ops: u64,
    /// Mispredicted adder warp operations at this PC.
    pub(crate) mispredicts: u64,
}

impl PcRow {
    /// Adder prediction accuracy at this PC (1.0 when no adder ops).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        accuracy(self.adder_ops, self.mispredicts)
    }

    /// Total stalled warp-cycles at this PC.
    #[must_use]
    pub(crate) fn stalled(&self) -> u64 {
        self.stalls.iter().sum()
    }
}

/// Memory-subsystem totals captured from the telemetry counters: the
/// numbers that, next to the `mem_pending`/`mem_throttle` stall shares,
/// say whether a kernel is memory-bound and why.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemSummary {
    /// Coalesced global transactions (L1 accesses).
    pub l1_accesses: u64,
    /// Fresh L1 misses (excludes merges).
    pub(crate) l1_misses: u64,
    /// L2 misses.
    pub(crate) l2_misses: u64,
    /// DRAM line fills.
    pub dram_accesses: u64,
    /// Misses merged into an already-in-flight MSHR fill.
    pub mshr_merges: u64,
    /// Median fill latency (cycles, log2-bucket upper bound).
    pub fill_p50: u64,
    /// 95th-percentile fill latency (cycles, log2-bucket upper bound).
    pub fill_p95: u64,
    /// Maximum observed fill latency (cycles, exact).
    pub fill_max: u64,
    /// Σ occupied MSHR entries × cycles (device-wide time integral).
    pub(crate) mshr_occupied_cycles: u64,
    /// Cycles requests spent queued for a free MSHR entry.
    pub(crate) mshr_wait_cycles: u64,
    /// Cycles granted-ready requests waited purely for an L2/DRAM
    /// bandwidth slot.
    pub bw_starved_cycles: u64,
    /// L2 partitions the run modelled (0 in documents predating the
    /// partitioned crossbar).
    pub partitions: u32,
    /// Cycles started fills spent queued at a full crossbar injection
    /// port (0 with a single partition — the crossbar is bypassed).
    pub xbar_wait_cycles: u64,
    /// Line fills completed per L2 partition, partition-index order.
    pub part_fills: Vec<u64>,
}

impl MemSummary {
    /// L1 hit fraction over non-merged transactions (1.0 when idle).
    #[must_use]
    pub fn l1_hit_rate(&self) -> f64 {
        let fresh = self.l1_accesses.saturating_sub(self.mshr_merges);
        if fresh == 0 {
            1.0
        } else {
            1.0 - self.l1_misses as f64 / fresh as f64
        }
    }

    /// Average MSHR entries occupied per cycle over a `cycles`-long run.
    #[must_use]
    pub(crate) fn avg_mshr_occupancy(&self, cycles: u64) -> f64 {
        self.mshr_occupied_cycles as f64 / cycles.max(1) as f64
    }

    /// Partition-fill imbalance: the busiest partition's fill count over
    /// the mean (1.0 is perfectly balanced; 0.0 when no fills were
    /// recorded).
    #[must_use]
    pub fn fill_imbalance(&self) -> f64 {
        let total: u64 = self.part_fills.iter().sum();
        if total == 0 || self.part_fills.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / self.part_fills.len() as f64;
        let max = self.part_fills.iter().copied().max().unwrap_or(0);
        max as f64 / mean
    }
}

/// A portable per-kernel profile snapshot: the nvprof-style report data,
/// exportable to JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel (or run) label.
    pub kernel: String,
    /// Total kernel cycles.
    pub cycles: u64,
    /// Warp instructions issued.
    pub warp_instructions: u64,
    /// Memory-subsystem totals.
    pub mem: MemSummary,
    /// Per-SM issue-slot accounting, SM-index order.
    pub sms: Vec<SmProfile>,
    /// Per-PC hotspot rows, PC order.
    pub pcs: Vec<PcRow>,
    /// Occupancy timeline, interval order.
    pub occupancy: Vec<OccPoint>,
    /// Memory timeline, interval order.
    pub mem_timeline: Vec<MemPoint>,
    /// Energy-event timeline, interval order.
    pub energy_timeline: Vec<EnergyPoint>,
    /// Priced energy rollup — attached by
    /// [`KernelProfile::attach_energy`] once the caller supplies the
    /// calibrated per-event weights (`None` in bare captures and in
    /// documents written without pricing).
    pub energy: Option<crate::energy::EnergySummary>,
}

/// Profile document version written by [`KernelProfile::to_json`].
/// Version 2 added latency percentiles, MSHR occupancy totals, and the
/// memory timeline; version 3 added the L2-partition/crossbar fields
/// (`partitions`, `xbar_wait_cycles`, `part_fills`); version 5 added
/// the energy timeline and the optional priced energy summary (4 is
/// skipped so profile and bench-summary documents shared one numbering).
pub(crate) const PROFILE_VERSION: u32 = 5;

impl KernelProfile {
    /// Captures a profile from a finalized [`Telemetry`]. Pass the
    /// program to label hotspot PCs with their disassembly.
    #[must_use]
    pub fn capture(tele: &Telemetry, kernel: &str, program: Option<&st2_isa::Program>) -> Self {
        let collector = tele.profile();
        let adder_pcs: HashMap<u32, (u64, u64)> = tele
            .pc_accuracy()
            .into_iter()
            .map(|(pc, ops, mis)| (pc, (ops, mis)))
            .collect();
        let pcs = collector
            .pcs_sorted()
            .into_iter()
            .map(|(pc, c)| {
                let (adder_ops, mispredicts) = adder_pcs.get(&pc).copied().unwrap_or((0, 0));
                let label = if pc == PC_OVERFLOW {
                    None
                } else {
                    program
                        .and_then(|p| p.fetch(pc))
                        .map(st2_isa::disasm::disasm_inst)
                };
                PcRow {
                    pc,
                    label,
                    issued: c.issued,
                    stalls: c.stalls,
                    adder_ops,
                    mispredicts,
                }
            })
            .collect();
        let c = tele.counters();
        let fill = &tele.histograms().fill_latency;
        KernelProfile {
            kernel: kernel.to_string(),
            cycles: tele.cycles(),
            warp_instructions: c.warp_instructions,
            mem: MemSummary {
                l1_accesses: c.l1_accesses,
                l1_misses: c.l1_misses,
                l2_misses: c.l2_misses,
                dram_accesses: c.dram_accesses,
                mshr_merges: c.mshr_merges,
                fill_p50: fill.p50(),
                fill_p95: fill.p95(),
                fill_max: fill.max(),
                mshr_occupied_cycles: tele.mem_occupied_cycles(),
                mshr_wait_cycles: c.mshr_wait_cycles,
                bw_starved_cycles: c.bw_starved_cycles,
                partitions: tele.part_fills().len() as u32,
                xbar_wait_cycles: c.xbar_wait_cycles,
                part_fills: tele.part_fills().to_vec(),
            },
            sms: collector.sms().to_vec(),
            pcs,
            occupancy: tele.occupancy.clone(),
            mem_timeline: tele.mem_series().to_vec(),
            energy_timeline: tele.energy_series().to_vec(),
            energy: None,
        }
    }

    /// Prices the energy timeline with the calibrated per-event weights
    /// and attaches the resulting [`crate::energy::EnergySummary`].
    /// Reporting-layer only: the integer timelines are untouched, so
    /// determinism comparisons are unaffected by when (or whether) this
    /// runs.
    pub fn attach_energy(&mut self, weights: &crate::energy::EnergyWeights) {
        self.energy = Some(crate::energy::EnergySummary::price(
            &self.energy_timeline,
            &self.mem_timeline,
            weights,
        ));
    }

    /// Per-interval average power in watts (interval end cycle, total
    /// watts), priced from the stored integer timelines. Zero-length
    /// intervals are skipped.
    #[must_use]
    pub fn power_timeline(&self, weights: &crate::energy::EnergyWeights) -> Vec<(u64, f64)> {
        crate::energy::power_series(&self.energy_timeline, &self.mem_timeline, weights)
            .iter()
            .map(|p| (p.cycle, p.total_w))
            .collect()
    }

    /// Device-wide slot totals (summed SM profiles; `cycles` is the max).
    #[must_use]
    pub fn total(&self) -> SmProfile {
        let mut t = SmProfile::default();
        for s in &self.sms {
            t.merge(s);
        }
        t.cycles = self.sms.iter().map(|s| s.cycles).max().unwrap_or(0);
        t
    }

    /// Warp instructions per cycle (a zero-cycle profile divides by
    /// one).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.warp_instructions as f64 / self.cycles.max(1) as f64
    }

    /// The stall reason charged the most issue slots device-wide; among
    /// ties, the last in [`ALL_STALL_REASONS`] order.
    #[must_use]
    pub fn top_stall(&self) -> StallReason {
        let stalls = self.total().stalls;
        let mut top = ALL_STALL_REASONS[0];
        for r in ALL_STALL_REASONS {
            if stalls[r.index()] >= stalls[top.index()] {
                top = r;
            }
        }
        top
    }

    /// Whether every SM's slot accounting reconciles exactly
    /// (`issued + Σ stalls == slots` and `slots == cycles × width` are
    /// both the caller's to check; this covers the first).
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.sms.iter().all(|s| s.unattributed() == 0)
    }

    /// Serialises the profile as a single JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object();
        w.field_u64("schema", 1);
        w.field_u64("version", u64::from(PROFILE_VERSION));
        w.field_str("kernel", &self.kernel);
        w.field_u64("cycles", self.cycles);
        w.field_u64("warp_instructions", self.warp_instructions);
        w.key("mem");
        w.begin_object();
        w.field_u64("l1_accesses", self.mem.l1_accesses);
        w.field_u64("l1_misses", self.mem.l1_misses);
        w.field_u64("l2_misses", self.mem.l2_misses);
        w.field_u64("dram_accesses", self.mem.dram_accesses);
        w.field_u64("mshr_merges", self.mem.mshr_merges);
        w.field_u64("fill_p50", self.mem.fill_p50);
        w.field_u64("fill_p95", self.mem.fill_p95);
        w.field_u64("fill_max", self.mem.fill_max);
        w.field_u64("mshr_occupied_cycles", self.mem.mshr_occupied_cycles);
        w.field_u64("mshr_wait_cycles", self.mem.mshr_wait_cycles);
        w.field_u64("bw_starved_cycles", self.mem.bw_starved_cycles);
        w.field_u64("partitions", u64::from(self.mem.partitions));
        w.field_u64("xbar_wait_cycles", self.mem.xbar_wait_cycles);
        w.key("part_fills");
        w.begin_array();
        for &f in &self.mem.part_fills {
            w.u64(f);
        }
        w.end_array();
        w.end_object();
        w.key("sms");
        w.begin_array();
        for (i, s) in self.sms.iter().enumerate() {
            w.begin_object();
            w.field_u64("sm", i as u64);
            w.field_u64("cycles", s.cycles);
            w.field_u64("slots", s.slots);
            w.field_u64("issued", s.issued);
            w.field_u64("fetch_oob", s.fetch_oob);
            w.key("stalls");
            write_stalls(&mut w, &s.stalls);
            w.end_object();
        }
        w.end_array();
        w.key("pcs");
        w.begin_array();
        for r in &self.pcs {
            w.begin_object();
            w.field_u64("pc", u64::from(r.pc));
            if let Some(label) = &r.label {
                w.field_str("label", label);
            }
            w.field_u64("issued", r.issued);
            w.field_u64("adder_ops", r.adder_ops);
            w.field_u64("mispredicts", r.mispredicts);
            w.key("stalls");
            write_stalls(&mut w, &r.stalls);
            w.end_object();
        }
        w.end_array();
        w.key("occupancy");
        w.begin_array();
        for p in &self.occupancy {
            w.begin_object();
            w.field_u64("cycle", p.cycle);
            w.field_u64("warp_cycles", p.warp_cycles);
            w.field_u64("eligible_cycles", p.eligible_cycles);
            w.field_u64("issued_slots", p.issued_slots);
            w.field_u64("total_slots", p.total_slots);
            w.end_object();
        }
        w.end_array();
        w.key("mem_timeline");
        w.begin_array();
        for p in &self.mem_timeline {
            w.begin_object();
            w.field_u64("cycle", p.cycle);
            w.field_u64("mshr_occupied_cycles", p.mshr_occupied_cycles);
            w.field_u64("mshr_peak", p.mshr_peak);
            w.field_u64("l2_requests", p.l2_requests);
            w.field_u64("dram_requests", p.dram_requests);
            w.field_u64("bw_wait_cycles", p.bw_wait_cycles);
            w.field_u64("xbar_wait_cycles", p.xbar_wait_cycles);
            w.end_object();
        }
        w.end_array();
        w.key("energy_timeline");
        w.begin_array();
        for p in &self.energy_timeline {
            w.begin_object();
            w.field_u64("cycle", p.cycle);
            w.field_u64("dram_fills", p.dram_fills);
            w.field_u64("l2_grants", p.l2_grants);
            w.field_u64("mshr_merges", p.mshr_merges);
            w.field_u64("xbar_hops", p.xbar_hops);
            w.field_u64("write_allocs", p.write_allocs);
            w.field_u64("instructions", p.instructions);
            w.field_u64("sm_cycles", p.sm_cycles);
            w.end_object();
        }
        w.end_array();
        if let Some(e) = &self.energy {
            w.key("energy");
            w.begin_object();
            w.field_f64("total_nj", e.total_nj);
            w.field_f64("dram_nj", e.dram_nj);
            w.field_f64("l2_nj", e.l2_nj);
            w.field_f64("mshr_nj", e.mshr_nj);
            w.field_f64("xbar_nj", e.xbar_nj);
            w.field_f64("write_alloc_nj", e.write_alloc_nj);
            w.field_f64("issue_nj", e.issue_nj);
            w.field_f64("static_nj", e.static_nj);
            w.field_f64("queue_nj", e.queue_nj);
            w.field_f64("peak_power_w", e.peak_power_w);
            w.field_u64("peak_power_cycle", e.peak_power_cycle);
            w.field_f64("energy_per_instruction_pj", e.energy_per_instruction_pj);
            w.end_object();
        }
        w.end_object();
        w.finish()
    }

    /// Renders the nvprof-style text report: totals, the stall-reason
    /// percentage bars, an occupancy summary, and the top-`top_n` hot
    /// PCs with their source-DSL labels.
    #[must_use]
    pub fn render(&self, top_n: usize) -> String {
        let mut out = String::new();
        let t = self.total();
        let _ = writeln!(out, "== kernel profile: {} ==", self.kernel);
        let _ = writeln!(out, "{:-<70}", "");
        let _ = writeln!(
            out,
            "cycles {}   warp instructions {}   IPC {:.3}",
            self.cycles,
            self.warp_instructions,
            self.ipc()
        );
        let util = 100.0 * t.issued as f64 / t.slots.max(1) as f64;
        let _ = writeln!(
            out,
            "issue slots {} across {} SMs   issued {} ({util:.1}% utilised)",
            t.slots,
            self.sms.len(),
            t.issued
        );
        if t.fetch_oob > 0 {
            let _ = writeln!(out, "WARNING: {} out-of-range fetches masked", t.fetch_oob);
        }
        if self.mem.l1_accesses > 0 {
            let _ = writeln!(
                out,
                "memory: {} transactions   L1 hit {:.1}%   {} MSHR merges   {} DRAM fills   {} throttled slots",
                self.mem.l1_accesses,
                100.0 * self.mem.l1_hit_rate(),
                self.mem.mshr_merges,
                self.mem.dram_accesses,
                t.stalls[StallReason::MemThrottle.index()],
            );
        }
        if self.mem.fill_max > 0 {
            let _ = writeln!(
                out,
                "fill latency: p50 {}   p95 {}   max {} cycles   avg MSHR occupancy {:.2}",
                self.mem.fill_p50,
                self.mem.fill_p95,
                self.mem.fill_max,
                self.mem.avg_mshr_occupancy(self.cycles),
            );
            let _ = writeln!(
                out,
                "mem waits: {} MSHR-full cycles   {} bandwidth-starved cycles",
                self.mem.mshr_wait_cycles, self.mem.bw_starved_cycles,
            );
        }
        if self.mem.partitions > 1 {
            let fills: Vec<String> = self.mem.part_fills.iter().map(u64::to_string).collect();
            let _ = writeln!(
                out,
                "L2 partitions: {}   fills/partition [{}]   imbalance {:.2}   crossbar waits {} cycles",
                self.mem.partitions,
                fills.join(", "),
                self.mem.fill_imbalance(),
                self.mem.xbar_wait_cycles,
            );
        }
        if let Some(e) = &self.energy {
            let _ = writeln!(
                out,
                "energy: {:.1} nJ total   dram {:.1}   static {:.1}   {:.2} pJ/instr",
                e.total_nj, e.dram_nj, e.static_nj, e.energy_per_instruction_pj,
            );
            let _ = writeln!(
                out,
                "power: peak {:.3} W in the interval ending at cycle {}",
                e.peak_power_w, e.peak_power_cycle,
            );
        }

        // Occupancy summary from the timeline totals.
        let (mut wc, mut ec, mut is, mut ts) = (0u64, 0u64, 0u64, 0u64);
        for p in &self.occupancy {
            wc += p.warp_cycles;
            ec += p.eligible_cycles;
            is += p.issued_slots;
            ts += p.total_slots;
        }
        if self.cycles > 0 && ts > 0 {
            let _ = writeln!(
                out,
                "occupancy: avg active warps {:.2}, eligible {:.2}, issue-slot util {:.1}%",
                wc as f64 / self.cycles as f64,
                ec as f64 / self.cycles as f64,
                100.0 * is as f64 / ts as f64,
            );
        }

        let _ = writeln!(out, "stall breakdown (% of {} issue slots):", t.slots);
        let mut rows: Vec<(&'static str, u64)> = vec![("issued", t.issued)];
        for r in ALL_STALL_REASONS {
            rows.push((r.name(), t.stalls[r.index()]));
        }
        let peak = rows.iter().map(|&(_, v)| v).max().unwrap_or(1).max(1);
        for (name, v) in rows.into_iter().filter(|&(_, v)| v > 0) {
            let frac = v as f64 / t.slots.max(1) as f64;
            let bar = "#".repeat(((v * 30).div_ceil(peak)) as usize);
            let _ = writeln!(out, "  {name:<13} {bar:<30} {:5.1}%", 100.0 * frac);
        }

        // Hot PCs ranked by occupied slots (issued + stalled-at).
        let mut hot: Vec<&PcRow> = self.pcs.iter().collect();
        hot.sort_by_key(|r| std::cmp::Reverse((r.issued + r.stalled(), r.pc)));
        let shown = hot.len().min(top_n);
        if shown > 0 {
            let _ = writeln!(out, "hot PCs (top {shown} of {}):", hot.len());
            let _ = writeln!(
                out,
                "  {:>5} {:>10} {:>10} {:<13} {:>9}  inst",
                "pc", "issued", "stalled", "top-stall", "adder-acc"
            );
            for r in hot.iter().take(top_n) {
                let top_stall = ALL_STALL_REASONS
                    .iter()
                    .copied()
                    .max_by_key(|s| (r.stalls[s.index()], std::cmp::Reverse(s.index())))
                    .filter(|s| r.stalls[s.index()] > 0)
                    .map_or("-", StallReason::name);
                let acc = if r.adder_ops == 0 {
                    "-".to_string()
                } else {
                    format!("{:.4}", r.accuracy())
                };
                let pc = if r.pc == PC_OVERFLOW {
                    "OVF".to_string()
                } else {
                    r.pc.to_string()
                };
                let _ = writeln!(
                    out,
                    "  {pc:>5} {:>10} {:>10} {:<13} {acc:>9}  {}",
                    r.issued,
                    r.stalled(),
                    top_stall,
                    r.label.as_deref().unwrap_or(""),
                );
            }
        }
        out
    }
}

fn write_stalls(w: &mut Writer, stalls: &[u64; NUM_STALL_REASONS]) {
    w.begin_object();
    for r in ALL_STALL_REASONS {
        if stalls[r.index()] > 0 {
            w.field_u64(r.name(), stalls[r.index()]);
        }
    }
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn reason_indices_round_trip() {
        for (i, r) in ALL_STALL_REASONS.into_iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        // Names are distinct: they key the JSON stall objects.
        let mut names: Vec<&str> = ALL_STALL_REASONS.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_STALL_REASONS);
        // Pipe mapping matches the simulator's dense pool indices.
        assert_eq!(StallReason::pipe(0), StallReason::PipeAlu);
        assert_eq!(StallReason::pipe(5), StallReason::PipeLdst);
    }

    fn cycle(issued: u32, stalls: &[(StallReason, u32)], active: u32) -> CycleProfile {
        let mut cp = CycleProfile {
            issued,
            active_warps: active,
            eligible_warps: issued,
            ..CycleProfile::default()
        };
        for &(r, n) in stalls {
            cp.slot_stalls[r.index()] += n;
            for _ in 0..n {
                cp.pc_stalls.push((7, r));
            }
        }
        for i in 0..issued {
            cp.pc_issued.push(i);
        }
        cp
    }

    #[test]
    fn commit_keeps_slot_identity() {
        let mut c = ProfileCollector::new(2, 64);
        c.commit(0, 1, &cycle(3, &[(StallReason::Scoreboard, 1)], 5));
        c.commit(0, 4, &cycle(0, &[(StallReason::MemPending, 4)], 5));
        c.commit(1, 1, &cycle(0, &[(StallReason::NoBlock, 4)], 0));
        let s0 = c.sms()[0];
        assert_eq!(s0.cycles, 5);
        assert_eq!(s0.slots, 4 + 16);
        assert_eq!(s0.issued, 3);
        assert_eq!(s0.stalls[StallReason::Scoreboard.index()], 1);
        assert_eq!(s0.stalls[StallReason::MemPending.index()], 16);
        assert_eq!(s0.unattributed(), 0);
        assert_eq!(c.sms()[1].stalls[StallReason::NoBlock.index()], 4);
        assert_eq!(c.sms()[1].unattributed(), 0);
        // Per-PC stalls scale with dt.
        let pcs = c.pcs_sorted();
        let at7 = pcs.iter().find(|(pc, _)| *pc == 7).unwrap().1;
        assert_eq!(at7.stalls.iter().sum::<u64>(), 1 + 16 + 4);
    }

    #[test]
    fn pc_table_is_bounded() {
        let mut c = ProfileCollector::new(1, 4);
        let mut cp = CycleProfile::default();
        for pc in 0..10u32 {
            cp.pc_issued.push(pc);
        }
        c.commit(0, 1, &cp);
        assert!(c.pcs_sorted().len() <= 5, "4 entries + overflow bucket");
        let total: u64 = c.pcs_sorted().iter().map(|(_, c)| c.issued).sum();
        assert_eq!(total, 10, "overflow keeps totals exact");
    }

    #[test]
    fn profile_json_round_trips_losslessly() {
        let profile = KernelProfile {
            kernel: "probe \"x\"".into(),
            cycles: 1234,
            warp_instructions: 567,
            mem: MemSummary {
                l1_accesses: 100,
                l1_misses: 20,
                l2_misses: 10,
                dram_accesses: 10,
                mshr_merges: 5,
                fill_p50: 128,
                fill_p95: 256,
                fill_max: 300,
                mshr_occupied_cycles: 4000,
                mshr_wait_cycles: 77,
                bw_starved_cycles: 33,
                partitions: 2,
                xbar_wait_cycles: 9,
                part_fills: vec![6, 4],
            },
            sms: vec![
                SmProfile {
                    cycles: 1234,
                    slots: 4936,
                    issued: 567,
                    stalls: {
                        let mut s = [0; NUM_STALL_REASONS];
                        s[StallReason::Scoreboard.index()] = 4000;
                        s[StallReason::NoWarp.index()] = 369;
                        s
                    },
                    fetch_oob: 0,
                },
                SmProfile::default(),
            ],
            pcs: vec![
                PcRow {
                    pc: 3,
                    label: Some("add.i64   r1, r2, r3".into()),
                    issued: 200,
                    stalls: {
                        let mut s = [0; NUM_STALL_REASONS];
                        s[StallReason::AdderRepair.index()] = 17;
                        s
                    },
                    adder_ops: 200,
                    mispredicts: 17,
                },
                PcRow {
                    pc: PC_OVERFLOW,
                    label: None,
                    issued: 9,
                    stalls: [0; NUM_STALL_REASONS],
                    adder_ops: 0,
                    mispredicts: 0,
                },
            ],
            occupancy: vec![OccPoint {
                cycle: 1024,
                warp_cycles: 4096,
                eligible_cycles: 900,
                issued_slots: 500,
                total_slots: 4096,
            }],
            mem_timeline: vec![MemPoint {
                cycle: 1024,
                mshr_occupied_cycles: 2000,
                mshr_peak: 6,
                l2_requests: 20,
                dram_requests: 10,
                bw_wait_cycles: 33,
                xbar_wait_cycles: 9,
            }],
            energy_timeline: vec![EnergyPoint {
                cycle: 1024,
                dram_fills: 10,
                l2_grants: 20,
                mshr_merges: 5,
                xbar_hops: 12,
                write_allocs: 3,
                instructions: 567,
                sm_cycles: 2048,
            }],
            energy: Some(crate::energy::EnergySummary {
                total_nj: 12.5,
                dram_nj: 4.25,
                l2_nj: 1.5,
                mshr_nj: 0.125,
                xbar_nj: 0.5,
                write_alloc_nj: 0.25,
                issue_nj: 2.0,
                static_nj: 3.5,
                queue_nj: 0.375,
                peak_power_w: 1.75,
                peak_power_cycle: 1024,
                energy_per_instruction_pj: 22.046,
            }),
        };
        let doc = json::parse(&profile.to_json()).expect("profile JSON parses");
        let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
        let rows = |key: &str| doc.get(key).and_then(Value::as_array).expect(key);
        assert_eq!(num(&doc, "version"), Some(5.0));
        assert_eq!(
            doc.get("kernel").and_then(Value::as_str),
            Some("probe \"x\"")
        );
        assert_eq!(num(&doc, "cycles"), Some(1234.0));
        let mem = doc.get("mem").expect("mem object");
        assert_eq!(num(mem, "partitions"), Some(2.0));
        assert_eq!(num(mem, "xbar_wait_cycles"), Some(9.0));
        assert_eq!(
            mem.get("part_fills"),
            Some(&Value::Array(vec![Value::Number(6.0), Value::Number(4.0)]))
        );
        let sm = &rows("sms")[0];
        assert_eq!(num(sm, "slots"), Some(4936.0));
        assert_eq!(num(sm, "issued"), Some(567.0));
        let stalls = sm.get("stalls").expect("sm stalls");
        assert_eq!(num(stalls, "scoreboard"), Some(4000.0));
        assert_eq!(num(stalls, "no_warp"), Some(369.0));
        assert_eq!(num(stalls, "mem_pending"), None, "zero reasons are omitted");
        let pc = &rows("pcs")[0];
        assert_eq!(
            pc.get("label").and_then(Value::as_str),
            Some("add.i64   r1, r2, r3")
        );
        assert_eq!(num(pc, "mispredicts"), Some(17.0));
        assert_eq!(
            rows("pcs")[1].get("label"),
            None,
            "unlabelled rows omit the key"
        );
        let e = doc.get("energy").expect("priced energy object");
        let priced = profile.energy.expect("priced");
        for (key, v) in [
            ("total_nj", priced.total_nj),
            ("dram_nj", priced.dram_nj),
            ("l2_nj", priced.l2_nj),
            ("mshr_nj", priced.mshr_nj),
            ("xbar_nj", priced.xbar_nj),
            ("write_alloc_nj", priced.write_alloc_nj),
            ("issue_nj", priced.issue_nj),
            ("static_nj", priced.static_nj),
            ("queue_nj", priced.queue_nj),
            ("peak_power_w", priced.peak_power_w),
            ("peak_power_cycle", priced.peak_power_cycle as f64),
            (
                "energy_per_instruction_pj",
                priced.energy_per_instruction_pj,
            ),
        ] {
            assert_eq!(num(e, key), Some(v), "{key}");
        }
        assert!(profile.reconciles());
        assert!((profile.pcs[0].accuracy() - (1.0 - 17.0 / 200.0)).abs() < 1e-12);
        // Fresh transactions = 100 - 5 merges; 20 missed.
        assert!((profile.mem.l1_hit_rate() - (1.0 - 20.0 / 95.0)).abs() < 1e-12);
        // Busiest partition did 6 of 10 fills against a mean of 5.
        assert!((profile.mem.fill_imbalance() - 1.2).abs() < 1e-12);
        assert!((MemSummary::default().fill_imbalance()).abs() < 1e-12);
    }

    #[test]
    fn render_mentions_key_sections() {
        let mut c = ProfileCollector::new(1, 64);
        c.commit(
            0,
            1,
            &cycle(
                2,
                &[(StallReason::Scoreboard, 1), (StallReason::NoWarp, 1)],
                3,
            ),
        );
        let profile = KernelProfile {
            kernel: "probe".into(),
            cycles: 1,
            warp_instructions: 2,
            mem: MemSummary {
                l1_accesses: 8,
                l1_misses: 2,
                dram_accesses: 2,
                fill_p50: 128,
                fill_p95: 256,
                fill_max: 140,
                mshr_occupied_cycles: 3,
                bw_starved_cycles: 5,
                partitions: 2,
                xbar_wait_cycles: 7,
                part_fills: vec![1, 1],
                ..MemSummary::default()
            },
            sms: c.sms().to_vec(),
            pcs: c
                .pcs_sorted()
                .into_iter()
                .map(|(pc, pcc)| PcRow {
                    pc,
                    label: Some("add.i64   r0, r0, 1".into()),
                    issued: pcc.issued,
                    stalls: pcc.stalls,
                    adder_ops: 0,
                    mispredicts: 0,
                })
                .collect(),
            occupancy: vec![OccPoint {
                cycle: 1,
                warp_cycles: 3,
                eligible_cycles: 2,
                issued_slots: 2,
                total_slots: 4,
            }],
            mem_timeline: vec![],
            energy_timeline: vec![],
            energy: Some(crate::energy::EnergySummary {
                total_nj: 100.0,
                dram_nj: 40.0,
                l2_nj: 10.0,
                mshr_nj: 1.0,
                xbar_nj: 2.0,
                write_alloc_nj: 1.0,
                issue_nj: 16.0,
                static_nj: 28.0,
                queue_nj: 2.0,
                peak_power_w: 3.5,
                peak_power_cycle: 1,
                energy_per_instruction_pj: 50.0,
            }),
        };
        let text = profile.render(5);
        for needle in [
            "kernel profile: probe",
            "stall breakdown",
            "scoreboard",
            "occupancy",
            "hot PCs",
            "add.i64",
            "fill latency: p50 128   p95 256   max 140",
            "bandwidth-starved",
            "L2 partitions: 2",
            "crossbar waits 7 cycles",
            "energy: 100.0 nJ total",
            "power: peak 3.500 W",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
