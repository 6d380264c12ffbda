//! # st2-telemetry — observability for the ST² GPU reproduction
//!
//! Three layers, all behind one [`Telemetry`] handle:
//!
//! 1. **Events** (`event`) — cycle-stamped scheduler / adder / CRF /
//!    memory events in a bounded per-SM ring buffer. Constant memory,
//!    allocation-free on the hot path, one branch per callback on a
//!    disabled collector.
//! 2. **Metrics** — typed [`Counters`] and log2-bucketed
//!    [`Histograms`] updated field by field, plus typed interval rows
//!    ([`CorePoint`], [`MemPoint`], [`EnergyPoint`], [`OccPoint`])
//!    pushed at every snapshot boundary, so quantities like adder
//!    prediction accuracy, IPC and power can be plotted over simulated
//!    time. The run-level gauges (accuracy, IPC, cycles) are computed
//!    from the counters when exported.
//! 3. **Exporters** ([`chrome`], [`jsonl`], [`summary`]) — Chrome
//!    trace-event JSON (load in `chrome://tracing` or Perfetto), JSONL
//!    metric dumps, and a human-readable per-kernel summary. JSON is
//!    written and parsed by the in-tree [`json`] module (no external
//!    serializer).
//!
//! The simulator reports into `Telemetry` through the
//! [`st2_core::EventSink`] trait plus a handful of direct methods; a
//! [`Telemetry::disabled`] instance allocates nothing and turns every
//! callback into a branch on one bool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod energy;
pub(crate) mod event;
pub mod json;
pub mod jsonl;
pub(crate) mod metrics;
pub mod profile;
pub mod summary;

use st2_core::adder::AddOutcome;
use st2_core::bits::SliceLayout;
use st2_core::event::OpContext;
use st2_core::sink::EventSink;

pub use energy::{EnergySummary, EnergyWeights, PowerPoint};
pub(crate) use event::{Event, EventKind, RingBuffer};
// Named here so that the types `Telemetry` and the profiles return can be
// written.
pub use metrics::{CorePoint, Counters, EnergyPoint, Histogram, Histograms, MemPoint, OccPoint};
use profile::ProfileCollector;
pub use profile::{CycleProfile, KernelProfile, SmProfile, StallReason};

/// Events retained per SM ring buffer.
const RING_CAPACITY: usize = 4096;
/// Cycles between interval snapshots.
const INTERVAL_CYCLES: u64 = 1024;
/// Distinct PCs tracked in the warp-stall profiler's hotspot table
/// before new PCs fold into an overflow bucket (`profile::PC_OVERFLOW`).
const PROFILE_PC_CAPACITY: usize = 4096;

/// Collector settings for [`Telemetry::for_run`]. It has no fields: ring,
/// hotspot-table and snapshot sizes are fixed.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryConfig {}

/// Per-PC prediction bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct PcStat {
    ops: u64,
    mispredicts: u64,
}

/// Cumulative run totals. Each snapshot row is the difference between
/// these and the copy taken at the previous boundary.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    counters: Counters,
    /// Σ occupied MSHR entries × cycles.
    mshr_occupied_cycles: u64,
    /// SM-resident cycles: every SM contributes its clock ticks whether
    /// it executed, stalled, or slept through them (the event-driven
    /// driver replays parked windows via [`Telemetry::energy_cycles`]),
    /// so static/leakage energy is priced identically to the lockstep
    /// reference.
    sm_cycles: u64,
    /// Σ resident warps × cycles.
    warp_cycles: u64,
    /// Σ issue-ready warps × cycles.
    eligible_cycles: u64,
    /// Issue slots that issued.
    issued_slots: u64,
    /// Issue slots owned.
    total_slots: u64,
}

/// Lifecycle stamps of one coalesced global-memory transaction, as
/// reported by the simulator's drain phase. All stage waits are in
/// cycles and are zero for hits and merges (only fresh fills queue).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemTxn {
    /// Segment (line-aligned) address.
    pub addr: u64,
    /// Total request-to-completion latency in cycles.
    pub latency: u32,
    /// 0 = L1 hit, 1 = L2 hit, 2 = DRAM, 3 = merged into an in-flight
    /// fill.
    pub level: u8,
    /// Whether the transaction was a store (write-allocate).
    pub store: bool,
    /// L2 partition that served the transaction (0 with a monolithic
    /// L2).
    pub partition: u32,
    /// Cycles stalled waiting for a free MSHR entry.
    pub mshr_wait: u64,
    /// Cycles queued at a full crossbar injection port before the
    /// partition accepted the request (0 with a monolithic L2).
    pub xbar_wait: u64,
    /// Cycles queued for an L2 request-bandwidth slot.
    pub l2_wait: u64,
    /// Cycles queued for a DRAM request-bandwidth slot.
    pub dram_wait: u64,
    /// Whether the fill crossed the SM↔partition crossbar (always
    /// `false` with a monolithic L2, where the crossbar is bypassed).
    pub xbar_hop: bool,
}

/// The telemetry collector for one simulation run.
///
/// Construct with [`Telemetry::for_run`] to collect, or
/// [`Telemetry::disabled`] for a zero-cost stand-in (no allocation; every
/// recording call returns after one bool test).
#[derive(Debug, Clone)]
pub struct Telemetry {
    enabled: bool,
    /// Cycles between interval snapshots (`u64::MAX` when disabled).
    interval: u64,
    rings: Vec<RingBuffer>,
    span_names: Vec<String>,
    profile: ProfileCollector,
    /// Per-PC adder statistics indexed by PC (an instruction index);
    /// PCs that never added hold zero ops.
    pc_stats: Vec<PcStat>,
    last_issue: Vec<u64>,
    cur_sm: usize,
    cur_cycle: u64,
    totals: Totals,
    /// `totals` as of the last snapshot.
    base: Totals,
    histograms: Histograms,
    /// Cycle of the last snapshot: the start of the open interval.
    snapshot_cycle: u64,
    next_snapshot: u64,
    /// Fresh fills served per L2 partition, indexed by partition id
    /// (grown lazily to the highest partition observed). The
    /// partition-balance evidence for the crossbar model: a healthy
    /// address hash keeps these within a small factor of each other.
    part_fills: Vec<u64>,
    /// Per-SM peak MSHR occupancy within the current snapshot interval.
    /// The interval row publishes the *sum of per-SM peaks*.
    mshr_interval_peak: Vec<u32>,
    series: Vec<CorePoint>,
    mem_series: Vec<MemPoint>,
    /// Every column is an extensive integer event count; joules are
    /// applied downstream by [`energy::EnergyWeights`].
    energy_series: Vec<EnergyPoint>,
    occupancy: Vec<OccPoint>,
    final_cycles: u64,
}

impl Telemetry {
    /// A disabled collector: allocates nothing, records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            ..Self::sized(0, 0, u64::MAX, 1)
        }
    }

    /// An enabled collector for a run on `num_sms` SMs.
    #[must_use]
    pub fn for_run(num_sms: usize, _config: TelemetryConfig) -> Self {
        Self::sized(
            num_sms.max(1),
            RING_CAPACITY,
            INTERVAL_CYCLES,
            PROFILE_PC_CAPACITY,
        )
    }

    /// An enabled collector with `num_sms` event rings of
    /// `ring_capacity` events, a snapshot every `interval` cycles and a
    /// hotspot table of `pc_capacity` PCs.
    fn sized(num_sms: usize, ring_capacity: usize, interval: u64, pc_capacity: usize) -> Self {
        let interval = interval.max(1);
        Telemetry {
            enabled: true,
            interval,
            rings: (0..num_sms)
                .map(|_| RingBuffer::new(ring_capacity))
                .collect(),
            span_names: Vec::new(),
            profile: ProfileCollector::new(num_sms, pc_capacity),
            pc_stats: Vec::new(),
            last_issue: vec![u64::MAX; num_sms],
            cur_sm: 0,
            cur_cycle: 0,
            totals: Totals::default(),
            base: Totals::default(),
            histograms: Histograms::default(),
            snapshot_cycle: 0,
            next_snapshot: interval,
            part_fills: Vec::new(),
            mshr_interval_peak: vec![0; num_sms],
            series: Vec::new(),
            mem_series: Vec::new(),
            energy_series: Vec::new(),
            occupancy: Vec::new(),
            final_cycles: 0,
        }
    }

    /// Whether this collector records anything.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The first interval-snapshot boundary; later ones fall every that
    /// many cycles. `u64::MAX` on a disabled collector, which never
    /// snapshots.
    #[must_use]
    pub fn first_snapshot(&self) -> u64 {
        self.interval
    }

    /// Sets the SM / cycle context subsequent sink callbacks attribute
    /// their events to. Cheap; call before handing `self` to core as an
    /// [`EventSink`].
    #[inline]
    pub fn set_context(&mut self, sm: usize, cycle: u64) {
        self.cur_sm = sm;
        self.cur_cycle = cycle;
    }

    /// Records a raw event into an SM's ring. Prefer the typed helpers.
    pub(crate) fn record_event(&mut self, sm: usize, cycle: u64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let idx = sm.min(self.rings.len().saturating_sub(1));
        self.rings[idx].push(Event { cycle, kind });
    }

    /// Interns a span name, returning its index for [`EventKind::Span`].
    pub(crate) fn intern_span_name(&mut self, name: &str) -> u16 {
        if let Some(i) = self.span_names.iter().position(|n| n == name) {
            return u16::try_from(i).unwrap_or(u16::MAX);
        }
        self.span_names.push(name.to_string());
        u16::try_from(self.span_names.len() - 1).unwrap_or(u16::MAX)
    }

    /// The interned name behind a span index.
    #[must_use]
    pub(crate) fn span_name(&self, idx: u16) -> &str {
        self.span_names
            .get(usize::from(idx))
            .map_or("span", String::as_str)
    }

    /// The scheduler issued a warp instruction. Feeds the issue counter,
    /// the per-SM issue-gap histogram and the event ring.
    pub fn issue(&mut self, sm: usize, cycle: u64, warp: u32, pc: u32, pool: u8) {
        if !self.enabled {
            return;
        }
        self.totals.counters.warp_instructions += 1;
        let idx = sm.min(self.last_issue.len().saturating_sub(1));
        let last = self.last_issue[idx];
        if last != u64::MAX && cycle > last {
            self.histograms.issue_gap.record(cycle - last - 1);
        }
        self.last_issue[idx] = cycle;
        self.record_event(sm, cycle, EventKind::SchedIssue { warp, pc, pool });
    }

    /// One coalesced global-memory transaction completed, with its full
    /// lifecycle stamps. Updates the hit/miss counters and latency
    /// histograms (total plus a load/store split); fresh fills
    /// (`level` 1 or 2) additionally feed the per-stage queue-wait
    /// histograms, the MSHR-wait, bandwidth-wait and crossbar counters
    /// and an `EventKind::MemFill` lifecycle event for the Chrome-trace
    /// async spans.
    pub fn mem_transaction(&mut self, sm: usize, cycle: u64, t: &MemTxn) {
        if !self.enabled {
            return;
        }
        let (c, h) = (&mut self.totals.counters, &mut self.histograms);
        c.l1_accesses += 1;
        if t.level == 3 {
            c.mshr_merges += 1;
        } else {
            if t.level >= 1 {
                c.l1_misses += 1;
            }
            if t.level >= 2 {
                c.l2_misses += 1;
                c.dram_accesses += 1;
            }
        }
        h.mem_latency.record(u64::from(t.latency));
        let split = if t.store {
            &mut h.store_latency
        } else {
            &mut h.load_latency
        };
        split.record(u64::from(t.latency));
        if t.level == 1 || t.level == 2 {
            h.fill_latency.record(u64::from(t.latency));
            h.mshr_wait.record(t.mshr_wait);
            h.xbar_wait.record(t.xbar_wait);
            h.l2_queue_wait.record(t.l2_wait);
            if t.level == 2 {
                h.dram_queue_wait.record(t.dram_wait);
            }
            c.mshr_wait_cycles += t.mshr_wait;
            c.bw_starved_cycles += t.l2_wait + t.dram_wait;
            c.xbar_wait_cycles += t.xbar_wait;
            if t.xbar_hop {
                c.xbar_hops += 1;
            }
            if t.store {
                c.write_allocs += 1;
            }
            let part = t.partition as usize;
            if self.part_fills.len() <= part {
                self.part_fills.resize(part + 1, 0);
            }
            self.part_fills[part] += 1;
            self.record_event(
                sm,
                cycle,
                EventKind::MemFill {
                    addr: t.addr,
                    mshr_wait: saturate32(t.mshr_wait),
                    queue_wait: saturate32(t.l2_wait + t.dram_wait),
                    latency: t.latency,
                    level: t.level,
                    store: t.store,
                },
            );
        }
        self.record_event(
            sm,
            cycle,
            EventKind::MemAccess {
                addr: t.addr,
                latency: t.latency,
                level: t.level,
            },
        );
    }

    /// Records SM `sm` holding `occupied` MSHR entries for the `dt`
    /// clock ticks ending at the current drain. Integrates the
    /// occupied-entry-cycles column of the memory timeline and tracks
    /// the per-SM interval peak.
    pub fn mem_occupancy(&mut self, sm: usize, occupied: u32, dt: u64) {
        if !self.enabled {
            return;
        }
        self.totals.mshr_occupied_cycles += u64::from(occupied) * dt;
        let idx = sm.min(self.mshr_interval_peak.len().saturating_sub(1));
        if let Some(p) = self.mshr_interval_peak.get_mut(idx) {
            *p = (*p).max(occupied);
        }
    }

    /// Records `cycles` SM-resident clock ticks toward the energy
    /// timeline's static/leakage column. The simulator calls this once
    /// per SM per committed iteration (`dt` ticks) while awake, and
    /// once per replayed parked window (the full slept span) on wake —
    /// so every SM contributes exactly the run length, parked or not.
    /// The lockstep reference never parks and prices the same.
    #[inline]
    pub fn energy_cycles(&mut self, cycles: u64) {
        if !self.enabled {
            return;
        }
        self.totals.sm_cycles += cycles;
    }

    /// A warp reached a block barrier.
    pub fn barrier(&mut self, sm: usize, cycle: u64, warp: u32) {
        if !self.enabled {
            return;
        }
        self.totals.counters.barriers += 1;
        self.record_event(sm, cycle, EventKind::Barrier { warp });
    }

    /// Records a named span of `duration` cycles starting at `start`.
    pub fn span(&mut self, sm: usize, name: &str, start: u64, duration: u64) {
        if !self.enabled {
            return;
        }
        let name = self.intern_span_name(name);
        self.record_event(sm, start, EventKind::Span { name, duration });
    }

    /// Advances simulated time, taking interval snapshots for every
    /// boundary crossed. Call whenever the simulator's clock moves.
    pub fn advance(&mut self, cycle: u64) {
        if !self.enabled {
            return;
        }
        while cycle >= self.next_snapshot {
            let at = self.next_snapshot;
            self.take_snapshot(at);
            self.next_snapshot += self.interval;
        }
    }

    /// Pushes one row per timeline for the interval ending at `cycle`:
    /// each is the difference of the run totals against the previous
    /// boundary.
    fn take_snapshot(&mut self, cycle: u64) {
        let (now, base) = (&self.totals, &self.base);
        let (c, b) = (&now.counters, &base.counters);
        let l1_misses = c.l1_misses - b.l1_misses;
        let dram = c.dram_accesses - b.dram_accesses;
        let instructions = c.warp_instructions - b.warp_instructions;
        self.series.push(CorePoint {
            start: self.snapshot_cycle,
            cycle,
            adder_ops: c.adder_ops - b.adder_ops,
            adder_mispredicts: c.adder_mispredicts - b.adder_mispredicts,
            warp_instructions: instructions,
        });
        self.mem_series.push(MemPoint {
            cycle,
            mshr_occupied_cycles: now.mshr_occupied_cycles - base.mshr_occupied_cycles,
            mshr_peak: self.mshr_interval_peak.iter().map(|&p| u64::from(p)).sum(),
            l2_requests: l1_misses,
            dram_requests: dram,
            bw_wait_cycles: c.bw_starved_cycles - b.bw_starved_cycles,
            xbar_wait_cycles: c.xbar_wait_cycles - b.xbar_wait_cycles,
        });
        self.energy_series.push(EnergyPoint {
            cycle,
            dram_fills: dram,
            l2_grants: l1_misses,
            mshr_merges: c.mshr_merges - b.mshr_merges,
            xbar_hops: c.xbar_hops - b.xbar_hops,
            write_allocs: c.write_allocs - b.write_allocs,
            instructions,
            sm_cycles: now.sm_cycles - base.sm_cycles,
        });
        self.occupancy.push(OccPoint {
            cycle,
            warp_cycles: now.warp_cycles - base.warp_cycles,
            eligible_cycles: now.eligible_cycles - base.eligible_cycles,
            issued_slots: now.issued_slots - base.issued_slots,
            total_slots: now.total_slots - base.total_slots,
        });
        self.base = self.totals;
        self.snapshot_cycle = cycle;
        self.mshr_interval_peak.fill(0);
    }

    /// Ends the run at `cycles`: takes a final partial snapshot if any
    /// time passed since the last boundary.
    pub fn finalize(&mut self, cycles: u64) {
        if !self.enabled {
            return;
        }
        self.advance(cycles);
        if cycles > self.snapshot_cycle {
            self.take_snapshot(cycles);
        }
        self.final_cycles = cycles;
    }

    /// Total cycles as reported to [`Telemetry::finalize`].
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.final_cycles
    }

    /// The run's cumulative counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.totals.counters
    }

    /// The run's latency and gap histograms.
    #[must_use]
    pub fn histograms(&self) -> &Histograms {
        &self.histograms
    }

    /// The run-level gauges as `(name, value)`: overall adder accuracy,
    /// IPC and cycles, computed from the counters.
    #[must_use]
    pub(crate) fn gauges(&self) -> [(&'static str, f64); 3] {
        let c = &self.totals.counters;
        [
            (
                "adder.accuracy",
                metrics::accuracy(c.adder_ops, c.adder_mispredicts),
            ),
            (
                "sim.ipc",
                c.warp_instructions as f64 / self.final_cycles.max(1) as f64,
            ),
            ("sim.cycles", self.final_cycles as f64),
        ]
    }

    /// The core interval rows: adder accuracy and IPC over time.
    #[must_use]
    pub fn series(&self) -> &[CorePoint] {
        &self.series
    }

    /// The memory interval timeline.
    #[must_use]
    pub fn mem_series(&self) -> &[MemPoint] {
        &self.mem_series
    }

    /// The energy-event interval timeline.
    #[must_use]
    pub fn energy_series(&self) -> &[EnergyPoint] {
        &self.energy_series
    }

    /// The energy timeline's column totals; `cycle` is the last row's.
    /// Equal to the run's cumulative event counts once finalized.
    #[must_use]
    pub fn energy_totals(&self) -> EnergyPoint {
        self.energy_series
            .iter()
            .fold(EnergyPoint::default(), |t, p| EnergyPoint {
                cycle: p.cycle,
                dram_fills: t.dram_fills + p.dram_fills,
                l2_grants: t.l2_grants + p.l2_grants,
                mshr_merges: t.mshr_merges + p.mshr_merges,
                xbar_hops: t.xbar_hops + p.xbar_hops,
                write_allocs: t.write_allocs + p.write_allocs,
                instructions: t.instructions + p.instructions,
                sm_cycles: t.sm_cycles + p.sm_cycles,
            })
    }

    /// Cumulative SM-resident cycles integrated over the run (every SM
    /// counts every clock tick, awake or parked; equals
    /// `num_sms x cycles` for a run that ends with all SMs drained).
    #[must_use]
    pub fn energy_sm_cycles(&self) -> u64 {
        self.totals.sm_cycles
    }

    /// Cumulative MSHR occupied-entry-cycles integrated over the run
    /// (divide by SM-cycles for the average occupancy).
    #[must_use]
    pub fn mem_occupied_cycles(&self) -> u64 {
        self.totals.mshr_occupied_cycles
    }

    /// Fresh fills served per L2 partition, indexed by partition id
    /// (empty when no fill happened; length = highest partition seen
    /// + 1, so a monolithic L2 reports one entry).
    #[must_use]
    pub fn part_fills(&self) -> &[u64] {
        &self.part_fills
    }

    /// Per-SM event rings.
    #[must_use]
    pub(crate) fn rings(&self) -> &[RingBuffer] {
        &self.rings
    }

    /// The warp-stall and hotspot profile collector.
    #[must_use]
    pub(crate) fn profile(&self) -> &ProfileCollector {
        &self.profile
    }

    /// Folds one SM's per-cycle profiling scratch (covering `dt` clock
    /// ticks) into the profile collector and the occupancy totals. The
    /// simulator calls this once per SM per stepped cycle, after the
    /// cycle's global length is known.
    #[inline]
    pub fn profile_commit(&mut self, sm: usize, dt: u64, cp: &CycleProfile) {
        if !self.enabled {
            return;
        }
        let slots = self.profile.commit(sm, dt, cp);
        let t = &mut self.totals;
        t.warp_cycles += u64::from(cp.active_warps) * dt;
        t.eligible_cycles += u64::from(cp.eligible_warps) * dt;
        t.issued_slots += u64::from(cp.issued);
        t.total_slots += slots;
    }

    /// Per-PC prediction accuracy, worst first:
    /// `(pc, ops, mispredicts)`.
    #[must_use]
    pub(crate) fn pc_accuracy(&self) -> Vec<(u32, u64, u64)> {
        let mut v: Vec<(u32, u64, u64)> = (0u32..)
            .zip(&self.pc_stats)
            .filter(|(_, s)| s.ops > 0)
            .map(|(pc, s)| (pc, s.ops, s.mispredicts))
            .collect();
        v.sort_by(|a, b| {
            let ra = a.2 as f64 / a.1.max(1) as f64;
            let rb = b.2 as f64 / b.1.max(1) as f64;
            rb.partial_cmp(&ra)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        v
    }
}

fn saturate32(cycles: u64) -> u32 {
    u32::try_from(cycles).unwrap_or(u32::MAX)
}

impl EventSink for Telemetry {
    fn enabled(&self) -> bool {
        self.is_enabled()
    }

    fn adder_op(&mut self, ctx: &OpContext, _layout: SliceLayout, outcome: &AddOutcome) {
        if !self.enabled {
            return;
        }
        self.totals.counters.adder_ops += 1;
        let pc = ctx.pc as usize;
        if pc >= self.pc_stats.len() {
            self.pc_stats.resize(pc + 1, PcStat::default());
        }
        let stat = &mut self.pc_stats[pc];
        stat.ops += 1;
        if outcome.mispredicted {
            stat.mispredicts += 1;
            self.totals.counters.adder_mispredicts += 1;
            self.histograms
                .recompute_slices
                .record(u64::from(outcome.slices_recomputed));
            let (sm, cycle) = (self.cur_sm, self.cur_cycle);
            self.record_event(
                sm,
                cycle,
                EventKind::AdderMispredict {
                    pc: ctx.pc,
                    slices_recomputed: outcome.slices_recomputed,
                },
            );
        }
    }

    fn history_activity(&mut self, reads: u64, writes: u64) {
        if !self.enabled {
            return;
        }
        self.totals.counters.history_reads += reads;
        self.totals.counters.history_writes += writes;
    }

    fn crf_read(&mut self, _pc: u32) {
        if !self.enabled {
            return;
        }
        self.totals.counters.crf_reads += 1;
    }

    fn crf_write(&mut self, pc: u32, conflict: bool) {
        if !self.enabled {
            return;
        }
        self.totals.counters.crf_writes += 1;
        if conflict {
            self.totals.counters.crf_conflicts += 1;
            let (sm, cycle) = (self.cur_sm, self.cur_cycle);
            self.record_event(sm, cycle, EventKind::CrfConflict { row: pc & 0xF });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(mispredicted: bool) -> AddOutcome {
        AddOutcome {
            sum: 0,
            carry_out: false,
            cycles: if mispredicted { 2 } else { 1 },
            mispredicted,
            slices_recomputed: u32::from(mispredicted) * 3,
            errors: 0,
            static_boundaries: 0,
            true_carries: 0,
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.issue(0, 10, 0, 4, 0);
        t.mem_transaction(
            0,
            10,
            &MemTxn {
                addr: 128,
                latency: 30,
                level: 1,
                ..MemTxn::default()
            },
        );
        t.barrier(0, 11, 2);
        t.adder_op(&OpContext::default(), SliceLayout::INT64, &outcome(true));
        t.span(0, "x", 0, 10);
        t.advance(100_000);
        t.finalize(100_000);
        assert!(t.rings().is_empty());
        assert_eq!(*t.counters(), Counters::default());
        assert_eq!(*t.histograms(), Histograms::default());
        assert!(t.series().is_empty());
        assert_eq!(t.first_snapshot(), u64::MAX);
    }

    #[test]
    fn sink_updates_metrics_and_rings() {
        let mut t = Telemetry::for_run(2, TelemetryConfig::default());
        t.set_context(1, 42);
        let ctx = OpContext {
            pc: 7,
            gtid: 0,
            ltid: 0,
        };
        t.adder_op(&ctx, SliceLayout::INT64, &outcome(false));
        t.adder_op(&ctx, SliceLayout::INT64, &outcome(true));
        assert_eq!(t.counters().adder_ops, 2);
        assert_eq!(t.counters().adder_mispredicts, 1);
        let pcs = t.pc_accuracy();
        assert_eq!(pcs, vec![(7, 2, 1)]);
        // The mispredict landed in SM 1's ring at cycle 42.
        let e = t.rings()[1].iter_in_order().next().unwrap();
        assert_eq!(e.cycle, 42);
        assert!(matches!(e.kind, EventKind::AdderMispredict { pc: 7, .. }));
    }

    #[test]
    fn interval_snapshots_track_accuracy() {
        let mut t = Telemetry::sized(1, 16, 100, 64);
        let ctx = OpContext::default();
        // Interval 1: 4 ops, 2 mispredicts -> accuracy 0.5.
        for i in 0..4 {
            t.adder_op(&ctx, SliceLayout::INT64, &outcome(i % 2 == 0));
        }
        t.advance(100);
        // Interval 2: 4 ops, 0 mispredicts -> accuracy 1.0.
        for _ in 0..4 {
            t.adder_op(&ctx, SliceLayout::INT64, &outcome(false));
        }
        t.finalize(150);
        let s = t.series();
        assert_eq!(s.len(), 2);
        assert!((s[0].accuracy() - 0.5).abs() < 1e-12);
        assert!((s[1].accuracy() - 1.0).abs() < 1e-12);
        assert_eq!((s[1].start, s[1].cycle), (100, 150));
        // Overall gauge covers all 8 ops.
        let (name, g) = t.gauges()[0];
        assert_eq!(name, "adder.accuracy");
        assert!((g - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mem_transaction_records_lifecycle_channels() {
        let mut t = Telemetry::sized(1, 16, 100, 64);
        // A DRAM fill that queued at every stage (partition 1), a clean
        // L2 store fill (partition 0), and an L1 hit (no fill).
        t.mem_transaction(
            0,
            5,
            &MemTxn {
                addr: 4096,
                latency: 140,
                level: 2,
                store: false,
                partition: 1,
                mshr_wait: 10,
                xbar_wait: 4,
                l2_wait: 3,
                dram_wait: 2,
                xbar_hop: true,
            },
        );
        t.mem_transaction(
            0,
            6,
            &MemTxn {
                addr: 8192,
                latency: 30,
                level: 1,
                store: true,
                ..MemTxn::default()
            },
        );
        t.mem_transaction(
            0,
            7,
            &MemTxn {
                addr: 4096,
                latency: 4,
                level: 0,
                ..MemTxn::default()
            },
        );
        let (c, h) = (t.counters(), t.histograms());
        assert_eq!(c.bw_starved_cycles, 5);
        assert_eq!(c.mshr_wait_cycles, 10);
        assert_eq!(c.xbar_wait_cycles, 4);
        assert_eq!(h.xbar_wait.count(), 2);
        assert_eq!(h.xbar_wait.max(), 4);
        assert_eq!(t.part_fills(), &[1, 1], "one fill per partition");
        assert_eq!(h.fill_latency.count(), 2);
        assert_eq!(h.fill_latency.max(), 140);
        assert_eq!(h.load_latency.count(), 2);
        assert_eq!(h.store_latency.count(), 1);
        assert_eq!(h.dram_queue_wait.count(), 1);
        let fills = t.rings()[0]
            .iter_in_order()
            .filter(|e| matches!(e.kind, EventKind::MemFill { .. }))
            .count();
        assert_eq!(fills, 2, "one lifecycle event per fresh fill");

        // Occupancy timeline: integral and per-interval peak, with the
        // peak reset at each snapshot boundary.
        t.mem_occupancy(0, 3, 10);
        t.mem_occupancy(0, 5, 2);
        t.finalize(150);
        assert_eq!(t.mem_occupied_cycles(), 40);
        let pts = t.mem_series();
        assert_eq!(pts.len(), 2, "boundary snapshot plus final partial");
        // First interval: all the activity above.
        assert_eq!(
            pts[0],
            MemPoint {
                cycle: 100,
                mshr_occupied_cycles: 40,
                mshr_peak: 5,
                l2_requests: 2,
                dram_requests: 1,
                bw_wait_cycles: 5,
                xbar_wait_cycles: 4,
            }
        );
        // Final partial interval: quiet, peak reset.
        assert_eq!(
            pts[1],
            MemPoint {
                cycle: 150,
                ..MemPoint::default()
            }
        );
    }

    #[test]
    fn issue_gap_histogram() {
        let mut t = Telemetry::for_run(1, TelemetryConfig::default());
        t.issue(0, 10, 0, 0, 0);
        t.issue(0, 11, 0, 4, 0); // gap 0 (back-to-back)
        t.issue(0, 20, 0, 8, 0); // gap 8
        let h = &t.histograms().issue_gap;
        assert_eq!(h.count(), 2);
        assert_eq!(h.nonzero_buckets(), vec![(0, 0, 1), (8, 15, 1)]);
    }
}
