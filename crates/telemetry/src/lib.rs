//! # st2-telemetry — observability for the ST² GPU reproduction
//!
//! Three layers, all behind one [`Telemetry`] handle:
//!
//! 1. **Events** (`event`) — cycle-stamped scheduler / adder / CRF /
//!    memory events in a bounded per-SM ring buffer. Constant memory,
//!    allocation-free on the hot path, one branch per callback on a
//!    disabled collector.
//! 2. **Metrics** (`metrics`) — named counters, gauges and
//!    log2-bucketed histograms, plus periodic interval snapshots so
//!    quantities like adder prediction accuracy and IPC can be plotted
//!    over simulated time.
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

pub use energy::{EnergySummary, EnergyWeights};
pub(crate) use event::{Event, EventKind, RingBuffer};
// Named here so that the types `Telemetry` and the profiles return can be
// written.
pub use metrics::{Histogram, IntervalPoint, IntervalSeries, MetricsRegistry};
pub use profile::{CycleProfile, KernelProfile, ProfileCollector, SmProfile, StallReason};

/// Sizing and cadence knobs.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Events retained per SM ring buffer.
    pub(crate) ring_capacity: usize,
    /// Cycles between interval snapshots.
    pub interval_cycles: u64,
    /// Distinct PCs tracked in the warp-stall profiler's hotspot table
    /// before new PCs fold into an overflow bucket
    /// (see [`profile::PC_OVERFLOW`]).
    pub(crate) profile_pc_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 4096,
            interval_cycles: 1024,
            profile_pc_capacity: 4096,
        }
    }
}

/// Ids of the metrics the simulator updates on its hot path, registered
/// once at construction.
#[derive(Debug, Clone, Copy)]
struct HotIds {
    warp_instructions: metrics::CounterId,
    adder_ops: metrics::CounterId,
    adder_mispredicts: metrics::CounterId,
    history_reads: metrics::CounterId,
    history_writes: metrics::CounterId,
    crf_reads: metrics::CounterId,
    crf_writes: metrics::CounterId,
    crf_conflicts: metrics::CounterId,
    l1_accesses: metrics::CounterId,
    l1_misses: metrics::CounterId,
    l2_misses: metrics::CounterId,
    dram_accesses: metrics::CounterId,
    mshr_merges: metrics::CounterId,
    mshr_wait_cycles: metrics::CounterId,
    bw_starved_cycles: metrics::CounterId,
    xbar_wait_cycles: metrics::CounterId,
    xbar_hops: metrics::CounterId,
    write_allocs: metrics::CounterId,
    barriers: metrics::CounterId,
    recompute_slices: metrics::HistogramId,
    issue_gap: metrics::HistogramId,
    mem_latency: metrics::HistogramId,
    fill_latency: metrics::HistogramId,
    mshr_wait: metrics::HistogramId,
    xbar_wait: metrics::HistogramId,
    l2_queue_wait: metrics::HistogramId,
    dram_queue_wait: metrics::HistogramId,
    load_latency: metrics::HistogramId,
    store_latency: metrics::HistogramId,
}

/// Per-PC prediction bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct PcStat {
    ops: u64,
    mispredicts: u64,
}

/// Interval-snapshot baseline: cumulative values at the last snapshot.
#[derive(Debug, Clone, Copy, Default)]
struct SnapshotBase {
    cycle: u64,
    ops: u64,
    mispredicts: u64,
    instructions: u64,
}

/// Memory-timeline baseline: cumulative values at the last snapshot of
/// the memory interval series.
#[derive(Debug, Clone, Copy, Default)]
struct MemBase {
    occupied_cycles: u64,
    l1_misses: u64,
    dram_accesses: u64,
    bw_wait: u64,
    xbar_wait: u64,
}

/// Energy-timeline baseline: cumulative event counts at the last
/// snapshot of the energy interval series.
#[derive(Debug, Clone, Copy, Default)]
struct EnergyBase {
    dram_fills: u64,
    l2_grants: u64,
    mshr_merges: u64,
    xbar_hops: u64,
    write_allocs: u64,
    instructions: u64,
    sm_cycles: u64,
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
    config: TelemetryConfig,
    rings: Vec<RingBuffer>,
    registry: MetricsRegistry,
    series: IntervalSeries,
    span_names: Vec<String>,
    ids: Option<HotIds>,
    profile: ProfileCollector,
    /// Per-PC adder statistics indexed by PC (an instruction index);
    /// PCs that never added hold zero ops.
    pc_stats: Vec<PcStat>,
    last_issue: Vec<u64>,
    cur_sm: usize,
    cur_cycle: u64,
    next_snapshot: u64,
    base: SnapshotBase,
    mem_series: IntervalSeries,
    mem_base: MemBase,
    mshr_occupied_cycles: u64,
    /// Fresh fills served per L2 partition, indexed by partition id
    /// (grown lazily to the highest partition observed). The
    /// partition-balance evidence for the crossbar model: a healthy
    /// address hash keeps these within a small factor of each other.
    part_fills: Vec<u64>,
    /// Per-SM peak MSHR occupancy within the current snapshot interval.
    /// The interval row publishes the *sum of per-SM peaks*.
    mshr_interval_peak: Vec<u32>,
    /// Per-interval energy-event timeline (columns:
    /// [`ENERGY_SERIES_COLUMNS`]). Every column is an extensive integer
    /// event count; joules are applied downstream by
    /// [`energy::EnergyWeights`], keeping the timeline pure integers.
    energy_series: IntervalSeries,
    energy_base: EnergyBase,
    /// Cumulative SM-resident cycles: every SM contributes its clock
    /// ticks whether it executed, stalled, or slept through them (the
    /// event-driven driver replays parked windows via
    /// [`Telemetry::energy_cycles`]), so static/leakage energy is
    /// priced identically to the lockstep reference.
    energy_sm_cycles: u64,
    final_cycles: u64,
}

/// Interval-series column order (see [`Telemetry::series`]).
pub(crate) const SERIES_COLUMNS: [&str; 4] =
    ["adder.accuracy", "adder.ops", "adder.mispredicts", "ipc"];

/// Memory interval-series column order (see [`Telemetry::mem_series`]).
/// All columns are extensive integer sums over the interval:
/// occupied MSHR-entry-cycles, the sum of per-SM peak occupancies,
/// L2/DRAM requests granted, cycles requests spent queued for
/// bandwidth slots, and cycles spent queued at crossbar injection
/// ports (Little's law: divide by the interval length for the average
/// queue depth).
pub(crate) const MEM_SERIES_COLUMNS: [&str; 6] = [
    "mem.mshr_occupied_cycles",
    "mem.mshr_peak",
    "mem.l2_requests",
    "mem.dram_requests",
    "mem.bw_wait_cycles",
    "mem.xbar_wait_cycles",
];

/// Energy interval-series column order (see [`Telemetry::energy_series`]).
/// All columns are extensive integer event counts over the interval:
/// DRAM line fills, L2 slot grants (fresh fills entering the L2), MSHR
/// merges, crossbar hops, write-allocate fills, issued warp
/// instructions, and SM-resident cycles (awake or parked). Multiply by
/// per-event joules ([`energy::EnergyWeights`]) to get interval energy.
pub(crate) const ENERGY_SERIES_COLUMNS: [&str; 7] = [
    "energy.dram_fills",
    "energy.l2_grants",
    "energy.mshr_merges",
    "energy.xbar_hops",
    "energy.write_allocs",
    "energy.instructions",
    "energy.sm_cycles",
];

impl Telemetry {
    /// A disabled collector: allocates nothing, records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            config: TelemetryConfig {
                ring_capacity: 0,
                interval_cycles: u64::MAX,
                profile_pc_capacity: 1,
            },
            rings: Vec::new(),
            registry: MetricsRegistry::new(),
            series: IntervalSeries::default(),
            span_names: Vec::new(),
            ids: None,
            profile: ProfileCollector::new(0, 1),
            pc_stats: Vec::new(),
            last_issue: Vec::new(),
            cur_sm: 0,
            cur_cycle: 0,
            next_snapshot: u64::MAX,
            base: SnapshotBase::default(),
            mem_series: IntervalSeries::default(),
            mem_base: MemBase::default(),
            mshr_occupied_cycles: 0,
            part_fills: Vec::new(),
            mshr_interval_peak: Vec::new(),
            energy_series: IntervalSeries::default(),
            energy_base: EnergyBase::default(),
            energy_sm_cycles: 0,
            final_cycles: 0,
        }
    }

    /// An enabled collector for a run on `num_sms` SMs.
    #[must_use]
    pub fn for_run(num_sms: usize, config: TelemetryConfig) -> Self {
        let mut registry = MetricsRegistry::new();
        let ids = HotIds {
            warp_instructions: registry.counter("sched.warp_instructions"),
            adder_ops: registry.counter("adder.ops"),
            adder_mispredicts: registry.counter("adder.mispredicts"),
            history_reads: registry.counter("history.reads"),
            history_writes: registry.counter("history.writes"),
            crf_reads: registry.counter("crf.reads"),
            crf_writes: registry.counter("crf.writes"),
            crf_conflicts: registry.counter("crf.conflicts"),
            l1_accesses: registry.counter("mem.l1_accesses"),
            l1_misses: registry.counter("mem.l1_misses"),
            l2_misses: registry.counter("mem.l2_misses"),
            dram_accesses: registry.counter("mem.dram_accesses"),
            mshr_merges: registry.counter("mem.mshr_merges"),
            mshr_wait_cycles: registry.counter("mem.mshr_wait_cycles"),
            bw_starved_cycles: registry.counter("mem.bw_starved_cycles"),
            xbar_wait_cycles: registry.counter("mem.xbar_wait_cycles"),
            xbar_hops: registry.counter("mem.xbar_hops"),
            write_allocs: registry.counter("mem.write_allocs"),
            barriers: registry.counter("sched.barriers"),
            recompute_slices: registry.histogram("adder.recompute_slices"),
            issue_gap: registry.histogram("sched.issue_gap"),
            mem_latency: registry.histogram("mem.latency"),
            fill_latency: registry.histogram("mem.fill_latency"),
            mshr_wait: registry.histogram("mem.mshr_wait"),
            xbar_wait: registry.histogram("mem.xbar_wait"),
            l2_queue_wait: registry.histogram("mem.l2_queue_wait"),
            dram_queue_wait: registry.histogram("mem.dram_queue_wait"),
            load_latency: registry.histogram("mem.load_latency"),
            store_latency: registry.histogram("mem.store_latency"),
        };
        Telemetry {
            enabled: true,
            config,
            rings: (0..num_sms.max(1))
                .map(|_| RingBuffer::new(config.ring_capacity))
                .collect(),
            registry,
            series: IntervalSeries::new(SERIES_COLUMNS.iter().map(|s| (*s).to_string()).collect()),
            span_names: Vec::new(),
            ids: Some(ids),
            profile: ProfileCollector::new(num_sms, config.profile_pc_capacity),
            pc_stats: Vec::new(),
            last_issue: vec![u64::MAX; num_sms.max(1)],
            cur_sm: 0,
            cur_cycle: 0,
            next_snapshot: config.interval_cycles.max(1),
            base: SnapshotBase::default(),
            mem_series: IntervalSeries::new(
                MEM_SERIES_COLUMNS
                    .iter()
                    .map(|s| (*s).to_string())
                    .collect(),
            ),
            mem_base: MemBase::default(),
            mshr_occupied_cycles: 0,
            part_fills: Vec::new(),
            mshr_interval_peak: vec![0; num_sms.max(1)],
            energy_series: IntervalSeries::new(
                ENERGY_SERIES_COLUMNS
                    .iter()
                    .map(|s| (*s).to_string())
                    .collect(),
            ),
            energy_base: EnergyBase::default(),
            energy_sm_cycles: 0,
            final_cycles: 0,
        }
    }

    /// Whether this collector records anything.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The sizing/cadence configuration this collector was built with.
    #[must_use]
    pub fn config(&self) -> TelemetryConfig {
        self.config
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
        let Some(ids) = self.ids else { return };
        self.registry.inc(ids.warp_instructions, 1);
        let idx = sm.min(self.last_issue.len().saturating_sub(1));
        let last = self.last_issue[idx];
        if last != u64::MAX && cycle > last {
            self.registry.record(ids.issue_gap, cycle - last - 1);
        }
        self.last_issue[idx] = cycle;
        self.record_event(sm, cycle, EventKind::SchedIssue { warp, pc, pool });
    }

    /// One coalesced global-memory transaction completed, with its full
    /// lifecycle stamps. Updates the hit/miss counters and latency
    /// histograms (total plus a load/store split); fresh fills
    /// (`level` 1 or 2) additionally feed the per-stage queue-wait
    /// histograms, the `mem.mshr_wait_cycles` / `mem.bw_starved_cycles`
    /// counters and an `EventKind::MemFill` lifecycle event for the
    /// Chrome-trace async spans.
    pub fn mem_transaction(&mut self, sm: usize, cycle: u64, t: &MemTxn) {
        if !self.enabled {
            return;
        }
        let Some(ids) = self.ids else { return };
        self.registry.inc(ids.l1_accesses, 1);
        if t.level == 3 {
            self.registry.inc(ids.mshr_merges, 1);
        } else {
            if t.level >= 1 {
                self.registry.inc(ids.l1_misses, 1);
            }
            if t.level >= 2 {
                self.registry.inc(ids.l2_misses, 1);
                self.registry.inc(ids.dram_accesses, 1);
            }
        }
        self.registry.record(ids.mem_latency, u64::from(t.latency));
        let split = if t.store {
            ids.store_latency
        } else {
            ids.load_latency
        };
        self.registry.record(split, u64::from(t.latency));
        if t.level == 1 || t.level == 2 {
            self.registry.record(ids.fill_latency, u64::from(t.latency));
            self.registry.record(ids.mshr_wait, t.mshr_wait);
            self.registry.record(ids.xbar_wait, t.xbar_wait);
            self.registry.record(ids.l2_queue_wait, t.l2_wait);
            if t.level == 2 {
                self.registry.record(ids.dram_queue_wait, t.dram_wait);
            }
            self.registry.inc(ids.mshr_wait_cycles, t.mshr_wait);
            self.registry
                .inc(ids.bw_starved_cycles, t.l2_wait + t.dram_wait);
            self.registry.inc(ids.xbar_wait_cycles, t.xbar_wait);
            if t.xbar_hop {
                self.registry.inc(ids.xbar_hops, 1);
            }
            if t.store {
                self.registry.inc(ids.write_allocs, 1);
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
        self.mshr_occupied_cycles += u64::from(occupied) * dt;
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
        self.energy_sm_cycles += cycles;
    }

    /// A warp reached a block barrier.
    pub fn barrier(&mut self, sm: usize, cycle: u64, warp: u32) {
        if !self.enabled {
            return;
        }
        let Some(ids) = self.ids else { return };
        self.registry.inc(ids.barriers, 1);
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
            self.next_snapshot += self.config.interval_cycles.max(1);
        }
    }

    fn take_snapshot(&mut self, cycle: u64) {
        self.profile.snapshot(cycle);
        let Some(ids) = self.ids else { return };
        // Memory timeline row: interval deltas of the extensive memory
        // integrals plus the summed per-SM occupancy peaks, stored as
        // exact f64s.
        let l1m = self.registry.counter_value(ids.l1_misses);
        let dram = self.registry.counter_value(ids.dram_accesses);
        let bw = self.registry.counter_value(ids.bw_starved_cycles);
        let xbar = self.registry.counter_value(ids.xbar_wait_cycles);
        let peak_sum: u64 = self.mshr_interval_peak.iter().map(|&p| u64::from(p)).sum();
        self.mem_series.push(
            cycle,
            vec![
                (self.mshr_occupied_cycles - self.mem_base.occupied_cycles) as f64,
                peak_sum as f64,
                (l1m - self.mem_base.l1_misses) as f64,
                (dram - self.mem_base.dram_accesses) as f64,
                (bw - self.mem_base.bw_wait) as f64,
                (xbar - self.mem_base.xbar_wait) as f64,
            ],
        );
        self.mem_base = MemBase {
            occupied_cycles: self.mshr_occupied_cycles,
            l1_misses: l1m,
            dram_accesses: dram,
            bw_wait: bw,
            xbar_wait: xbar,
        };
        for p in &mut self.mshr_interval_peak {
            *p = 0;
        }
        // Energy timeline row: interval deltas of the cumulative
        // energy-event counters, stored as exact f64s like the memory
        // timeline.
        let merges = self.registry.counter_value(ids.mshr_merges);
        let hops = self.registry.counter_value(ids.xbar_hops);
        let wallocs = self.registry.counter_value(ids.write_allocs);
        let instructions = self.registry.counter_value(ids.warp_instructions);
        self.energy_series.push(
            cycle,
            vec![
                (dram - self.energy_base.dram_fills) as f64,
                (l1m - self.energy_base.l2_grants) as f64,
                (merges - self.energy_base.mshr_merges) as f64,
                (hops - self.energy_base.xbar_hops) as f64,
                (wallocs - self.energy_base.write_allocs) as f64,
                (instructions - self.energy_base.instructions) as f64,
                (self.energy_sm_cycles - self.energy_base.sm_cycles) as f64,
            ],
        );
        self.energy_base = EnergyBase {
            dram_fills: dram,
            l2_grants: l1m,
            mshr_merges: merges,
            xbar_hops: hops,
            write_allocs: wallocs,
            instructions,
            sm_cycles: self.energy_sm_cycles,
        };
        let ops = self.registry.counter_value(ids.adder_ops);
        let mis = self.registry.counter_value(ids.adder_mispredicts);
        let ins = self.registry.counter_value(ids.warp_instructions);
        let d_ops = ops - self.base.ops;
        let d_mis = mis - self.base.mispredicts;
        let d_ins = ins - self.base.instructions;
        let dt = cycle.saturating_sub(self.base.cycle).max(1);
        let accuracy = if d_ops == 0 {
            1.0
        } else {
            1.0 - d_mis as f64 / d_ops as f64
        };
        self.series.push(
            cycle,
            vec![
                accuracy,
                d_ops as f64,
                d_mis as f64,
                d_ins as f64 / dt as f64,
            ],
        );
        self.base = SnapshotBase {
            cycle,
            ops,
            mispredicts: mis,
            instructions: ins,
        };
    }

    /// Ends the run at `cycles`: takes a final partial snapshot (if any
    /// activity happened since the last boundary) and freezes summary
    /// gauges.
    pub fn finalize(&mut self, cycles: u64) {
        if !self.enabled {
            return;
        }
        self.advance(cycles);
        if cycles > self.base.cycle {
            self.take_snapshot(cycles);
        }
        self.final_cycles = cycles;
        let Some(ids) = self.ids else { return };
        let ops = self.registry.counter_value(ids.adder_ops);
        let mis = self.registry.counter_value(ids.adder_mispredicts);
        let ins = self.registry.counter_value(ids.warp_instructions);
        let acc_gauge = self.registry.gauge("adder.accuracy");
        let ipc_gauge = self.registry.gauge("sim.ipc");
        let cyc_gauge = self.registry.gauge("sim.cycles");
        let accuracy = if ops == 0 {
            1.0
        } else {
            1.0 - mis as f64 / ops as f64
        };
        self.registry.set(acc_gauge, accuracy);
        self.registry
            .set(ipc_gauge, ins as f64 / cycles.max(1) as f64);
        self.registry.set(cyc_gauge, cycles as f64);
    }

    /// Total cycles as reported to [`Telemetry::finalize`].
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.final_cycles
    }

    /// The metrics registry.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The interval-snapshot series (columns: `SERIES_COLUMNS`).
    #[must_use]
    pub fn series(&self) -> &IntervalSeries {
        &self.series
    }

    /// The memory interval timeline (columns: `MEM_SERIES_COLUMNS`).
    #[must_use]
    pub fn mem_series(&self) -> &IntervalSeries {
        &self.mem_series
    }

    /// The energy-event interval timeline (columns:
    /// `ENERGY_SERIES_COLUMNS`).
    #[must_use]
    pub fn energy_series(&self) -> &IntervalSeries {
        &self.energy_series
    }

    /// Cumulative SM-resident cycles integrated over the run (every SM
    /// counts every clock tick, awake or parked; equals
    /// `num_sms x cycles` for a run that ends with all SMs drained).
    #[must_use]
    pub fn energy_sm_cycles(&self) -> u64 {
        self.energy_sm_cycles
    }

    /// Cumulative MSHR occupied-entry-cycles integrated over the run
    /// (divide by SM-cycles for the average occupancy).
    #[must_use]
    pub fn mem_occupied_cycles(&self) -> u64 {
        self.mshr_occupied_cycles
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

    /// The warp-stall / hotspot / occupancy profile collector.
    #[must_use]
    pub(crate) fn profile(&self) -> &ProfileCollector {
        &self.profile
    }

    /// Folds one SM's per-cycle profiling scratch (covering `dt` clock
    /// ticks) into the profile collector. The simulator calls this once
    /// per SM per stepped cycle, after the cycle's global length is
    /// known.
    #[inline]
    pub fn profile_commit(&mut self, sm: usize, dt: u64, cp: &CycleProfile) {
        if !self.enabled {
            return;
        }
        self.profile.commit(sm, dt, cp);
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
        let Some(ids) = self.ids else { return };
        self.registry.inc(ids.adder_ops, 1);
        let pc = ctx.pc as usize;
        if pc >= self.pc_stats.len() {
            self.pc_stats.resize(pc + 1, PcStat::default());
        }
        let stat = &mut self.pc_stats[pc];
        stat.ops += 1;
        if outcome.mispredicted {
            stat.mispredicts += 1;
            self.registry.inc(ids.adder_mispredicts, 1);
            self.registry
                .record(ids.recompute_slices, u64::from(outcome.slices_recomputed));
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
        let Some(ids) = self.ids else { return };
        self.registry.inc(ids.history_reads, reads);
        self.registry.inc(ids.history_writes, writes);
    }

    fn crf_read(&mut self, _pc: u32) {
        if !self.enabled {
            return;
        }
        let Some(ids) = self.ids else { return };
        self.registry.inc(ids.crf_reads, 1);
    }

    fn crf_write(&mut self, pc: u32, conflict: bool) {
        if !self.enabled {
            return;
        }
        let Some(ids) = self.ids else { return };
        self.registry.inc(ids.crf_writes, 1);
        if conflict {
            self.registry.inc(ids.crf_conflicts, 1);
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
        assert!(t.registry().counters().is_empty());
        assert!(t.series().points().is_empty());
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
        assert_eq!(t.registry().counter_by_name("adder.ops"), Some(2));
        assert_eq!(t.registry().counter_by_name("adder.mispredicts"), Some(1));
        let pcs = t.pc_accuracy();
        assert_eq!(pcs, vec![(7, 2, 1)]);
        // The mispredict landed in SM 1's ring at cycle 42.
        let e = t.rings()[1].iter_in_order().next().unwrap();
        assert_eq!(e.cycle, 42);
        assert!(matches!(e.kind, EventKind::AdderMispredict { pc: 7, .. }));
    }

    #[test]
    fn interval_snapshots_track_accuracy() {
        let mut t = Telemetry::for_run(
            1,
            TelemetryConfig {
                ring_capacity: 16,
                interval_cycles: 100,
                profile_pc_capacity: 64,
            },
        );
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
        let acc = t.series().column("adder.accuracy").unwrap();
        assert_eq!(acc.len(), 2);
        assert!((acc[0].1 - 0.5).abs() < 1e-12);
        assert!((acc[1].1 - 1.0).abs() < 1e-12);
        // Overall gauge covers all 8 ops.
        let g = t
            .registry()
            .gauges()
            .iter()
            .find(|(n, _)| n == "adder.accuracy")
            .unwrap()
            .1;
        assert!((g - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mem_transaction_records_lifecycle_channels() {
        let mut t = Telemetry::for_run(
            1,
            TelemetryConfig {
                ring_capacity: 16,
                interval_cycles: 100,
                profile_pc_capacity: 64,
            },
        );
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
        let r = t.registry();
        assert_eq!(r.counter_by_name("mem.bw_starved_cycles"), Some(5));
        assert_eq!(r.counter_by_name("mem.mshr_wait_cycles"), Some(10));
        assert_eq!(r.counter_by_name("mem.xbar_wait_cycles"), Some(4));
        assert_eq!(r.histogram_by_name("mem.xbar_wait").unwrap().count(), 2);
        assert_eq!(r.histogram_by_name("mem.xbar_wait").unwrap().max(), 4);
        assert_eq!(t.part_fills(), &[1, 1], "one fill per partition");
        assert_eq!(r.histogram_by_name("mem.fill_latency").unwrap().count(), 2);
        assert_eq!(r.histogram_by_name("mem.fill_latency").unwrap().max(), 140);
        assert_eq!(r.histogram_by_name("mem.load_latency").unwrap().count(), 2);
        assert_eq!(r.histogram_by_name("mem.store_latency").unwrap().count(), 1);
        assert_eq!(
            r.histogram_by_name("mem.dram_queue_wait").unwrap().count(),
            1
        );
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
        let pts = t.mem_series().points();
        assert_eq!(pts.len(), 2, "boundary snapshot plus final partial");
        // First interval: all the activity above.
        assert_eq!(pts[0].cycle, 100);
        assert_eq!(pts[0].values, vec![40.0, 5.0, 2.0, 1.0, 5.0, 4.0]);
        // Final partial interval: quiet, peak reset.
        assert_eq!(pts[1].cycle, 150);
        assert_eq!(pts[1].values, vec![0.0; 6]);
    }

    #[test]
    fn issue_gap_histogram() {
        let mut t = Telemetry::for_run(1, TelemetryConfig::default());
        t.issue(0, 10, 0, 0, 0);
        t.issue(0, 11, 0, 4, 0); // gap 0 (back-to-back)
        t.issue(0, 20, 0, 8, 0); // gap 8
        let (_, h) = t
            .registry()
            .histograms()
            .iter()
            .find(|(n, _)| n == "sched.issue_gap")
            .unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.nonzero_buckets(), vec![(0, 0, 1), (8, 15, 1)]);
    }
}
