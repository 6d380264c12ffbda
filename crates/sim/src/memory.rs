//! Memory hierarchy: per-SM L1 caches fronted by MSHR files, an
//! address-sliced partitioned L2 behind an SM↔partition crossbar, DRAM
//! behind finite per-cycle request bandwidth, and the warp coalescer.
//!
//! Unlike a latency oracle, the hierarchy is *stateful in time*: every
//! L1 miss allocates a miss-status holding register (MSHR) that tracks
//! the in-flight line fill, a second miss to the same line merges into
//! that fill instead of paying a fresh round-trip, and L2/DRAM accept
//! only a configured number of requests per cycle — excess requests
//! queue behind earlier ones, so observed latency grows under load.
//! A full MSHR file back-pressures the LDST pipe
//! ([`st2_telemetry::StallReason::MemThrottle`] in the profiler).
//!
//! The hierarchy is sharded into [`GpuConfig::l2_partitions`]
//! independent [`Partition`]s selected by an
//! [`crate::addrdec::AddressDecoder`] (XOR-folded line-address hash).
//! Each partition owns an address slice of every structure a request
//! touches after decode — per-SM L1 bank and MSHR file slices, an L2
//! bank, its own L2/DRAM bandwidth arbiters, and per-SM crossbar
//! injection ports — so two requests routed to different partitions
//! share **no** mutable state: each partition's timing depends only on
//! the order of its own requests. [`Partition::access`] touches no
//! counters; the per-SM completion phase
//! ([`crate::sm::SmCore::complete_memory`]) replays counter and
//! telemetry updates in (SM-index, issue) order. With
//! one partition, the model degenerates to the legacy monolithic L2:
//! same geometry, no crossbar, bit-identical timing.

use crate::addrdec::AddressDecoder;
use crate::config::GpuConfig;
use crate::stats::ActivityCounters;
use std::collections::VecDeque;

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `sets[s]` is the MRU-ordered tag list of set `s`.
    sets: Vec<Vec<u64>>,
    assoc: usize,
    line: u64,
    set_shift: u32,
    set_mask: u64,
}

impl Cache {
    /// Creates a cache of `bytes` capacity with `line`-byte lines and
    /// `assoc` ways. Non-power-of-two set counts are rounded **down** to
    /// the previous power of two so the modeled capacity never exceeds
    /// the configured one (rounding up would silently inflate hit
    /// rates).
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (zero associativity — rejected up
    /// front by [`GpuConfig::validate`], so a zero here is a caller bug,
    /// not something to silently round up — or fewer than one set).
    #[must_use]
    pub fn new(bytes: u64, line: u64, assoc: u32) -> Self {
        assert!(assoc >= 1, "cache associativity must be at least 1");
        let assoc = assoc as usize;
        let lines = (bytes / line).max(1);
        let wanted = (lines as usize / assoc).max(1);
        let sets = 1usize << wanted.ilog2();
        Cache {
            sets: vec![Vec::with_capacity(assoc); sets],
            assoc,
            line,
            set_shift: line.trailing_zeros(),
            set_mask: sets as u64 - 1,
        }
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate (for both
    /// loads and stores — an allocate-on-write model).
    pub fn access(&mut self, addr: u64) -> bool {
        let block = addr >> self.set_shift;
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.sets.len().trailing_zeros();
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            let t = ways.remove(pos);
            ways.insert(0, t);
            true
        } else {
            if ways.len() == self.assoc {
                ways.pop();
            }
            ways.insert(0, tag);
            false
        }
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Modeled capacity in lines (`sets × ways`).
    #[must_use]
    pub fn lines(&self) -> u64 {
        (self.sets.len() * self.assoc) as u64
    }
}

/// One in-flight line fill tracked by an SM's MSHR file.
#[derive(Debug, Clone, Copy)]
struct Mshr {
    /// Line index (`addr / line`).
    line: u64,
    /// Absolute cycle the fill lands in the L1.
    ready_at: u64,
}

/// A per-SM file of miss-status holding registers: the set of line
/// fills currently in flight between this SM's L1 and the L2/DRAM.
#[derive(Debug, Clone)]
struct MshrFile {
    entries: Vec<Mshr>,
    capacity: usize,
    /// Cached `min(ready_at)` over `entries` (`u64::MAX` when empty),
    /// maintained on every mutation so [`MshrFile::earliest`] — polled
    /// every cycle by the MSHR views — is O(1), as is the no-op case of
    /// [`MshrFile::retire`].
    min_ready: u64,
}

impl MshrFile {
    fn new(capacity: u32) -> Self {
        // Zero-capacity files are rejected by `GpuConfig::validate`
        // (`mshr_entries >= 1`) and `Partition::build_all` floors each
        // per-partition slice at one entry, so a zero here is a bug.
        assert!(capacity >= 1, "MSHR file capacity must be at least 1");
        let capacity = capacity as usize;
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            min_ready: u64::MAX,
        }
    }

    /// Drops every entry whose fill has landed by `now`. The cached
    /// minimum makes the no-op case (`min_ready > now`: every fill
    /// still in flight) a single compare.
    fn retire(&mut self, now: u64) {
        if self.min_ready > now {
            return;
        }
        let mut min = u64::MAX;
        self.entries.retain(|e| {
            if e.ready_at > now {
                min = min.min(e.ready_at);
                true
            } else {
                false
            }
        });
        self.min_ready = min;
    }

    /// Fill time of an in-flight entry for `line`, if one exists.
    fn find(&self, line: u64, now: u64) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.line == line && e.ready_at > now)
            .map(|e| e.ready_at)
    }

    fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Removes the earliest-completing entry and returns its fill time:
    /// a miss arriving at a full file must wait at least until then
    /// before its own request can start.
    fn evict_earliest(&mut self) -> u64 {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(i, e)| (e.ready_at, *i))
            .map(|(i, _)| i)
            .expect("evict_earliest on an empty MSHR file");
        let ready = self.entries.remove(idx).ready_at;
        self.min_ready = self
            .entries
            .iter()
            .map(|e| e.ready_at)
            .min()
            .unwrap_or(u64::MAX);
        ready
    }

    fn allocate(&mut self, line: u64, ready_at: u64) {
        self.min_ready = self.min_ready.min(ready_at);
        self.entries.push(Mshr { line, ready_at });
    }

    fn free(&self) -> u32 {
        (self.capacity - self.entries.len()) as u32
    }

    /// Earliest in-flight fill time (`u64::MAX` when empty).
    fn earliest(&self) -> u64 {
        debug_assert_eq!(
            self.min_ready,
            self.entries
                .iter()
                .map(|e| e.ready_at)
                .min()
                .unwrap_or(u64::MAX),
            "MSHR min_ready cache out of sync"
        );
        self.min_ready
    }
}

/// Per-cycle request-slot arbiter for one shared resource (the L2 input
/// or the DRAM channels): at most `per_cycle` requests are serviced per
/// cycle, and excess requests spill FIFO into following cycles, so a
/// burst's tail sees its queueing delay. Service cycles are
/// monotonically non-decreasing across calls, which preserves arrival
/// (drain) order.
#[derive(Debug, Clone, Copy, Default)]
struct BwSlots {
    cycle: u64,
    used: u32,
}

impl BwSlots {
    /// Reserves the next free service slot at or after `at`; returns the
    /// cycle the request is actually serviced.
    fn reserve(&mut self, at: u64, per_cycle: u32) -> u64 {
        // `GpuConfig::validate` rejects zero bandwidths and
        // `Partition::build_all` floors per-partition slices, so every
        // caller passes at least one slot per cycle.
        debug_assert!(per_cycle >= 1, "bandwidth slots per cycle must be >= 1");
        if at > self.cycle {
            self.cycle = at;
            self.used = 0;
        }
        if self.used >= per_cycle {
            self.cycle += 1;
            self.used = 0;
        }
        self.used += 1;
        self.cycle
    }
}

/// One SM's bounded crossbar injection port into one partition.
///
/// The port holds at most `depth` requests between their arrival and
/// their L2 slot grant. When a request arrives with the port full, it
/// is admitted only when the oldest occupant's grant frees a slot — the
/// crossbar queue wait the telemetry attributes as `xbar_wait`. The
/// grant deque is sorted ascending because per-partition
/// [`BwSlots::reserve`] grants are monotone.
#[derive(Debug, Clone, Default)]
struct XbarPort {
    grants: VecDeque<u64>,
}

impl XbarPort {
    /// Admits a request arriving at `at`; returns `(admit_cycle, wait)`.
    fn admit(&mut self, at: u64, depth: u32) -> (u64, u64) {
        // Zero-depth ports are rejected by `GpuConfig::validate`
        // (`xbar_queue >= 1`), not rounded up here.
        debug_assert!(depth >= 1, "crossbar port depth must be >= 1");
        while self.grants.front().is_some_and(|&g| g <= at) {
            self.grants.pop_front();
        }
        if self.grants.len() >= depth as usize {
            let admit = self
                .grants
                .pop_front()
                .expect("port occupancy checked above");
            (admit, admit - at)
        } else {
            (at, 0)
        }
    }

    /// Records the admitted request's L2 grant cycle (it occupies the
    /// port until then).
    fn granted(&mut self, l2_at: u64) {
        self.grants.push_back(l2_at);
    }
}

/// One address slice of the memory subsystem: the per-SM L1 bank and
/// MSHR file slices for the lines this partition serves, an L2 bank,
/// private L2/DRAM bandwidth arbiters, and the per-SM crossbar
/// injection ports. Partitions share no mutable state, so interleaving
/// requests across partitions never changes a result.
#[derive(Debug, Clone)]
pub struct Partition {
    l1s: Vec<Cache>,
    l2: Cache,
    mshrs: Vec<MshrFile>,
    ports: Vec<XbarPort>,
    l2_slots: BwSlots,
    dram_slots: BwSlots,
    line: u64,
    l1_latency: u32,
    l2_latency: u32,
    dram_latency: u32,
    l2_bw: u32,
    dram_bw: u32,
    xbar_depth: u32,
    /// Crossbar port queueing is modeled only with 2+ partitions: a
    /// monolithic L2 has no crossbar, and skipping the port keeps the
    /// single-partition model bit-identical to the legacy hierarchy.
    xbar_modeled: bool,
}

/// L1s + MSHR files + partitioned L2 + DRAM with latency, bandwidth and
/// occupancy accounting. A thin owner around the [`Partition`] slices
/// plus the address decoder that routes between them.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    parts: Vec<Partition>,
    decoder: AddressDecoder,
    line: u64,
}

/// Result of one coalesced transaction, carrying the request's
/// lifecycle stamps: how long it waited for an MSHR entry, a crossbar
/// port slot, an L2 request slot and a DRAM request slot before its
/// fill could start. The stage waits are zero for L1 hits and merges
/// (neither allocates a new fill). Every counter a transaction implies
/// is reconstructible from this record
/// ([`apply_access_counters`]), which is what lets the per-SM
/// completion phase apply the counters in issue order afterwards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessResult {
    /// Absolute cycle the result is available to the issuing warp.
    pub ready_at: u64,
    /// Latency in cycles relative to the request cycle (saturating).
    pub latency: u32,
    /// Hit in L1.
    pub l1_hit: bool,
    /// Hit in L2 (only meaningful when `!l1_hit && !merged`).
    pub l2_hit: bool,
    /// Merged into an already-in-flight MSHR line fill (no new L2/DRAM
    /// traffic was generated).
    pub merged: bool,
    /// The request arrived at a full MSHR file (a back-pressure event;
    /// implies `mshr_wait > 0` whenever retirement ran first).
    pub mshr_full: bool,
    /// Cycles the request waited for a free MSHR entry before it could
    /// even start (request cycle → MSHR allocate).
    pub mshr_wait: u64,
    /// Cycles the started request queued at its crossbar injection port
    /// before the partition accepted it (MSHR allocate → port admit).
    /// Always zero with one partition (no crossbar).
    pub xbar_wait: u64,
    /// Cycles the admitted request queued for an L2 request slot
    /// (port admit → L2 slot grant).
    pub l2_wait: u64,
    /// Cycles the L2 miss queued for a DRAM request slot
    /// (L2 slot grant → DRAM slot grant). Zero on L2 hits.
    pub dram_wait: u64,
}

impl AccessResult {
    /// The hierarchy level that served the transaction: 0 = L1, 1 = L2,
    /// 2 = DRAM, 3 = merged into an in-flight fill (telemetry encoding).
    #[must_use]
    pub fn level(&self) -> u8 {
        if self.merged {
            3
        } else if self.l1_hit {
            0
        } else if self.l2_hit {
            1
        } else {
            2
        }
    }

    /// Whether this transaction started a fresh line fill (an L1 miss
    /// that allocated an MSHR entry and generated L2/DRAM traffic).
    #[must_use]
    pub fn is_fill(&self) -> bool {
        !self.l1_hit && !self.merged
    }

    /// Total cycles the fill spent queued for bandwidth slots
    /// (L2 + DRAM), i.e. the wait attributable purely to finite
    /// request bandwidth rather than crossbar ports, MSHR capacity or
    /// service latency.
    #[must_use]
    pub fn bw_wait(&self) -> u64 {
        self.l2_wait + self.dram_wait
    }
}

/// One SM's view of its MSHR slice in one partition: free entries,
/// earliest in-flight fill, and current occupancy. The driver snapshots
/// one per partition after the drain and hands the slice to
/// [`crate::sm::SmCore::complete_memory`], which refreshes the core's
/// per-partition credit mirror and wake hint from it.
#[derive(Debug, Clone, Copy)]
pub struct MshrView {
    /// Free MSHR entries in this (SM, partition) slice.
    pub free: u32,
    /// Earliest in-flight fill time (`u64::MAX` when empty).
    pub earliest: u64,
    /// Occupied entries (in-flight line fills).
    pub occupied: u32,
}

impl Partition {
    /// Builds the `cfg.l2_partitions` partitions for a configuration.
    /// Capacities and bandwidths are address slices of the configured
    /// totals: L1/L2 bytes and MSHR entries divide evenly, and the L2 /
    /// DRAM per-cycle request budgets split with the remainder spread
    /// over the lowest-indexed partitions. Every partition keeps at
    /// least one MSHR entry and one DRAM slot per cycle so no slice can
    /// deadlock ([`GpuConfig::validate`] already guarantees
    /// `l2_bw >= l2_partitions`).
    ///
    /// # Panics
    ///
    /// Panics when `cfg.l1_line != cfg.l2_line` (mixed-granularity
    /// tagging is not supported — see [`GpuConfig::validate`]).
    #[must_use]
    pub fn build_all(cfg: &GpuConfig) -> Vec<Partition> {
        assert_eq!(cfg.l1_line, cfg.l2_line, "L1 and L2 line sizes must match");
        let parts = cfg.l2_partitions.max(1);
        let p64 = u64::from(parts);
        (0..parts)
            .map(|i| Partition {
                l1s: (0..cfg.num_sms)
                    .map(|_| Cache::new(cfg.l1_bytes / p64, cfg.l1_line, cfg.l1_assoc))
                    .collect(),
                l2: Cache::new(cfg.l2_bytes / p64, cfg.l2_line, cfg.l2_assoc),
                mshrs: (0..cfg.num_sms)
                    .map(|_| MshrFile::new((cfg.mshr_entries / parts).max(1)))
                    .collect(),
                ports: vec![XbarPort::default(); cfg.num_sms as usize],
                l2_slots: BwSlots::default(),
                dram_slots: BwSlots::default(),
                line: cfg.l1_line,
                l1_latency: cfg.l1_latency,
                l2_latency: cfg.l2_latency,
                dram_latency: cfg.dram_latency,
                l2_bw: cfg.l2_bw / parts + u32::from(i < cfg.l2_bw % parts),
                dram_bw: (cfg.dram_bw / parts + u32::from(i < cfg.dram_bw % parts)).max(1),
                xbar_depth: cfg.xbar_queue,
                xbar_modeled: parts > 1,
            })
            .collect()
    }

    /// One coalesced transaction from SM `sm` touching the line
    /// containing `addr` (already routed to this partition) at cycle
    /// `now`. Loads and stores take the same path: stores are
    /// write-allocate and consume MSHR entries and bandwidth like fills
    /// (they just never block the issuing warp — the caller ignores
    /// their `ready_at`).
    ///
    /// The in-flight check runs *before* the L1 probe: the L1 tag is
    /// allocated eagerly at primary-miss time, so a tag hit on a line
    /// whose fill is still outstanding is a merge, not a hit.
    ///
    /// Touches only this partition's state and performs **no** counter
    /// or telemetry updates — those are reconstructed from the returned
    /// [`AccessResult`] by [`apply_access_counters`] in the per-SM
    /// completion phase.
    pub fn access(&mut self, sm: usize, addr: u64, now: u64) -> AccessResult {
        let line_id = addr / self.line;
        if let Some(fill) = self.mshrs[sm].find(line_id, now) {
            let _ = self.l1s[sm].access(addr); // LRU touch only
            let ready_at = fill.max(now + u64::from(self.l1_latency));
            return AccessResult {
                ready_at,
                latency: saturate(ready_at - now),
                merged: true,
                ..AccessResult::default()
            };
        }
        if self.l1s[sm].access(addr) {
            return AccessResult {
                ready_at: now + u64::from(self.l1_latency),
                latency: self.l1_latency,
                l1_hit: true,
                ..AccessResult::default()
            };
        }
        // MSHR allocation. A full file back-pressures: the request
        // cannot even start until the earliest outstanding fill frees
        // its entry.
        let (mshr_full, start) = if self.mshrs[sm].is_full() {
            (true, self.mshrs[sm].evict_earliest().max(now))
        } else {
            (false, now)
        };
        // Crossbar injection port (2+ partitions only): a full port
        // delays admission until its oldest occupant's grant.
        let (admit, xbar_wait) = if self.xbar_modeled {
            self.ports[sm].admit(start, self.xbar_depth)
        } else {
            (start, 0)
        };
        let l2_at = self.l2_slots.reserve(admit, self.l2_bw);
        if self.xbar_modeled {
            self.ports[sm].granted(l2_at);
        }
        let (ready_at, l2_hit, dram_wait) = if self.l2.access(addr) {
            (l2_at + u64::from(self.l2_latency), true, 0)
        } else {
            let dram_at = self.dram_slots.reserve(l2_at, self.dram_bw);
            (
                dram_at + u64::from(self.dram_latency),
                false,
                dram_at - l2_at,
            )
        };
        self.mshrs[sm].allocate(line_id, ready_at);
        AccessResult {
            ready_at,
            latency: saturate(ready_at - now),
            l1_hit: false,
            l2_hit,
            merged: false,
            mshr_full,
            mshr_wait: start - now,
            xbar_wait,
            l2_wait: l2_at - admit,
            dram_wait,
        }
    }

    /// Retires SM `sm`'s MSHR entries in this partition whose fills
    /// have landed by `now`.
    pub fn retire_fills(&mut self, sm: usize, now: u64) {
        self.mshrs[sm].retire(now);
    }

    /// Earliest in-flight fill time in SM `sm`'s MSHR slice of this
    /// partition (`u64::MAX` when the slice is empty): the per-SM
    /// earliest-completion hint. The event-driven driver sleeps an SM no
    /// later than the minimum of this over its partitions (surfaced
    /// through [`MshrView::earliest`] as [`crate::sm::SmCore::fill_wake`]),
    /// so a fill retiring into a slice is exactly a calendar wake.
    #[must_use]
    pub fn earliest_fill(&self, sm: usize) -> u64 {
        self.mshrs[sm].earliest()
    }

    /// SM `sm`'s MSHR slice state in this partition.
    #[must_use]
    pub fn mshr_view(&self, sm: usize) -> MshrView {
        MshrView {
            free: self.mshrs[sm].free(),
            earliest: self.earliest_fill(sm),
            occupied: self.mshrs[sm].entries.len() as u32,
        }
    }
}

/// Replays the counter updates one transaction implies onto `act`.
/// Reconstructs exactly what the pre-partitioning
/// `MemoryHierarchy::access` charged inline: an L1 access always; a
/// merge; or a fresh fill's miss/NoC/queue-wait/backpressure counters,
/// with L2 misses also charging DRAM. `line` is the L1 line size (NoC
/// response flits are `line/32`). `store` marks write-allocate
/// transactions and `xbar` whether the run models a crossbar (more than
/// one L2 partition) — both price fresh fills for the energy model.
pub fn apply_access_counters(
    act: &mut ActivityCounters,
    r: &AccessResult,
    line: u64,
    store: bool,
    xbar: bool,
) {
    act.l1_accesses += 1;
    if r.merged {
        act.mshr_merges += 1;
    }
    if r.is_fill() {
        act.l1_misses += 1;
        act.l2_accesses += 1;
        if store {
            act.write_allocates += 1;
        }
        if xbar {
            act.xbar_hops += 1;
        }
        // Request + line-fill response over the NoC: 1 request flit
        // plus line/32-byte response flits.
        act.noc_flits += 1 + line / 32;
        if r.mshr_full {
            act.mem_throttle += 1;
        }
        // Cycles the request spent queued purely for a bandwidth slot
        // (it already held or was granted an MSHR entry); the crossbar
        // port wait is attributed separately.
        act.bw_starved_cycles += r.l2_wait + r.dram_wait;
        act.xbar_wait_cycles += r.xbar_wait;
        if !r.l2_hit {
            act.l2_misses += 1;
            act.dram_accesses += 1;
        }
    }
}

impl MemoryHierarchy {
    /// Builds the hierarchy for a GPU configuration.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.l1_line != cfg.l2_line` or the line size /
    /// partition count is not a power of two (see
    /// [`GpuConfig::validate`]).
    #[must_use]
    pub fn new(cfg: &GpuConfig) -> Self {
        MemoryHierarchy {
            parts: Partition::build_all(cfg),
            decoder: AddressDecoder::new(cfg.l1_line, cfg.l2_partitions.max(1)),
            line: cfg.l1_line,
        }
    }

    /// The address decoder routing lines to partitions (cheap copy).
    #[must_use]
    pub fn decoder(&self) -> AddressDecoder {
        self.decoder
    }

    /// Mutable access to partition `p`.
    pub fn partition_mut(&mut self, p: usize) -> &mut Partition {
        &mut self.parts[p]
    }

    /// One coalesced global-memory transaction from SM `sm` touching the
    /// line containing `addr` at cycle `now`, with counter updates:
    /// routes through the address decoder, accesses the partition, and
    /// applies the implied counters. The single-structure convenience
    /// path (unit tests, single-SM tools); the driver instead routes,
    /// accesses and completes in separate phases.
    pub fn access(
        &mut self,
        sm: usize,
        addr: u64,
        now: u64,
        act: &mut ActivityCounters,
    ) -> AccessResult {
        let p = self.decoder.decode(addr);
        let r = self.parts[p].access(sm, addr, now);
        apply_access_counters(act, &r, self.line, false, self.parts.len() > 1);
        r
    }

    /// Retires SM `sm`'s MSHR entries (every partition slice) whose
    /// fills have landed by `now`. The driver calls this for every awake
    /// SM at the start of each drain, before any access, so the cycle's
    /// requests see the post-retirement files.
    pub fn retire_fills(&mut self, sm: usize, now: u64) {
        for part in &mut self.parts {
            part.retire_fills(sm, now);
        }
    }

    /// SM `sm`'s aggregate MSHR file state across partitions: `(total
    /// free entries, earliest in-flight fill time)`.
    #[must_use]
    pub fn mshr_state(&self, sm: usize) -> (u32, u64) {
        let free = self.parts.iter().map(|p| p.mshrs[sm].free()).sum();
        let earliest = self
            .parts
            .iter()
            .map(|p| p.mshrs[sm].earliest())
            .min()
            .unwrap_or(u64::MAX);
        (free, earliest)
    }

    /// SM `sm`'s per-partition MSHR views, appended to `out` in
    /// partition-index order (`out` is cleared first; reused buffer).
    pub fn mshr_views(&self, sm: usize, out: &mut Vec<MshrView>) {
        out.clear();
        out.extend(self.parts.iter().map(|p| p.mshr_view(sm)));
    }

    /// L1 line size.
    #[must_use]
    pub fn line(&self) -> u64 {
        self.line
    }
}

/// One completed transaction handed back to its SM in issue order:
/// the request identity plus the partition's [`AccessResult`].
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Core-local token matching the result to a scoreboard entry.
    pub token: u32,
    /// Coalesced line address.
    pub addr: u64,
    /// Store traffic (write-allocate; never blocks the warp).
    pub store: bool,
    /// Partition that served the request.
    pub partition: u32,
    /// The partition's access result.
    pub result: AccessResult,
}

fn saturate(cycles: u64) -> u32 {
    u32::try_from(cycles).unwrap_or(u32::MAX)
}

/// How an SM core submits global-memory transactions without calling
/// into the shared hierarchy mid-step: a FIFO of `(token, addr, store)`
/// entries preserving issue order.
///
/// [`crate::sm::SmCore::step_cycle`] queues one request per coalesced
/// segment, tagged with a core-local `token`; the driver serves the
/// queues against the [`MemoryHierarchy`] in SM-index order at the end of
/// the cycle, then hands the results back via
/// [`crate::sm::SmCore::complete_memory`].
#[derive(Debug, Default)]
pub struct RequestQueue {
    entries: Vec<(u32, u64, bool)>,
}

impl RequestQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        RequestQueue::default()
    }

    /// The queued requests in issue order, leaving the queue empty (the
    /// allocation is retained for reuse via the swap in the caller).
    pub fn drain(&mut self) -> std::vec::Drain<'_, (u32, u64, bool)> {
        self.entries.drain(..)
    }

    /// Queues one coalesced transaction touching the line at `addr`.
    /// `token` identifies the issuing access so the core can match the
    /// worst-case completion time back to its scoreboard entry;
    /// `store` discriminates write traffic for telemetry (stores take
    /// the same write-allocate path through the hierarchy).
    pub fn request(&mut self, token: u32, addr: u64, store: bool) {
        self.entries.push((token, addr, store));
    }

    /// Whether any requests are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Shared-memory bank-conflict degree: with 32 four-byte-interleaved
/// banks, the access serialises by the largest number of lanes hitting
/// one bank with *different* words (broadcasts of the same word are
/// conflict-free, as on real hardware). An empty lane set — a fully
/// predicated-off warp — touches no bank and has degree 0.
#[must_use]
pub fn bank_conflict_degree(addrs: &[u64]) -> u32 {
    let mut per_bank = [0u32; 32];
    for (i, &a) in addrs.iter().enumerate() {
        let word = a / 4;
        // A word's first lane counts; later lanes on it are broadcasts.
        if !addrs[..i].iter().any(|&b| b / 4 == word) {
            per_bank[(word % 32) as usize] += 1;
        }
    }
    per_bank.into_iter().max().unwrap_or(0)
}

/// Coalesces per-lane byte addresses into the unique `line`-byte
/// segments they touch, in first-touch order, replacing the contents of
/// `segs` (a buffer the caller reuses). `line` is a power of two, as
/// [`GpuConfig::validate`] requires, so a mask finds each segment.
pub fn coalesce(addrs: &[u64], line: u64, segs: &mut Vec<u64>) {
    debug_assert!(line.is_power_of_two(), "line {line} is not a power of two");
    let keep = !(line - 1);
    segs.clear();
    for &a in addrs {
        let seg = a & keep;
        if !segs.contains(&seg) {
            segs.push(seg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_behaviour() {
        let mut c = Cache::new(2 * 128, 128, 2); // 1 set, 2 ways
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(c.access(0)); // still resident
        assert!(!c.access(256)); // evicts LRU (128)
        assert!(c.access(0));
        assert!(!c.access(128)); // was evicted
    }

    #[test]
    fn set_rounding_never_inflates_capacity() {
        // 96 KiB / 128 B / 4-way => 192 sets wanted; the old
        // `next_power_of_two` rounded to 256 sets (128 KiB modeled).
        let c = Cache::new(96 * 1024, 128, 4);
        assert_eq!(c.lines(), 128 * 4, "rounded down to 128 sets");
        assert!(
            c.lines() <= 96 * 1024 / 128,
            "modeled lines exceed configured capacity"
        );
        // Power-of-two geometries are exact.
        let exact = Cache::new(128 * 1024, 128, 4);
        assert_eq!(exact.lines(), 128 * 1024 / 128);
        // And a conflict probe: with only 128 sets modeled, addresses
        // 128 sets apart map to the same set and 5 of them overflow
        // 4 ways.
        let mut c = Cache::new(96 * 1024, 128, 4);
        for i in 0..5u64 {
            assert!(!c.access(i * 128 * 128));
        }
        assert!(!c.access(0), "first line evicted by the fifth");
    }

    #[test]
    fn line_reports_l1_line() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.l1_line = 64;
        cfg.l2_line = 64;
        let h = MemoryHierarchy::new(&cfg);
        assert_eq!(h.line(), 64);
    }

    #[test]
    fn bank_conflicts() {
        // Unit stride: each lane its own bank -> degree 1.
        let unit: Vec<u64> = (0..32u64).map(|l| l * 4).collect();
        assert_eq!(bank_conflict_degree(&unit), 1);
        // Stride 2 words: lanes pair up on 16 banks -> degree 2.
        let stride2: Vec<u64> = (0..32u64).map(|l| l * 8).collect();
        assert_eq!(bank_conflict_degree(&stride2), 2);
        // Stride 32 words: all lanes on bank 0 -> degree 32.
        let worst: Vec<u64> = (0..32u64).map(|l| l * 128).collect();
        assert_eq!(bank_conflict_degree(&worst), 32);
        // Broadcast: all lanes same word -> conflict-free.
        let bcast: Vec<u64> = (0..32).map(|_| 64).collect();
        assert_eq!(bank_conflict_degree(&bcast), 1);
        // Fully predicated-off warp: no lanes, no access, degree 0.
        assert_eq!(bank_conflict_degree(&[]), 0);
    }

    #[test]
    fn coalescing_unit_stride() {
        // 32 lanes × 4-byte accesses, unit stride: one 128-byte segment.
        let addrs: Vec<u64> = (0..32u64).map(|l| 4096 + l * 4).collect();
        // The buffer's earlier contents are replaced, not appended to.
        let mut segs = vec![7];
        coalesce(&addrs, 128, &mut segs);
        assert_eq!(segs, [4096]);
    }

    #[test]
    fn coalescing_strided() {
        // 128-byte stride: every lane its own segment.
        let addrs: Vec<u64> = (0..32u64).map(|l| l * 128).collect();
        let mut segs = Vec::new();
        coalesce(&addrs, 128, &mut segs);
        assert_eq!(segs, addrs);
    }

    #[test]
    fn hierarchy_latencies_ordered() {
        let cfg = GpuConfig::scaled(1);
        let mut h = MemoryHierarchy::new(&cfg);
        let mut act = ActivityCounters::default();
        let miss = h.access(0, 1 << 20, 0, &mut act);
        assert!(!miss.l1_hit && !miss.l2_hit && !miss.merged);
        assert_eq!(miss.latency, cfg.dram_latency);
        assert_eq!(miss.ready_at, u64::from(cfg.dram_latency));
        // Re-access after the fill landed: a plain L1 hit.
        h.retire_fills(0, miss.ready_at);
        let hit = h.access(0, 1 << 20, miss.ready_at, &mut act);
        assert!(hit.l1_hit);
        assert_eq!(hit.latency, cfg.l1_latency);
        assert_eq!(act.l1_accesses, 2);
        assert_eq!(act.dram_accesses, 1);
        assert!(act.noc_flits > 0);
    }

    #[test]
    fn mshr_merges_same_line_misses() {
        let cfg = GpuConfig::scaled(1);
        let mut h = MemoryHierarchy::new(&cfg);
        let mut act = ActivityCounters::default();
        let first = h.access(0, 1 << 20, 0, &mut act);
        // A second miss to the same line while the fill is in flight
        // piggybacks on it: same completion time, no second DRAM access.
        let second = h.access(0, (1 << 20) + 8, 5, &mut act);
        assert!(second.merged);
        assert_eq!(second.level(), 3);
        assert_eq!(second.ready_at, first.ready_at);
        assert!(second.latency < 2 * cfg.dram_latency);
        assert_eq!(act.dram_accesses, 1, "merge generated no new traffic");
        assert_eq!(act.mshr_merges, 1);
        assert_eq!(act.l1_misses, 1, "a merge is not a fresh miss");
    }

    #[test]
    fn bandwidth_serialises_bursts() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.dram_bw = 1;
        cfg.l2_bw = 1;
        let mut h = MemoryHierarchy::new(&cfg);
        let mut act = ActivityCounters::default();
        // N distinct-line misses in one cycle: with 1 request/cycle the
        // k-th is serviced k-1 cycles later than the first.
        let n = 16u64;
        let mut last = 0;
        for k in 0..n {
            let r = h.access(0, (1 << 24) + k * 4096, 0, &mut act);
            assert!(!r.l1_hit && !r.merged);
            if k > 0 {
                assert_eq!(r.ready_at, last + 1, "FIFO backlog grows latency");
            }
            last = r.ready_at;
        }
        assert!(last >= u64::from(cfg.dram_latency) + n - 1);
    }

    #[test]
    fn full_mshr_file_backpressures() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.mshr_entries = 2;
        let mut h = MemoryHierarchy::new(&cfg);
        let mut act = ActivityCounters::default();
        let a = h.access(0, 0x10000, 0, &mut act);
        let _b = h.access(0, 0x20000, 0, &mut act);
        let (free, earliest) = h.mshr_state(0);
        assert_eq!(free, 0);
        assert_eq!(earliest, a.ready_at);
        // Third distinct line with the file full: its request cannot
        // start before the earliest outstanding fill frees an entry.
        let c = h.access(0, 0x30000, 1, &mut act);
        assert!(c.ready_at >= a.ready_at + u64::from(cfg.dram_latency));
        assert_eq!(act.mem_throttle, 1);
        // Once fills land, retirement frees the file again.
        h.retire_fills(0, c.ready_at);
        assert_eq!(h.mshr_state(0).0, cfg.mshr_entries);
    }

    #[test]
    fn partition_exports_per_sm_fill_hints() {
        let cfg = GpuConfig::scaled(2);
        let mut h = MemoryHierarchy::new(&cfg);
        let mut act = ActivityCounters::default();
        assert_eq!(h.partition_mut(0).earliest_fill(0), u64::MAX);
        let a = h.access(0, 0x10000, 0, &mut act);
        let p = h.decoder().decode(0x10000);
        assert_eq!(h.partition_mut(p).earliest_fill(0), a.ready_at);
        // Slices are per-SM: the sibling reports no wake.
        assert_eq!(h.partition_mut(p).earliest_fill(1), u64::MAX);
        // And the hint clears once the fill retires.
        h.retire_fills(0, a.ready_at);
        assert_eq!(h.partition_mut(p).earliest_fill(0), u64::MAX);
    }

    #[test]
    fn stores_consume_bandwidth_and_mshrs() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.dram_bw = 1;
        cfg.l2_bw = 1;
        let mut h = MemoryHierarchy::new(&cfg);
        let mut act = ActivityCounters::default();
        // Write-allocate: a store miss occupies an MSHR and a DRAM slot
        // exactly like a load fill, so a load behind a store burst
        // queues behind it.
        for k in 0..8u64 {
            let _ = h.access(0, (1 << 26) + k * 4096, 0, &mut act);
        }
        let load = h.access(0, 1 << 27, 0, &mut act);
        assert!(
            load.ready_at >= u64::from(cfg.dram_latency) + 8,
            "load was not delayed by the store burst: ready_at {}",
            load.ready_at
        );
        assert_eq!(h.mshr_state(0).0, GpuConfig::scaled(1).mshr_entries - 9);
    }

    #[test]
    fn lifecycle_stamps_decompose_latency() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.dram_bw = 1;
        cfg.l2_bw = 1;
        let mut h = MemoryHierarchy::new(&cfg);
        let mut act = ActivityCounters::default();
        // First miss of the cycle: granted immediately, no queueing.
        let first = h.access(0, 1 << 24, 0, &mut act);
        assert!(first.is_fill());
        assert_eq!((first.mshr_wait, first.l2_wait, first.dram_wait), (0, 0, 0));
        // Same-cycle misses queue behind it: the k-th distinct line
        // waits k cycles for its L2 slot (and its latency grows by
        // exactly that queueing delay).
        for k in 1..4u64 {
            let r = h.access(0, (1 << 24) + k * 4096, 0, &mut act);
            assert_eq!(r.mshr_wait, 0);
            assert_eq!(r.bw_wait(), k, "k-th request queues k cycles");
            assert_eq!(
                u64::from(r.latency),
                u64::from(cfg.dram_latency) + k,
                "stage waits reconcile with observed latency"
            );
        }
        assert_eq!(act.bw_starved_cycles, 1 + 2 + 3);
    }

    #[test]
    fn mshr_wait_stamped_under_backpressure() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.mshr_entries = 1;
        let mut h = MemoryHierarchy::new(&cfg);
        let mut act = ActivityCounters::default();
        let a = h.access(0, 0x10000, 0, &mut act);
        // File full: the second miss cannot allocate until a's fill
        // frees the single entry.
        let b = h.access(0, 0x20000, 3, &mut act);
        assert_eq!(b.mshr_wait, a.ready_at - 3);
        assert_eq!(act.mem_throttle, 1);
        // Hits and merges carry zero stage waits.
        let merged = h.access(0, 0x20000 + 8, 4, &mut act);
        assert!(merged.merged);
        assert_eq!(merged.mshr_wait + merged.bw_wait(), 0);
    }

    #[test]
    fn l2_shared_across_sms() {
        let cfg = GpuConfig::scaled(2);
        let mut h = MemoryHierarchy::new(&cfg);
        let mut act = ActivityCounters::default();
        let _ = h.access(0, 4096, 0, &mut act);
        // Other SM misses its own L1 (and its own MSHR file) but hits
        // the shared L2.
        let r = h.access(1, 4096, 0, &mut act);
        assert!(!r.l1_hit && r.l2_hit && !r.merged);
    }
}
