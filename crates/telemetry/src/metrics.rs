//! Typed run metrics: the [`Counters`] and [`Histograms`] the simulator
//! updates on its hot path (a field update, no lookup), the
//! log2-bucketed [`Histogram`], and the interval rows the collector
//! pushes at every snapshot boundary ([`CorePoint`], [`MemPoint`],
//! [`EnergyPoint`], [`OccPoint`]).
//!
//! Every row holds exact integer deltas over its interval. The exporters
//! name a row's columns through `IntervalRow` and convert to `f64` only
//! when they write.

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `2^63`.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`. This makes bucket boundaries exact powers of
/// two, which is the natural resolution for stall lengths, latencies and
/// gap distributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// The bucket index a value falls into.
    #[must_use]
    pub(crate) fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive `[lo, hi]` value range of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= HISTOGRAM_BUCKETS`.
    #[must_use]
    pub(crate) fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
        if i == 0 {
            (0, 0)
        } else if i == 64 {
            (1 << 63, u64::MAX)
        } else {
            (1 << (i - 1), (1 << i) - 1)
        }
    }

    /// Records one sample.
    pub(crate) fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-quantile of the recorded samples at bucket resolution:
    /// the upper bound of the bucket containing the sample of rank
    /// `ceil(p * count)` (clamped to `[1, count]`), itself clamped to
    /// the recorded maximum so a reported percentile never exceeds any
    /// observed sample. Returns 0 on an empty histogram.
    #[must_use]
    pub(crate) fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// The median at bucket resolution (see `Histogram::percentile`).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// The 95th percentile at bucket resolution
    /// (see `Histogram::percentile`).
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// The non-empty buckets as `(lo, hi, count)` triples, low to high.
    #[must_use]
    pub(crate) fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }
}

/// Adder prediction accuracy of `mispredicts` out of `ops` (1.0 when
/// there were no ops).
pub(crate) fn accuracy(ops: u64, mispredicts: u64) -> f64 {
    if ops == 0 {
        1.0
    } else {
        1.0 - mispredicts as f64 / ops as f64
    }
}

/// The run's cumulative event counters. [`Counters::named`] gives their
/// exported names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Warp instructions issued.
    pub warp_instructions: u64,
    /// Speculative-adder warp operations.
    pub adder_ops: u64,
    /// Mispredicted adder warp operations.
    pub adder_mispredicts: u64,
    /// Carry-history table reads.
    pub history_reads: u64,
    /// Carry-history table writes.
    pub history_writes: u64,
    /// Carry Register File reads.
    pub crf_reads: u64,
    /// Carry Register File writes.
    pub crf_writes: u64,
    /// CRF writes that conflicted on a row.
    pub crf_conflicts: u64,
    /// Coalesced global-memory transactions.
    pub l1_accesses: u64,
    /// Fresh L1 misses (merges excluded).
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM line fills.
    pub dram_accesses: u64,
    /// Misses merged into an in-flight MSHR fill.
    pub mshr_merges: u64,
    /// Cycles fills waited for a free MSHR entry.
    pub mshr_wait_cycles: u64,
    /// Cycles fills queued for an L2 or DRAM bandwidth slot.
    pub bw_starved_cycles: u64,
    /// Cycles fills queued at a crossbar injection port.
    pub xbar_wait_cycles: u64,
    /// Fills that crossed the SM↔partition crossbar.
    pub xbar_hops: u64,
    /// Store fills that installed a line (write-allocates).
    pub write_allocs: u64,
    /// Warps that reached a block barrier.
    pub barriers: u64,
}

impl Counters {
    /// `(name, value)` pairs in export order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, u64); 19] {
        [
            ("sched.warp_instructions", self.warp_instructions),
            ("adder.ops", self.adder_ops),
            ("adder.mispredicts", self.adder_mispredicts),
            ("history.reads", self.history_reads),
            ("history.writes", self.history_writes),
            ("crf.reads", self.crf_reads),
            ("crf.writes", self.crf_writes),
            ("crf.conflicts", self.crf_conflicts),
            ("mem.l1_accesses", self.l1_accesses),
            ("mem.l1_misses", self.l1_misses),
            ("mem.l2_misses", self.l2_misses),
            ("mem.dram_accesses", self.dram_accesses),
            ("mem.mshr_merges", self.mshr_merges),
            ("mem.mshr_wait_cycles", self.mshr_wait_cycles),
            ("mem.bw_starved_cycles", self.bw_starved_cycles),
            ("mem.xbar_wait_cycles", self.xbar_wait_cycles),
            ("mem.xbar_hops", self.xbar_hops),
            ("mem.write_allocs", self.write_allocs),
            ("sched.barriers", self.barriers),
        ]
    }
}

/// The run's latency and gap distributions. [`Histograms::named`] gives
/// their exported names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histograms {
    /// Slices recomputed per mispredicted adder op.
    pub recompute_slices: Histogram,
    /// Idle cycles between consecutive issues on one SM.
    pub issue_gap: Histogram,
    /// Latency of every global transaction.
    pub mem_latency: Histogram,
    /// Latency of fresh L2 and DRAM fills.
    pub fill_latency: Histogram,
    /// Cycles a fill waited for a free MSHR entry.
    pub mshr_wait: Histogram,
    /// Cycles a fill queued at a crossbar injection port.
    pub xbar_wait: Histogram,
    /// Cycles a fill queued for an L2 bandwidth slot.
    pub l2_queue_wait: Histogram,
    /// Cycles a DRAM fill queued for a DRAM bandwidth slot.
    pub dram_queue_wait: Histogram,
    /// Latency of loads.
    pub load_latency: Histogram,
    /// Latency of stores.
    pub store_latency: Histogram,
}

impl Histograms {
    /// `(name, histogram)` pairs in export order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, &Histogram); 10] {
        [
            ("adder.recompute_slices", &self.recompute_slices),
            ("sched.issue_gap", &self.issue_gap),
            ("mem.latency", &self.mem_latency),
            ("mem.fill_latency", &self.fill_latency),
            ("mem.mshr_wait", &self.mshr_wait),
            ("mem.xbar_wait", &self.xbar_wait),
            ("mem.l2_queue_wait", &self.l2_queue_wait),
            ("mem.dram_queue_wait", &self.dram_queue_wait),
            ("mem.load_latency", &self.load_latency),
            ("mem.store_latency", &self.store_latency),
        ]
    }
}

/// An interval row the exporters write as one named track per column.
pub(crate) trait IntervalRow<const N: usize> {
    /// Track names, in `values` order.
    const COLUMNS: [&'static str; N];
    /// Cycle at the end of the interval.
    fn cycle(&self) -> u64;
    /// The exported values, in column order.
    fn values(&self) -> [f64; N];
}

/// One core-metrics interval: adder activity and issued instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorePoint {
    /// Cycle at which the interval began (the previous boundary).
    pub(crate) start: u64,
    /// Cycle at the end of the interval.
    pub cycle: u64,
    /// Adder warp operations during the interval.
    pub(crate) adder_ops: u64,
    /// Mispredicted adder warp operations during the interval.
    pub(crate) adder_mispredicts: u64,
    /// Warp instructions issued during the interval.
    pub(crate) warp_instructions: u64,
}

impl CorePoint {
    /// Adder prediction accuracy over the interval (1.0 with no adder
    /// ops).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        accuracy(self.adder_ops, self.adder_mispredicts)
    }
}

impl IntervalRow<4> for CorePoint {
    const COLUMNS: [&'static str; 4] = ["adder.accuracy", "adder.ops", "adder.mispredicts", "ipc"];

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn values(&self) -> [f64; 4] {
        let dt = self.cycle.saturating_sub(self.start).max(1);
        [
            self.accuracy(),
            self.adder_ops as f64,
            self.adder_mispredicts as f64,
            self.warp_instructions as f64 / dt as f64,
        ]
    }
}

/// One memory-timeline interval (extensive sums over the interval; by
/// Little's law, a wait total over the interval length is the average
/// queue depth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemPoint {
    /// Cycle at the end of the interval.
    pub cycle: u64,
    /// Σ occupied MSHR entries × cycles over the interval.
    pub mshr_occupied_cycles: u64,
    /// Sum of per-SM peak MSHR occupancy over the interval.
    pub mshr_peak: u64,
    /// L2 requests (fresh L1 misses) during the interval.
    pub l2_requests: u64,
    /// DRAM line fills during the interval.
    pub dram_requests: u64,
    /// Bandwidth-slot wait cycles accrued during the interval.
    pub bw_wait_cycles: u64,
    /// Crossbar injection-port wait cycles accrued during the interval.
    pub xbar_wait_cycles: u64,
}

impl IntervalRow<6> for MemPoint {
    const COLUMNS: [&'static str; 6] = [
        "mem.mshr_occupied_cycles",
        "mem.mshr_peak",
        "mem.l2_requests",
        "mem.dram_requests",
        "mem.bw_wait_cycles",
        "mem.xbar_wait_cycles",
    ];

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn values(&self) -> [f64; 6] {
        [
            self.mshr_occupied_cycles as f64,
            self.mshr_peak as f64,
            self.l2_requests as f64,
            self.dram_requests as f64,
            self.bw_wait_cycles as f64,
            self.xbar_wait_cycles as f64,
        ]
    }
}

/// One energy-timeline interval: integer event counts over the
/// interval. Joules are applied at report time by
/// [`crate::energy::EnergyWeights`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyPoint {
    /// Cycle at the end of the interval.
    pub cycle: u64,
    /// DRAM line fills during the interval.
    pub dram_fills: u64,
    /// Fresh fills granted an L2 request slot.
    pub l2_grants: u64,
    /// Misses merged into in-flight MSHR fills.
    pub mshr_merges: u64,
    /// Fills that crossed the SM↔partition crossbar.
    pub xbar_hops: u64,
    /// Store misses that installed a line (write-allocates).
    pub write_allocs: u64,
    /// Warp instructions issued during the interval.
    pub instructions: u64,
    /// SM-resident clock ticks (awake or parked) during the interval.
    pub sm_cycles: u64,
}

impl IntervalRow<7> for EnergyPoint {
    const COLUMNS: [&'static str; 7] = [
        "energy.dram_fills",
        "energy.l2_grants",
        "energy.mshr_merges",
        "energy.xbar_hops",
        "energy.write_allocs",
        "energy.instructions",
        "energy.sm_cycles",
    ];

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn values(&self) -> [f64; 7] {
        [
            self.dram_fills as f64,
            self.l2_grants as f64,
            self.mshr_merges as f64,
            self.xbar_hops as f64,
            self.write_allocs as f64,
            self.instructions as f64,
            self.sm_cycles as f64,
        ]
    }
}

/// One occupancy-timeline interval (extensive sums over the interval;
/// ratios are computed at render time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OccPoint {
    /// Cycle at the end of the interval.
    pub cycle: u64,
    /// Σ resident warps × cycles over the interval.
    pub(crate) warp_cycles: u64,
    /// Σ issue-ready warps × cycles over the interval.
    pub(crate) eligible_cycles: u64,
    /// Issue slots that issued during the interval.
    pub issued_slots: u64,
    /// Issue slots owned during the interval.
    pub total_slots: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Each boundary: 2^k lands in bucket k+1, 2^k - 1 in bucket k.
        for k in 1..63 {
            let v = 1u64 << k;
            assert_eq!(Histogram::bucket_index(v), k + 1, "2^{k}");
            assert_eq!(Histogram::bucket_index(v - 1), k, "2^{k} - 1");
            let (lo, hi) = Histogram::bucket_bounds(k + 1);
            assert_eq!(lo, v);
            assert_eq!(hi, (v << 1) - 1);
        }
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(64).1, u64::MAX);
    }

    #[test]
    fn histogram_accumulates() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 105);
        assert_eq!(h.max(), 100);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[Histogram::bucket_index(100)], 1);
        assert!((h.mean() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_on_empty_histogram_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p95(), 0);
        assert_eq!(h.percentile(1.0), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn percentiles_single_bucket() {
        // All samples in one bucket: every percentile reports that
        // bucket's upper bound clamped to the observed maximum — a
        // percentile must never exceed a value that was actually seen.
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.record(5); // bucket [4, 7], max 5
        }
        assert_eq!(h.p50(), 5);
        assert_eq!(h.p95(), 5);
        assert_eq!(h.percentile(0.01), 5);
        assert_eq!(h.max(), 5);
        // Exact zeros stay in the zero bucket.
        let mut z = Histogram::default();
        z.record(0);
        assert_eq!(z.p50(), 0);
        assert_eq!(z.percentile(1.0), 0);
    }

    #[test]
    fn percentiles_split_across_buckets() {
        // 90 small samples, 10 large: p50 sits in the small bucket,
        // p95 in the large one (clamped to the recorded max of 1000,
        // not the bucket bound 1023).
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(3); // bucket [2, 3]
        }
        for _ in 0..10 {
            h.record(1000); // bucket [512, 1023]
        }
        assert_eq!(h.p50(), 3);
        assert_eq!(h.percentile(0.90), 3);
        assert_eq!(h.p95(), 1000);
        assert_eq!(h.percentile(1.0), 1000);
    }

    #[test]
    fn percentiles_overflow_bucket() {
        // Samples in the top bucket [2^63, u64::MAX]: the bucket's
        // upper bound clamps to the exact recorded maximum.
        let mut h = Histogram::default();
        h.record(u64::MAX - 3);
        h.record(1 << 63);
        assert_eq!(Histogram::bucket_index(u64::MAX - 3), 64);
        assert_eq!(h.percentile(1.0), u64::MAX - 3);
        assert_eq!(h.p50(), u64::MAX - 3);
        assert_eq!(h.max(), u64::MAX - 3);
    }

    #[test]
    fn named_lists_every_field_once() {
        // Names are distinct, and each value surfaces under its own name
        // in export order.
        let c = Counters {
            warp_instructions: 1,
            adder_ops: 2,
            barriers: 19,
            ..Counters::default()
        };
        let named = c.named();
        let mut names: Vec<&str> = named.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), named.len(), "counter names are distinct");
        assert_eq!(named[0], ("sched.warp_instructions", 1));
        assert_eq!(named[1], ("adder.ops", 2));
        assert_eq!(named[18], ("sched.barriers", 19));
        assert_eq!(named.iter().map(|&(_, v)| v).sum::<u64>(), 22);

        let mut h = Histograms::default();
        h.store_latency.record(7);
        let named = h.named();
        let mut names: Vec<&str> = named.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), named.len(), "histogram names are distinct");
        assert_eq!(named[9].0, "mem.store_latency");
        assert_eq!(named[9].1.count(), 1);
    }

    #[test]
    fn interval_rows_export_their_columns() {
        let p = CorePoint {
            start: 1000,
            cycle: 2000,
            adder_ops: 20,
            adder_mispredicts: 2,
            warp_instructions: 1500,
        };
        assert_eq!(p.values(), [0.9, 20.0, 2.0, 1.5]);
        assert_eq!(CorePoint::COLUMNS[0], "adder.accuracy");
        // A zero-length interval divides IPC by one.
        let q = CorePoint { start: 2000, ..p };
        assert_eq!(q.values()[3], 1500.0);
        let m = MemPoint {
            cycle: 1024,
            bw_wait_cycles: 5,
            xbar_wait_cycles: 4,
            ..MemPoint::default()
        };
        assert_eq!(m.values()[4..], [5.0, 4.0]);
        assert_eq!(MemPoint::COLUMNS[5], "mem.xbar_wait_cycles");
        assert_eq!(
            EnergyPoint::COLUMNS.len(),
            EnergyPoint::default().values().len()
        );
    }
}
