//! The metrics registry: named counters, gauges and log2-bucketed
//! histograms, plus periodic interval snapshots for plotting metrics
//! over simulated time.
//!
//! Metrics are registered once by name (returning a dense id) and updated
//! by id — the hot path is an array index and an add, no hashing and no
//! allocation.

/// Dense handle of a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CounterId(usize);

/// Dense handle of a gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GaugeId(usize);

/// Dense handle of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HistogramId(usize);

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
    buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new([0; HISTOGRAM_BUCKETS]),
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

/// One interval-snapshot row: every registered column's value at the end
/// of one snapshot interval.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalPoint {
    /// Cycle at which the snapshot was taken (end of the interval).
    pub(crate) cycle: u64,
    /// Values aligned with `IntervalSeries::columns`.
    pub values: Vec<f64>,
}

/// A time series of periodic metric snapshots.
#[derive(Debug, Clone, Default)]
pub struct IntervalSeries {
    columns: Vec<String>,
    points: Vec<IntervalPoint>,
}

impl IntervalSeries {
    /// A series with the given column names.
    #[must_use]
    pub(crate) fn new(columns: Vec<String>) -> Self {
        IntervalSeries {
            columns,
            points: Vec::new(),
        }
    }

    /// Column names, in value order.
    #[must_use]
    pub(crate) fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Appends one snapshot row.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the column count.
    pub(crate) fn push(&mut self, cycle: u64, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "snapshot column mismatch");
        self.points.push(IntervalPoint { cycle, values });
    }

    /// All snapshot rows in time order.
    #[must_use]
    pub fn points(&self) -> &[IntervalPoint] {
        &self.points
    }

    /// One named column as `(cycle, value)` pairs.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<Vec<(u64, f64)>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(
            self.points
                .iter()
                .map(|p| (p.cycle, p.values[idx]))
                .collect(),
        )
    }
}

/// Named counters, gauges and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) a counter by name.
    pub(crate) fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Adds `n` to a counter.
    #[inline]
    pub(crate) fn inc(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Current value of a counter.
    #[must_use]
    pub(crate) fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Registers (or finds) a gauge by name.
    pub(crate) fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Sets a gauge.
    #[inline]
    pub(crate) fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Registers (or finds) a histogram by name.
    pub(crate) fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms
            .push((name.to_string(), Histogram::default()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Records one histogram sample.
    #[inline]
    pub(crate) fn record(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].1.record(value);
    }

    /// All counters as `(name, value)`.
    #[must_use]
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All gauges as `(name, value)`.
    #[must_use]
    pub(crate) fn gauges(&self) -> &[(String, f64)] {
        &self.gauges
    }

    /// All histograms as `(name, data)`.
    #[must_use]
    pub fn histograms(&self) -> &[(String, Histogram)] {
        &self.histograms
    }

    /// Looks up a counter's value by name (exporters, tests).
    #[must_use]
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a histogram by name (exporters, profile capture).
    #[must_use]
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
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
    fn registry_ids_are_stable_and_idempotent() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("a");
        let b = r.counter("b");
        assert_eq!(r.counter("a"), a, "re-registration returns the same id");
        r.inc(a, 2);
        r.inc(b, 5);
        r.inc(a, 1);
        assert_eq!(r.counter_value(a), 3);
        assert_eq!(r.counter_by_name("b"), Some(5));
        assert_eq!(r.counter_by_name("missing"), None);

        let g = r.gauge("ratio");
        r.set(g, 0.25);
        assert_eq!(r.gauges()[g.0].1, 0.25);

        let h = r.histogram("lat");
        r.record(h, 7);
        assert_eq!(r.histograms()[h.0].1.count(), 1);
    }

    #[test]
    fn interval_series_columns() {
        let mut s = IntervalSeries::new(vec!["accuracy".into(), "ipc".into()]);
        s.push(1000, vec![0.9, 1.5]);
        s.push(2000, vec![0.95, 1.6]);
        let acc = s.column("accuracy").unwrap();
        assert_eq!(acc, vec![(1000, 0.9), (2000, 0.95)]);
        assert!(s.column("nope").is_none());
    }
}
