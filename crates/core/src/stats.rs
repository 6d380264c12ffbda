//! Misprediction and activity statistics for speculative adders.

use serde::{Deserialize, Serialize};

/// Aggregated counters over a stream of add/sub operations.
///
/// These feed three places: the misprediction-rate figures (Figs. 5 and 6),
/// the timing model (extra cycles per misprediction) and the energy model
/// (slice computations, history reads/writes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdderStats {
    /// Total add/sub operations executed.
    pub ops: u64,
    /// Operations that needed a second (recompute) cycle.
    pub mispredicted_ops: u64,
    /// Extra cycles consumed by recomputation (== `mispredicted_ops` for a
    /// two-cycle-max design).
    pub extra_cycles: u64,
    /// Boundaries whose carry-in was statically determined by Peek.
    pub static_boundaries: u64,
    /// Boundaries that required dynamic speculation.
    pub dynamic_boundaries: u64,
    /// Boundary error detectors that fired.
    pub boundary_errors: u64,
    /// Slices computed in the (always executed) first cycle.
    pub slices_cycle1: u64,
    /// Slices recomputed in second cycles.
    pub slices_recomputed: u64,
    /// Largest number of slices recomputed by a single operation.
    pub max_recomputed_in_op: u32,
    /// History-structure reads (CRF reads in the hardware realisation).
    pub history_reads: u64,
    /// History-structure writes.
    pub history_writes: u64,
}

impl AdderStats {
    /// Fraction of operations that mispredicted (the paper's *thread
    /// misprediction rate*). Zero when no operations ran.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        ratio(self.mispredicted_ops, self.ops)
    }

    /// Prediction accuracy (`1 − misprediction_rate`); the paper reports
    /// 91 % on average for the final design.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        1.0 - self.misprediction_rate()
    }

    /// Average slices recomputed per mispredicted operation (the paper
    /// reports 1.94 on average, up to 2.73 per kernel).
    #[must_use]
    pub fn avg_recomputed_per_misprediction(&self) -> f64 {
        ratio(self.slices_recomputed, self.mispredicted_ops)
    }

    /// Fraction of boundaries resolved statically by Peek.
    #[must_use]
    pub fn static_fraction(&self) -> f64 {
        ratio(
            self.static_boundaries,
            self.static_boundaries + self.dynamic_boundaries,
        )
    }

    /// Folds another statistics block into this one.
    pub fn merge(&mut self, other: &AdderStats) {
        self.ops += other.ops;
        self.mispredicted_ops += other.mispredicted_ops;
        self.extra_cycles += other.extra_cycles;
        self.static_boundaries += other.static_boundaries;
        self.dynamic_boundaries += other.dynamic_boundaries;
        self.boundary_errors += other.boundary_errors;
        self.slices_cycle1 += other.slices_cycle1;
        self.slices_recomputed += other.slices_recomputed;
        self.max_recomputed_in_op = self.max_recomputed_in_op.max(other.max_recomputed_in_op);
        self.history_reads += other.history_reads;
        self.history_writes += other.history_writes;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_safe() {
        let s = AdderStats::default();
        assert_eq!(s.misprediction_rate(), 0.0);
        assert_eq!(s.avg_recomputed_per_misprediction(), 0.0);
        assert_eq!(s.accuracy(), 1.0);
    }

    #[test]
    fn rates() {
        let s = AdderStats {
            ops: 100,
            mispredicted_ops: 9,
            slices_recomputed: 18,
            static_boundaries: 500,
            dynamic_boundaries: 200,
            ..Default::default()
        };
        assert!((s.misprediction_rate() - 0.09).abs() < 1e-12);
        assert!((s.avg_recomputed_per_misprediction() - 2.0).abs() < 1e-12);
        assert!((s.static_fraction() - 500.0 / 700.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_and_maxes() {
        let mut a = AdderStats {
            ops: 10,
            mispredicted_ops: 1,
            max_recomputed_in_op: 2,
            ..Default::default()
        };
        let b = AdderStats {
            ops: 5,
            mispredicted_ops: 2,
            max_recomputed_in_op: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.ops, 15);
        assert_eq!(a.mispredicted_ops, 3);
        assert_eq!(a.max_recomputed_in_op, 5);
    }
}
