//! Value traces for the paper's Fig. 2 (value evolution in logical time).

use serde::{Deserialize, Serialize};
use st2_isa::InstClass;
use std::collections::HashSet;

/// One traced result value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// PC of the producing instruction.
    pub(crate) pc: u32,
    /// Logical time: the order in which the traced thread executed its
    /// instructions.
    pub(crate) logical_time: u64,
    /// The produced value, interpreted as a signed integer (for float
    /// producers this is the rounded numeric value, matching the paper's
    /// plot of result magnitudes).
    pub value: i64,
    /// Class of the producing instruction.
    pub(crate) class: InstClass,
}

/// The value history of one thread.
///
/// Bounded: once its capacity is reached, further records advance the
/// logical clock but are not retained, so tracing a long-running thread
/// cannot grow memory without limit. The
/// retained prefix is what Fig. 2 plots anyway (value evolution from the
/// start of the thread).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValueTrace {
    entries: Vec<TraceEntry>,
    clock: u64,
    capacity: usize,
}

/// Default retention bound (entries), generous for every Fig. 2 use.
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

impl Default for ValueTrace {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl ValueTrace {
    /// An empty trace retaining at most `capacity` entries.
    #[must_use]
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ValueTrace {
            entries: Vec::new(),
            clock: 0,
            capacity: capacity.max(1),
        }
    }

    /// Records one produced value. Logical time always advances;
    /// entries beyond the capacity are dropped.
    pub(crate) fn record(&mut self, pc: u32, value: i64, class: InstClass) {
        if self.entries.len() < self.capacity {
            self.entries.push(TraceEntry {
                pc,
                logical_time: self.clock,
                value,
                class,
            });
        }
        self.clock += 1;
    }

    /// All retained entries in logical-time order.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries produced by one PC.
    #[must_use]
    pub fn for_pc(&self, pc: u32) -> Vec<TraceEntry> {
        self.entries
            .iter()
            .copied()
            .filter(|e| e.pc == pc)
            .collect()
    }

    /// The distinct PCs seen, in first-appearance order.
    #[must_use]
    pub fn pcs(&self) -> Vec<u32> {
        let mut seen = HashSet::new();
        let mut pcs = Vec::new();
        for e in &self.entries {
            if seen.insert(e.pc) {
                pcs.push(e.pc);
            }
        }
        pcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_time_increments() {
        let mut t = ValueTrace::default();
        t.record(3, 10, InstClass::AluAdd);
        t.record(5, -7, InstClass::AluAdd);
        t.record(3, 11, InstClass::AluAdd);
        assert_eq!(t.entries()[0].logical_time, 0);
        assert_eq!(t.entries()[2].logical_time, 2);
        assert_eq!(t.for_pc(3).len(), 2);
        assert_eq!(t.pcs(), vec![3, 5]);
    }

    #[test]
    fn pcs_first_appearance_order_many_distinct() {
        let mut t = ValueTrace::default();
        // Interleave a large distinct-PC population to exercise the
        // seen-set path (the old quadratic scan made this O(n²)).
        for round in 0..3 {
            for pc in 0..2000u32 {
                t.record(pc, i64::from(pc) + round, InstClass::AluAdd);
            }
        }
        let pcs = t.pcs();
        assert_eq!(pcs.len(), 2000);
        assert_eq!(pcs[0], 0);
        assert_eq!(pcs[1999], 1999);
        assert!(pcs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn capacity_bounds_retention_but_not_time() {
        let mut t = ValueTrace::with_capacity(4);
        for i in 0..10 {
            t.record(i, i64::from(i), InstClass::AluAdd);
        }
        assert_eq!(t.entries().len(), 4);
        assert_eq!(t.capacity, 4);
        assert_eq!(t.clock, 10, "dropped records still advance time");
        // The retained prefix keeps its original timestamps.
        assert_eq!(t.entries()[3].logical_time, 3);
    }
}
