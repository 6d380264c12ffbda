//! The low-overhead event layer: typed cycle-stamped events in a bounded
//! per-SM ring buffer.
//!
//! Events are small `Copy` values pushed into a fixed-capacity ring; once
//! full, the oldest events are overwritten and counted as dropped, so a
//! long simulation keeps its *most recent* window of activity at constant
//! memory. Capacity is fixed at construction — the hot path never
//! allocates.

/// What happened. Field meanings follow the simulator's vocabulary:
/// cycles are SM cycles, `pc` is the instruction address, `warp` the
/// SM-local warp index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// The scheduler issued a warp instruction to a functional-unit pool.
    SchedIssue {
        /// Issuing warp (SM-local index).
        warp: u32,
        /// Instruction address.
        pc: u32,
        /// Functional-unit pool (see [`pool_name`]).
        pool: u8,
    },
    /// A speculative adder warp-op mispredicted and recomputed.
    AdderMispredict {
        /// Instruction address.
        pc: u32,
        /// Slices re-executed in the recompute cycle.
        slices_recomputed: u32,
    },
    /// Two warps wrote the same CRF row in the same cycle.
    CrfConflict {
        /// The contended row (0..16).
        row: u32,
    },
    /// One coalesced global-memory transaction.
    MemAccess {
        /// Segment (line-aligned) address.
        addr: u64,
        /// Round-trip latency in cycles.
        latency: u32,
        /// Where it hit: 0 = L1, 1 = L2, 2 = DRAM, 3 = merged into an
        /// in-flight MSHR fill.
        level: u8,
    },
    /// Lifecycle of one fresh line fill (an L1 miss that allocated an
    /// MSHR entry): request → MSHR allocate → bandwidth-slot grant →
    /// fill complete. The event's cycle is the request cycle; the three
    /// stage lengths partition the time up to the grant, with service
    /// latency covering the rest of `latency`.
    MemFill {
        /// Segment (line-aligned) address.
        addr: u64,
        /// Cycles stalled waiting for a free MSHR entry.
        mshr_wait: u32,
        /// Cycles queued for L2/DRAM request-bandwidth slots.
        queue_wait: u32,
        /// Total request-to-fill latency in cycles.
        latency: u32,
        /// Where the fill was served: 1 = L2, 2 = DRAM.
        level: u8,
        /// Whether the transaction was a store (write-allocate fill).
        store: bool,
    },
    /// A warp reached a block-wide barrier.
    Barrier {
        /// Waiting warp (SM-local index).
        warp: u32,
    },
    /// A span: some named phase covered `[cycle, cycle + duration)`.
    Span {
        /// Index into the telemetry's interned span-name table.
        name: u16,
        /// Span length in cycles.
        duration: u64,
    },
}

/// Human-readable name of a functional-unit pool index as encoded in
/// [`EventKind::SchedIssue::pool`].
#[must_use]
pub(crate) fn pool_name(pool: u8) -> &'static str {
    match pool {
        0 => "alu",
        1 => "fpu",
        2 => "dpu",
        3 => "muldiv",
        4 => "sfu",
        5 => "ldst",
        _ => "unknown",
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// SM cycle at which the event occurred.
    pub(crate) cycle: u64,
    /// What happened.
    pub(crate) kind: EventKind,
}

/// A bounded ring of [`Event`]s. Pushing past capacity overwrites the
/// oldest entry (and counts it as dropped).
#[derive(Debug, Clone)]
pub(crate) struct RingBuffer {
    slots: Vec<Event>,
    capacity: usize,
    /// Next write position.
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
}

impl RingBuffer {
    /// A ring holding at most `capacity` events (at least 1).
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBuffer {
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Records one event. Never allocates once the ring has filled.
    pub(crate) fn push(&mut self, event: Event) {
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.head] = event;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Events currently held, oldest first.
    pub(crate) fn iter_in_order(&self) -> impl Iterator<Item = &Event> {
        let (wrapped, recent) = if self.slots.len() < self.capacity {
            (&self.slots[..0], &self.slots[..])
        } else {
            // `head` points at the oldest entry once full.
            (&self.slots[self.head..], &self.slots[..self.head])
        };
        wrapped.iter().chain(recent.iter())
    }

    /// Number of events currently held.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Events lost to overwriting.
    #[must_use]
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> Event {
        Event {
            cycle,
            kind: EventKind::Barrier { warp: 0 },
        }
    }

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let mut r = RingBuffer::new(4);
        for c in 0..4 {
            r.push(ev(c));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        // Two more: cycles 0 and 1 are overwritten.
        r.push(ev(4));
        r.push(ev(5));
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 2);
        let cycles: Vec<u64> = r.iter_in_order().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4, 5], "oldest-first after wrap");
    }

    #[test]
    fn exact_boundary_wrap() {
        let mut r = RingBuffer::new(3);
        for c in 0..6 {
            r.push(ev(c));
        }
        // Head returned exactly to 0: order must still be oldest-first.
        let cycles: Vec<u64> = r.iter_in_order().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![3, 4, 5]);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn capacity_clamped_to_one() {
        let mut r = RingBuffer::new(0);
        assert_eq!(r.capacity, 1);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.iter_in_order().next().unwrap().cycle, 2);
    }

    #[test]
    fn never_reallocates_after_fill() {
        let mut r = RingBuffer::new(16);
        for c in 0..64 {
            r.push(ev(c));
        }
        assert_eq!(r.slots.capacity(), 16, "ring stays at its capacity");
    }
}
