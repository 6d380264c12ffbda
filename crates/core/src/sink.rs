//! A lightweight observer interface for adder-level events.
//!
//! Higher layers (the simulator's telemetry, tests, ad-hoc probes) often
//! want to see *individual* speculation outcomes — not just the aggregate
//! [`crate::AdderStats`] — without this crate depending on any of them.
//! [`EventSink`] inverts that dependency: core components accept a
//! `&mut dyn EventSink` and report what happened; the default method
//! bodies do nothing, so a sink implements only what it cares about, and
//! [`NullSink`] turns the whole channel off.
//!
//! The trait is deliberately narrow and `&mut`-based (no interior
//! mutability, no allocation). An add reports one or two events: the
//! outcome, and history-port activity when there was any. The single-op
//! [`crate::adder::execute_op_with_sink`] always reports them. The
//! warp-level [`crate::adder::execute_warp_op`], which the simulator's
//! issue path calls once per warp instruction, asks
//! [`EventSink::enabled`] once and makes no per-lane call when it is
//! false, as it is for [`NullSink`] and for a disabled telemetry
//! collector.

use crate::adder::AddOutcome;
use crate::bits::SliceLayout;
use crate::event::OpContext;

/// Observer for speculative-adder, history and CRF events.
///
/// All methods have empty default bodies; implement the ones you need.
/// Sinks must be [`Send`] so simulator state that owns or borrows a
/// sink can move between threads.
pub trait EventSink: Send {
    /// Whether this sink observes anything at all. Warp-level callers
    /// skip their per-lane reports when it is false; the default is true.
    fn enabled(&self) -> bool {
        true
    }

    /// One completed speculative add: its context, layout and outcome
    /// (including misprediction / recompute details).
    fn adder_op(&mut self, ctx: &OpContext, layout: SliceLayout, outcome: &AddOutcome) {
        let _ = (ctx, layout, outcome);
    }

    /// History-table port activity attributable to the op just reported
    /// (`reads`/`writes` are access counts, not bit counts).
    fn history_activity(&mut self, reads: u64, writes: u64) {
        let _ = (reads, writes);
    }

    /// One Carry Register File row read (`pc` selects the row).
    fn crf_read(&mut self, pc: u32) {
        let _ = pc;
    }

    /// One CRF row write; `conflict` marks a same-cycle same-row
    /// collision that hardware would arbitrate.
    fn crf_write(&mut self, pc: u32, conflict: bool) {
        let _ = (pc, conflict);
    }
}

/// The do-nothing sink: every callback is the trait's empty default, and
/// it reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting {
        adds: u32,
        crf: u32,
    }

    impl EventSink for Counting {
        fn adder_op(&mut self, _ctx: &OpContext, _layout: SliceLayout, _out: &AddOutcome) {
            self.adds += 1;
        }
        fn crf_write(&mut self, _pc: u32, _conflict: bool) {
            self.crf += 1;
        }
    }

    #[test]
    fn defaults_are_noops_and_overrides_fire() {
        let out = AddOutcome {
            sum: 0,
            carry_out: false,
            cycles: 1,
            mispredicted: false,
            slices_recomputed: 0,
            errors: 0,
            static_boundaries: 0,
            true_carries: 0,
        };
        let mut s = Counting::default();
        let sink: &mut dyn EventSink = &mut s;
        sink.adder_op(&OpContext::default(), SliceLayout::INT64, &out);
        sink.history_activity(1, 1); // default no-op
        sink.crf_read(3); // default no-op
        sink.crf_write(3, true);
        assert!(sink.enabled(), "sinks observe by default");
        assert_eq!((s.adds, s.crf), (1, 1));

        let mut n = NullSink;
        assert!(!n.enabled());
        let sink: &mut dyn EventSink = &mut n;
        sink.adder_op(&OpContext::default(), SliceLayout::INT64, &out);
        sink.crf_write(0, false);
    }
}
