//! [`SpeculativeAdder`]: the complete ST² adder — predictor, Peek, slice
//! engine and statistics — behind one `add` call, and the free functions
//! it shares with the simulators: [`execute_op`] for one operation and
//! [`execute_warp_op`] for all the lanes of one warp instruction.

use crate::bits::{mask, SliceLayout};
use crate::config::SpeculationConfig;
use crate::event::{AddRecord, LaneAdd, OpContext};
use crate::peek::PeekOutcome;
use crate::predictor::{windowed_lookahead, Predictor, PredictorActivity};
use crate::sink::{EventSink, NullSink};
use crate::slice::{prepare, speculate, PreparedAdd, SliceEval};
use crate::stats::AdderStats;

/// The observable result of one speculative addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddOutcome {
    /// The exact result, masked to the adder width. Always correct.
    pub sum: u64,
    /// Carry out of the most significant slice.
    pub carry_out: bool,
    /// Latency in cycles (1 or 2).
    pub cycles: u8,
    /// Whether a second cycle was needed.
    pub mispredicted: bool,
    /// Slices that re-executed in the second cycle.
    pub slices_recomputed: u32,
    /// Boundary error detectors that fired.
    pub errors: u32,
    /// Boundaries resolved statically by Peek (no speculation risk).
    pub static_boundaries: u32,
    /// True boundary carries (what the history learns).
    pub true_carries: u64,
}

/// A stateful speculative adder: one instance models one hardware adder
/// (or, in design-space exploration, one idealised speculation context
/// shared the way the configuration dictates).
///
/// ```
/// use st2_core::{OpContext, SliceLayout, SpeculativeAdder};
/// let mut adder = SpeculativeAdder::st2(SliceLayout::INT64);
/// let ctx = OpContext::default();
/// let out = adder.add(&ctx, 2, 3, false);
/// assert_eq!(out.sum, 5);
/// let out = adder.add(&ctx, 10, 3, true);
/// assert_eq!(out.sum, 7);
/// ```
#[derive(Debug, Clone)]
pub struct SpeculativeAdder {
    layout: SliceLayout,
    config: SpeculationConfig,
    predictor: Predictor,
    stats: AdderStats,
}

impl SpeculativeAdder {
    /// Creates an adder for an arbitrary speculation configuration.
    #[must_use]
    pub fn new(layout: SliceLayout, config: SpeculationConfig) -> Self {
        SpeculativeAdder {
            layout,
            config,
            predictor: Predictor::from_config(&config),
            stats: AdderStats::default(),
        }
    }

    /// Creates an adder with the paper's final ST² configuration
    /// (`Ltid+Prev+ModPC4+Peek`).
    #[must_use]
    pub fn st2(layout: SliceLayout) -> Self {
        Self::new(layout, SpeculationConfig::st2())
    }

    /// The slice layout.
    #[must_use]
    pub fn layout(&self) -> SliceLayout {
        self.layout
    }

    /// The speculation configuration.
    #[must_use]
    pub fn config(&self) -> &SpeculationConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &AdderStats {
        &self.stats
    }

    /// Resets the statistics (history state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = AdderStats::default();
    }

    /// Performs `a + b` (or `a − b` when `sub`), returning the exact result
    /// together with the speculation outcome, and updating history and
    /// statistics.
    pub fn add(&mut self, ctx: &OpContext, a: u64, b: u64, sub: bool) -> AddOutcome {
        execute_op(
            &mut self.predictor,
            &self.config,
            self.layout,
            ctx,
            a,
            b,
            sub,
            &mut self.stats,
        )
    }

    /// Replays a recorded add event (sign-extension and layout selection
    /// already encoded in the record).
    pub fn replay(&mut self, record: &AddRecord) -> AddOutcome {
        debug_assert_eq!(
            record.width.layout(),
            self.layout,
            "record layout does not match this adder"
        );
        self.add(&record.ctx, record.a, record.b, record.sub)
    }
}

/// One speculative operation against an externally owned predictor.
///
/// This is the composition point shared by [`SpeculativeAdder`] (fixed
/// layout) and the design-space exploration runner in [`crate::dse`]
/// (per-record layouts over one predictor, the way one CRF serves an SM's
/// ALUs, FPUs and DPUs alike).
#[allow(clippy::too_many_arguments)]
pub fn execute_op(
    predictor: &mut Predictor,
    config: &SpeculationConfig,
    layout: SliceLayout,
    ctx: &OpContext,
    a: u64,
    b: u64,
    sub: bool,
    stats: &mut AdderStats,
) -> AddOutcome {
    execute_op_with_sink(
        predictor,
        config,
        layout,
        ctx,
        a,
        b,
        sub,
        stats,
        &mut NullSink,
    )
}

/// [`execute_op`] with an observer: the sink sees the completed outcome
/// and the history-port activity of this one operation (one or two
/// calls through the `dyn` sink, made whether or not it is
/// [`EventSink::enabled`]).
#[allow(clippy::too_many_arguments)]
pub fn execute_op_with_sink(
    predictor: &mut Predictor,
    config: &SpeculationConfig,
    layout: SliceLayout,
    ctx: &OpContext,
    a: u64,
    b: u64,
    sub: bool,
    stats: &mut AdderStats,
    sink: &mut dyn EventSink,
) -> AddOutcome {
    let prep = prepare(layout, a, b, sub);
    execute_prepared(predictor, config, ctx, &prep, stats, sink)
}

/// The per-configuration half of one operation: predict, speculate the
/// prepared add, update the predictor, then count and report the outcome.
///
/// Always inlined: the design-space sweep replays every record of every
/// design point through this, and when it was left to LLVM, adding a
/// second caller of the adder internals ([`execute_warp_op`]) made it
/// stop inlining here and cost the sweep 40 % per record.
#[inline(always)]
pub(crate) fn execute_prepared(
    predictor: &mut Predictor,
    config: &SpeculationConfig,
    ctx: &OpContext,
    prep: &PreparedAdd,
    stats: &mut AdderStats,
    sink: &mut dyn EventSink,
) -> AddOutcome {
    let layout = prep.layout;
    let pk = peek_if(config.peek, prep);
    let mut activity = PredictorActivity::default();
    let predictions = predictor.predict(ctx, layout, prep.a, prep.b, &mut activity);
    let eval = speculate(prep, predictions, pk, config.recompute);
    predictor.update(
        ctx,
        layout,
        eval.true_carries,
        eval.mispredicted,
        &mut activity,
    );
    count(stats, layout, pk, &eval, activity);
    let outcome = outcome(&eval, pk);
    report(sink, ctx, layout, &outcome, activity);
    outcome
}

/// Runs the adds of one warp instruction at `pc` through the speculative
/// adders and returns whether any lane mispredicted.
///
/// `lanes` holds the lanes that reached an adder, in lane order, and
/// each runs as [`execute_op_with_sink`] would run it: lane *k* updates
/// the predictor before lane *k + 1* predicts. What is the same for every
/// lane is worked out once: the predictor kind, the Peek choice and the
/// PC part of the history key. Each lane's history entry is resolved once
/// for its prediction and its write-back. The statistics build up in a
/// local block that is folded into `stats` at the end, and `sink` hears
/// of each lane only when it is [`EventSink::enabled`].
pub fn execute_warp_op<S: EventSink + ?Sized>(
    predictor: &mut Predictor,
    config: &SpeculationConfig,
    layout: SliceLayout,
    pc: u32,
    lanes: &[LaneAdd],
    stats: &mut AdderStats,
    sink: &mut S,
) -> bool {
    let boundary_mask = mask(u32::from(layout.boundaries()));
    let policy = config.recompute;
    let warp = WarpOp {
        peek: config.peek,
        layout,
        pc,
        lanes,
    };
    // One lane loop per predictor kind. Each closure predicts, speculates
    // and updates one lane, returning its evaluation and history activity.
    let (any, tally) = match predictor {
        Predictor::Static(bit) => {
            let predictions = if *bit { boundary_mask } else { 0 };
            warp.run(sink, |_, prep, pk| {
                let eval = speculate(prep, predictions, pk, policy);
                (eval, PredictorActivity::default())
            })
        }
        Predictor::Valhalla { hist } => warp.run(sink, |ctx, prep, pk| {
            let predictions = hist.broadcast(ctx.gtid, layout, prep.a, prep.b);
            let eval = speculate(prep, predictions, pk, policy);
            let writes = u64::from(hist.learn(ctx.gtid, layout, eval.true_carries));
            (eval, PredictorActivity { reads: 1, writes })
        }),
        Predictor::Windowed { window } => {
            let window = *window;
            warp.run(sink, |_, prep, pk| {
                let predictions = windowed_lookahead(layout, prep.a, prep.b, window);
                let eval = speculate(prep, predictions & boundary_mask, pk, policy);
                (eval, PredictorActivity::default())
            })
        }
        Predictor::Prev { table, update } => {
            let update = *update;
            let pc_part = table.pc_part(pc);
            warp.run(sink, |ctx, prep, pk| {
                let slot = table.slot(ctx, pc_part);
                let predictions = table.read(slot).unwrap_or(0) & boundary_mask;
                let eval = speculate(prep, predictions, pk, policy);
                let write = update.writes_back(eval.mispredicted);
                if write {
                    table.write(slot, eval.true_carries);
                }
                let writes = u64::from(write);
                (eval, PredictorActivity { reads: 1, writes })
            })
        }
    };
    stats.merge(&tally);
    any
}

/// One warp instruction's lanes on their way through [`execute_warp_op`].
struct WarpOp<'a> {
    peek: bool,
    layout: SliceLayout,
    pc: u32,
    lanes: &'a [LaneAdd],
}

impl WarpOp<'_> {
    /// Prepares each lane's add in lane order and hands it to
    /// `speculate_lane`; counts the result and, if `sink` is enabled,
    /// reports it. Returns whether any lane mispredicted, and the lanes'
    /// statistics.
    #[inline(always)]
    fn run<S, F>(&self, sink: &mut S, mut speculate_lane: F) -> (bool, AdderStats)
    where
        S: EventSink + ?Sized,
        F: FnMut(&OpContext, &PreparedAdd, PeekOutcome) -> (SliceEval, PredictorActivity),
    {
        let observe = sink.enabled();
        let mut stats = AdderStats::default();
        let mut any = false;
        for lane in self.lanes {
            let ctx = lane.ctx(self.pc);
            let prep = prepare(self.layout, lane.a, lane.b, lane.sub);
            let pk = peek_if(self.peek, &prep);
            let (eval, activity) = speculate_lane(&ctx, &prep, pk);
            count(&mut stats, self.layout, pk, &eval, activity);
            any |= eval.mispredicted;
            if observe {
                report(sink, &ctx, self.layout, &outcome(&eval, pk), activity);
            }
        }
        (any, stats)
    }
}

/// The Peek outcome an add speculates under: its own when Peek is on.
#[inline(always)]
fn peek_if(peek: bool, prep: &PreparedAdd) -> PeekOutcome {
    if peek {
        prep.peek
    } else {
        PeekOutcome::default()
    }
}

/// Folds one operation into `stats`.
#[inline(always)]
fn count(
    stats: &mut AdderStats,
    layout: SliceLayout,
    pk: PeekOutcome,
    eval: &SliceEval,
    activity: PredictorActivity,
) {
    stats.ops += 1;
    if eval.mispredicted {
        stats.mispredicted_ops += 1;
        stats.extra_cycles += 1;
    }
    let boundaries = u64::from(layout.boundaries());
    let statics = u64::from(pk.static_count());
    stats.static_boundaries += statics;
    stats.dynamic_boundaries += boundaries - statics;
    stats.boundary_errors += u64::from(eval.error_count());
    stats.slices_cycle1 += u64::from(layout.count());
    stats.slices_recomputed += u64::from(eval.recomputed_slices());
    stats.max_recomputed_in_op = stats.max_recomputed_in_op.max(eval.recomputed_slices());
    stats.history_reads += activity.reads;
    stats.history_writes += activity.writes;
}

/// The observable outcome of one speculated add.
#[inline(always)]
fn outcome(eval: &SliceEval, pk: PeekOutcome) -> AddOutcome {
    AddOutcome {
        sum: eval.sum,
        carry_out: eval.carry_out,
        cycles: eval.cycles,
        mispredicted: eval.mispredicted,
        slices_recomputed: eval.recomputed_slices(),
        errors: eval.error_count(),
        static_boundaries: pk.static_count(),
        true_carries: eval.true_carries,
    }
}

/// Reports one completed operation to `sink`: its outcome, then its
/// history-port activity when there was any.
#[inline(always)]
fn report<S: EventSink + ?Sized>(
    sink: &mut S,
    ctx: &OpContext,
    layout: SliceLayout,
    outcome: &AddOutcome,
    activity: PredictorActivity,
) {
    sink.adder_op(ctx, layout, outcome);
    if activity.reads + activity.writes > 0 {
        sink.history_activity(activity.reads, activity.writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpeculationConfig;
    use crate::event::WidthClass;

    fn ctx(pc: u32, tid: u32) -> OpContext {
        OpContext {
            pc,
            gtid: tid,
            ltid: tid & 31,
        }
    }

    #[test]
    fn loop_iterator_becomes_predictable() {
        // The paper's canonical example: a loop increment produces nearby
        // values; after warm-up the carry pattern repeats and ST² stops
        // mispredicting.
        let mut adder = SpeculativeAdder::st2(SliceLayout::INT64);
        let c = ctx(5, 0);
        let mut late_mispredicts = 0u64;
        for i in 0..1000u64 {
            let out = adder.add(&c, i, 1, false);
            assert_eq!(out.sum, i + 1);
            if i >= 16 && out.mispredicted {
                late_mispredicts += 1;
            }
        }
        // Carries only change when i crosses a 256 boundary: at most a few
        // mispredictions after warm-up.
        assert!(
            late_mispredicts <= 8,
            "expected near-perfect prediction, got {late_mispredicts} late misses"
        );
    }

    #[test]
    fn static_zero_mispredicts_full_carry_chains() {
        // Subtraction with a >= b >= 0 runs the carry all the way to the
        // top slice (a + !b + 1 wraps), so staticZero mispredicts every op
        // while ST2 learns the stable pattern after one miss.
        let mut zero = SpeculativeAdder::new(SliceLayout::INT64, SpeculationConfig::static_zero());
        let mut st2 = SpeculativeAdder::st2(SliceLayout::INT64);
        let c = ctx(9, 3);
        for i in 0..500u64 {
            let (a, b) = (i + 10, 3u64);
            let oz = zero.add(&c, a, b, true);
            let os = st2.add(&c, a, b, true);
            assert_eq!(oz.sum, a - b);
            assert_eq!(os.sum, a - b);
        }
        assert!(zero.stats().misprediction_rate() > 0.9);
        assert!(st2.stats().misprediction_rate() < 0.2);
    }

    #[test]
    fn st2_beats_valhalla_on_mixed_carry_patterns() {
        // A stable *mixed* per-slice pattern (carries in the low three
        // boundaries only) cannot be represented by VaLHALLA's single
        // broadcast bit, but per-slice history captures it exactly.
        let mut st2 = SpeculativeAdder::st2(SliceLayout::INT64);
        let mut val = SpeculativeAdder::new(SliceLayout::INT64, SpeculationConfig::valhalla());
        for i in 0..2000u64 {
            let t = (i % 32) as u32;
            // PC 1: small positive values, no carries.
            let _ = st2.add(&ctx(1, t), i % 50, 3, false);
            let _ = val.add(&ctx(1, t), i % 50, 3, false);
            // PC 2: 0xFFFFFF + 1 — carries exactly at boundaries 0..2.
            let _ = st2.add(&ctx(2, t), 0xFF_FFFF, 1, false);
            let _ = val.add(&ctx(2, t), 0xFF_FFFF, 1, false);
        }
        assert!(
            st2.stats().misprediction_rate() < val.stats().misprediction_rate(),
            "st2 {} !< valhalla {}",
            st2.stats().misprediction_rate(),
            val.stats().misprediction_rate()
        );
        assert!(st2.stats().misprediction_rate() < 0.05);
    }

    #[test]
    fn replay_matches_add() {
        let mut a1 = SpeculativeAdder::st2(SliceLayout::INT64);
        let mut a2 = SpeculativeAdder::st2(SliceLayout::INT64);
        let rec = AddRecord {
            ctx: ctx(4, 2),
            a: 1000,
            b: 999,
            sub: true,
            width: WidthClass::Int64,
        };
        let o1 = a1.replay(&rec);
        let o2 = a2.add(&rec.ctx, 1000, 999, true);
        assert_eq!(o1, o2);
        assert_eq!(o1.sum, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut adder = SpeculativeAdder::st2(SliceLayout::INT64);
        for i in 0..10u64 {
            let _ = adder.add(&ctx(0, 0), i, i, false);
        }
        let s = adder.stats();
        assert_eq!(s.ops, 10);
        assert_eq!(s.slices_cycle1, 80);
        assert_eq!(s.static_boundaries + s.dynamic_boundaries, 70);
        adder.reset_stats();
        assert_eq!(adder.stats().ops, 0);
    }

    #[test]
    fn mantissa_layouts_work() {
        let mut a = SpeculativeAdder::st2(SliceLayout::MANT24);
        let out = a.add(&ctx(0, 0), 0x7f_ffff, 1, false);
        assert_eq!(out.sum, 0x80_0000);
        let mut d = SpeculativeAdder::st2(SliceLayout::MANT53);
        let out = d.add(&ctx(0, 0), (1 << 53) - 1, 1, false);
        assert_eq!(out.sum, 1 << 53);
    }
}
