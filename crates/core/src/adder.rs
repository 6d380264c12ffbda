//! [`SpeculativeAdder`]: the complete ST² adder — predictor, Peek, slice
//! engine and statistics — behind one `add` call, and the free functions
//! around the same slice engine: [`execute_op_with_sink`] for one observed
//! operation against a caller's predictor and [`execute_st2_warp_op`] for
//! all the lanes of one warp instruction through ST²'s Carry Register
//! File.

use crate::bits::SliceLayout;
use crate::config::{RecomputePolicy, SpeculationConfig};
use crate::crf::{CarryRegisterFile, CRF_BITS_PER_LANE, CRF_LANES};
use crate::event::{AddRecord, LaneAdd, OpContext};
use crate::peek::PeekOutcome;
use crate::predictor::{Predictor, PredictorActivity};
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

/// A stateful speculative adder: one speculation context (predictor and
/// statistics) that serves adds of every width, the way one CRF serves an
/// SM's ALUs, FPUs and DPUs alike. The design-space exploration in
/// [`crate::dse`] replays recorded streams through one of these per
/// design point.
///
/// ```
/// use st2_core::{OpContext, SliceLayout, SpeculativeAdder};
/// let mut adder = SpeculativeAdder::st2();
/// let ctx = OpContext::default();
/// let out = adder.add(&ctx, SliceLayout::INT64, 2, 3, false);
/// assert_eq!(out.sum, 5);
/// let out = adder.add(&ctx, SliceLayout::INT64, 10, 3, true);
/// assert_eq!(out.sum, 7);
/// ```
#[derive(Debug, Clone)]
pub struct SpeculativeAdder {
    config: SpeculationConfig,
    predictor: Predictor,
    stats: AdderStats,
}

impl SpeculativeAdder {
    /// Creates an adder for an arbitrary speculation configuration.
    #[must_use]
    pub fn new(config: SpeculationConfig) -> Self {
        SpeculativeAdder {
            config,
            predictor: Predictor::from_config(&config),
            stats: AdderStats::default(),
        }
    }

    /// Creates an adder with the paper's final ST² configuration
    /// (`Ltid+Prev+ModPC4+Peek`).
    #[must_use]
    pub fn st2() -> Self {
        Self::new(SpeculationConfig::st2())
    }

    /// The speculation configuration.
    #[must_use]
    pub(crate) fn config(&self) -> &SpeculationConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &AdderStats {
        &self.stats
    }

    /// Performs `a + b` (or `a − b` when `sub`) on an adder sliced as
    /// `layout`, returning the exact result together with the speculation
    /// outcome, and updating history and statistics.
    pub fn add(
        &mut self,
        ctx: &OpContext,
        layout: SliceLayout,
        a: u64,
        b: u64,
        sub: bool,
    ) -> AddOutcome {
        self.replay_prepared(ctx, &prepare(layout, a, b, sub))
    }

    /// Replays a recorded add event on the layout of its width class
    /// (sign-extension already encoded in the record).
    pub fn replay(&mut self, record: &AddRecord) -> AddOutcome {
        self.add(
            &record.ctx,
            record.width.layout(),
            record.a,
            record.b,
            record.sub,
        )
    }

    /// Replays one operation whose configuration-independent half `prep`
    /// is already computed.
    ///
    /// Always inlined: the sweep in [`crate::dse`] calls this once per
    /// record and design point, and left out of line it made a `dse`
    /// benchmark pass about 20 % slower.
    #[inline(always)]
    pub(crate) fn replay_prepared(&mut self, ctx: &OpContext, prep: &PreparedAdd) -> AddOutcome {
        execute_prepared(
            &mut self.predictor,
            &self.config,
            ctx,
            prep,
            &mut self.stats,
            &mut NullSink,
        )
    }
}

/// One speculative operation against an externally owned predictor,
/// observed by `sink`: the sink sees the completed outcome and the
/// history-port activity of this one operation (one or two calls through
/// the `dyn` sink, made whether or not it is [`EventSink::enabled`]).
///
/// This is the per-lane reference for [`execute_st2_warp_op`].
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
/// second caller of the adder internals ([`execute_st2_warp_op`]) made it
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

/// Runs the adds of one warp instruction at `pc` through ST²'s speculative
/// adders and the SM's Carry Register File, and returns whether any lane
/// mispredicted.
///
/// ST²'s choices are fixed: every lane speculates with Peek, recomputes
/// under [`RecomputePolicy::CutAtStaticPeek`] and writes its true carries
/// back only when it mispredicted. `lanes` holds the lanes that reached
/// an adder, in lane order; each reads and updates its cell of `pc`'s row
/// in place, so lane *k* updates before lane *k + 1* predicts, exactly as
/// [`execute_op_with_sink`] under [`SpeculationConfig::st2`] would run
/// them one by one. Each lane counts one history read, and one write if
/// it wrote back. The statistics build up in a local block that is folded
/// into `stats` at the end, and `sink` hears of each lane only when it is
/// [`EventSink::enabled`].
pub fn execute_st2_warp_op<S: EventSink + ?Sized>(
    crf: &mut CarryRegisterFile,
    layout: SliceLayout,
    pc: u32,
    lanes: &[LaneAdd],
    stats: &mut AdderStats,
    sink: &mut S,
) -> bool {
    debug_assert!(usize::from(layout.boundaries()) <= CRF_BITS_PER_LANE);
    let row = crf.row_mut(pc);
    let observe = sink.enabled();
    let mut tally = AdderStats::default();
    let mut any = false;
    for lane in lanes {
        let cell = &mut row[lane.lane as usize % CRF_LANES];
        let prep = prepare(layout, lane.a, lane.b, lane.sub);
        let eval = speculate(
            &prep,
            u64::from(*cell),
            prep.peek,
            RecomputePolicy::CutAtStaticPeek,
        );
        if eval.mispredicted {
            *cell = eval.true_carries as u8;
        }
        let activity = PredictorActivity {
            reads: 1,
            writes: u64::from(eval.mispredicted),
        };
        count(&mut tally, layout, prep.peek, &eval, activity);
        any |= eval.mispredicted;
        if observe {
            report(
                sink,
                &lane.ctx(pc),
                layout,
                &outcome(&eval, prep.peek),
                activity,
            );
        }
    }
    stats.merge(&tally);
    any
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
        let mut adder = SpeculativeAdder::st2();
        let c = ctx(5, 0);
        let mut late_mispredicts = 0u64;
        for i in 0..1000u64 {
            let out = adder.add(&c, SliceLayout::INT64, i, 1, false);
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
        let mut zero = SpeculativeAdder::new(SpeculationConfig::static_zero());
        let mut st2 = SpeculativeAdder::st2();
        let c = ctx(9, 3);
        for i in 0..500u64 {
            let (a, b) = (i + 10, 3u64);
            let oz = zero.add(&c, SliceLayout::INT64, a, b, true);
            let os = st2.add(&c, SliceLayout::INT64, a, b, true);
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
        let mut st2 = SpeculativeAdder::st2();
        let mut val = SpeculativeAdder::new(SpeculationConfig::valhalla());
        for i in 0..2000u64 {
            let t = (i % 32) as u32;
            // PC 1: small positive values, no carries.
            let _ = st2.add(&ctx(1, t), SliceLayout::INT64, i % 50, 3, false);
            let _ = val.add(&ctx(1, t), SliceLayout::INT64, i % 50, 3, false);
            // PC 2: 0xFFFFFF + 1 — carries exactly at boundaries 0..2.
            let _ = st2.add(&ctx(2, t), SliceLayout::INT64, 0xFF_FFFF, 1, false);
            let _ = val.add(&ctx(2, t), SliceLayout::INT64, 0xFF_FFFF, 1, false);
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
        let mut a1 = SpeculativeAdder::st2();
        let mut a2 = SpeculativeAdder::st2();
        let rec = AddRecord {
            ctx: ctx(4, 2),
            a: 1000,
            b: 999,
            sub: true,
            width: WidthClass::Int64,
        };
        let o1 = a1.replay(&rec);
        let o2 = a2.add(&rec.ctx, SliceLayout::INT64, 1000, 999, true);
        assert_eq!(o1, o2);
        assert_eq!(o1.sum, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut adder = SpeculativeAdder::st2();
        for i in 0..10u64 {
            let _ = adder.add(&ctx(0, 0), SliceLayout::INT64, i, i, false);
        }
        let s = adder.stats();
        assert_eq!(s.ops, 10);
        assert_eq!(s.slices_cycle1, 80);
        assert_eq!(s.static_boundaries + s.dynamic_boundaries, 70);
    }

    #[test]
    fn mantissa_layouts_work() {
        // One speculation context serves every width.
        let mut a = SpeculativeAdder::st2();
        let out = a.add(&ctx(0, 0), SliceLayout::MANT24, 0x7f_ffff, 1, false);
        assert_eq!(out.sum, 0x80_0000);
        let out = a.add(&ctx(0, 0), SliceLayout::MANT53, (1 << 53) - 1, 1, false);
        assert_eq!(out.sum, 1 << 53);
        assert_eq!(a.stats().slices_cycle1, 3 + 7);
    }
}
