//! Property-based tests for the core speculation invariants.

use proptest::prelude::*;
use st2_core::adder::{execute_op_with_sink, execute_st2_warp_op};
use st2_core::bits::{carry_chain, effective_operands};
use st2_core::crf::{CRF_LANES, CRF_ROWS};
use st2_core::peek::{peek, PeekOutcome};
use st2_core::predictor::Predictor;
use st2_core::slice::evaluate;
use st2_core::{
    AddOutcome, AdderStats, CarryRegisterFile, EventSink, LaneAdd, OpContext, PcIndex,
    RecomputePolicy, SliceLayout, SpeculationConfig, SpeculativeAdder, ThreadKey, WidthClass,
};

fn layouts() -> impl Strategy<Value = SliceLayout> {
    prop_oneof![
        Just(SliceLayout::INT64),
        Just(SliceLayout::INT32),
        Just(SliceLayout::MANT24),
        Just(SliceLayout::MANT53),
        Just(SliceLayout::new(4, 4)),
        Just(SliceLayout::new(3, 5)),
    ]
}

fn policies() -> impl Strategy<Value = RecomputePolicy> {
    prop_oneof![
        Just(RecomputePolicy::CutAtStaticPeek),
        Just(RecomputePolicy::PropagateToTop),
    ]
}

proptest! {
    /// The central theorem of variable-latency speculative adders: for any
    /// operands, any prediction, any peek state and any recompute policy,
    /// the result equals two's-complement addition/subtraction.
    #[test]
    fn speculation_never_corrupts_results(
        layout in layouts(),
        a: u64,
        b: u64,
        sub: bool,
        pred: u64,
        use_peek: bool,
        policy in policies(),
    ) {
        let (ae, be, _) = effective_operands(layout, a, b, sub);
        let pk = if use_peek { peek(layout, ae, be) } else { PeekOutcome::default() };
        let eval = evaluate(layout, a, b, sub, pred, pk, policy);
        let expect = if sub { a.wrapping_sub(b) } else { a.wrapping_add(b) }
            & layout.value_mask();
        prop_assert_eq!(eval.sum, expect);
        prop_assert!(eval.cycles == 1 || eval.cycles == 2);
        prop_assert_eq!(eval.cycles == 2, eval.mispredicted);
    }

    /// Statically peeked boundaries always match the true carry chain.
    #[test]
    fn peek_is_sound(layout in layouts(), a: u64, b: u64, cin: bool) {
        let m = layout.value_mask();
        let pk = peek(layout, a & m, b & m);
        let (_, carries) = carry_chain(layout, a & m, b & m, cin);
        prop_assert_eq!(
            pk.static_bits & pk.static_mask,
            carries & pk.static_mask,
            "a statically determined carry disagreed with the truth"
        );
    }

    /// Perfect predictions (the true carries) always give one cycle.
    #[test]
    fn oracle_predictions_are_single_cycle(
        layout in layouts(),
        a: u64,
        b: u64,
        sub: bool,
    ) {
        let (ae, be, cin0) = effective_operands(layout, a, b, sub);
        let (_, carries) = carry_chain(layout, ae, be, cin0);
        let eval = evaluate(
            layout, a, b, sub, carries, PeekOutcome::default(),
            RecomputePolicy::CutAtStaticPeek,
        );
        prop_assert!(!eval.mispredicted);
        prop_assert_eq!(eval.recomputed_slices(), 0);
    }

    /// The recompute wave under CutAtStaticPeek is never larger than
    /// under PropagateToTop (the cut only removes work).
    #[test]
    fn peek_cut_never_recomputes_more(
        layout in layouts(),
        a: u64,
        b: u64,
        sub: bool,
        pred: u64,
    ) {
        let (ae, be, _) = effective_operands(layout, a, b, sub);
        let pk = peek(layout, ae, be);
        let cut = evaluate(layout, a, b, sub, pred, pk, RecomputePolicy::CutAtStaticPeek);
        let full = evaluate(layout, a, b, sub, pred, pk, RecomputePolicy::PropagateToTop);
        prop_assert!(cut.recomputed_slices() <= full.recomputed_slices());
        prop_assert_eq!(cut.mispredicted, full.mispredicted);
        prop_assert_eq!(cut.sum, full.sum);
    }

    /// Any speculation configuration processes any stream correctly and
    /// keeps its statistics consistent.
    #[test]
    fn adder_statistics_are_consistent(
        ops in prop::collection::vec((any::<u64>(), any::<u64>(), any::<bool>(), 0u32..64, 0u32..128), 1..200),
        peek_on: bool,
        thread_key in prop_oneof![Just(ThreadKey::Shared), Just(ThreadKey::Gtid), Just(ThreadKey::Ltid)],
        pc_bits in 0u8..8,
    ) {
        let cfg = SpeculationConfig {
            peek: peek_on,
            thread_key,
            pc_index: PcIndex::ModPc(pc_bits),
            ..SpeculationConfig::st2()
        };
        let mut adder = SpeculativeAdder::new(cfg);
        for &(a, b, sub, lane, pc) in &ops {
            let ctx = OpContext { pc, gtid: lane, ltid: lane & 31 };
            let out = adder.add(&ctx, SliceLayout::INT64, a, b, sub);
            let expect = if sub { a.wrapping_sub(b) } else { a.wrapping_add(b) };
            prop_assert_eq!(out.sum, expect);
        }
        let s = adder.stats();
        prop_assert_eq!(s.ops, ops.len() as u64);
        prop_assert!(s.mispredicted_ops <= s.ops);
        prop_assert_eq!(s.extra_cycles, s.mispredicted_ops);
        prop_assert_eq!(s.static_boundaries + s.dynamic_boundaries, 7 * s.ops);
        prop_assert!(s.slices_recomputed <= 7 * s.mispredicted_ops);
        prop_assert!(s.misprediction_rate() >= 0.0 && s.misprediction_rate() <= 1.0);
        if !peek_on {
            prop_assert_eq!(s.static_boundaries, 0);
        }
    }

    /// The carry chain helper agrees with 128-bit arithmetic for every
    /// layout.
    #[test]
    fn carry_chain_matches_wide_arithmetic(
        layout in layouts(),
        a: u64,
        b: u64,
        cin: bool,
    ) {
        let m = layout.value_mask();
        let (sum, carries) = carry_chain(layout, a & m, b & m, cin);
        let wide = (a & m) as u128 + (b & m) as u128 + u128::from(cin);
        prop_assert_eq!(sum, (wide as u64) & m);
        let final_carry = carries >> (layout.count() - 1) & 1;
        prop_assert_eq!(final_carry, (wide >> layout.total_bits()) as u64 & 1);
    }
}

/// What a sink hears of one operation, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heard {
    Add(OpContext, SliceLayout, AddOutcome),
    History(u64, u64),
}

/// A sink that records every per-operation report, and says it observes
/// only when `enabled`.
struct Recorder {
    enabled: bool,
    heard: Vec<Heard>,
}

impl Recorder {
    fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            heard: Vec::new(),
        }
    }
}

impl EventSink for Recorder {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn adder_op(&mut self, ctx: &OpContext, layout: SliceLayout, outcome: &AddOutcome) {
        self.heard.push(Heard::Add(*ctx, layout, *outcome));
    }

    fn history_activity(&mut self, reads: u64, writes: u64) {
        self.heard.push(Heard::History(reads, writes));
    }
}

/// One warp instruction: its PC, datapath and lanes (lane ids in order,
/// possibly repeated; global ids from a small pool, so they repeat too).
type WarpInst = (u32, WidthClass, Vec<LaneAdd>);

fn warp_insts() -> impl Strategy<Value = Vec<WarpInst>> {
    let operand = prop_oneof![
        any::<u64>(),
        0u64..300,
        (0u64..300).prop_map(|v| v.wrapping_neg())
    ];
    let lane = (0u32..6, 0u64..10, operand.clone(), operand, any::<bool>()).prop_map(
        |(lane, gtid, a, b, sub)| LaneAdd {
            lane,
            gtid,
            a,
            b,
            sub,
        },
    );
    let width = prop_oneof![
        Just(WidthClass::Int64),
        Just(WidthClass::Mant24),
        Just(WidthClass::Mant53),
    ];
    let inst =
        (0u32..40, width, prop::collection::vec(lane, 1..9)).prop_map(|(pc, w, mut lanes)| {
            lanes.sort_by_key(|l| l.lane);
            (pc, w, lanes)
        });
    prop::collection::vec(inst, 1..7)
}

proptest! {
    /// `execute_st2_warp_op` equals a loop of per-lane
    /// `execute_op_with_sink` calls under `SpeculationConfig::st2()`: the
    /// same outcomes and history activity reported in the same order, the
    /// same statistics and return value, and every CRF cell holding what
    /// the per-lane history table predicts for it. A disabled sink hears
    /// nothing.
    #[test]
    fn warp_op_matches_per_lane_loop(insts in warp_insts()) {
        let config = SpeculationConfig::st2();
        let mut per_lane = Predictor::from_config(&config);
        let mut per_lane_stats = AdderStats::default();
        let mut per_lane_sink = Recorder::new(true);
        let mut warp = CarryRegisterFile::new();
        let mut warp_stats = AdderStats::default();
        let mut warp_sink = Recorder::new(true);
        let mut quiet = CarryRegisterFile::new();
        let mut quiet_stats = AdderStats::default();
        let mut quiet_sink = Recorder::new(false);
        for (pc, width, lanes) in &insts {
            let layout = width.layout();
            let mut any = false;
            for l in lanes {
                any |= execute_op_with_sink(
                    &mut per_lane, &config, layout, &l.ctx(*pc), l.a, l.b, l.sub,
                    &mut per_lane_stats, &mut per_lane_sink,
                ).mispredicted;
            }
            let warp_any = execute_st2_warp_op(
                &mut warp, layout, *pc, lanes, &mut warp_stats, &mut warp_sink,
            );
            let quiet_any = execute_st2_warp_op(
                &mut quiet, layout, *pc, lanes, &mut quiet_stats, &mut quiet_sink,
            );
            prop_assert_eq!(warp_any, any, "pc {}", pc);
            prop_assert_eq!(quiet_any, any);
        }
        prop_assert_eq!(&warp_sink.heard, &per_lane_sink.heard);
        prop_assert!(quiet_sink.heard.is_empty(), "a disabled sink was called");
        prop_assert_eq!(warp_stats, per_lane_stats);
        prop_assert_eq!(quiet_stats, per_lane_stats);
        prop_assert_eq!(&quiet, &warp);
        let Predictor::Prev { table, .. } = &per_lane else {
            panic!("ST² predicts from a Prev history table");
        };
        for pc in 0..CRF_ROWS as u32 {
            for ltid in 0..CRF_LANES as u32 {
                let ctx = OpContext { pc, gtid: ltid, ltid };
                prop_assert_eq!(
                    u64::from(warp.row(pc)[ltid as usize]), table.predict(&ctx),
                    "CRF cell differs at pc {} lane {}", pc, ltid
                );
            }
        }
    }
}
