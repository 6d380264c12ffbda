//! Stream-level behaviour tests for the speculation machinery: realistic
//! operand sequences, update-policy effects, history depth, and the
//! floating-point mantissa path.

use st2_core::float::{f32_add_operands, f64_add_operands};
use st2_core::{
    AddRecord, OpContext, PcIndex, SliceLayout, SpeculationConfig, SpeculativeAdder, ThreadKey,
    UpdatePolicy, WidthClass,
};

fn ctx(pc: u32, lane: u32) -> OpContext {
    OpContext {
        pc,
        gtid: lane,
        ltid: lane & 31,
    }
}

/// An adder under `config` that has replayed `records`.
fn replayed(config: SpeculationConfig, records: &[AddRecord]) -> SpeculativeAdder {
    let mut adder = SpeculativeAdder::new(config);
    for rec in records {
        let _ = adder.replay(rec);
    }
    adder
}

/// A stream of FP32 accumulations as an FPU would see them.
fn fp_accumulation_records(n: usize) -> Vec<AddRecord> {
    let mut records = Vec::new();
    let mut acc = 0.0f32;
    for i in 0..n {
        let x = (i as f32).sin() * 0.25 + 1.0;
        if let Some(m) = f32_add_operands(acc, x) {
            records.push(AddRecord {
                ctx: ctx(3, (i % 32) as u32),
                a: m.a,
                b: m.b,
                sub: m.sub,
                width: WidthClass::Mant24,
            });
        }
        acc += x;
    }
    records
}

#[test]
fn fp_accumulation_is_highly_predictable() {
    // A running sum's mantissa alignment changes slowly; ST² should learn
    // the carry pattern quickly.
    let records = fp_accumulation_records(5_000);
    let st2 = replayed(SpeculationConfig::st2(), &records);
    let zero = replayed(SpeculationConfig::static_zero(), &records);
    // Mantissa bits churn more than integer iterators, so the absolute
    // rate is moderate — but history must clearly beat static guessing.
    assert!(
        st2.stats().misprediction_rate() < 0.45,
        "FP accumulation miss rate {:.3} too high",
        st2.stats().misprediction_rate()
    );
    assert!(
        st2.stats().misprediction_rate() < zero.stats().misprediction_rate(),
        "history {:.3} must beat staticZero {:.3}",
        st2.stats().misprediction_rate(),
        zero.stats().misprediction_rate()
    );
    assert!(st2.stats().ops > 4_500);
}

#[test]
fn f64_mantissa_stream_flows_through_mant53_adders() {
    let mut adder = SpeculativeAdder::st2();
    let mut acc = 1.0f64;
    for i in 0..2_000 {
        let x = f64::from(i) * 1e-3 + 1.0;
        if let Some(m) = f64_add_operands(acc, x) {
            let out = adder.add(&ctx(9, 0), SliceLayout::MANT53, m.a, m.b, m.sub);
            // The sliced result matches plain masked arithmetic.
            let expect = if m.sub {
                m.a.wrapping_sub(m.b)
            } else {
                m.a.wrapping_add(m.b)
            } & SliceLayout::MANT53.value_mask();
            assert_eq!(out.sum, expect);
        }
        acc += x;
    }
    assert!(adder.stats().ops > 1_900);
    assert!(adder.stats().misprediction_rate() < 0.9);
}

#[test]
fn update_on_mispredict_keeps_stale_entries_until_needed() {
    // With OnMispredict, a correct prediction round leaves the table
    // untouched; switching the stream's carry pattern forces exactly one
    // miss before the entry is refreshed.
    let cfg = SpeculationConfig {
        update: UpdatePolicy::OnMispredict,
        peek: false,
        pc_index: PcIndex::ModPc(4),
        thread_key: ThreadKey::Ltid,
        ..SpeculationConfig::st2()
    };
    let mut adder = SpeculativeAdder::new(cfg);
    let c = ctx(2, 0);
    // Phase 1: stable all-carry pattern (a - b with a > b).
    for i in 0..100u64 {
        let _ = adder.add(&c, SliceLayout::INT64, 1_000 + i, 3, true);
    }
    let miss_phase1 = adder.stats().mispredicted_ops;
    assert!(
        miss_phase1 <= 5,
        "phase 1 should stabilise, got {miss_phase1}"
    );
    // Phase 2: stable no-carry pattern (small adds).
    for i in 0..100u64 {
        let _ = adder.add(&c, SliceLayout::INT64, i % 10, 3, false);
    }
    let miss_phase2 = adder.stats().mispredicted_ops - miss_phase1;
    assert!(
        (1..=5).contains(&miss_phase2),
        "pattern switch should cost a handful of misses, got {miss_phase2}"
    );
}

#[test]
fn always_update_writes_more_but_predicts_no_better_on_stable_streams() {
    let on_miss = SpeculationConfig::st2();
    let always = SpeculationConfig {
        update: UpdatePolicy::Always,
        ..on_miss
    };
    let stream: Vec<AddRecord> = (0..2_000u64)
        .map(|i| AddRecord::int64(5, (i % 32) as u32, (i % 32) as u32, i as i64, 1, false))
        .collect();
    let a = replayed(on_miss, &stream);
    let b = replayed(always, &stream);
    assert!(b.stats().history_writes > a.stats().history_writes * 5);
    let diff = (a.stats().misprediction_rate() - b.stats().misprediction_rate()).abs();
    assert!(
        diff < 0.02,
        "policies should tie on a stable stream: {diff}"
    );
}

#[test]
fn history_depth_slows_adaptation_on_alternating_patterns() {
    // A pattern that flips every 4 ops: depth-1 re-learns immediately;
    // depth-4 majority needs more samples to flip its vote.
    let mk = |depth: u8| SpeculationConfig {
        history_depth: depth,
        peek: false,
        ..SpeculationConfig::st2()
    };
    let mut stream = Vec::new();
    for block in 0..200u64 {
        for i in 0..4u64 {
            let sub = block % 2 == 0;
            stream.push(AddRecord::int64(
                7,
                0,
                0,
                (1_000 + block * 4 + i) as i64,
                3,
                sub,
            ));
        }
    }
    let d1 = replayed(mk(1), &stream);
    let d4 = replayed(mk(4), &stream);
    assert!(
        d1.stats().misprediction_rate() <= d4.stats().misprediction_rate() + 1e-9,
        "depth 1 ({:.3}) should adapt at least as fast as depth 4 ({:.3})",
        d1.stats().misprediction_rate(),
        d4.stats().misprediction_rate()
    );
}

#[test]
fn lane_sharing_accelerates_warm_up() {
    // 32 lanes execute the same instruction on identical data; with Ltid
    // keying each lane trains its own entry, but record order (lane 0
    // first) means lane 0 misses once and so does every other lane —
    // while a Shared table lets lane 0's miss warm everyone.
    let stream: Vec<AddRecord> = (0..32u32)
        .map(|lane| AddRecord::int64(4, lane, lane, 5_000, 7, true))
        .collect();
    let shared = SpeculationConfig {
        thread_key: ThreadKey::Shared,
        peek: false,
        ..SpeculationConfig::st2()
    };
    let ltid = SpeculationConfig {
        thread_key: ThreadKey::Ltid,
        peek: false,
        ..SpeculationConfig::st2()
    };
    let s = replayed(shared, &stream);
    let l = replayed(ltid, &stream);
    assert_eq!(s.stats().mispredicted_ops, 1, "shared: one cold miss total");
    assert_eq!(
        l.stats().mispredicted_ops,
        32,
        "ltid: one cold miss per lane"
    );
}

#[test]
fn mixed_width_interleaving_shares_one_crf() {
    // Integer and FP records with the same PC row interleave through one
    // adder, as one CRF serves an SM's ALUs and FPUs.
    let mut records = Vec::new();
    for i in 0..500u64 {
        records.push(AddRecord::int64(0x12, 0, 0, i as i64, 1, false));
        if let Some(m) = f32_add_operands(i as f32, 1.5) {
            records.push(AddRecord {
                ctx: ctx(0x22, 0), // same CRF row (0x12 & 0xF == 0x22 & 0xF)
                a: m.a,
                b: m.b,
                sub: m.sub,
                width: WidthClass::Mant24,
            });
        }
    }
    let adder = replayed(SpeculationConfig::st2(), &records);
    // Aliasing across the two instruction kinds raises misses but must
    // never threaten correctness (enforced by the slice engine's asserts) and
    // the rate stays bounded.
    assert!(adder.stats().ops >= 1_000);
    assert!(adder.stats().misprediction_rate() < 0.6);
}
