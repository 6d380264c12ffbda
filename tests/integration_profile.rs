//! Cross-crate integration for the warp-stall attribution profiler:
//! issue-slot accounting reconciles exactly against the clock at every
//! issue width, the per-PC hotspot table accumulates order-independently, and
//! the JSON kernel profile of a real run carries its counters.

use proptest::prelude::*;
use st2::prelude::*;
use st2::telemetry::json::{self, Value};
use st2::telemetry::profile::{ALL_STALL_REASONS, NUM_STALL_REASONS};
use st2::telemetry::CycleProfile;

fn profiled_run(spec: &KernelSpec, cfg: &GpuConfig) -> (TimedOutput, KernelProfile) {
    let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
    let mut mem = spec.memory.clone();
    let out = run_timed_with(
        &spec.program,
        spec.launch,
        &mut mem,
        cfg,
        RunOptions::with_telemetry(&mut tele),
    );
    spec.verify(&mem)
        .unwrap_or_else(|e| panic!("{} failed verification: {e}", spec.name));
    let profile = KernelProfile::capture(&tele, spec.name, Some(&spec.program));
    (out, profile)
}

#[test]
fn stall_counters_reconcile_at_every_issue_width() {
    let spec = st2::kernels::pathfinder::build(Scale::Test);
    for width in [1u32, 2, 4] {
        for st2_on in [false, true] {
            let mut cfg = GpuConfig::scaled(2).with_issue_width(width);
            if st2_on {
                cfg = cfg.with_st2();
            }
            let (out, profile) = profiled_run(&spec, &cfg);
            for (i, sm) in profile.sms.iter().enumerate() {
                assert_eq!(
                    sm.cycles, out.cycles,
                    "width {width} st2 {st2_on}: SM{i} cycle coverage"
                );
                assert_eq!(
                    sm.slots,
                    out.cycles * u64::from(width),
                    "width {width} st2 {st2_on}: SM{i} slot total"
                );
                // The acceptance identity: attributed stalls fill exactly
                // the slots that did not issue.
                assert_eq!(
                    sm.stalled(),
                    sm.slots - sm.issued,
                    "width {width} st2 {st2_on}: SM{i} stall sum != cycles x width - issued"
                );
                debug_assert!(sm.fetch_oob == 0, "SM{i}: out-of-range fetches");
            }
        }
    }
}

#[test]
fn st2_runs_attribute_adder_repair_stalls() {
    let spec = st2::kernels::pathfinder::build(Scale::Test);
    let (_, baseline) = profiled_run(&spec, &GpuConfig::scaled(2));
    let (_, st2) = profiled_run(&spec, &GpuConfig::scaled(2).with_st2());
    let repair = |p: &KernelProfile| p.total().stalls[StallReason::AdderRepair.index()];
    assert_eq!(
        repair(&baseline),
        0,
        "baseline has no speculation to repair"
    );
    assert!(
        repair(&st2) > 0,
        "ST2 mispredicts on pathfinder must surface as AdderRepair stalls"
    );
    // Hotspots carry the adder's per-PC accuracy join.
    assert!(
        st2.pcs
            .iter()
            .any(|r| r.adder_ops > 0 && r.accuracy() < 1.0),
        "some hot PC mispredicts"
    );
}

#[test]
fn occupancy_timeline_accounts_every_slot() {
    let spec = st2::kernels::histogram::build(Scale::Test);
    let cfg = GpuConfig::scaled(2).with_st2();
    let (out, profile) = profiled_run(&spec, &cfg);
    assert!(!profile.occupancy.is_empty(), "timeline has intervals");
    let total_slots: u64 = profile.occupancy.iter().map(|p| p.total_slots).sum();
    let issued_slots: u64 = profile.occupancy.iter().map(|p| p.issued_slots).sum();
    assert_eq!(
        total_slots,
        out.cycles * u64::from(cfg.issue_width) * u64::from(cfg.num_sms),
        "interval slot totals cover the whole run"
    );
    assert_eq!(issued_slots, out.activity.warp_instructions);
    for pair in profile.occupancy.windows(2) {
        assert!(pair[0].cycle < pair[1].cycle, "intervals strictly ordered");
    }
}

#[test]
fn kernel_profile_json_round_trips_from_a_real_run() {
    let spec = st2::kernels::sortnets::build_k1(Scale::Test);
    let cfg = GpuConfig::scaled(2).with_st2();
    let (_, profile) = profiled_run(&spec, &cfg);
    let doc = json::parse(&profile.to_json()).expect("profile JSON parses");
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let rows = |key: &str| doc.get(key).and_then(Value::as_array).expect(key);
    assert_eq!(num(&doc, "version"), Some(5.0));
    assert_eq!(doc.get("kernel").and_then(Value::as_str), Some(spec.name));
    assert_eq!(num(&doc, "cycles"), Some(profile.cycles as f64));
    let mem = doc.get("mem").expect("mem object");
    assert_eq!(
        num(mem, "partitions"),
        Some(f64::from(profile.mem.partitions))
    );
    assert_eq!(
        num(mem, "xbar_wait_cycles"),
        Some(profile.mem.xbar_wait_cycles as f64)
    );
    let fills = profile.mem.part_fills.iter();
    let fills = Value::Array(fills.map(|&f| Value::Number(f as f64)).collect());
    assert_eq!(mem.get("part_fills"), Some(&fills));
    let (sm, want) = (&rows("sms")[0], &profile.sms[0]);
    assert_eq!(num(sm, "slots"), Some(want.slots as f64));
    assert_eq!(num(sm, "issued"), Some(want.issued as f64));
    for r in ALL_STALL_REASONS {
        let n = want.stalls[r.index()];
        let got = sm.get("stalls").and_then(|s| num(s, r.name()));
        assert_eq!(got, (n > 0).then_some(n as f64), "SM0 {}", r.name());
    }
    let i = profile
        .pcs
        .iter()
        .position(|r| r.label.is_some())
        .expect("at least one disassembled hot instruction");
    let pc = &rows("pcs")[i];
    assert_eq!(num(pc, "pc"), Some(f64::from(profile.pcs[i].pc)));
    assert_eq!(
        pc.get("label").and_then(Value::as_str),
        profile.pcs[i].label.as_deref()
    );
    assert_eq!(num(pc, "issued"), Some(profile.pcs[i].issued as f64));
    assert_eq!(doc.get("energy"), None, "an unpriced capture has no energy");
    // The renderer names the kernel and the breakdown.
    let text = profile.render(5);
    assert!(text.contains(&format!("kernel profile: {}", spec.name)));
    assert!(text.contains("stall breakdown"));
}

proptest! {
    // Committing the same per-SM cycle scratches in any order must yield
    // bit-identical SM profiles, per-PC tables and occupancy rows: the
    // event-driven driver commits a parked SM's window when it wakes,
    // not in lockstep order.
    #[test]
    fn pc_table_merge_is_order_independent(
        cells in prop::collection::vec(
            (0usize..4, 0u32..8, 0usize..NUM_STALL_REASONS, 1u64..4, 0u32..3),
            1..32,
        ),
        rotate in 0usize..32,
    ) {
        let build = |rot: usize| {
            let mut order = cells.clone();
            let n = order.len();
            order.rotate_left(rot % n);
            let mut tele = Telemetry::for_run(4, TelemetryConfig::default());
            for &(sm, pc, reason, dt, issued) in &order {
                let mut cp = CycleProfile {
                    issued,
                    active_warps: issued + 1,
                    eligible_warps: issued,
                    ..CycleProfile::default()
                };
                for i in 0..issued {
                    cp.pc_issued.push(pc + i);
                }
                let r = ALL_STALL_REASONS[reason];
                cp.slot_stalls[r.index()] += 1;
                cp.pc_stalls.push((pc, r));
                tele.profile_commit(sm, dt, &cp);
            }
            tele.finalize(1024);
            KernelProfile::capture(&tele, "order", None)
        };
        let a = build(0);
        let b = build(rotate);
        prop_assert_eq!(&a.sms, &b.sms);
        prop_assert_eq!(&a.pcs, &b.pcs);
        prop_assert_eq!(a.occupancy.len(), 1);
        prop_assert_eq!(&a.occupancy, &b.occupancy);
    }
}
