//! Cross-crate energy telemetry: the integer energy-event timeline must
//! be **bit-identical** to the lockstep reference at every partition
//! count, conserve its events against the run's
//! activity counters, and — once priced by the calibrated model — move
//! in the right direction when the memory knobs move.
//!
//! Pricing happens strictly at the reporting layer (`EnergyWeights` over
//! integer counts), so the first two properties are exact equalities,
//! not tolerances.

use st2::prelude::*;
use st2::sim::run_timed_lockstep;
use st2::telemetry::json::{self, Value};
use st2::telemetry::{EnergySummary, EnergyWeights};

fn spec_by_name(name: &str) -> KernelSpec {
    suite(Scale::Test)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("suite kernel {name} missing"))
}

/// A starved memory subsystem sharded across `parts` L2 partitions —
/// the same shape the determinism suite uses, so the energy matrix
/// covers the identical configurations.
fn tight_partitioned_cfg(parts: u32) -> GpuConfig {
    GpuConfig::scaled(4)
        .with_mshr_entries(4)
        .with_dram_bw(1)
        .with_l2_bw(parts)
        .with_l2_partitions(parts)
}

fn observe(spec: &KernelSpec, cfg: &GpuConfig) -> (TimedOutput, Telemetry) {
    observe_with(run_timed_with, spec, cfg)
}

fn observe_with(
    run: fn(&Program, LaunchConfig, &mut MemImage, &GpuConfig, RunOptions<'_>) -> TimedOutput,
    spec: &KernelSpec,
    cfg: &GpuConfig,
) -> (TimedOutput, Telemetry) {
    let mut mem = spec.memory.clone();
    let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
    let out = run(
        &spec.program,
        spec.launch,
        &mut mem,
        cfg,
        RunOptions::with_telemetry(&mut tele),
    );
    (out, tele)
}

/// Sums one energy-series column over all intervals. The per-interval
/// values are integer-valued deltas stored as exact f64s, so the sum is
/// exact and must land back on the run's cumulative counter.
fn column_total(tele: &Telemetry, col: usize) -> u64 {
    tele.energy_series()
        .points()
        .iter()
        .map(|p| p.values[col] as u64)
        .sum()
}

#[test]
fn energy_timeline_is_bit_identical_across_the_matrix() {
    // At {1,4} partitions: the energy timeline is pure integer counts,
    // and parked SMs credit their slept cycles on wake, so the calendar
    // run reproduces the lockstep reference bit for bit.
    for name in ["pathfinder", "histo_K1"] {
        let spec = spec_by_name(name);
        for parts in [1u32, 4] {
            let cfg = tight_partitioned_cfg(parts);
            let (_, ref_tele) = observe_with(run_timed_lockstep, &spec, &cfg);
            let (_, tele) = observe(&spec, &cfg);
            assert_eq!(
                tele.energy_series().points(),
                ref_tele.energy_series().points(),
                "{name}: energy timeline diverges at parts={parts}"
            );
        }
    }
}

#[test]
fn energy_timeline_conserves_run_totals() {
    // Interval deltas must sum back to the run's cumulative activity —
    // the identity that makes the timeline a lossless shard of the
    // counters rather than a sampled approximation. SM-resident
    // cycles must cover every SM for the full run, parked iterations
    // included (the `replay_parked` credit).
    for name in ["pathfinder", "histo_K1", "sgemm"] {
        let spec = spec_by_name(name);
        for parts in [1u32, 4] {
            let cfg = tight_partitioned_cfg(parts);
            let (out, tele) = observe(&spec, &cfg);
            let a = &out.activity;
            let ctx = format!("{name} parts={parts}");
            assert_eq!(column_total(&tele, 0), a.dram_accesses, "{ctx}: DRAM fills");
            assert_eq!(column_total(&tele, 2), a.mshr_merges, "{ctx}: MSHR merges");
            assert_eq!(column_total(&tele, 3), a.xbar_hops, "{ctx}: crossbar hops");
            assert_eq!(
                column_total(&tele, 4),
                a.write_allocates,
                "{ctx}: write-allocates"
            );
            assert_eq!(
                column_total(&tele, 5),
                a.warp_instructions,
                "{ctx}: instructions"
            );
            assert_eq!(
                column_total(&tele, 6),
                u64::from(cfg.num_sms) * out.cycles,
                "{ctx}: SM-resident cycles must cover every SM x every cycle"
            );
            assert_eq!(
                column_total(&tele, 6),
                tele.energy_sm_cycles(),
                "{ctx}: timeline drops SM cycles against the integral"
            );
            // A crossbar only exists with multiple partitions.
            if parts == 1 {
                assert_eq!(a.xbar_hops, 0, "{ctx}: hops counted without a crossbar");
            } else {
                assert!(a.xbar_hops > 0, "{ctx}: sharded fills never hopped");
            }
        }
    }
}

#[test]
fn starving_dram_bandwidth_raises_modeled_energy() {
    // Figure-7 direction check: halving `--dram-bw` on a starved config
    // lengthens the run, so background DRAM energy, queue-occupancy
    // energy and the static floor all grow — total modeled energy must
    // rise monotonically even though the fill *count* is bw-invariant.
    let spec = spec_by_name("sgemm");
    let weights = EnergyModel::characterized().interval_weights(1.2);
    let price = |dram_bw: u32| -> (u64, EnergySummary) {
        let cfg = GpuConfig::scaled(4)
            .with_mshr_entries(4)
            .with_l2_bw(2)
            .with_dram_bw(dram_bw);
        let (out, tele) = observe(&spec, &cfg);
        let mut profile = KernelProfile::capture(&tele, "sgemm", None);
        profile.attach_energy(&weights);
        (out.cycles, profile.energy.expect("priced summary"))
    };
    let (cycles_full, full) = price(2);
    let (cycles_half, half) = price(1);
    assert!(
        cycles_half > cycles_full,
        "halving DRAM bandwidth must cost cycles ({cycles_half} vs {cycles_full})"
    );
    assert!(
        half.total_nj > full.total_nj,
        "halving DRAM bandwidth must raise total energy ({} vs {} nJ)",
        half.total_nj,
        full.total_nj
    );
    assert!(
        half.dram_nj > full.dram_nj,
        "longer run must accrue more DRAM background energy ({} vs {} nJ)",
        half.dram_nj,
        full.dram_nj
    );
    assert!(
        half.static_nj > full.static_nj,
        "longer run must accrue more static energy ({} vs {} nJ)",
        half.static_nj,
        full.static_nj
    );
    assert!(full.total_nj > 0.0 && full.energy_per_instruction_pj > 0.0);
}

#[test]
fn sharding_the_l2_surfaces_crossbar_energy() {
    // The other figure-7 knob: the same kernel on 1 vs 4 partitions must
    // show zero vs nonzero crossbar-hop energy — partitioning is visible
    // in the component breakdown, not just in cycle counts.
    let spec = spec_by_name("pathfinder");
    let weights = EnergyModel::characterized().interval_weights(1.2);
    let price = |parts: u32| -> EnergySummary {
        let (_, tele) = observe(&spec, &tight_partitioned_cfg(parts));
        let mut profile = KernelProfile::capture(&tele, "pathfinder", None);
        profile.attach_energy(&weights);
        profile.energy.expect("priced summary")
    };
    let solo = price(1);
    let sharded = price(4);
    assert_eq!(solo.xbar_nj, 0.0, "single partition priced crossbar hops");
    assert!(
        sharded.xbar_nj > 0.0,
        "sharded fills must price crossbar-hop energy"
    );
}

#[test]
fn priced_profiles_round_trip_through_json() {
    // The v5 document carries the timeline and the priced summary; a
    // bare capture stays unpriced (`energy: None`).
    let spec = spec_by_name("pathfinder");
    let (_, tele) = observe(&spec, &tight_partitioned_cfg(4));
    let mut profile = KernelProfile::capture(&tele, "pathfinder", Some(&spec.program));
    assert!(profile.energy.is_none(), "capture must not price");
    assert!(
        !profile.energy_timeline.is_empty(),
        "capture must carry the energy timeline"
    );
    profile.attach_energy(&EnergyModel::characterized().interval_weights(1.2));
    let doc = json::parse(&profile.to_json()).expect("profile JSON parses");
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    assert_eq!(num(&doc, "version"), Some(5.0));
    assert_eq!(
        doc.get("kernel").and_then(Value::as_str),
        Some("pathfinder")
    );
    assert_eq!(num(&doc, "cycles"), Some(profile.cycles as f64));
    let mem = doc.get("mem").expect("mem object");
    assert_eq!(num(mem, "partitions"), Some(4.0));
    assert_eq!(
        num(mem, "xbar_wait_cycles"),
        Some(profile.mem.xbar_wait_cycles as f64)
    );
    let rows = |key: &str| doc.get(key).and_then(Value::as_array).expect(key);
    assert_eq!(
        num(&rows("sms")[0], "slots"),
        Some(profile.sms[0].slots as f64)
    );
    let i = profile
        .pcs
        .iter()
        .position(|r| r.label.is_some())
        .expect("a disassembled hot instruction");
    assert_eq!(
        rows("pcs")[i].get("label").and_then(Value::as_str),
        profile.pcs[i].label.as_deref()
    );
    let timeline = doc
        .get("energy_timeline")
        .and_then(Value::as_array)
        .expect("energy_timeline");
    assert_eq!(timeline.len(), profile.energy_timeline.len());
    let (first, want) = (&timeline[0], &profile.energy_timeline[0]);
    assert_eq!(num(first, "dram_fills"), Some(want.dram_fills as f64));
    assert_eq!(num(first, "sm_cycles"), Some(want.sm_cycles as f64));
    // Every priced field, bit-exact: the writer prints the shortest
    // decimal that reads back to the same f64.
    let e = doc.get("energy").expect("priced energy object");
    let priced = profile.energy.expect("priced");
    for (key, v) in [
        ("total_nj", priced.total_nj),
        ("dram_nj", priced.dram_nj),
        ("l2_nj", priced.l2_nj),
        ("mshr_nj", priced.mshr_nj),
        ("xbar_nj", priced.xbar_nj),
        ("write_alloc_nj", priced.write_alloc_nj),
        ("issue_nj", priced.issue_nj),
        ("static_nj", priced.static_nj),
        ("queue_nj", priced.queue_nj),
        ("peak_power_w", priced.peak_power_w),
        ("peak_power_cycle", priced.peak_power_cycle as f64),
        (
            "energy_per_instruction_pj",
            priced.energy_per_instruction_pj,
        ),
    ] {
        assert_eq!(num(e, key), Some(v), "{key}");
    }
}

#[test]
fn power_track_prices_nonzero_watts_under_load() {
    // The per-interval power track pairs with the memory deep-dive rows:
    // every completed interval of a starved run draws nonzero watts and
    // the weights table exposes the clock it priced with.
    let spec = spec_by_name("histo_K1");
    let weights: EnergyWeights = EnergyModel::characterized().interval_weights(1.2);
    assert!((weights.clock_ghz - 1.2).abs() < 1e-12);
    let (_, tele) = observe(&spec, &tight_partitioned_cfg(1));
    let profile = KernelProfile::capture(&tele, "histo_K1", None);
    let track = profile.power_timeline(&weights);
    assert!(!track.is_empty(), "starved run produced no power intervals");
    assert!(
        track.iter().all(|(_, w)| *w > 0.0),
        "an interval priced zero watts under load"
    );
}
