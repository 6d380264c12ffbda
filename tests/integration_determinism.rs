//! Cross-crate determinism on real suite kernels, baseline and ST²
//! alike: timed runs satisfy each kernel's CPU reference at every
//! partition count, their profiles reconcile against the clock, and the
//! wake calendars are **bit-identical** to the step-everything reference
//! (`run_timed_lockstep`) — same cycles, same activity counters, same
//! memory, same telemetry. That contract is what lets every timed run
//! use both calendars.

use st2::prelude::*;
use st2::sim::run_timed_lockstep;

/// A cross-section of the suite: memory-bound (pathfinder), shared-memory
/// heavy (histo_K1), branch-structured (sortNets_K1) and ALU-bound
/// (qrng_K1).
const KERNELS: [&str; 4] = ["pathfinder", "histo_K1", "sortNets_K1", "qrng_K1"];

fn spec_by_name(name: &str) -> KernelSpec {
    suite(Scale::Test)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("suite kernel {name} missing"))
}

fn timed(spec: &KernelSpec, cfg: &GpuConfig) -> (TimedOutput, Vec<u8>) {
    let mut mem = spec.memory.clone();
    let out = run_timed(&spec.program, spec.launch, &mut mem, cfg);
    (out, mem.as_bytes().to_vec())
}

/// A deliberately starved memory subsystem: a tiny MSHR file plus
/// single-request L2/DRAM bandwidth keeps the in-flight tracking, FIFO
/// queueing and throttle back-pressure paths hot in every drain.
fn tight_memory_cfg() -> GpuConfig {
    GpuConfig::scaled(4)
        .with_mshr_entries(4)
        .with_dram_bw(1)
        .with_l2_bw(1)
}

/// [`tight_memory_cfg`] sharded across `parts` L2 partitions. `l2_bw`
/// scales with the partition count only because `validate` requires at
/// least one L2 slot per partition — each partition still owns exactly
/// one request per cycle, so every partition stays starved.
fn tight_partitioned_cfg(parts: u32) -> GpuConfig {
    GpuConfig::scaled(4)
        .with_mshr_entries(4)
        .with_dram_bw(1)
        .with_l2_bw(parts)
        .with_l2_partitions(parts)
}

/// Runs every kernel in [`KERNELS`] under each config and checks the
/// results memory against the kernel's CPU reference.
fn assert_verifies_under(cfgs: &[GpuConfig]) {
    for name in KERNELS {
        let spec = spec_by_name(name);
        for cfg in cfgs {
            let mut mem = spec.memory.clone();
            let _ = run_timed(&spec.program, spec.launch, &mut mem, cfg);
            spec.verify(&mem).unwrap_or_else(|e| {
                panic!(
                    "{name} failed verification at {} partitions: {e}",
                    cfg.l2_partitions
                )
            });
        }
    }
}

#[test]
fn timed_runs_satisfy_cpu_reference() {
    // Plain, ST² and starved configs: whatever the back-pressure, the
    // results memory must match the kernel's CPU reference.
    assert_verifies_under(&[
        GpuConfig::scaled(4),
        GpuConfig::scaled(4).with_st2(),
        tight_memory_cfg(),
    ]);
}

#[test]
fn partitioned_runs_satisfy_cpu_reference() {
    // Starved configs at 1/2/4 L2 partitions: whatever the crossbar
    // topology, the results memory must match the kernel's CPU reference.
    assert_verifies_under(&[
        tight_partitioned_cfg(1),
        tight_partitioned_cfg(2),
        tight_partitioned_cfg(4),
    ]);
}

#[test]
fn single_partition_reproduces_pre_crossbar_counters() {
    // Golden equivalence: with `l2_partitions = 1` the crossbar is
    // bypassed and the sharded memory subsystem must reproduce the
    // monolithic pre-refactor model bit-for-bit. These constants were
    // captured on the starved config before the partition refactor
    // landed; a drift here means the P=1 degenerate path changed
    // behaviour, not just shape.
    struct Golden {
        name: &'static str,
        cycles: u64,
        warp_instructions: u64,
        l1_accesses: u64,
        l1_misses: u64,
        l2_accesses: u64,
        l2_misses: u64,
        dram_accesses: u64,
        mshr_merges: u64,
        mem_throttle: u64,
        bw_starved_cycles: u64,
        noc_flits: u64,
        fill_count: u64,
        fill_p50: u64,
        fill_p95: u64,
        fill_max: u64,
        mshr_occupied_cycles: u64,
        mshr_wait_cycles: u64,
    }
    let goldens = [
        Golden {
            name: "pathfinder",
            cycles: 8975,
            warp_instructions: 2240,
            l1_accesses: 68,
            l1_misses: 68,
            l2_accesses: 68,
            l2_misses: 68,
            dram_accesses: 68,
            mshr_merges: 0,
            mem_throttle: 0,
            bw_starved_cycles: 38,
            noc_flits: 340,
            fill_count: 68,
            fill_p50: 423,
            fill_p95: 423,
            fill_max: 423,
            mshr_occupied_cycles: 26928,
            mshr_wait_cycles: 0,
        },
        Golden {
            name: "histo_K1",
            cycles: 43200,
            warp_instructions: 1956,
            l1_accesses: 8320,
            l1_misses: 384,
            l2_accesses: 384,
            l2_misses: 384,
            dram_accesses: 384,
            mshr_merges: 0,
            mem_throttle: 654,
            bw_starved_cycles: 38,
            noc_flits: 1920,
            fill_count: 384,
            fill_p50: 1023,
            fill_p95: 3778,
            fill_max: 3778,
            mshr_occupied_cycles: 161323,
            mshr_wait_cycles: 249419,
        },
    ];
    let cfg = tight_partitioned_cfg(1);
    assert_eq!(
        cfg,
        tight_memory_cfg().with_l2_partitions(1),
        "tight_partitioned_cfg(1) must equal the pre-refactor starved config"
    );
    for g in &goldens {
        let spec = spec_by_name(g.name);
        let mut mem = spec.memory.clone();
        let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
        let out = run_timed_with(
            &spec.program,
            spec.launch,
            &mut mem,
            &cfg,
            RunOptions::with_telemetry(&mut tele),
        );
        let name = g.name;
        let a = &out.activity;
        assert_eq!(out.cycles, g.cycles, "{name}: cycles");
        assert_eq!(a.warp_instructions, g.warp_instructions, "{name}: insts");
        assert_eq!(a.l1_accesses, g.l1_accesses, "{name}: l1_accesses");
        assert_eq!(a.l1_misses, g.l1_misses, "{name}: l1_misses");
        assert_eq!(a.l2_accesses, g.l2_accesses, "{name}: l2_accesses");
        assert_eq!(a.l2_misses, g.l2_misses, "{name}: l2_misses");
        assert_eq!(a.dram_accesses, g.dram_accesses, "{name}: dram_accesses");
        assert_eq!(a.mshr_merges, g.mshr_merges, "{name}: mshr_merges");
        assert_eq!(a.mem_throttle, g.mem_throttle, "{name}: mem_throttle");
        assert_eq!(
            a.bw_starved_cycles, g.bw_starved_cycles,
            "{name}: bw_starved_cycles"
        );
        assert_eq!(a.noc_flits, g.noc_flits, "{name}: noc_flits");
        assert_eq!(
            a.xbar_wait_cycles, 0,
            "{name}: single partition must never queue at the crossbar"
        );
        let r = tele.registry();
        let fill = r
            .histogram_by_name("mem.fill_latency")
            .expect("fill histogram");
        assert_eq!(fill.count(), g.fill_count, "{name}: fill count");
        assert_eq!(fill.p50(), g.fill_p50, "{name}: fill p50");
        assert_eq!(fill.p95(), g.fill_p95, "{name}: fill p95");
        assert_eq!(fill.max(), g.fill_max, "{name}: fill max");
        assert_eq!(
            tele.mem_occupied_cycles(),
            g.mshr_occupied_cycles,
            "{name}: MSHR occupancy integral"
        );
        assert_eq!(
            r.counter_by_name("mem.mshr_wait_cycles"),
            Some(g.mshr_wait_cycles),
            "{name}: mshr_wait_cycles"
        );
        assert_eq!(
            r.counter_by_name("mem.xbar_wait_cycles"),
            Some(0),
            "{name}: xbar_wait_cycles"
        );
    }
}

#[test]
fn profiles_reconcile_with_cycles() {
    for name in KERNELS {
        let spec = spec_by_name(name);
        for cfg in [
            GpuConfig::scaled(4),
            GpuConfig::scaled(4).with_st2(),
            tight_memory_cfg(),
        ] {
            let mut mem = spec.memory.clone();
            let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
            let out = run_timed_with(
                &spec.program,
                spec.launch,
                &mut mem,
                &cfg,
                RunOptions::with_telemetry(&mut tele),
            );
            let profile = KernelProfile::capture(&tele, name, Some(&spec.program));
            // Suite programs never run off the end of their instruction
            // stream; a nonzero count means a control-flow bug.
            debug_assert!(
                profile.total().fetch_oob == 0,
                "{name}: out-of-range fetches detected"
            );
            assert!(profile.reconciles(), "{name}: profile unbalanced");
            for sm in &profile.sms {
                assert_eq!(
                    sm.slots,
                    out.cycles * u64::from(cfg.issue_width),
                    "{name}: slot accounting diverged from cycles x issue_width"
                );
            }
        }
    }
}

#[test]
fn memory_bound_kernel_reacts_to_memory_knobs() {
    // The memory model must be load-bearing on a real suite kernel:
    // sgemm's tiled loads overlap on shared lines (nonzero MSHR merges)
    // and starving DRAM bandwidth costs cycles rather than being
    // absorbed by magic fixed latencies.
    let spec = spec_by_name("sgemm");
    let base = GpuConfig::scaled(4);
    let (full, _) = timed(&spec, &base);
    assert!(
        full.activity.mshr_merges > 0,
        "sgemm never merged a miss into an in-flight fill"
    );
    let (starved, _) = timed(&spec, &base.with_dram_bw(1).with_l2_bw(1));
    assert!(
        starved.cycles > full.cycles,
        "cutting DRAM bandwidth did not cost cycles ({} vs {})",
        starved.cycles,
        full.cycles
    );
}

#[test]
fn starved_memory_channels_are_populated() {
    // The request-lifecycle channels — log2 latency histograms, the MSHR
    // occupancy / L2 / DRAM interval timeline and the occupancy integral
    // — must actually fill under a starved memory subsystem, or the
    // calendar equivalence checks below would compare empty channels.
    let cfg = tight_memory_cfg();
    for name in KERNELS {
        let spec = spec_by_name(name);
        let mut mem = spec.memory.clone();
        let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
        run_timed_with(
            &spec.program,
            spec.launch,
            &mut mem,
            &cfg,
            RunOptions::with_telemetry(&mut tele),
        );
        let fill = tele
            .registry()
            .histogram_by_name("mem.fill_latency")
            .expect("fill latency histogram registered");
        assert!(fill.count() > 0, "{name}: no fills recorded");
        assert!(fill.p95() > 0, "{name}: fill p95 is zero under starvation");
        assert!(
            !tele.mem_series().points().is_empty(),
            "{name}: empty memory timeline"
        );
        assert!(
            tele.mem_occupied_cycles() > 0,
            "{name}: MSHR occupancy integral is zero"
        );
    }
}

#[test]
fn calendars_are_bit_identical_to_lockstep() {
    // The wake calendars must be invisible in every observable: at
    // every l2_partitions setting the calendar run reproduces the
    // lockstep reference's cycles, activity counters, results memory,
    // latency histograms, memory timeline and per-PC profiles.
    for name in ["pathfinder", "histo_K1"] {
        let spec = spec_by_name(name);
        for parts in [1u32, 4] {
            let cfg = tight_partitioned_cfg(parts);
            let observe = |lockstep: bool| {
                let mut mem = spec.memory.clone();
                let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
                let run = if lockstep {
                    run_timed_lockstep
                } else {
                    run_timed_with
                };
                let out = run(
                    &spec.program,
                    spec.launch,
                    &mut mem,
                    &cfg,
                    RunOptions::with_telemetry(&mut tele),
                );
                let profile = KernelProfile::capture(&tele, name, Some(&spec.program));
                (out, mem.as_bytes().to_vec(), tele, profile)
            };
            let (ref_out, ref_mem, ref_tele, ref_profile) = observe(true);
            let (out, mem, tele, profile) = observe(false);
            let ctx = format!("{name}: parts={parts}");
            assert_eq!(out.cycles, ref_out.cycles, "{ctx}: cycles");
            assert_eq!(out.activity, ref_out.activity, "{ctx}: activity");
            assert_eq!(mem, ref_mem, "{ctx}: results memory");
            assert_eq!(
                tele.registry().counters(),
                ref_tele.registry().counters(),
                "{ctx}: telemetry counters"
            );
            assert_eq!(
                tele.registry().histograms(),
                ref_tele.registry().histograms(),
                "{ctx}: latency histograms"
            );
            assert_eq!(
                tele.mem_series().points(),
                ref_tele.mem_series().points(),
                "{ctx}: memory timeline"
            );
            assert_eq!(
                tele.mem_occupied_cycles(),
                ref_tele.mem_occupied_cycles(),
                "{ctx}: MSHR occupancy integral"
            );
            // Parked SMs credit their slept cycles through
            // `replay_parked`, so the integer energy timeline — SM-
            // resident cycles included — must not see the calendar
            // either.
            assert_eq!(
                tele.energy_series().points(),
                ref_tele.energy_series().points(),
                "{ctx}: energy timeline"
            );
            assert_eq!(
                tele.energy_sm_cycles(),
                ref_tele.energy_sm_cycles(),
                "{ctx}: SM-resident cycle integral"
            );
            assert_eq!(
                tele.series().column("adder.accuracy"),
                ref_tele.series().column("adder.accuracy"),
                "{ctx}: accuracy series"
            );
            assert_eq!(profile, ref_profile, "{ctx}: profile");
        }
    }
}

/// Runs `pathfinder` on the memory-starved config with the calendars
/// and under the lockstep reference, asserting the two agree on timing,
/// activity and results, and returns (calendar run, reference run).
fn starved_calendar_and_reference() -> (TimedOutput, TimedOutput) {
    let spec = spec_by_name("pathfinder");
    let cfg = tight_memory_cfg();
    let (on, on_mem) = timed(&spec, &cfg);
    let mut mem = spec.memory.clone();
    let reference = run_timed_lockstep(
        &spec.program,
        spec.launch,
        &mut mem,
        &cfg,
        RunOptions::default(),
    );
    assert_eq!(on.cycles, reference.cycles, "calendars changed timing");
    assert_eq!(
        on.activity, reference.activity,
        "calendars changed activity"
    );
    assert_eq!(on_mem, mem.as_bytes(), "calendars changed results");
    (on, reference)
}

#[test]
fn starved_config_engages_the_wake_calendar() {
    // Equivalence alone could hold vacuously (nothing ever sleeps).
    // On a memory-starved config the wake calendar must park SMs and
    // wake them, while the lockstep reference reports zero for both
    // with the same timing.
    let (on, reference) = starved_calendar_and_reference();
    assert!(
        on.sm_sleep_cycles > 0,
        "starved run never parked an SM on the wake calendar"
    );
    assert!(on.ff_wakeups > 0, "parked SMs were never woken");
    assert_eq!(reference.sm_sleep_cycles, 0);
    assert_eq!(reference.ff_wakeups, 0);
}

#[test]
fn starved_config_engages_the_memory_calendar() {
    // Same vacuity guard for the memory side: on a starved config most
    // cycles have no due fill and no fresh request, so the calendar
    // must actually skip drain/retire rounds, while the lockstep
    // reference reports zero skips with the same timing.
    let (on, reference) = starved_calendar_and_reference();
    assert!(
        on.mem_skip_cycles > 0,
        "starved run never skipped a memory round"
    );
    assert_eq!(reference.mem_skip_cycles, 0);
}

#[test]
fn sleep_accounting_is_exact_at_termination_while_parked() {
    // A starved run ends with most SMs parked (each SM that drains its
    // last block goes non-resident and sleeps until the global exit):
    // the exit-time replay must credit slept cycles only up to the
    // final cycle, never past it. Two integrals pin that from both
    // sides: the driver-side activity split and the telemetry-side
    // SM-resident energy integral each must equal exactly
    // `num_sms × cycles`.
    let spec = spec_by_name("pathfinder");
    let cfg = tight_memory_cfg();
    let mut mem = spec.memory.clone();
    let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
    let out = run_timed_with(
        &spec.program,
        spec.launch,
        &mut mem,
        &cfg,
        RunOptions::with_telemetry(&mut tele),
    );
    assert!(
        out.sm_sleep_cycles > 0,
        "run never parked an SM — the exit replay is untested"
    );
    let expect = u64::from(cfg.num_sms) * out.cycles;
    assert_eq!(
        out.activity.active_sm_cycles + out.activity.idle_sm_cycles,
        expect,
        "driver activity split drifted from num_sms × cycles"
    );
    assert_eq!(
        tele.energy_sm_cycles(),
        expect,
        "SM-resident energy integral drifted from num_sms × cycles"
    );
}
