//! Cross-crate determinism on real suite kernels, baseline and ST²
//! alike: timed runs satisfy each kernel's CPU reference at every
//! partition count, their profiles reconcile against the clock, and the
//! wake calendar is **bit-identical** to the step-everything reference
//! (`run_timed_lockstep`) — same cycles, same activity counters, same
//! memory, same telemetry, from the 4-SM harness up to the full 80-SM,
//! 8-partition chip. That contract is what lets every timed run use
//! the calendar.

use st2::prelude::*;
use st2::sim::run_timed_lockstep;
use SchedulerKind::{Gto, RoundRobin};

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
        let fill = &tele.histograms().fill_latency;
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
            tele.counters().mshr_wait_cycles,
            g.mshr_wait_cycles,
            "{name}: mshr_wait_cycles"
        );
        assert_eq!(
            tele.counters().xbar_wait_cycles,
            0,
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
        let fill = &tele.histograms().fill_latency;
        assert!(fill.count() > 0, "{name}: no fills recorded");
        assert!(fill.p95() > 0, "{name}: fill p95 is zero under starvation");
        assert!(
            !tele.mem_series().is_empty(),
            "{name}: empty memory timeline"
        );
        assert!(
            tele.mem_occupied_cycles() > 0,
            "{name}: MSHR occupancy integral is zero"
        );
    }
}

/// Runs `program` under the wake calendar and under the lockstep
/// reference, each with an observing collector, and asserts the
/// calendar is invisible in every observable: cycles, activity
/// counters, results memory, latency histograms, memory and energy
/// timelines and per-PC profiles. Returns the calendar run's profile.
fn assert_calendar_matches_lockstep(
    ctx: &str,
    name: &str,
    program: &Program,
    launch: LaunchConfig,
    memory: &MemImage,
    cfg: &GpuConfig,
) -> KernelProfile {
    let observe = |lockstep: bool| {
        let mut mem = memory.clone();
        let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
        let run = if lockstep {
            run_timed_lockstep
        } else {
            run_timed_with
        };
        let out = run(
            program,
            launch,
            &mut mem,
            cfg,
            RunOptions::with_telemetry(&mut tele),
        );
        let profile = KernelProfile::capture(&tele, name, Some(program));
        (out, mem.as_bytes().to_vec(), tele, profile)
    };
    let (ref_out, ref_mem, ref_tele, ref_profile) = observe(true);
    let (out, mem, tele, profile) = observe(false);
    assert_eq!(out.cycles, ref_out.cycles, "{ctx}: cycles");
    assert_eq!(out.activity, ref_out.activity, "{ctx}: activity");
    assert_eq!(mem, ref_mem, "{ctx}: results memory");
    assert_eq!(
        tele.counters(),
        ref_tele.counters(),
        "{ctx}: telemetry counters"
    );
    assert_eq!(
        tele.histograms(),
        ref_tele.histograms(),
        "{ctx}: latency histograms"
    );
    assert_eq!(
        tele.mem_series(),
        ref_tele.mem_series(),
        "{ctx}: memory timeline"
    );
    assert_eq!(
        tele.mem_occupied_cycles(),
        ref_tele.mem_occupied_cycles(),
        "{ctx}: MSHR occupancy integral"
    );
    // Parked SMs credit their slept cycles through `replay_parked`, so
    // the integer energy timeline — SM-resident cycles included — must
    // not see the calendar either.
    assert_eq!(
        tele.energy_series(),
        ref_tele.energy_series(),
        "{ctx}: energy timeline"
    );
    assert_eq!(
        tele.energy_sm_cycles(),
        ref_tele.energy_sm_cycles(),
        "{ctx}: SM-resident cycle integral"
    );
    assert_eq!(
        tele.series(),
        ref_tele.series(),
        "{ctx}: core interval rows"
    );
    assert_eq!(profile, ref_profile, "{ctx}: profile");
    profile
}

/// A grid-stride gather with one 64-thread block per SM: thread `g`
/// sums `table[(i * threads + g) mod entries]` over four iterations, so
/// every SM misses into every L2 partition.
fn chip_gather(num_sms: u32) -> (Program, LaunchConfig, MemImage) {
    const ENTRIES: i64 = 1 << 14;
    let launch = LaunchConfig::new(num_sms, 64);
    let threads = launch.total_threads() as i64;
    let mut k = KernelBuilder::new("gather");
    let g = k.special(Special::GlobalTid);
    let acc = k.reg();
    k.mov(acc, Operand::Imm(0));
    k.for_range(Operand::Imm(0), Operand::Imm(4), |k, i| {
        let addr = k.reg();
        k.imul(addr, i.into(), Operand::Imm(threads));
        k.iadd(addr, addr.into(), g.into());
        k.iand(addr, addr.into(), Operand::Imm(ENTRIES - 1));
        k.ishl(addr, addr.into(), Operand::Imm(3));
        let v = k.reg();
        k.ld_global_u64(v, addr, 0);
        k.iadd(acc, acc.into(), v.into());
    });
    let out = k.reg();
    k.ishl(out, g.into(), Operand::Imm(3));
    k.st_global_u64(acc.into(), out, ENTRIES * 8);
    let mut mem = MemImage::new(ENTRIES as u64 * 8 + launch.total_threads() * 8);
    for i in 0..ENTRIES as u64 {
        mem.write_u64(i * 8, i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    (k.finish(), launch, mem)
}

#[test]
fn calendars_are_bit_identical_to_lockstep() {
    // Suite kernels on the starved config at 1 and 4 L2 partitions.
    for name in ["pathfinder", "histo_K1"] {
        let spec = spec_by_name(name);
        for parts in [1u32, 4] {
            assert_calendar_matches_lockstep(
                &format!("{name}: parts={parts}"),
                name,
                &spec.program,
                spec.launch,
                &spec.memory,
                &tight_partitioned_cfg(parts),
            );
        }
    }
    // The whole 80-SM, 8-partition chip, every SM holding a block.
    let cfg = GpuConfig::titan_v_full();
    let (program, launch, memory) = chip_gather(cfg.num_sms);
    let profile = assert_calendar_matches_lockstep(
        "gather: titan_v_full",
        "gather",
        &program,
        launch,
        &memory,
        &cfg,
    );
    assert!(
        profile.sms.iter().all(|sm| sm.issued > 0),
        "gather left an SM idle"
    );
    assert_eq!(profile.mem.part_fills.len(), 8, "gather missed a partition");
    assert!(
        profile.mem.part_fills.iter().all(|&f| f > 0),
        "gather missed a partition: {:?}",
        profile.mem.part_fills
    );
}

#[test]
fn starved_config_engages_the_wake_calendar() {
    // Equivalence alone could hold vacuously (nothing ever sleeps).
    // On a memory-starved config the wake calendar must park SMs and
    // wake them, while the lockstep reference reports zero for both
    // with the same timing, activity and results.
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
    assert_eq!(on.cycles, reference.cycles, "calendar changed timing");
    assert_eq!(on.activity, reference.activity, "calendar changed activity");
    assert_eq!(on_mem, mem.as_bytes(), "calendar changed results");
    assert!(
        on.sm_sleep_cycles > 0,
        "starved run never parked an SM on the wake calendar"
    );
    assert!(on.ff_wakeups > 0, "parked SMs were never woken");
    assert_eq!(reference.sm_sleep_cycles, 0);
    assert_eq!(reference.ff_wakeups, 0);
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

/// One scheduler/barrier golden run: both schedulers at issue widths 4
/// and 1 on the harness machine with ST² on, over two barrier kernels
/// (pathfinder, walsh_K1) and a throttling shared-memory kernel
/// (histo_K1). The lockstep reference shares `SmCore::step_cycle` with
/// the calendar, so it cannot catch a change to warp selection, stall
/// attribution or barrier release; these constants can. They were
/// captured before the SM step was rewritten to decode each instruction
/// once per run and to keep per-slot block counters. `stalls` is the
/// device-wide issue-slot stall breakdown in `ALL_STALL_REASONS` order.
struct Golden {
    kernel: &'static str,
    scheduler: SchedulerKind,
    issue_width: u32,
    cycles: u64,
    warp_instructions: u64,
    stall_cycles: u64,
    mem_throttle: u64,
    stalls: [u64; 15],
}

#[rustfmt::skip]
const SCHEDULER_GOLDENS: [Golden; 12] = [
    Golden { kernel: "pathfinder", scheduler: Gto, issue_width: 4, cycles: 9004, warp_instructions: 2240, stall_cycles: 362, mem_throttle: 0,
        stalls: [6324, 26794, 592, 62, 0, 0, 0, 0, 0, 0, 0, 2, 0, 36014, 72036] },
    Golden { kernel: "pathfinder", scheduler: Gto, issue_width: 1, cycles: 9068, warp_instructions: 2240, stall_cycles: 338, mem_throttle: 0,
        stalls: [2014, 13364, 488, 28, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 18136] },
    Golden { kernel: "pathfinder", scheduler: RoundRobin, issue_width: 4, cycles: 8990, warp_instructions: 2240, stall_cycles: 336, mem_throttle: 0,
        stalls: [6153, 26794, 765, 4, 0, 0, 0, 0, 0, 0, 0, 2, 0, 35958, 71924] },
    Golden { kernel: "pathfinder", scheduler: RoundRobin, issue_width: 1, cycles: 9147, warp_instructions: 2240, stall_cycles: 338, mem_throttle: 0,
        stalls: [2714, 13334, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 18294] },
    Golden { kernel: "walsh_K1", scheduler: Gto, issue_width: 4, cycles: 1835, warp_instructions: 1632, stall_cycles: 134, mem_throttle: 0,
        stalls: [5364, 6616, 144, 400, 0, 0, 0, 492, 0, 20, 0, 8, 0, 0, 14684] },
    Golden { kernel: "walsh_K1", scheduler: Gto, issue_width: 1, cycles: 1991, warp_instructions: 1632, stall_cycles: 134, mem_throttle: 0,
        stalls: [538, 1590, 112, 76, 0, 0, 0, 16, 0, 0, 0, 18, 0, 0, 3982] },
    Golden { kernel: "walsh_K1", scheduler: RoundRobin, issue_width: 4, cycles: 1792, warp_instructions: 1632, stall_cycles: 134, mem_throttle: 0,
        stalls: [5162, 6616, 136, 136, 0, 0, 0, 580, 0, 62, 0, 8, 0, 0, 14340] },
    Golden { kernel: "walsh_K1", scheduler: RoundRobin, issue_width: 1, cycles: 2003, warp_instructions: 1632, stall_cycles: 134, mem_throttle: 0,
        stalls: [650, 1628, 0, 0, 0, 0, 0, 96, 0, 0, 0, 0, 0, 0, 4006] },
    Golden { kernel: "histo_K1", scheduler: Gto, issue_width: 4, cycles: 19056, warp_instructions: 1956, stall_cycles: 1, mem_throttle: 66,
        stalls: [4624, 67037, 4, 0, 0, 0, 0, 2, 0, 215, 1635, 751, 0, 0, 228672] },
    Golden { kernel: "histo_K1", scheduler: Gto, issue_width: 1, cycles: 19304, warp_instructions: 1956, stall_cycles: 1, mem_throttle: 76,
        stalls: [2322, 13919, 1, 0, 0, 0, 0, 0, 0, 0, 776, 330, 0, 0, 57912] },
    Golden { kernel: "histo_K1", scheduler: RoundRobin, issue_width: 4, cycles: 19138, warp_instructions: 1956, stall_cycles: 1, mem_throttle: 66,
        stalls: [4715, 67034, 4, 0, 0, 0, 0, 2, 0, 256, 1636, 949, 0, 0, 229656] },
    Golden { kernel: "histo_K1", scheduler: RoundRobin, issue_width: 1, cycles: 19152, warp_instructions: 1956, stall_cycles: 1, mem_throttle: 67,
        stalls: [56, 16575, 0, 0, 0, 0, 0, 0, 0, 85, 432, 48, 0, 0, 57456] },
];

/// The harness machine a scheduler golden ran on.
fn golden_cfg(g: &Golden) -> GpuConfig {
    GpuConfig::scaled(4)
        .with_st2()
        .with_scheduler(g.scheduler)
        .with_issue_width(g.issue_width)
}

/// Checks a golden run's verification and activity constants.
fn assert_golden_run(g: &Golden, ctx: &str, spec: &KernelSpec, out: &TimedOutput, mem: &MemImage) {
    spec.verify(mem)
        .unwrap_or_else(|e| panic!("{ctx}: failed verification: {e}"));
    let a = &out.activity;
    assert_eq!(out.cycles, g.cycles, "{ctx}: cycles");
    assert_eq!(a.warp_instructions, g.warp_instructions, "{ctx}: insts");
    assert_eq!(a.stall_cycles, g.stall_cycles, "{ctx}: stall_cycles");
    assert_eq!(a.mem_throttle, g.mem_throttle, "{ctx}: mem_throttle");
}

#[test]
fn scheduler_and_barrier_paths_match_goldens() {
    for g in &SCHEDULER_GOLDENS {
        let ctx = format!("{} {:?} width {}", g.kernel, g.scheduler, g.issue_width);
        let spec = spec_by_name(g.kernel);
        let cfg = golden_cfg(g);
        let mut mem = spec.memory.clone();
        let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
        let out = run_timed_with(
            &spec.program,
            spec.launch,
            &mut mem,
            &cfg,
            RunOptions::with_telemetry(&mut tele),
        );
        assert_golden_run(g, &ctx, &spec, &out, &mem);
        let profile = KernelProfile::capture(&tele, g.kernel, Some(&spec.program));
        assert_eq!(profile.total().stalls, g.stalls, "{ctx}: slot stalls");
    }
}

#[test]
fn unprofiled_scheduler_paths_match_goldens() {
    // The same runs without a telemetry collector: the SM step then
    // skips every warp whose issue gate is shut and stops at the issue
    // cap, a path the profiled test never takes.
    for g in &SCHEDULER_GOLDENS {
        let ctx = format!(
            "unprofiled {} {:?} width {}",
            g.kernel, g.scheduler, g.issue_width
        );
        let spec = spec_by_name(g.kernel);
        let mut mem = spec.memory.clone();
        let out = run_timed(&spec.program, spec.launch, &mut mem, &golden_cfg(g));
        assert_golden_run(g, &ctx, &spec, &out, &mem);
    }
}

#[test]
fn chip_gather_work_counters_are_pinned() {
    // The engine's own work on the calendar path, which does not depend
    // on the host: SM steps run, and scheduler checks that read a warp
    // rather than its issue gate. One block per SM is the gather of
    // `calendars_are_bit_identical_to_lockstep`; eight put 16 warps on
    // every SM, each of which a scan without gates would read every
    // step until the issue cap.
    let cfg = GpuConfig::titan_v_full();
    for (blocks, sm_steps, warp_checks) in
        [(cfg.num_sms, 6400, 7680), (8 * cfg.num_sms, 38180, 61836)]
    {
        let (program, launch, mut mem) = chip_gather(blocks);
        let out = run_timed(&program, launch, &mut mem, &cfg);
        assert_eq!(
            (out.sm_steps, out.warp_checks),
            (sm_steps, warp_checks),
            "{blocks} blocks: (sm_steps, warp_checks)"
        );
        assert!(
            out.warp_checks < 8 * out.sm_steps,
            "{blocks} blocks: {} warp checks over {} SM steps",
            out.warp_checks,
            out.sm_steps
        );
    }
}
