//! Partitioned-L2 behaviour on real suite kernels: the address-decoded
//! crossbar must actually shard traffic (balanced per-partition fills),
//! attribute queueing honestly (nonzero crossbar waits when injection
//! ports are shallow), and respond to the topology knobs.

use st2::prelude::*;

fn spec_by_name(name: &str) -> KernelSpec {
    suite(Scale::Test)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("suite kernel {name} missing"))
}

/// A starved, sharded memory subsystem with single-entry injection
/// ports: every partition owns one L2 slot per cycle and the shallow
/// crossbar queue forces visible port back-pressure. The MSHR file is
/// kept deep on purpose — with a tiny file, requests serialize on
/// MSHR-full before they can ever pile up at a port.
fn starved_partitioned_cfg(parts: u32) -> GpuConfig {
    GpuConfig::scaled(4)
        .with_mshr_entries(32)
        .with_dram_bw(1)
        .with_l2_bw(parts)
        .with_l2_partitions(parts)
        .with_xbar_queue(1)
}

#[test]
fn starved_partitions_attribute_crossbar_waits_and_balance_fills() {
    // histo_K1's binned scatters and kmeans_K1's per-feature strides
    // both burst several same-partition segments per cycle — enough to
    // back up a single-entry port — while still spreading their fills
    // across all partitions. (pathfinder's perfectly strided rows never
    // collide: one segment per cycle per partition, zero port waits.)
    for name in ["histo_K1", "kmeans_K1"] {
        let spec = spec_by_name(name);
        let cfg = starved_partitioned_cfg(4);
        let mut mem = spec.memory.clone();
        let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
        let out = run_timed_with(
            &spec.program,
            spec.launch,
            &mut mem,
            &cfg,
            RunOptions::with_telemetry(&mut tele),
        );
        spec.verify(&mem)
            .unwrap_or_else(|e| panic!("{name} failed verification: {e}"));

        assert!(
            out.activity.xbar_wait_cycles > 0,
            "{name}: single-entry injection ports never queued a fill"
        );
        assert_eq!(
            tele.counters().xbar_wait_cycles,
            out.activity.xbar_wait_cycles,
            "{name}: telemetry and activity disagree on crossbar waits"
        );

        let fills = tele.part_fills();
        assert_eq!(fills.len(), 4, "{name}: fills not tracked per partition");
        let total: u64 = fills.iter().sum();
        assert_eq!(
            total, out.activity.l1_misses,
            "{name}: per-partition fills must sum to fresh L1 misses"
        );
        let fair = total / 4;
        for (p, &f) in fills.iter().enumerate() {
            assert!(
                f >= fair / 2 && f <= fair * 2,
                "{name}: partition {p} saw {f} of {total} fills (fair {fair})"
            );
        }

        let profile = KernelProfile::capture(&tele, name, Some(&spec.program));
        assert_eq!(profile.mem.partitions, 4, "{name}: profile partition count");
        assert_eq!(
            profile.mem.part_fills,
            fills.to_vec(),
            "{name}: profile fills mirror telemetry"
        );
        let imbalance = profile.mem.fill_imbalance();
        assert!(
            (1.0..2.0).contains(&imbalance),
            "{name}: fill imbalance {imbalance} outside the balanced band"
        );
    }
}

#[test]
fn deeper_crossbar_queues_reduce_port_waits() {
    // The queue-depth knob must be load-bearing: widening the injection
    // ports from 1 entry to effectively unbounded can only shrink the
    // cycles fills spend queued at a full port.
    let spec = spec_by_name("histo_K1");
    let shallow = {
        let (out, _) = run(&spec, &starved_partitioned_cfg(4));
        out.activity.xbar_wait_cycles
    };
    let deep = {
        let (out, _) = run(&spec, &starved_partitioned_cfg(4).with_xbar_queue(64));
        out.activity.xbar_wait_cycles
    };
    assert!(shallow > 0, "shallow ports never queued");
    assert!(
        deep < shallow,
        "deepening the crossbar queue did not reduce port waits ({deep} vs {shallow})"
    );
}

#[test]
fn single_partition_runs_carry_no_crossbar_state() {
    // With one partition the crossbar is bypassed entirely: no wait
    // cycles, and every fill lands in bank 0.
    let spec = spec_by_name("histo_K1");
    let cfg = starved_partitioned_cfg(1);
    let mut mem = spec.memory.clone();
    let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
    let out = run_timed_with(
        &spec.program,
        spec.launch,
        &mut mem,
        &cfg,
        RunOptions::with_telemetry(&mut tele),
    );
    assert_eq!(out.activity.xbar_wait_cycles, 0);
    assert_eq!(tele.part_fills().len(), 1);
    assert_eq!(tele.part_fills()[0], out.activity.l1_misses);
}

fn run(spec: &KernelSpec, cfg: &GpuConfig) -> (TimedOutput, Vec<u8>) {
    let mut mem = spec.memory.clone();
    let out = run_timed(&spec.program, spec.launch, &mut mem, cfg);
    (out, mem.as_bytes().to_vec())
}
