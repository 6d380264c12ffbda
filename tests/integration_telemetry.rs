//! Cross-crate integration: telemetry × simulator × exporters.
//!
//! Covers the observability acceptance points: the Chrome trace parses
//! back as JSON with the expected schema, the JSONL dump carries the
//! named metrics including a non-empty interval series of adder
//! prediction accuracy, telemetry (enabled or disabled) never changes
//! simulation results, and every exporter's bytes are pinned by digest.

use proptest::prelude::*;
use st2::prelude::*;
use st2::telemetry::{
    chrome, energy, json, jsonl, summary, EnergyWeights, Telemetry, TelemetryConfig,
};

fn traced_run(spec: &KernelSpec, cfg: &GpuConfig) -> (Telemetry, TimedOutput, Vec<u8>) {
    let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
    let mut mem = spec.memory.clone();
    let out = run_timed_with(
        &spec.program,
        spec.launch,
        &mut mem,
        cfg,
        RunOptions::with_telemetry(&mut tele),
    );
    (tele, out, mem.as_bytes().to_vec())
}

#[test]
fn chrome_trace_parses_and_interval_series_is_nonempty() {
    let spec = st2::kernels::pathfinder::build(Scale::Test);
    let cfg = GpuConfig::scaled(2).with_st2();
    let (tele, out, _) = traced_run(&spec, &cfg);

    // Chrome trace: valid JSON, traceEvents array, every event carries a
    // phase, and the cycle span matches the run.
    let trace = chrome::export(&tele, spec.name);
    let v = json::parse(&trace).expect("Chrome trace is valid JSON");
    let events = v
        .get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("traceEvents is an array");
    assert!(events.len() > 100, "a real run produces many events");
    for e in events {
        let ph = e
            .get("ph")
            .and_then(|p| p.as_str())
            .expect("every event has a phase");
        assert!(
            matches!(ph, "M" | "X" | "i" | "C" | "b" | "n" | "e"),
            "unexpected phase {ph:?}"
        );
        // Async fill milestones ("n") and ends ("e") may land past the
        // final cycle: a store's line fill can still be in flight when
        // the last warp retires.
        if !matches!(ph, "M" | "n" | "e") {
            let ts = e.get("ts").and_then(json::Value::as_f64).expect("ts");
            assert!(ts <= out.cycles as f64, "event past the end of the run");
        }
    }

    // Request lifetimes ride along as async spans: every begin has a
    // matching end on the same id, and the memory timeline's counter
    // tracks are present.
    let phase_count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
            .count()
    };
    assert!(phase_count("b") > 0, "run produces fill spans");
    assert_eq!(phase_count("b"), phase_count("e"), "spans pair up");
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("C")
                && e.get("name").and_then(|n| n.as_str()) == Some("mem.mshr_occupied_cycles")
        }),
        "memory timeline exported as counter track"
    );

    // Interval series: adder prediction accuracy over time, non-empty,
    // values in [0, 1].
    let series = tele.series();
    assert!(!series.is_empty(), "interval series must be non-empty");
    assert!(series.iter().all(|p| (0.0..=1.0).contains(&p.accuracy())));

    // JSONL: every line parses; ≥5 named metrics; the accuracy series is
    // present with its points.
    let dump = jsonl::export(&tele, spec.name);
    let mut metric_names = Vec::new();
    let mut saw_series = false;
    for line in dump.lines() {
        let v = json::parse(line).expect("JSONL line parses");
        let ty = v.get("type").and_then(|t| t.as_str()).unwrap_or("");
        if matches!(ty, "counter" | "gauge" | "histogram") {
            metric_names.push(v.get("name").unwrap().as_str().unwrap().to_string());
        }
        if ty == "series" && v.get("name").and_then(|n| n.as_str()) == Some("adder.accuracy") {
            let points = v.get("points").unwrap().as_array().unwrap();
            assert!(!points.is_empty(), "accuracy series has points");
            saw_series = true;
        }
    }
    assert!(
        saw_series,
        "JSONL carries the adder.accuracy interval series"
    );
    metric_names.sort();
    metric_names.dedup();
    assert!(
        metric_names.len() >= 5,
        "JSONL names at least 5 metrics, got {metric_names:?}"
    );
    for required in [
        "adder.ops",
        "adder.mispredicts",
        "sched.warp_instructions",
        "mem.l1_accesses",
        "crf.conflicts",
    ] {
        assert!(
            metric_names.iter().any(|n| n == required),
            "missing metric {required}"
        );
    }
}

#[test]
fn telemetry_counters_agree_with_activity_counters() {
    // The telemetry counters observe the same run the simulator counts:
    // the shared quantities must agree exactly.
    let spec = st2::kernels::histogram::build(Scale::Test);
    let cfg = GpuConfig::scaled(2).with_st2();
    let (tele, out, _) = traced_run(&spec, &cfg);
    let c = tele.counters();
    assert_eq!(c.warp_instructions, out.activity.warp_instructions);
    assert_eq!(c.adder_ops, out.activity.adder.ops);
    assert_eq!(c.adder_mispredicts, out.activity.adder.mispredicted_ops);
    assert_eq!(c.crf_reads, out.activity.crf_reads);
    assert_eq!(c.crf_writes, out.activity.crf_writes);
    assert_eq!(c.crf_conflicts, out.activity.crf_conflicts);
    assert_eq!(c.l1_accesses, out.activity.l1_accesses);
    assert_eq!(c.l1_misses, out.activity.l1_misses);
    assert_eq!(c.l2_misses, out.activity.l2_misses);
    assert_eq!(c.dram_accesses, out.activity.dram_accesses);
    assert_eq!(tele.cycles(), out.cycles);
}

proptest! {
    // Telemetry must be a pure observer: enabled vs disabled collectors
    // produce identical cycles, identical ActivityCounters and identical
    // memory contents, across kernels and configurations.
    #[test]
    fn enabled_vs_disabled_never_changes_results(
        kernel_idx in 0usize..4,
        sms in 1u32..3,
        st2_on in any::<bool>(),
    ) {
        let spec = match kernel_idx {
            0 => st2::kernels::pathfinder::build(Scale::Test),
            1 => st2::kernels::histogram::build(Scale::Test),
            2 => st2::kernels::sortnets::build_k1(Scale::Test),
            _ => st2::kernels::qrng::build_k1(Scale::Test),
        };
        let mut cfg = GpuConfig::scaled(sms);
        if st2_on {
            cfg = cfg.with_st2();
        }

        let mut mem_plain = spec.memory.clone();
        let plain = run_timed(&spec.program, spec.launch, &mut mem_plain, &cfg);

        let (tele, traced, mem_traced) = traced_run(&spec, &cfg);

        prop_assert_eq!(plain.cycles, traced.cycles);
        prop_assert_eq!(&plain.activity, &traced.activity);
        prop_assert_eq!(mem_plain.as_bytes(), &mem_traced[..]);
        if st2_on {
            prop_assert!(tele.counters().adder_ops > 0);
        }
    }
}

/// 64-bit FNV-1a: a stable, dependency-free digest of an output's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-event pricing written out as literals. The characterised weights
/// go through the host's `powf`, so pinning them would pin the libm.
fn literal_weights() -> EnergyWeights {
    EnergyWeights {
        dram_fill_j: 140e-12,
        l2_grant_j: 8e-12,
        mshr_merge_j: 1.2e-12,
        xbar_hop_j: 1.8e-12,
        write_alloc_j: 4e-12,
        instruction_j: 0.42e-12,
        sm_cycle_j: 0.05e-12,
        dram_cycle_j: 0.3e-12,
        queue_wait_j: 0.02e-12,
        clock_ghz: 1.2,
    }
}

/// Digests of the five exporters' outputs per kernel and configuration.
const PINNED: &[(&str, u64)] = &[
    ("pathfinder/st2x2/chrome", 0xd7a556a07081eef1),
    ("pathfinder/st2x2/jsonl", 0xe97180f3f0e45896),
    ("pathfinder/st2x2/summary", 0x9c7fb8a07bc83d2d),
    ("pathfinder/st2x2/profile_json", 0xa1151ae894a264bc),
    ("pathfinder/st2x2/profile_render", 0xd5f0fec88e567a33),
    ("pathfinder/starved4/chrome", 0xd382b74069fc9a46),
    ("pathfinder/starved4/jsonl", 0x69f1f695e67e3d99),
    ("pathfinder/starved4/summary", 0x3e46f28137612eb8),
    ("pathfinder/starved4/profile_json", 0x808114d6435f53dd),
    ("pathfinder/starved4/profile_render", 0x1c9fb8aa915ba35b),
    ("histo_K1/st2x2/chrome", 0x17b32fffd710926e),
    ("histo_K1/st2x2/jsonl", 0xa98d6a4a8a75e8b0),
    ("histo_K1/st2x2/summary", 0x241dfd2aa6faa5c0),
    ("histo_K1/st2x2/profile_json", 0x73d814b64c893416),
    ("histo_K1/st2x2/profile_render", 0x33e2f7d360092d82),
    ("histo_K1/starved4/chrome", 0xe953d4180ade5e60),
    ("histo_K1/starved4/jsonl", 0x019db71aefdc21e4),
    ("histo_K1/starved4/summary", 0x790aedb4d0038c2e),
    ("histo_K1/starved4/profile_json", 0xfae5a13b76ce226a),
    ("histo_K1/starved4/profile_render", 0x8bf1b342a86ac059),
];

#[test]
fn exporter_outputs_are_pinned_byte_for_byte() {
    // The Chrome trace (with its priced power lane), the JSONL dump, the
    // text summary and the priced profile's JSON and report, on the
    // `trace_report` configuration and on a starved 4-partition one, on
    // which histo_K1 queues at the crossbar and for bandwidth, so those
    // columns are nonzero. Any change to collection, pricing or
    // formatting moves a digest.
    let weights = literal_weights();
    let configs = [
        ("st2x2", GpuConfig::scaled(2).with_st2()),
        (
            "starved4",
            GpuConfig::scaled(4)
                .with_st2()
                .with_mshr_entries(32)
                .with_dram_bw(1)
                .with_l2_bw(4)
                .with_l2_partitions(4)
                .with_xbar_queue(1),
        ),
    ];
    let mut got = Vec::new();
    let mut starved_waits = (0u64, 0u64);
    for spec in [
        st2::kernels::pathfinder::build(Scale::Test),
        st2::kernels::histogram::build(Scale::Test),
    ] {
        for (cfg_name, cfg) in &configs {
            let (tele, _, _) = traced_run(&spec, cfg);
            let power = energy::power_series(tele.energy_series(), tele.mem_series(), &weights);
            let mut profile = KernelProfile::capture(&tele, spec.name, Some(&spec.program));
            profile.attach_energy(&weights);
            if cfg.l2_partitions > 1 {
                starved_waits.0 += profile.mem.xbar_wait_cycles;
                starved_waits.1 += profile.mem.bw_starved_cycles;
            }
            for (output, text) in [
                (
                    "chrome",
                    chrome::export_with_power(&tele, spec.name, Some(&power)),
                ),
                ("jsonl", jsonl::export(&tele, spec.name)),
                ("summary", summary::render(&tele, spec.name)),
                ("profile_json", profile.to_json()),
                ("profile_render", profile.render(10)),
            ] {
                got.push((
                    format!("{}/{cfg_name}/{output}", spec.name),
                    fnv1a(text.as_bytes()),
                ));
            }
        }
    }
    assert!(
        starved_waits.0 > 0 && starved_waits.1 > 0,
        "the starved config must queue at the crossbar and for bandwidth: {starved_waits:?}"
    );
    let table = |rows: Vec<(String, u64)>| -> String {
        rows.into_iter()
            .map(|(key, h)| format!("    (\"{key}\", {h:#018x}),\n"))
            .collect()
    };
    let pinned = PINNED.iter().map(|&(k, h)| (k.to_string(), h)).collect();
    assert_eq!(table(got), table(pinned), "exporter digests moved");
}
