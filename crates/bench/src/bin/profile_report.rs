//! `profile_report` — run the evaluation suite on the ST² timed model
//! with the warp-stall attribution profiler enabled and emit an
//! nvprof-style kernel profile per kernel: stall-reason breakdown bars,
//! occupancy summary, and the top hot PCs with source-DSL labels.
//!
//! ```text
//! cargo run --release --bin profile_report -- \
//!     [--scale test|tiny|full] [--kernels <substring>] \
//!     [--out <dir>] \
//!     [--mshr-entries <n>] [--l2-bw <n>] [--dram-bw <n>] \
//!     [--l2-partitions <n>] [--xbar-queue <n>] \
//!     [--gpu harness|titan-v|titan-v-full]
//! ```
//!
//! With `--out`, each kernel's profile is also written as
//! `<dir>/<kernel>.profile.json` plus a combined `<dir>/profile.json`
//! array, and the per-kernel summary as `<dir>/BENCH_profile.json`
//! (the committed file's shape; `--scale tiny` regenerates it).
//!
//! Every kernel's per-SM issue-slot accounting is checked to reconcile
//! exactly: attributed stalls + issued slots = cycles × issue_width,
//! per SM. A violation aborts the report — it would mean the profiler
//! lost track of a cycle.

use std::process::ExitCode;

use st2::prelude::*;
use st2_bench::{header, profile_suite, BenchArgs};

/// Hot-PC rows shown per kernel.
const TOP_N: usize = 8;

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    if !args.rest.is_empty() {
        eprintln!("unexpected arguments: {:?}", args.rest);
        eprintln!("usage: profile_report [--scale test|tiny|full] [--kernels <substring>] [--out <dir>] [--mshr-entries <n>] [--l2-bw <n>] [--dram-bw <n>] [--l2-partitions <n>] [--xbar-queue <n>] [--gpu harness|titan-v|titan-v-full]");
        return ExitCode::FAILURE;
    }
    let cfg = args.gpu().with_st2();
    let profiles = profile_suite(args.scale, &cfg, args.kernels.as_deref());

    for profile in &profiles {
        print!("{}", profile.render(TOP_N));
        println!();
    }

    header("profile summary");
    println!(
        "{:<14} {:>10} {:>7} {:>7} {:>9} {:>9}",
        "kernel", "cycles", "IPC", "util%", "top-stall", "fetch_oob"
    );
    for p in &profiles {
        let t = p.total();
        let top = st2::telemetry::profile::ALL_STALL_REASONS
            .iter()
            .copied()
            .max_by_key(|r| t.stalls[r.index()])
            .map_or("-", StallReason::name);
        // A zero-cycle profile makes every per-cycle ratio undefined:
        // render dashes rather than a `.max(1)`-flavoured zero that
        // reads as a measurement.
        let (ipc, util) = if p.cycles > 0 {
            (
                format!("{:.3}", p.warp_instructions as f64 / p.cycles as f64),
                format!("{:.1}", 100.0 * t.issued as f64 / t.slots.max(1) as f64),
            )
        } else {
            ("—".into(), "—".into())
        };
        println!(
            "{:<14} {:>10} {:>7} {:>7} {:>9} {:>9}",
            p.kernel, p.cycles, ipc, util, top, t.fetch_oob,
        );
    }

    header("memory boundedness");
    println!(
        "{:<14} {:>12} {:>8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "kernel", "transactions", "L1-hit%", "merges", "dram", "throttled", "p50", "p95", "max"
    );
    for p in &profiles {
        let t = p.total();
        println!(
            "{:<14} {:>12} {:>8.1} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
            p.kernel,
            p.mem.l1_accesses,
            100.0 * p.mem.l1_hit_rate(),
            p.mem.mshr_merges,
            p.mem.dram_accesses,
            t.stalls[StallReason::MemThrottle.index()],
            p.mem.fill_p50,
            p.mem.fill_p95,
            p.mem.fill_max,
        );
    }

    // Only meaningful when the run modelled a sharded L2: with one
    // partition the crossbar is bypassed and every fill lands in bank 0.
    if profiles.iter().any(|p| p.mem.partitions > 1) {
        header("L2 partition balance");
        println!(
            "{:<14} {:>6} {:>11} {:>10} {:>24}",
            "kernel", "parts", "imbalance", "xbar-wait", "fills/partition"
        );
        for p in &profiles {
            let fills: Vec<String> = p.mem.part_fills.iter().map(u64::to_string).collect();
            // Busiest/mean is identically 1 with a single partition —
            // undefined as a balance measure, so render a dash.
            let imbalance = if p.mem.partitions > 1 {
                format!("{:.2}", p.mem.fill_imbalance())
            } else {
                "—".into()
            };
            println!(
                "{:<14} {:>6} {:>11} {:>10} {:>24}",
                p.kernel,
                p.mem.partitions,
                imbalance,
                p.mem.xbar_wait_cycles,
                format!("[{}]", fills.join(", ")),
            );
        }
    }

    header("energy report (characterised model)");
    println!(
        "{:<14} {:>12} {:>10} {:>10} {:>10} {:>9} {:>8} {:>12}",
        "kernel", "total-nJ", "dram-nJ", "issue-nJ", "static-nJ", "EPI-pJ", "peak-W", "peak@cycle"
    );
    for p in &profiles {
        let Some(e) = p.energy else { continue };
        println!(
            "{:<14} {:>12.1} {:>10.1} {:>10.1} {:>10.1} {:>9.2} {:>8.3} {:>12}",
            p.kernel,
            e.total_nj,
            e.dram_nj,
            e.issue_nj,
            e.static_nj,
            e.energy_per_instruction_pj,
            e.peak_power_w,
            e.peak_power_cycle,
        );
    }

    header("memory deep-dive (per-interval timeline)");
    // The same weights `profile_suite` priced the run totals with.
    let weights = EnergyModel::characterized().interval_weights(cfg.clock_ghz);
    for p in &profiles {
        render_memory_deep_dive(p, &cfg, &weights);
    }

    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let mut docs = Vec::new();
        for p in &profiles {
            let doc = p.to_json();
            let path = dir.join(format!("{}.profile.json", p.kernel));
            if let Err(e) = std::fs::write(&path, &doc) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
            docs.push(doc);
        }
        let combined = dir.join("profile.json");
        if let Err(e) = std::fs::write(&combined, format!("[{}]", docs.join(","))) {
            eprintln!("cannot write {}: {e}", combined.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", combined.display());

        let summary =
            st2_bench::summary::summary_json(&profiles, &args.command_line("profile_report"));
        let path = dir.join("BENCH_profile.json");
        if let Err(e) = std::fs::write(&path, summary) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Prints one kernel's memory timeline: average/peak MSHR occupancy,
/// L2/DRAM bandwidth utilisation against the configured per-cycle
/// budgets, and bandwidth-wait cycles, interval by interval next to the
/// issue-slot utilisation and modeled average power of the same
/// interval.
fn render_memory_deep_dive(
    p: &KernelProfile,
    cfg: &GpuConfig,
    weights: &st2::telemetry::EnergyWeights,
) {
    if p.mem_timeline.iter().all(|m| m.l2_requests == 0) {
        println!("{:<14} (no global-memory traffic)", p.kernel);
        return;
    }
    println!("{}:", p.kernel);
    println!(
        "  {:>10} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8}",
        "cycle",
        "mshr-avg",
        "mshr-pk",
        "L2-bw%",
        "dram-bw%",
        "bw-wait",
        "xbar-wait",
        "issue%",
        "power-W"
    );
    const MAX_ROWS: usize = 16;
    let rows = p.mem_timeline.len();
    // Power rows skip zero-length intervals, so match them by end cycle
    // rather than by index.
    let power = p.power_timeline(weights);
    let mut prev = 0u64;
    for (i, m) in p.mem_timeline.iter().take(MAX_ROWS).enumerate() {
        let dt = (m.cycle - prev).max(1) as f64;
        prev = m.cycle;
        // Occupancy rows share the snapshot boundaries, so index i is
        // the same interval.
        let issue = p.occupancy.get(i).map_or(0.0, |o| {
            100.0 * o.issued_slots as f64 / o.total_slots.max(1) as f64
        });
        let watts = power
            .iter()
            .find(|(c, _)| *c == m.cycle)
            .map_or(0.0, |(_, w)| *w);
        println!(
            "  {:>10} {:>9.2} {:>9} {:>8.1} {:>8.1} {:>9} {:>9} {:>8.1} {:>8.3}",
            m.cycle,
            m.mshr_occupied_cycles as f64 / dt,
            m.mshr_peak,
            100.0 * m.l2_requests as f64 / (f64::from(cfg.l2_bw) * dt),
            100.0 * m.dram_requests as f64 / (f64::from(cfg.dram_bw) * dt),
            m.bw_wait_cycles,
            m.xbar_wait_cycles,
            issue,
            watts,
        );
    }
    if rows > MAX_ROWS {
        println!("  ... {} more intervals (see --out JSON)", rows - MAX_ROWS);
    }
}
