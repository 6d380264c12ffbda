//! `trace_report` — run one evaluation kernel on the ST² timed model
//! with telemetry enabled and emit all three observability outputs:
//!
//! * `<kernel>.trace.json` — Chrome trace-event JSON (open in
//!   `chrome://tracing` or Perfetto)
//! * `<kernel>.metrics.jsonl` — one JSON metric per line
//! * per-kernel text summary on stdout
//!
//! ```text
//! cargo run --bin trace_report -- pathfinder [out_dir]
//! ```
//!
//! Run with no arguments to list the available kernels.

use std::process::ExitCode;

use st2::prelude::*;
use st2::telemetry::{chrome, energy, jsonl, summary};
use st2_bench::BenchArgs;

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    let Some(name) = args.rest.first() else {
        eprintln!("usage: trace_report <kernel> [out_dir]");
        eprintln!("available kernels:");
        for spec in suite(Scale::Test) {
            eprintln!("  {}", spec.name);
        }
        return ExitCode::FAILURE;
    };
    let out_dir = args.rest.get(1).cloned().unwrap_or_else(|| ".".to_string());

    let specs = suite(Scale::Test);
    let Some(spec) = specs.into_iter().find(|s| s.name == name.as_str()) else {
        eprintln!("unknown kernel {name:?}; run with no arguments for the list");
        return ExitCode::FAILURE;
    };

    let cfg = GpuConfig::scaled(2).with_st2();
    let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
    let mut mem = spec.memory.clone();
    let out = run_timed_with(
        &spec.program,
        spec.launch,
        &mut mem,
        &cfg,
        RunOptions::with_telemetry(&mut tele),
    );
    if let Err(e) = spec.verify(&mem) {
        eprintln!("warning: {name} failed output verification: {e}");
    }

    // Price the integer energy timeline into a per-interval power lane
    // so the trace renders live watts next to the IPC counters.
    let weights = EnergyModel::characterized().interval_weights(cfg.clock_ghz);
    let power = energy::power_series(tele.energy_series(), tele.mem_series(), &weights);

    let trace_path = format!("{out_dir}/{name}.trace.json");
    let jsonl_path = format!("{out_dir}/{name}.metrics.jsonl");
    if let Err(e) = std::fs::write(
        &trace_path,
        chrome::export_with_power(&tele, spec.name, Some(&power)),
    ) {
        eprintln!("cannot write {trace_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&jsonl_path, jsonl::export(&tele, spec.name)) {
        eprintln!("cannot write {jsonl_path}: {e}");
        return ExitCode::FAILURE;
    }

    print!("{}", summary::render(&tele, spec.name));
    println!("cycles (timed model)   : {}", out.cycles);
    println!("chrome trace           : {trace_path}");
    println!("metrics jsonl          : {jsonl_path}");
    ExitCode::SUCCESS
}
