//! `st2-benchmark` — host-time benchmark of the ST2 GPU simulator.
//!
//! ```text
//! bash benchmark/run.sh [--workload <name>|all] [--seed <u64>] [--trace 0|1]
//!                       [--smoke] [--repeat <n>] [--out <dir>]
//! bash benchmark/run.sh --write-golden
//! bash benchmark/run.sh --compare <a.json> <b.json>
//! ```
//!
//! Each workload runs in a child process of its own, one after another,
//! pinned (with this process) to a single CPU. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! The full result, with samples and quartiles, goes to
//! `<out>/<workload|all>.json`; a traced run also writes each workload's
//! spans to `<out>/<workload>.spans.json` (Chrome trace format). See
//! `benchmark/README.md`.

#![forbid(unsafe_code)]

mod api;
mod golden;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use api::json::{self, Writer};
use metrics::{Host, WorkloadResult, END_TO_END, PER_LAYER};
use run::{Expect, RunConfig};
use workloads::{Size, Workload};

const USAGE: &str = "usage: st2-benchmark [--workload <paper-suite|chip|profile|dse|all>] \
[--seed <u64>] [--trace 0|1] [--smoke] [--repeat <n>] [--out <dir>]
       st2-benchmark --write-golden
       st2-benchmark --compare <a.json> <b.json>";

enum Mode {
    Run,
    /// One workload in this process (the parent spawns these).
    Child(Workload),
    WriteGolden,
    Compare(PathBuf, PathBuf),
}

struct Args {
    mode: Mode,
    workloads: Vec<Workload>,
    seed: u64,
    trace: bool,
    size: Size,
    repeat: u32,
    out: PathBuf,
    /// Check passes against the first pass, not the golden (children of
    /// `--write-golden`).
    record: bool,
}

fn parse_args(tokens: &[String]) -> Result<Args, String> {
    let mut a = Args {
        mode: Mode::Run,
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        trace: false,
        size: Size::Full,
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
        record: false,
    };
    let mut it = tokens.iter();
    while let Some(tok) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{tok} needs a value"));
        let workload =
            |name: &str| Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"));
        match tok.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![workload(v)?]
                };
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs a u64")?,
            // The command line `BENCHMARK.json` describes carries
            // `--seconds <run_seconds>`. Pass counts are fixed per workload
            // instead, so both sides of a comparison do identical work;
            // `run_seconds` records how long a run of them takes.
            "--seconds" => {
                value()?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--smoke" => a.size = Size::Smoke,
            "--repeat" => {
                a.repeat = value()?.parse().map_err(|_| "--repeat needs a count")?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--write-golden" => a.mode = Mode::WriteGolden,
            "--compare" => {
                let first = PathBuf::from(value()?);
                a.mode = Mode::Compare(first, PathBuf::from(value()?));
            }
            "--child" => a.mode = Mode::Child(workload(value()?)?),
            "--record" => a.record = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    if tokens.iter().any(|t| t == "--help" || t == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&tokens) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("st2-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Mode::Compare(a, b) = &args.mode {
        return compare(a, b);
    }
    // With one CPU the simulator's automatic thread count resolves to its
    // serial driver, and nothing else of ours competes for the CPU.
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    if cpus != 1 {
        eprintln!(
            "st2-benchmark: refusing to run on {cpus} CPUs; pin it to one \
             (bash benchmark/run.sh does, with taskset)"
        );
        return ExitCode::from(2);
    }
    match &args.mode {
        Mode::Child(w) => child(*w, &args),
        Mode::WriteGolden => write_golden(&args),
        Mode::Run => run_all(&args),
        Mode::Compare(..) => unreachable!("handled above"),
    }
}

/// Runs one workload in this process and prints its result as the last
/// line of standard output.
fn child(w: Workload, args: &Args) -> ExitCode {
    let expect = if args.record {
        Expect::FirstPass
    } else {
        Expect::Golden(golden::load(golden::GOLDEN, args.size, w))
    };
    let (result, spans) = run::run(RunConfig {
        workload: w,
        size: args.size,
        seed: args.seed,
        trace: args.trace,
        expect,
    });
    if args.trace {
        print!("{}", run::self_time_table(w.name(), &spans));
        let path = args.out.join(format!("{}.spans.json", w.name()));
        if let Err(e) = write(&path, &trace::chrome_json(w.name(), &spans)) {
            eprintln!("st2-benchmark: {e}");
        }
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs `w` in a child process, echoing its report; a child that dies
/// or prints no result counts as one failed operation.
fn spawn(w: Workload, args: &Args) -> WorkloadResult {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .arg(w.name())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--trace")
        .arg(if args.trace { "1" } else { "0" })
        .arg("--out")
        .arg(&args.out);
    if args.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    if args.record {
        cmd.arg("--record");
    }
    let failed = |why: String| WorkloadResult {
        workload: w.name().to_string(),
        attempted: 1,
        failed: 1,
        failures: vec![why],
        ..Default::default()
    };
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => return failed(format!("cannot start the {} child: {e}", w.name())),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    if !output.status.success() {
        return failed(format!(
            "the {} child exited with {}",
            w.name(),
            output.status
        ));
    }
    json::parse(last)
        .and_then(|v| WorkloadResult::from_value(&v))
        .unwrap_or_else(|e| {
            failed(format!(
                "the {} child's result is unreadable: {e}",
                w.name()
            ))
        })
}

fn host() -> Host {
    let count = |list: &str| -> u64 {
        list.trim()
            .split(',')
            .filter(|r| !r.is_empty())
            .map(|r| match r.split_once('-') {
                Some((a, b)) => b.parse::<u64>().unwrap_or(0) + 1 - a.parse::<u64>().unwrap_or(0),
                None => 1,
            })
            .sum()
    };
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    let allowed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_default();
    Host {
        cpus_online: count(&online),
        cpus_allowed: allowed,
    }
}

fn run_all(args: &Args) -> ExitCode {
    let mut runs = Vec::new();
    for rep in 0..args.repeat {
        for &w in &args.workloads {
            println!("== {}: {}", w.name(), w.why());
            let r = spawn(w, args);
            print_result(&r, (args.repeat > 1).then_some(rep));
            runs.push(r);
        }
    }
    let selection = if args.workloads.len() == 1 {
        args.workloads[0].name()
    } else {
        "all"
    };
    let settings = [
        ("workloads", selection.to_string()),
        ("size", args.size.name().to_string()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("repeat", args.repeat.to_string()),
    ];
    let doc = metrics::document(&host(), &settings, &runs);
    let path = args.out.join(format!("{selection}.json"));
    if let Err(e) = write(&path, &doc) {
        eprintln!("st2-benchmark: {e}");
    }
    let (line, correct) = result_line(&runs, args.trace, args.workloads.len() == 1);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `workload metric value unit` lines for one run.
fn print_result(r: &WorkloadResult, rep: Option<u32>) {
    let wl = match rep {
        Some(i) => format!("{}#{}", r.workload, i + 1),
        None => r.workload.clone(),
    };
    for def in &END_TO_END {
        let Some(m) = r.metrics.get(def.name) else {
            continue;
        };
        if m.samples.len() > 1 {
            let q = m.quartiles();
            println!(
                "{wl} {} {} {} (median {}, q1 {}, q3 {}, n {})",
                def.name,
                m.value,
                def.unit,
                q.median,
                q.q1,
                q.q3,
                m.samples.len()
            );
        } else {
            println!("{wl} {} {} {}", def.name, m.value, def.unit);
        }
    }
    for def in &PER_LAYER {
        if let Some(v) = r.layers.get(def.name) {
            println!("{wl} {} {v} {}", def.name, def.unit);
        }
    }
    for f in &r.failures {
        eprintln!("{wl} FAILED {f}");
    }
}

/// The final JSON line: the gated end-to-end metrics, or the per-layer
/// metrics of a traced run (the median over `--repeat` runs). Metric
/// names are prefixed with the workload when the run covered several.
fn result_line(runs: &[WorkloadResult], trace: bool, single: bool) -> (String, bool) {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let mut values: BTreeMap<(String, &str), (Vec<f64>, &str)> = BTreeMap::new();
    for r in runs {
        let mut add = |name: &'static str, unit: &'static str, v: &[f64]| {
            values
                .entry((r.workload.clone(), name))
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .extend(v);
        };
        if trace {
            for def in &PER_LAYER {
                if let Some(v) = r.layers.get(def.name) {
                    add(def.name, def.unit, &[*v]);
                }
            }
        } else {
            for def in END_TO_END.iter().filter(|d| d.gated) {
                if let Some(m) = r.metrics.get(def.name) {
                    add(def.name, def.unit, &[m.value]);
                }
            }
        }
    }
    let mut w = Writer::new();
    w.begin_object();
    w.key("correct");
    w.bool(failed == 0);
    w.field_u64("attempted", attempted.max(1));
    w.field_u64("failed", failed);
    w.key("metrics");
    w.begin_object();
    for ((wl, name), (per_run, unit)) in &values {
        w.key(&if single {
            (*name).to_string()
        } else {
            format!("{wl}.{name}")
        });
        w.begin_object();
        w.field_f64("value", stats::quartiles(per_run).median);
        w.field_str("unit", unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    (w.finish(), failed == 0)
}

/// Regenerates `golden.json` from one run of every workload at both
/// sizes. Refuses when any operation fails or passes disagree.
fn write_golden(args: &Args) -> ExitCode {
    let mut sections = Vec::new();
    for size in [Size::Full, Size::Smoke] {
        let a = Args {
            mode: Mode::Run,
            workloads: Workload::ALL.to_vec(),
            seed: args.seed,
            trace: false,
            size,
            repeat: 1,
            out: args.out.clone(),
            record: true,
        };
        let mut runs = Vec::new();
        for w in Workload::ALL {
            let r = spawn(w, &a);
            print_result(&r, None);
            if r.failed > 0 {
                eprintln!("st2-benchmark: not writing the golden: {} failed", w.name());
                return ExitCode::FAILURE;
            }
            runs.push((w, r.exact));
        }
        sections.push((size, runs));
    }
    match write(Path::new(golden::GOLDEN_PATH), &golden::render(&sections)) {
        Ok(()) => {
            println!("wrote {}", golden::GOLDEN_PATH);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("st2-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare(a: &Path, b: &Path) -> ExitCode {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {}: {e}", p.display()))
            .and_then(|t| metrics::read_document(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    match (read(a), read(b)) {
        (Ok(ra), Ok(rb)) => {
            let (table, any_worse) = metrics::compare(&ra, &rb);
            print!("{table}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("st2-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
