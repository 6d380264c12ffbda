//! The benchmark binary end to end: a `--smoke` run of all four
//! workloads, pinned to one CPU the way `run.sh` pins it.

use std::path::Path;
use std::process::{Command, Output};

use st2::telemetry::json::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_st2-benchmark");

fn first_allowed_cpu() -> String {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .expect("status lists the allowed CPUs");
    list.trim()
        .split([',', '-'])
        .next()
        .expect("at least one CPU")
        .to_string()
}

fn pinned(args: &[&str], out: &Path) -> Output {
    Command::new("taskset")
        .args(["-c", &first_allowed_cpu(), BIN])
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("taskset starts the benchmark")
}

fn number(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing number {key}"))
}

#[test]
fn smoke_run_exercises_every_workload() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let run = pinned(&["--smoke", "--trace", "1"], &out);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let last = json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(number(&last, "failed"), 0.0);
    assert!(number(&last, "attempted") > 0.0);

    let doc = json::parse(&std::fs::read_to_string(out.join("all.json")).expect("result file"))
        .expect("result JSON");
    let runs = doc.get("runs").and_then(Value::as_array).expect("runs");
    let names: Vec<&str> = runs
        .iter()
        .map(|r| r.get("workload").and_then(Value::as_str).expect("workload"))
        .collect();
    assert_eq!(names, ["paper-suite", "chip", "profile", "dse"]);
    for r in runs {
        let metrics = r.get("metrics").expect("metrics");
        for m in ["setup_s", "wall_s", "sim_kwips", "peak_rss_mb"] {
            assert!(number(metrics.get(m).expect(m), "median") > 0.0, "{m}");
        }
        assert!(number(r.get("layers").expect("layers"), "sim.engine.s") >= 0.0);
        let name = r.get("workload").and_then(Value::as_str).expect("workload");
        let spans = std::fs::read_to_string(out.join(format!("{name}.spans.json")))
            .expect("a traced run writes its spans");
        assert!(json::parse(&spans).is_ok(), "{name} spans are valid JSON");
    }

    // At test scale the profile workload is the profile_report run that
    // produced the committed BENCH_profile.json: same cycles per kernel.
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_profile.json");
    let bench = json::parse(&std::fs::read_to_string(bench).expect("BENCH_profile.json"))
        .expect("BENCH_profile.json parses");
    let profile = runs
        .iter()
        .find(|r| r.get("workload").and_then(Value::as_str) == Some("profile"))
        .and_then(|r| r.get("exact"))
        .expect("profile outputs");
    for k in bench
        .get("kernels")
        .and_then(Value::as_array)
        .expect("kernels")
    {
        let kernel = k.get("kernel").and_then(Value::as_str).expect("kernel");
        assert_eq!(
            profile
                .get(&format!("{kernel}/st2/cycles"))
                .and_then(Value::as_f64),
            k.get("cycles").and_then(Value::as_f64),
            "{kernel}"
        );
    }
}

#[test]
fn refuses_to_run_on_more_than_one_cpu() {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cpus < 2 {
        return; // nothing to refuse on a one-CPU host
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("unpinned");
    let run = Command::new(BIN)
        .args(["--smoke", "--workload", "dse", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark starts");
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty(), "no result is printed");
}
