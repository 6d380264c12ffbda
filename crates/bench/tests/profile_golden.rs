//! The committed `BENCH_profile.json` is the test-scale profile summary,
//! byte for byte. Every figure in it is simulated, so a change that moves
//! a cycle, a stall share, a fill latency or a modeled energy column
//! must regenerate the file in the same change.

use st2::telemetry::json::{self, Value};
use st2_bench::summary::summary_json;
use st2_bench::{profile_suite, BenchArgs};

const COMMITTED: &str = include_str!("../../../BENCH_profile.json");

const REGENERATE: &str = "cargo run --release -p st2-bench --bin profile_report -- \
     --scale tiny --out <dir>, then copy <dir>/BENCH_profile.json to the repository root";

/// Names the first header field, or the first kernel and field, where
/// the regenerated summary differs from the committed one.
fn first_difference(committed: &str, fresh: &str) -> String {
    let Ok(old) = json::parse(committed) else {
        return "the committed file is not valid JSON".into();
    };
    let new = json::parse(fresh).expect("the summary writer emits valid JSON");
    for key in ["schema", "version", "generator"] {
        if old.get(key) != new.get(key) {
            return format!(
                "{key}: committed {:?}, regenerated {:?}",
                old.get(key),
                new.get(key)
            );
        }
    }
    let rows = |doc: &Value| match doc.get("kernels") {
        Some(Value::Array(rows)) => rows.clone(),
        _ => Vec::new(),
    };
    let (old_rows, new_rows) = (rows(&old), rows(&new));
    for (a, b) in old_rows.iter().zip(&new_rows) {
        let (Value::Object(a), Value::Object(b)) = (a, b) else {
            return "a kernel row is not an object".into();
        };
        let kernel = b.get("kernel").and_then(Value::as_str).unwrap_or("?");
        if let Some(field) = a.keys().chain(b.keys()).find(|k| a.get(*k) != b.get(*k)) {
            return format!(
                "kernel {kernel}, field {field}: committed {:?}, regenerated {:?}",
                a.get(field),
                b.get(field)
            );
        }
    }
    if old_rows.len() != new_rows.len() {
        return format!(
            "kernel count: committed {}, regenerated {}",
            old_rows.len(),
            new_rows.len()
        );
    }
    "same values, different text (formatting or field order)".into()
}

#[test]
fn bench_profile_json_is_the_test_scale_summary() {
    let args = BenchArgs::from_tokens(["--scale", "tiny"].map(String::from));
    let profiles = profile_suite(args.scale, &args.gpu().with_st2(), None);
    let fresh = summary_json(&profiles, &args.command_line("profile_report"));
    assert_eq!(
        fresh,
        COMMITTED,
        "BENCH_profile.json is stale ({}); regenerate it with {REGENERATE}",
        first_difference(COMMITTED, &fresh)
    );
}
