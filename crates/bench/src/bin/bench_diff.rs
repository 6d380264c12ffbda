//! `bench_diff` — compare two `BENCH_profile.json` summary documents
//! and fail on perf regressions. The first automated perf gate: CI
//! regenerates the summary at tiny scale and diffs it against the
//! committed baseline.
//!
//! ```text
//! cargo run --release --bin bench_diff -- <baseline.json> <candidate.json> \
//!     [--max-ipc-drop 0.10] [--max-p95-growth 0.25] \
//!     [--max-stall-shift 0.10] [--out <dir>]
//! ```
//!
//! Exit codes: `0` = within thresholds, `1` = regression (or baseline
//! kernel missing from the candidate), `2` = usage or parse error.
//! Both documents must carry the current summary version; any other
//! version is a parse error (exit `2`) naming the version found.
//! With `--out`, the rendered report is also written to
//! `<dir>/bench_diff.txt`.

use std::process::ExitCode;

use st2_bench::diff::{diff_summaries, parse_summary, DiffThresholds, SUMMARY_VERSION};

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_diff <baseline.json> <candidate.json> \
         [--max-ipc-drop <frac>] [--max-p95-growth <frac>] \
         [--max-stall-shift <frac>] [--out <dir>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut thr = DiffThresholds::default();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--max-ipc-drop" | "--max-p95-growth" | "--max-stall-shift" => {
                let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("{tok} requires a fractional value");
                    return usage();
                };
                match tok.as_str() {
                    "--max-ipc-drop" => thr.max_ipc_drop = v,
                    "--max-p95-growth" => thr.max_p95_growth = v,
                    _ => thr.max_stall_shift = v,
                }
            }
            "--out" => {
                let Some(v) = it.next() else {
                    eprintln!("--out requires a directory");
                    return usage();
                };
                out_dir = Some(std::path::PathBuf::from(v));
            }
            _ => paths.push(tok),
        }
    }
    if paths.len() != 2 {
        return usage();
    }

    let load = |path: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_summary(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, cand) = match (load(&paths[0]), load(&paths[1])) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };

    let report = diff_summaries(&base, &cand, &thr);
    let text = report.render();
    print!("{text}");
    println!(
        "baseline {}   candidate {}   (summary v{SUMMARY_VERSION})",
        paths[0], paths[1]
    );
    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join("bench_diff.txt"), &text))
        {
            eprintln!("cannot write report under {}: {e}", dir.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", dir.join("bench_diff.txt").display());
    }
    if report.regressed() {
        eprintln!("bench_diff: thresholds exceeded");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
