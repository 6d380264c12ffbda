//! `repro all` against its parts: the shared functional run, the merged
//! design-point sweep and the shared timed run must give every figure
//! exactly what it prints when run alone.

use std::path::Path;
use std::process::{Command, Output};

use st2_bench::figures::FIGURES;

/// Runs the `repro` binary in `dir`.
fn repro(dir: &Path, args: &[&str]) -> Output {
    std::fs::create_dir_all(dir).expect("create working directory");
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run repro")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("UTF-8 output")
}

#[test]
fn all_prints_the_concatenation_of_its_parts() {
    let root = std::env::temp_dir().join(format!("st2_repro_{}", std::process::id()));
    let (parts_dir, all_dir) = (root.join("parts"), root.join("all"));
    // Two kernels: few enough for the debug profile, enough for the
    // power-model validation; A6 shares sortNets_K1 with the timed suite.
    let flags = ["--scale", "test", "--kernels", "sortNets", "--out", "csv"];

    let mut parts = Vec::new();
    for figure in FIGURES {
        let out = repro(&parts_dir, &[&[figure][..], &flags].concat());
        assert!(out.status.success(), "{figure}: {}", text(&out.stderr));
        assert!(!out.stdout.is_empty(), "{figure} printed nothing");
        parts.extend(out.stdout);
    }
    let all = repro(&all_dir, &[&["all"][..], &flags].concat());
    assert!(all.status.success(), "all: {}", text(&all.stderr));
    // Name the first differing line rather than dumping both outputs.
    let (all, parts) = (text(&all.stdout), text(&parts));
    let mut lines = all.lines().zip(parts.lines()).enumerate();
    if let Some((i, (a, p))) = lines.find(|(_, (a, p))| a != p) {
        panic!("line {}: `all` printed {a:?}, its parts {p:?}", i + 1);
    }
    assert_eq!(
        all.len(),
        parts.len(),
        "`all` and its parts differ in length"
    );

    for csv in ["fig5", "fig6", "fig7", "perf_overhead"] {
        let path = Path::new("csv").join(format!("{csv}.csv"));
        let read = |dir: &Path| std::fs::read(dir.join(&path)).expect("CSV written");
        assert_eq!(read(&all_dir), read(&parts_dir), "{csv}.csv differs");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unknown_or_missing_figures_are_rejected() {
    let dir = std::env::temp_dir();
    let names = format!("expected one of: all, {}", FIGURES.join(", "));
    for (args, message) in [
        (&["fig4", "--scale", "test"][..], "unknown figure \"fig4\""),
        (
            &["--scale", "test"][..],
            "repro takes one figure name, got []",
        ),
        (&["fig1", "fig2"][..], "repro takes one figure name"),
    ] {
        let out = repro(&dir, args);
        let stderr = text(&out.stderr);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a figure");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&names),
            "{args:?} does not list the figures"
        );
    }
}

#[test]
fn power_validation_skips_with_fewer_than_two_kernels() {
    let dir = std::env::temp_dir();
    let out = repro(
        &dir,
        &[
            "power_validation",
            "--scale",
            "test",
            "--kernels",
            "pathfinder",
        ],
    );
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(
        stdout.contains("fitted P_const"),
        "the calibration still prints: {stdout}"
    );
    assert!(
        stdout.contains(
            "validation skipped: it needs at least two suite kernels, and --kernels kept 1"
        ),
        "{stdout}"
    );
    assert!(!stdout.contains("MARE"), "{stdout}");
}
