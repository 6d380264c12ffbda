//! Shared infrastructure for the reproduction harness: suite runners
//! (parallelised across kernels), result caching, and table printing.
//!
//! Each `src/bin/*.rs` binary regenerates one table or figure of the
//! paper; see DESIGN.md's per-experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;

use std::sync::Mutex;

use st2::prelude::*;
use st2::sim::ActivityCounters;

/// The command line shared by every harness binary, parsed once.
///
/// Recognised flags (all optional, any order):
///
/// * `--scale test|tiny|full` — problem sizes (default full; `tiny` is
///   an alias for `test`)
/// * `--out <dir>` — also write machine-readable CSV artifacts there
/// * `--kernels <substring>` — restrict suite runs to kernels whose name
///   contains the substring
/// * `--mshr-entries <n>` / `--l2-bw <n>` / `--dram-bw <n>` — memory
///   subsystem overrides for boundedness studies (defaults leave the
///   config untouched; see [`GpuConfig::with_mshr_entries`] etc.)
/// * `--l2-partitions <n>` / `--xbar-queue <n>` — L2 partition count
///   (power of two) and per-port crossbar queue depth overrides (see
///   [`GpuConfig::with_l2_partitions`] / [`GpuConfig::with_xbar_queue`])
/// * `--no-event-driven` — force the legacy step-everything driver
///   ([`GpuConfig::event_driven`] off; results are bit-identical, this
///   is a wall-clock cross-check / escape hatch)
/// * `--no-mem-calendar` — keep the SM fast-forward but step the memory
///   side every cycle ([`GpuConfig::mem_calendar`] off; bit-identical,
///   the memory-side escape hatch)
/// * `--gpu harness|titan-v|titan-v-full` — base GPU preset before
///   overrides: the 4-SM harness slice (default),
///   [`GpuConfig::titan_v`], or the 80-SM [`GpuConfig::titan_v_full`]
///
/// Other tokens land in [`BenchArgs::rest`] for binaries with
/// positional arguments (e.g. `trace_report <kernel> [out_dir]`); an
/// unrecognised `--flag` is rejected rather than taken as positional.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// Problem scale (`--scale`).
    pub scale: Scale,
    /// Artifact directory (`--out`).
    pub out: Option<std::path::PathBuf>,
    /// Kernel-name substring filter (`--kernels`).
    pub kernels: Option<String>,
    /// Per-SM MSHR file capacity override (`--mshr-entries`).
    pub mshr_entries: Option<u32>,
    /// L2 requests-per-cycle override (`--l2-bw`).
    pub l2_bw: Option<u32>,
    /// DRAM requests-per-cycle override (`--dram-bw`).
    pub dram_bw: Option<u32>,
    /// L2 partition-count override (`--l2-partitions`).
    pub l2_partitions: Option<u32>,
    /// Crossbar injection-queue depth override (`--xbar-queue`).
    pub xbar_queue: Option<u32>,
    /// Disable the event-driven fast-forward (`--no-event-driven`).
    pub no_event_driven: bool,
    /// Disable the memory-side wake calendar (`--no-mem-calendar`).
    pub no_mem_calendar: bool,
    /// Base GPU preset (`--gpu`); `None` means the harness default.
    pub gpu_preset: Option<GpuPreset>,
    /// Everything not consumed by a flag, in order.
    pub rest: Vec<String>,
}

/// Base GPU presets selectable with `--gpu` (overrides apply on top).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuPreset {
    /// The 4-SM harness slice ([`harness_gpu`], the default).
    Harness,
    /// The paper's 20-SM TITAN V slice ([`GpuConfig::titan_v`]).
    TitanV,
    /// The full 80-SM TITAN V ([`GpuConfig::titan_v_full`]).
    TitanVFull,
}

impl GpuPreset {
    /// The preset's base configuration.
    #[must_use]
    pub fn config(self) -> GpuConfig {
        match self {
            GpuPreset::Harness => harness_gpu(),
            GpuPreset::TitanV => GpuConfig::titan_v(),
            GpuPreset::TitanVFull => GpuConfig::titan_v_full(),
        }
    }
}

impl BenchArgs {
    /// Parses the process command line (skipping `argv[0]`).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed or unrecognised flags —
    /// these binaries are operator tools, so failing loudly beats
    /// guessing.
    #[must_use]
    pub fn parse() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Parses an explicit token stream (for tests).
    ///
    /// # Panics
    ///
    /// Same conditions as [`BenchArgs::parse`].
    pub fn from_tokens(iter: impl IntoIterator<Item = String>) -> Self {
        let mut args = BenchArgs::default();
        let mut it = iter.into_iter();
        while let Some(tok) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{flag} requires a value"))
            };
            match tok.as_str() {
                "--scale" => {
                    args.scale = match value("--scale").as_str() {
                        // "tiny" is a CI-friendly alias for the smallest
                        // problem sizes the suite defines.
                        "test" | "tiny" => Scale::Test,
                        "full" => Scale::Full,
                        other => panic!("--scale must be test, tiny or full, got {other:?}"),
                    };
                }
                "--out" => args.out = Some(std::path::PathBuf::from(value("--out"))),
                "--kernels" => args.kernels = Some(value("--kernels")),
                "--mshr-entries" | "--l2-bw" | "--dram-bw" | "--l2-partitions" | "--xbar-queue" => {
                    let v = value(&tok);
                    let n = v
                        .parse()
                        .unwrap_or_else(|_| panic!("{tok} must be an integer, got {v:?}"));
                    match tok.as_str() {
                        "--mshr-entries" => args.mshr_entries = Some(n),
                        "--l2-bw" => args.l2_bw = Some(n),
                        "--l2-partitions" => args.l2_partitions = Some(n),
                        "--xbar-queue" => args.xbar_queue = Some(n),
                        _ => args.dram_bw = Some(n),
                    }
                }
                "--no-event-driven" => args.no_event_driven = true,
                "--no-mem-calendar" => args.no_mem_calendar = true,
                "--gpu" => {
                    args.gpu_preset = Some(match value("--gpu").as_str() {
                        "harness" => GpuPreset::Harness,
                        "titan-v" => GpuPreset::TitanV,
                        "titan-v-full" => GpuPreset::TitanVFull,
                        other => {
                            panic!("--gpu must be harness, titan-v or titan-v-full, got {other:?}")
                        }
                    });
                }
                flag if flag.starts_with("--") => panic!("unrecognised flag {flag:?}"),
                _ => args.rest.push(tok),
            }
        }
        args
    }

    /// Whether `name` passes the `--kernels` filter (no filter = all).
    #[must_use]
    pub fn matches(&self, name: &str) -> bool {
        self.kernels.as_deref().is_none_or(|f| name.contains(f))
    }

    /// The selected GPU preset with any memory-subsystem and calendar
    /// overrides applied.
    #[must_use]
    pub fn gpu(&self) -> GpuConfig {
        let mut cfg = self.gpu_preset.map_or_else(harness_gpu, GpuPreset::config);
        if let Some(n) = self.mshr_entries {
            cfg = cfg.with_mshr_entries(n);
        }
        if let Some(n) = self.l2_bw {
            cfg = cfg.with_l2_bw(n);
        }
        if let Some(n) = self.dram_bw {
            cfg = cfg.with_dram_bw(n);
        }
        if let Some(n) = self.l2_partitions {
            cfg = cfg.with_l2_partitions(n);
        }
        if let Some(n) = self.xbar_queue {
            cfg = cfg.with_xbar_queue(n);
        }
        if self.no_event_driven {
            cfg = cfg.with_event_driven(false);
        }
        if self.no_mem_calendar {
            cfg = cfg.with_mem_calendar(false);
        }
        cfg
    }
}

/// The simulated GPU size used by the harness (a 4-SM slice of the
/// TITAN V; energy results are normalised so the shape is preserved).
#[must_use]
pub fn harness_gpu() -> GpuConfig {
    GpuConfig::scaled(4)
}

/// Applies a [`BenchArgs::kernels`]-style substring filter to suite
/// specs, panicking (operator typo) when nothing survives.
fn filter_specs(specs: Vec<KernelSpec>, filter: Option<&str>) -> Vec<KernelSpec> {
    let Some(f) = filter else { return specs };
    let kept: Vec<KernelSpec> = specs.into_iter().filter(|s| s.name.contains(f)).collect();
    assert!(!kept.is_empty(), "--kernels {f:?} matches no suite kernel");
    kept
}

/// One kernel's functional results.
pub struct FunctionalRun {
    /// Kernel spec (memory already consumed by the run).
    pub spec: KernelSpec,
    /// Functional output (mix, optional records/trace).
    pub out: st2::sim::FunctionalOutput,
}

/// Runs the whole suite functionally, in parallel across kernels.
///
/// # Panics
///
/// Panics if any kernel fails its CPU-reference verification.
#[must_use]
pub fn functional_suite(scale: Scale, collect_records: bool) -> Vec<FunctionalRun> {
    functional_suite_filtered(scale, collect_records, None)
}

/// [`functional_suite`] restricted to kernels whose name contains
/// `filter` (the `--kernels` flag).
///
/// # Panics
///
/// Panics if a kernel fails verification or the filter matches nothing.
#[must_use]
pub fn functional_suite_filtered(
    scale: Scale,
    collect_records: bool,
    filter: Option<&str>,
) -> Vec<FunctionalRun> {
    let specs = filter_specs(suite(scale), filter);
    let results: Mutex<Vec<(usize, FunctionalRun)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (i, spec) in specs.into_iter().enumerate() {
            let results = &results;
            s.spawn(move || {
                let mut mem = spec.memory.clone();
                let out = run_functional(
                    &spec.program,
                    spec.launch,
                    &mut mem,
                    &FunctionalOptions {
                        collect_records,
                        ..Default::default()
                    },
                );
                spec.verify(&mem)
                    .unwrap_or_else(|e| panic!("{} failed verification: {e}", spec.name));
                results
                    .lock()
                    .expect("suite results lock")
                    .push((i, FunctionalRun { spec, out }));
            });
        }
    });
    let mut v = results.into_inner().expect("suite results lock");
    v.sort_by_key(|(i, _)| *i);
    v.into_iter().map(|(_, r)| r).collect()
}

/// One kernel's baseline + ST² timed results.
pub struct TimedPair {
    /// Kernel name.
    pub name: &'static str,
    /// Baseline run.
    pub baseline: TimedOutput,
    /// ST² run.
    pub st2: TimedOutput,
}

impl TimedPair {
    /// ST² slowdown relative to baseline (0 = identical).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.st2.cycles as f64 / self.baseline.cycles as f64 - 1.0
    }

    /// Baseline activity.
    #[must_use]
    pub fn baseline_activity(&self) -> &ActivityCounters {
        &self.baseline.activity
    }
}

/// Runs the whole suite on the cycle-level engine, baseline and ST², in
/// parallel across kernels.
///
/// # Panics
///
/// Panics if any kernel fails verification or the two runs' results
/// diverge.
#[must_use]
pub fn timed_suite(scale: Scale, cfg: &GpuConfig) -> Vec<TimedPair> {
    timed_suite_filtered(scale, cfg, None)
}

/// [`timed_suite`] restricted to kernels whose name contains `filter`
/// (the `--kernels` flag).
///
/// # Panics
///
/// Panics if a kernel fails verification, the baseline and ST² runs
/// diverge, or the filter matches nothing.
#[must_use]
pub fn timed_suite_filtered(scale: Scale, cfg: &GpuConfig, filter: Option<&str>) -> Vec<TimedPair> {
    let specs = filter_specs(suite(scale), filter);
    let st2_cfg = cfg.with_st2();
    let results: Mutex<Vec<(usize, TimedPair)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (i, spec) in specs.into_iter().enumerate() {
            let results = &results;
            let cfg = *cfg;
            s.spawn(move || {
                let mut m1 = spec.memory.clone();
                let baseline = run_timed_with(
                    &spec.program,
                    spec.launch,
                    &mut m1,
                    &cfg,
                    RunOptions::default(),
                );
                let mut m2 = spec.memory.clone();
                let st2 = run_timed_with(
                    &spec.program,
                    spec.launch,
                    &mut m2,
                    &st2_cfg,
                    RunOptions::default(),
                );
                assert_eq!(
                    m1.as_bytes(),
                    m2.as_bytes(),
                    "{}: speculation changed results",
                    spec.name
                );
                spec.verify(&m1)
                    .unwrap_or_else(|e| panic!("{} failed verification: {e}", spec.name));
                results.lock().expect("suite results lock").push((
                    i,
                    TimedPair {
                        name: spec.name,
                        baseline,
                        st2,
                    },
                ));
            });
        }
    });
    let mut v = results.into_inner().expect("suite results lock");
    v.sort_by_key(|(i, _)| *i);
    v.into_iter().map(|(_, r)| r).collect()
}

/// Prints a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Prints a ruled header line.
pub fn header(title: &str) {
    println!("\n== {title} ==");
    println!("{:-<78}", "");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_suite_runs_at_test_scale() {
        let runs = functional_suite(Scale::Test, false);
        assert_eq!(runs.len(), 23);
        assert!(runs.iter().all(|r| r.out.mix.total() > 0));
        // Order matches the Fig. 6 suite order.
        assert_eq!(runs[0].spec.name, "binomial");
        assert_eq!(runs[7].spec.name, "pathfinder");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.215), "21.5%");
    }

    #[test]
    fn bench_args_parse_all_flags() {
        let toks = [
            "--scale",
            "test",
            "--out",
            "art",
            "--kernels",
            "path",
            "--mshr-entries",
            "4",
            "--l2-bw",
            "3",
            "--dram-bw",
            "1",
            "--l2-partitions",
            "2",
            "--xbar-queue",
            "4",
            "--no-event-driven",
            "--no-mem-calendar",
            "--gpu",
            "titan-v-full",
        ];
        let args = BenchArgs::from_tokens(toks.iter().map(ToString::to_string));
        assert_eq!(args.scale, Scale::Test);
        assert_eq!(args.out.as_deref(), Some(std::path::Path::new("art")));
        assert_eq!(args.kernels.as_deref(), Some("path"));
        assert!(args.rest.is_empty());
        let gpu = args.gpu();
        assert_eq!(gpu.mshr_entries, 4);
        assert_eq!(gpu.l2_bw, 3);
        assert_eq!(gpu.dram_bw, 1);
        assert_eq!(gpu.l2_partitions, 2);
        assert_eq!(gpu.xbar_queue, 4);
        assert!(args.no_event_driven && !gpu.event_driven);
        assert!(args.no_mem_calendar && !gpu.mem_calendar);
        assert_eq!(args.gpu_preset, Some(GpuPreset::TitanVFull));
        assert_eq!(gpu.num_sms, GpuConfig::titan_v_full().num_sms);
        assert!(args.matches("pathfinder"));
        assert!(!args.matches("histogram"));
    }

    #[test]
    fn bench_args_defaults_and_positionals() {
        let toks = ["pathfinder", "out_dir"];
        let args = BenchArgs::from_tokens(toks.iter().map(ToString::to_string));
        assert_eq!(args.scale, Scale::Full);
        assert!(args.out.is_none() && args.kernels.is_none());
        assert!(args.mshr_entries.is_none() && args.l2_bw.is_none() && args.dram_bw.is_none());
        assert!(args.l2_partitions.is_none() && args.xbar_queue.is_none());
        assert!(!args.no_event_driven && !args.no_mem_calendar);
        assert!(args.gpu_preset.is_none());
        assert_eq!(args.rest, vec!["pathfinder", "out_dir"]);
        assert_eq!(
            args.gpu(),
            harness_gpu(),
            "no overrides leaves the config untouched"
        );
        assert!(args.matches("anything"));
    }

    #[test]
    #[should_panic(expected = "unrecognised flag \"--sim-threads\"")]
    fn bench_args_reject_unknown_flags() {
        // A stale flag must not fall through to the positionals, where
        // `trace_report` would take it for a kernel name.
        let toks = ["pathfinder", "--sim-threads", "2"];
        let _ = BenchArgs::from_tokens(toks.iter().map(ToString::to_string));
    }

    #[test]
    fn kernel_filter_restricts_suite() {
        let runs = functional_suite_filtered(Scale::Test, false, Some("pathfinder"));
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].spec.name, "pathfinder");
    }

    #[test]
    #[should_panic(expected = "matches no suite kernel")]
    fn kernel_filter_rejects_typos() {
        let _ = functional_suite_filtered(Scale::Test, false, Some("no-such-kernel"));
    }
}

/// Writes one CSV artifact (creating the directory as needed). Cells are
/// quoted only when they contain commas.
///
/// # Panics
///
/// Panics on I/O errors — an unwritable artifact directory is an operator
/// error the harness should surface immediately.
pub fn write_csv(dir: &std::path::Path, name: &str, header: &[&str], rows: &[Vec<String>]) {
    use std::io::Write as _;
    std::fs::create_dir_all(dir).expect("create artifact directory");
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create artifact file");
    let quote = |s: &str| {
        if s.contains(',') {
            format!("\"{s}\"")
        } else {
            s.to_string()
        }
    };
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| quote(c)).collect();
        writeln!(f, "{}", cells.join(",")).expect("write row");
    }
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod artifact_tests {
    use super::write_csv;

    #[test]
    fn csv_round_trips() {
        let dir = std::env::temp_dir().join("st2_csv_test");
        write_csv(
            &dir,
            "probe",
            &["kernel", "value"],
            &[
                vec!["pathfinder".into(), "0.5".into()],
                vec!["a,b".into(), "1".into()],
            ],
        );
        let text = std::fs::read_to_string(dir.join("probe.csv")).expect("read back");
        assert_eq!(text, "kernel,value\npathfinder,0.5\n\"a,b\",1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
