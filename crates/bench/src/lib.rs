//! Shared infrastructure for the reproduction harness: command-line
//! parsing, suite runners (parallelised across kernels), and table
//! printing.
//!
//! The `repro` binary regenerates each table and figure of the paper
//! from [`figures`]; see DESIGN.md's per-experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod summary;

use std::fmt::Write as _;
use std::io::{self, Write as _};

use st2::prelude::*;

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
/// * `--gpu harness|titan-v|titan-v-full` — base GPU preset before
///   overrides: the 4-SM harness slice (default),
///   [`GpuConfig::titan_v`], or the 80-SM [`GpuConfig::titan_v_full`]
///
/// Other tokens land in [`BenchArgs::rest`] for binaries with
/// positional arguments (`repro <figure>` and `trace_report <kernel>
/// [out_dir]`); an unrecognised `--flag` is rejected rather than taken
/// as positional.
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
    /// The 80-SM TITAN V with 4 L2 partitions ([`GpuConfig::titan_v`]).
    TitanV,
    /// The full 80-SM TITAN V ([`GpuConfig::titan_v_full`]).
    TitanVFull,
}

impl GpuPreset {
    /// Every preset, in `--gpu` help order.
    const ALL: [GpuPreset; 3] = [GpuPreset::Harness, GpuPreset::TitanV, GpuPreset::TitanVFull];

    /// The preset's `--gpu` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GpuPreset::Harness => "harness",
            GpuPreset::TitanV => "titan-v",
            GpuPreset::TitanVFull => "titan-v-full",
        }
    }

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
                "--gpu" => {
                    let v = value("--gpu");
                    let preset = GpuPreset::ALL.into_iter().find(|p| p.name() == v);
                    args.gpu_preset = Some(preset.unwrap_or_else(|| {
                        panic!("--gpu must be harness, titan-v or titan-v-full, got {v:?}")
                    }));
                }
                flag if flag.starts_with("--") => panic!("unrecognised flag {flag:?}"),
                _ => args.rest.push(tok),
            }
        }
        args
    }

    /// The command line that reproduces this run of `bin`: the scale,
    /// the GPU preset, and each filter and override that was given, in
    /// flag order. `--out` and positionals are left out; `tiny` is
    /// recorded as `test`, the scale it aliases.
    #[must_use]
    pub fn command_line(&self, bin: &str) -> String {
        let scale = if self.scale == Scale::Test {
            "test"
        } else {
            "full"
        };
        let gpu = self.gpu_preset.unwrap_or(GpuPreset::Harness).name();
        let mut line = format!("{bin} --scale {scale} --gpu {gpu}");
        if let Some(k) = &self.kernels {
            let _ = write!(line, " --kernels {k}");
        }
        for (flag, n) in [
            ("--mshr-entries", self.mshr_entries),
            ("--l2-bw", self.l2_bw),
            ("--dram-bw", self.dram_bw),
            ("--l2-partitions", self.l2_partitions),
            ("--xbar-queue", self.xbar_queue),
        ] {
            if let Some(n) = n {
                let _ = write!(line, " {flag} {n}");
            }
        }
        line
    }

    /// The selected GPU preset with any memory-subsystem overrides
    /// applied.
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

/// Runs `run` on every spec, one thread per kernel, and returns the
/// results in spec order. A panicking kernel re-raises its own panic.
fn per_kernel<T: Send>(specs: Vec<KernelSpec>, run: impl Fn(KernelSpec) -> T + Sync) -> Vec<T> {
    let run = &run;
    std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .into_iter()
            .map(|spec| s.spawn(move || run(spec)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// One kernel's functional results.
pub struct FunctionalRun {
    /// Kernel spec (memory already consumed by the run).
    pub spec: KernelSpec,
    /// Functional output (mix, optional records/trace).
    pub out: st2::sim::FunctionalOutput,
}

/// Runs the suite functionally, in parallel across kernels, restricted to
/// kernels whose name contains `filter` (the `--kernels` flag) when one
/// is given.
///
/// # Panics
///
/// Panics if a kernel fails its CPU-reference verification or the filter
/// matches nothing.
#[must_use]
pub fn functional_suite(
    scale: Scale,
    collect_records: bool,
    filter: Option<&str>,
) -> Vec<FunctionalRun> {
    per_kernel(filter_specs(suite(scale), filter), |spec| {
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
        FunctionalRun { spec, out }
    })
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
}

/// Runs the suite on the cycle-level engine, baseline and ST², in
/// parallel across kernels, restricted to kernels whose name contains
/// `filter` (the `--kernels` flag) when one is given.
///
/// # Panics
///
/// Panics if a kernel fails verification, the baseline and ST² runs
/// diverge, or the filter matches nothing.
#[must_use]
pub fn timed_suite(scale: Scale, cfg: &GpuConfig, filter: Option<&str>) -> Vec<TimedPair> {
    per_kernel(filter_specs(suite(scale), filter), |spec| {
        timed_pair(spec, cfg)
    })
}

/// Runs one kernel on the cycle-level engine under `cfg`, baseline and
/// ST².
///
/// # Panics
///
/// Panics if the kernel fails verification or the two runs diverge.
#[must_use]
pub(crate) fn timed_pair(spec: KernelSpec, cfg: &GpuConfig) -> TimedPair {
    let run = |cfg: &GpuConfig| {
        let mut mem = spec.memory.clone();
        let out = run_timed_with(
            &spec.program,
            spec.launch,
            &mut mem,
            cfg,
            RunOptions::default(),
        );
        (out, mem)
    };
    let (baseline, m1) = run(cfg);
    let (st2, m2) = run(&cfg.with_st2());
    assert_eq!(
        m1.as_bytes(),
        m2.as_bytes(),
        "{}: speculation changed results",
        spec.name
    );
    spec.verify(&m1)
        .unwrap_or_else(|e| panic!("{} failed verification: {e}", spec.name));
    TimedPair {
        name: spec.name,
        baseline,
        st2,
    }
}

/// Profiles the suite on the cycle-level engine under `cfg`, in
/// parallel across kernels: one timed run per kernel with telemetry
/// collecting, its profile captured with disassembly labels and priced
/// with the characterised energy model. This is `profile_report`'s
/// pipeline; the `profile_golden` test pins its summary.
///
/// # Panics
///
/// Panics if a kernel fails verification, an SM's issue-slot accounting
/// does not reconcile with the cycle count, or the filter matches
/// nothing.
#[must_use]
pub fn profile_suite(scale: Scale, cfg: &GpuConfig, filter: Option<&str>) -> Vec<KernelProfile> {
    // Pricing happens after capture, at the reporting layer, so it
    // leaves the integer timelines untouched.
    let weights = EnergyModel::characterized().interval_weights(cfg.clock_ghz);
    per_kernel(filter_specs(suite(scale), filter), |spec| {
        let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
        let mut mem = spec.memory.clone();
        let out = run_timed_with(
            &spec.program,
            spec.launch,
            &mut mem,
            cfg,
            RunOptions::with_telemetry(&mut tele),
        );
        spec.verify(&mem)
            .unwrap_or_else(|e| panic!("{} failed verification: {e}", spec.name));
        let mut profile = KernelProfile::capture(&tele, spec.name, Some(&spec.program));
        profile.attach_energy(&weights);
        check_reconciliation(&profile, cfg, out.cycles);
        profile
    })
}

/// Every SM's slot accounting must balance to the cycle count exactly:
/// attributed stalls + issued slots = cycles × issue_width.
fn check_reconciliation(profile: &KernelProfile, cfg: &GpuConfig, cycles: u64) {
    for (i, sm) in profile.sms.iter().enumerate() {
        assert_eq!(
            sm.cycles, cycles,
            "{}: SM{i} profile covers {} of {} cycles",
            profile.kernel, sm.cycles, cycles
        );
        assert_eq!(
            sm.slots,
            cycles * u64::from(cfg.issue_width),
            "{}: SM{i} slot total diverged from cycles x issue_width",
            profile.kernel
        );
        assert_eq!(
            sm.unattributed(),
            0,
            "{}: SM{i} has unattributed issue slots (issued {} + stalled {} != {})",
            profile.kernel,
            sm.issued,
            sm.stalled(),
            sm.slots
        );
    }
}

/// Prints a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Writes a ruled header line.
///
/// # Errors
///
/// Returns the first error writing to `w`.
pub fn header(w: &mut impl io::Write, title: &str) -> io::Result<()> {
    writeln!(w, "\n== {title} ==")?;
    writeln!(w, "{:-<78}", "")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_suite_runs_at_test_scale() {
        let runs = functional_suite(Scale::Test, false, None);
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
        assert_eq!(args.gpu_preset, Some(GpuPreset::TitanVFull));
        assert_eq!(gpu.num_sms, GpuConfig::titan_v_full().num_sms);
    }

    #[test]
    fn bench_args_defaults_and_positionals() {
        let toks = ["pathfinder", "out_dir"];
        let args = BenchArgs::from_tokens(toks.iter().map(ToString::to_string));
        assert_eq!(args.scale, Scale::Full);
        assert!(args.out.is_none() && args.kernels.is_none());
        assert!(args.mshr_entries.is_none() && args.l2_bw.is_none() && args.dram_bw.is_none());
        assert!(args.l2_partitions.is_none() && args.xbar_queue.is_none());
        assert!(args.gpu_preset.is_none());
        assert_eq!(args.rest, vec!["pathfinder", "out_dir"]);
        assert_eq!(
            args.gpu(),
            harness_gpu(),
            "no overrides leaves the config untouched"
        );
    }

    #[test]
    fn command_line_records_scale_preset_and_overrides() {
        let line = |toks: &[&str]| {
            BenchArgs::from_tokens(toks.iter().map(ToString::to_string)).command_line("bin")
        };
        // The default machine is the harness slice, named explicitly.
        assert_eq!(
            line(&["--scale", "tiny", "--out", "dir"]),
            "bin --scale test --gpu harness"
        );
        assert_eq!(
            line(&[
                "--xbar-queue",
                "1",
                "--gpu",
                "titan-v-full",
                "--kernels",
                "histo",
                "--dram-bw",
                "1",
                "--mshr-entries",
                "2",
                "--l2-partitions",
                "4",
                "--l2-bw",
                "3",
            ]),
            "bin --scale full --gpu titan-v-full --kernels histo --mshr-entries 2 \
             --l2-bw 3 --dram-bw 1 --l2-partitions 4 --xbar-queue 1"
        );
    }

    #[test]
    #[should_panic(expected = "unrecognised flag \"--sim-threads\"")]
    fn bench_args_reject_unknown_flags() {
        // A stale flag must not fall through to the positionals, where
        // `trace_report` would take it for a kernel name.
        let parse = |flag: &str| {
            BenchArgs::from_tokens(["pathfinder", flag, "2"].iter().map(ToString::to_string))
        };
        for flag in ["--no-event-driven", "--no-mem-calendar"] {
            let err = std::panic::catch_unwind(|| parse(flag)).expect_err(flag);
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert_eq!(*msg, format!("unrecognised flag {flag:?}"));
        }
        let _ = parse("--sim-threads");
    }

    #[test]
    fn kernel_filter_restricts_suite() {
        let runs = functional_suite(Scale::Test, false, Some("pathfinder"));
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].spec.name, "pathfinder");
    }

    #[test]
    #[should_panic(expected = "matches no suite kernel")]
    fn kernel_filter_rejects_typos() {
        let _ = functional_suite(Scale::Test, false, Some("no-such-kernel"));
    }
}

/// Writes one CSV artifact `<dir>/<name>.csv` (creating the directory
/// as needed) and reports its path on `w`. Cells are quoted only when
/// they contain commas.
///
/// # Errors
///
/// Returns the first I/O error, from the artifact or from `w`.
pub fn write_csv(
    w: &mut impl io::Write,
    dir: &std::path::Path,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    let quote = |s: &str| {
        if s.contains(',') {
            format!("\"{s}\"")
        } else {
            s.to_string()
        }
    };
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| quote(c)).collect();
        writeln!(f, "{}", cells.join(","))?;
    }
    writeln!(w, "wrote {}", path.display())
}

#[cfg(test)]
mod artifact_tests {
    use super::write_csv;

    #[test]
    fn csv_round_trips() {
        let dir = std::env::temp_dir().join("st2_csv_test");
        let mut log = Vec::new();
        write_csv(
            &mut log,
            &dir,
            "probe",
            &["kernel", "value"],
            &[
                vec!["pathfinder".into(), "0.5".into()],
                vec!["a,b".into(), "1".into()],
            ],
        )
        .expect("write artifact");
        let path = dir.join("probe.csv");
        assert_eq!(log, format!("wrote {}\n", path.display()).into_bytes());
        let text = std::fs::read_to_string(dir.join("probe.csv")).expect("read back");
        assert_eq!(text, "kernel,value\npathfinder,0.5\n\"a,b\",1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
