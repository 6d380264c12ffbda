//! One workload run: a set-up, an untimed warm-up pass, then the
//! workload's fixed number of measured passes, each untraced one preceded
//! by another timed set-up.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::golden;
use crate::metrics::{Metric, WorkloadResult};
use crate::stats::quartiles;
use crate::trace::{self_times, Phase, Span, Tracer};
use crate::workloads::{setup, Counts, PassOut, Size, Workload};

/// Unobserved runs behind `telemetry.collect_s`.
const REFERENCE_RUNS: u32 = 3;
/// Failure messages kept in a result.
const MAX_FAILURES: usize = 8;

/// What a pass's exact outputs must equal.
pub enum Expect {
    /// The committed golden values (or why they could not be read).
    Golden(Result<BTreeMap<String, f64>, String>),
    /// The first pass's own outputs: `--write-golden` records them, and
    /// later passes must repeat them.
    FirstPass,
}

pub struct RunConfig {
    pub workload: Workload,
    pub size: Size,
    pub seed: u64,
    /// Alternate untraced and traced passes and report per-layer metrics.
    pub trace: bool,
    pub expect: Expect,
}

/// Failure tally over the whole run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        let room = MAX_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(failures.into_iter().take(room));
    }
}

/// Runs one workload; returns its result and the spans of a traced run.
#[must_use]
pub fn run(cfg: RunConfig) -> (WorkloadResult, Vec<Span>) {
    let mut t = Tracer::new(cfg.trace);
    // `setup_s` is the median of set-ups spread over the whole run, one
    // before each untraced pass: interference on a shared host comes in
    // bursts of seconds, which back-to-back set-ups would all fall into.
    let mut setup_s = Vec::new();
    let mut timed_setup = |t: &mut Tracer, index: u32| {
        t.set_enabled(cfg.trace);
        t.enter(Phase::Setup, index);
        t.begin("setup");
        let t0 = Instant::now();
        let b = setup(cfg.workload, cfg.size, cfg.seed, t);
        setup_s.push(t0.elapsed().as_secs_f64());
        t.end();
        b
    };
    let bench = timed_setup(&mut t, 0);

    let mut tally = Tally::default();
    let mut want = match cfg.expect {
        Expect::Golden(g) => Some(g),
        Expect::FirstPass => None,
    };
    let mut settle = |out: PassOut, tally: &mut Tally| {
        tally.add(out.attempted, out.failures);
        match &want {
            None => want = Some(Ok(out.exact.clone())),
            Some(Ok(pinned)) => {
                let (n, failures) = golden::check(&out.exact, pinned);
                tally.add(n, failures);
            }
            Some(Err(e)) => tally.add(1, vec![e.clone()]),
        }
        (out.exact, out.counts)
    };
    let pass = |t: &mut Tracer| {
        let mut out = PassOut::default();
        bench.pass(t, &mut out);
        if out.counts.timed_cycles > 0 {
            out.exact
                .insert("sim_cycles".into(), out.counts.timed_cycles as f64);
        }
        out
    };

    if cfg.size == Size::Full {
        t.set_enabled(false);
        let out = pass(&mut t);
        settle(out, &mut tally);
    }

    // The passes of each kind; a traced run adds as many traced ones,
    // alternating with the untraced.
    let passes = match cfg.size {
        Size::Smoke => 1,
        Size::Full => cfg.workload.passes(),
    };
    let kinds = if cfg.trace { 2 } else { 1 };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    // Each operation's fastest untraced run.
    let mut fastest_op: BTreeMap<String, f64> = BTreeMap::new();
    let mut last = (BTreeMap::new(), Counts::default());
    for i in 0..(kinds * passes) as u32 {
        let observe = cfg.trace && i % 2 == 1;
        if !observe && cfg.size == Size::Full {
            drop(timed_setup(&mut t, i + 1));
        }
        t.set_enabled(observe);
        t.enter(Phase::Pass, i);
        t.begin("pass");
        let t0 = Instant::now();
        let mut out = pass(&mut t);
        let dt = t0.elapsed().as_secs_f64();
        t.end();
        if observe {
            traced.push(dt);
        } else {
            untraced.push(dt);
            for (label, s) in std::mem::take(&mut out.op_s) {
                let best = fastest_op.entry(label).or_insert(s);
                *best = best.min(s);
            }
        }
        last = settle(out, &mut tally);
    }
    if cfg.trace {
        t.set_enabled(true);
        for k in 0..REFERENCE_RUNS {
            t.enter(Phase::Reference, k);
            bench.reference(&mut t);
        }
    }
    let (exact, counts) = last;

    let mut metrics = BTreeMap::new();
    let w = counts.warp_instructions as f64;
    // Other tenants' load only ever adds time, in bursts shorter than a
    // pass but longer than most operations, so a pass assembled from each
    // operation's fastest run is the steadiest estimate of the work's own
    // cost (README, "Why each operation's fastest run"). The pass times
    // stay beside it as samples.
    let best: f64 = fastest_op.values().sum();
    let kwips = untraced.iter().map(|dt| w / 1e3 / dt).collect();
    let setup_median = quartiles(&setup_s).median;
    let metric = |value, samples| Metric { value, samples };
    metrics.insert("setup_s".to_string(), metric(setup_median, setup_s));
    metrics.insert("wall_s".to_string(), metric(best, untraced.clone()));
    metrics.insert("sim_kwips".to_string(), metric(w / 1e3 / best, kwips));
    metrics.insert("peak_rss_mb".to_string(), Metric::single(peak_rss_mb()));
    let fail_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    metrics.insert("fail_ratio".to_string(), Metric::single(fail_ratio));
    for name in [
        "sim_cycles",
        "st2_slowdown_pct",
        "st2_energy_saving_pct",
        "st2_miss_pct",
    ] {
        if let Some(v) = exact.get(name) {
            metrics.insert(name.to_string(), Metric::single(*v));
        }
    }
    let layers = if cfg.trace {
        layer_metrics(t.spans(), &counts, &untraced, &traced)
    } else {
        BTreeMap::new()
    };
    let result = WorkloadResult {
        workload: cfg.workload.name().to_string(),
        passes: untraced.len() as u64,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        layers,
        exact,
    };
    let spans = t.spans().to_vec();
    (result, spans)
}

/// The smallest of some pass or layer times (0 for none).
fn fastest(passes: &[f64]) -> f64 {
    passes.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where the kernel
/// does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Self time in seconds per span name, summed within each set-up, pass
/// or reference run.
type Groups = BTreeMap<(Phase, u32), BTreeMap<&'static str, f64>>;

fn groups(spans: &[Span], selfs: &[u64]) -> Groups {
    let mut groups = Groups::new();
    for (s, &ns) in spans.iter().zip(selfs) {
        *groups
            .entry((s.phase, s.index))
            .or_default()
            .entry(s.name)
            .or_default() += ns as f64 / 1e9;
    }
    groups
}

/// Per-layer metrics of a traced run.
fn layer_metrics(
    spans: &[Span],
    c: &Counts,
    untraced: &[f64],
    traced: &[f64],
) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let groups = groups(spans, &selfs);
    // ST2 timed minus baseline timed, per pass, over the same kernels.
    let mut st2_extra: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(&selfs) {
        if s.phase == Phase::Pass && s.name == "sim.timed" {
            let e = st2_extra.entry(s.index).or_default();
            if s.label.ends_with("/st2") {
                e.0 += ns as f64 / 1e9;
            } else if s.label.ends_with("/baseline") {
                e.1 += ns as f64 / 1e9;
            }
        }
    }
    let (setup, pass, reference) = (Phase::Setup, Phase::Pass, Phase::Reference);
    // Set-up layers as `setup_s` summarises set-ups (median); pass layers
    // at their fastest pass.
    let stat = |phase: Phase, name: &str| {
        let v: Vec<f64> = groups
            .iter()
            .filter(|((p, _), _)| *p == phase)
            .map(|(_, g)| g.get(name).copied().unwrap_or(0.0))
            .collect();
        match (phase, v.is_empty()) {
            (_, true) => 0.0,
            (Phase::Setup, false) => quartiles(&v).median,
            _ => fastest(&v),
        }
    };
    let per = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs * 1e9 / n as f64 };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let engine_s = stat(pass, "sim.engine");
    let timed_s = stat(pass, "sim.timed");
    let sweep_s = stat(pass, "core.sweep");
    let awake = c.sm_cycles - c.sleep_cycles;
    let (st2, base): (Vec<f64>, Vec<f64>) = st2_extra.values().copied().unzip();
    // Only a workload that runs both variants of the same kernels has one.
    let extra = if fastest(&st2) > 0.0 && fastest(&base) > 0.0 {
        fastest(&st2) - fastest(&base)
    } else {
        0.0
    };
    let has_reference = groups.keys().any(|(p, _)| *p == reference);
    let traced_wall = fastest(traced);
    let other = stat(pass, "pass");

    [
        ("kernels.build_s", stat(setup, "kernels.build")),
        ("kernels.verify_s", stat(pass, "kernels.verify")),
        ("power.characterize_s", stat(setup, "power.characterize")),
        ("power.price_s", stat(pass, "power.price")),
        ("sim.engine.s", engine_s),
        (
            "sim.engine.ns_per_warp_inst",
            per(engine_s, c.functional_warp_instructions),
        ),
        ("sim.timed.s", timed_s),
        ("sim.timed.ns_per_cycle", per(timed_s, c.timed_cycles)),
        ("sim.timed.ns_per_awake_sm_cycle", per(timed_s, awake)),
        ("sim.timed.cycles", c.timed_cycles as f64),
        ("sim.timed.sleep_share", ratio(c.sleep_cycles, c.sm_cycles)),
        (
            "sim.timed.issue_per_awake_sm_cycle",
            ratio(c.timed_warp_instructions, awake),
        ),
        (
            "sim.timed.mem_skip_share",
            ratio(c.mem_skip_cycles, c.timed_cycles),
        ),
        ("sim.timed.ff_wakeups", c.ff_wakeups as f64),
        (
            "sim.memory.l1_hit_rate",
            match c.l1_accesses.saturating_sub(c.mshr_merges) {
                0 => 0.0,
                fresh => 1.0 - ratio(c.l1_misses, fresh),
            },
        ),
        ("sim.memory.dram_accesses", c.dram_accesses as f64),
        ("sim.memory.mshr_merges", c.mshr_merges as f64),
        ("sim.memory.bw_starved_cycles", c.bw_starved_cycles as f64),
        ("sim.memory.xbar_wait_cycles", c.xbar_wait_cycles as f64),
        ("core.st2_extra_s", extra),
        ("core.sweep_s", sweep_s),
        ("core.ns_per_record_point", per(sweep_s, c.record_points)),
        ("core.adder_ops", c.adder_ops as f64),
        ("core.mispredict_rate", ratio(c.mispredicts, c.adder_ops)),
        (
            "telemetry.collect_s",
            if has_reference {
                timed_s - stat(reference, "sim.timed")
            } else {
                0.0
            },
        ),
        ("telemetry.capture_s", stat(pass, "telemetry.capture")),
        ("telemetry.price_s", stat(pass, "telemetry.price")),
        ("telemetry.json_s", stat(pass, "telemetry.json")),
        ("telemetry.json_bytes", c.json_bytes as f64),
        ("bench.other_s", other),
        (
            "bench.other_share",
            if traced_wall > 0.0 {
                other / traced_wall
            } else {
                0.0
            },
        ),
        (
            "bench.trace_overhead",
            if traced.is_empty() || untraced.is_empty() {
                0.0
            } else {
                traced_wall / fastest(untraced) - 1.0
            },
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// The traced run's self time per layer call, one row per span name:
/// median per pass (or per set-up), and the share of pass time.
#[must_use]
pub fn self_time_table(workload: &str, spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let groups = groups(spans, &self_times(spans));
    let mut text = format!(
        "{workload}: self time per layer call (traced run)\n  {:<20} {:<10} {:>12} {:>8}\n",
        "span", "phase", "median s", "share"
    );
    for phase in [Phase::Setup, Phase::Pass, Phase::Reference] {
        let rows: Vec<&BTreeMap<&str, f64>> = groups
            .iter()
            .filter(|((p, _), _)| *p == phase)
            .map(|(_, g)| g)
            .collect();
        let mut names: Vec<&str> = rows.iter().flat_map(|g| g.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        let total: f64 = rows.iter().flat_map(|g| g.values()).sum();
        for name in names {
            let v: Vec<f64> = rows
                .iter()
                .map(|g| g.get(name).copied().unwrap_or(0.0))
                .collect();
            let sum: f64 = v.iter().sum();
            let _ = writeln!(
                text,
                "  {:<20} {:<10} {:>12.6} {:>7.1}%",
                name,
                phase.name(),
                quartiles(&v).median,
                100.0 * sum / total.max(f64::MIN_POSITIVE)
            );
        }
    }
    text
}
