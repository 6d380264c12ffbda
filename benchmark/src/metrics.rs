//! Metric definitions, the result document, and `--compare`.

use std::collections::BTreeMap;

use crate::api::json::{self, Value, Writer};
use crate::stats::{quartiles, Quartiles};

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
    /// Any change is a regression: a simulator-only change must leave
    /// the value identical.
    Exact,
}

impl Better {
    #[cfg(test)]
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
            Better::Exact => "exact",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// Reported on every workload, never 0, and gated by `BENCHMARK.json`.
    /// The others are exact model outputs, or defined on some workloads
    /// only; `golden.json` and the failure count guard them instead.
    pub gated: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    gated: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        gated,
    }
}

pub const END_TO_END: [EndToEnd; 9] = [
    // Spells of contention from other tenants of the host slow whole runs
    // by up to ~28 %; ten runs' quartile spread reached 16 % (README, "Why
    // these bounds"). Ten-millisecond set-ups move with machine load more
    // than passes do; they get the widest bound.
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    e2e("wall_s", "s", Better::Lower, 0.20, true),
    e2e("sim_kwips", "kwinst/s", Better::Higher, 0.20, true),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, true),
    e2e("fail_ratio", "ratio", Better::Lower, 0.0, false),
    e2e("sim_cycles", "cycles", Better::Exact, 0.0, false),
    e2e("st2_slowdown_pct", "%", Better::Exact, 0.0, false),
    e2e("st2_energy_saving_pct", "%", Better::Exact, 0.0, false),
    e2e("st2_miss_pct", "%", Better::Exact, 0.0, false),
];

/// One per-layer metric (traced runs only).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that holds `BENCHMARK.json` to these tables.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer times are per-pass medians of span self time; counts and
/// ratios are exact per-pass values. A layer a workload never calls
/// reads 0.
pub const PER_LAYER: [PerLayer; 32] = [
    layer("kernels.build_s", "s", Better::Lower),
    layer("kernels.verify_s", "s", Better::Lower),
    layer("power.characterize_s", "s", Better::Lower),
    layer("power.price_s", "s", Better::Lower),
    layer("sim.engine.s", "s", Better::Lower),
    layer("sim.engine.ns_per_warp_inst", "ns", Better::Lower),
    layer("sim.timed.s", "s", Better::Lower),
    layer("sim.timed.ns_per_cycle", "ns", Better::Lower),
    layer("sim.timed.ns_per_awake_sm_cycle", "ns", Better::Lower),
    layer("sim.timed.cycles", "cycles", Better::Lower),
    layer("sim.timed.sleep_share", "ratio", Better::Higher),
    layer(
        "sim.timed.issue_per_awake_sm_cycle",
        "ratio",
        Better::Higher,
    ),
    layer("sim.timed.mem_skip_share", "ratio", Better::Higher),
    layer("sim.timed.ff_wakeups", "count", Better::Lower),
    layer("sim.memory.l1_hit_rate", "ratio", Better::Higher),
    layer("sim.memory.dram_accesses", "count", Better::Lower),
    layer("sim.memory.mshr_merges", "count", Better::Higher),
    layer("sim.memory.bw_starved_cycles", "cycles", Better::Lower),
    layer("sim.memory.xbar_wait_cycles", "cycles", Better::Lower),
    layer("core.st2_extra_s", "s", Better::Lower),
    layer("core.sweep_s", "s", Better::Lower),
    layer("core.ns_per_record_point", "ns", Better::Lower),
    layer("core.adder_ops", "count", Better::Lower),
    layer("core.mispredict_rate", "ratio", Better::Lower),
    layer("telemetry.collect_s", "s", Better::Lower),
    layer("telemetry.capture_s", "s", Better::Lower),
    layer("telemetry.price_s", "s", Better::Lower),
    layer("telemetry.json_s", "s", Better::Lower),
    layer("telemetry.json_bytes", "bytes", Better::Lower),
    layer("bench.other_s", "s", Better::Lower),
    layer("bench.other_share", "ratio", Better::Lower),
    layer("bench.trace_overhead", "ratio", Better::Lower),
];

/// The name rule `BENCHMARK.json` imposes on metric and workload names:
/// a letter or digit first, then at most 63 letters, digits, `_`, `.`
/// and `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[must_use]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One metric of one workload run: the value it reports and the
/// samples (passes, set-ups) that value summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    /// A value measured once.
    #[must_use]
    pub fn single(value: f64) -> Metric {
        Metric {
            value,
            samples: vec![value],
        }
    }

    #[must_use]
    pub fn quartiles(&self) -> Quartiles {
        quartiles(&self.samples)
    }
}

/// Everything one workload run measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    pub workload: String,
    /// Measured passes without tracing.
    pub passes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// The exact outputs `golden.json` pins, from the last pass.
    pub exact: BTreeMap<String, f64>,
}

fn write_map(w: &mut Writer, key: &str, map: &BTreeMap<String, f64>) {
    w.key(key);
    w.begin_object();
    for (k, v) in map {
        w.field_f64(k, *v);
    }
    w.end_object();
}

fn read_map(v: Option<&Value>) -> BTreeMap<String, f64> {
    match v {
        // A value that is not a number reads as NaN, which equals
        // nothing, so a corrupted entry fails its comparison.
        Some(Value::Object(m)) => m
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn read_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|x| x as u64)
        .ok_or_else(|| format!("missing number {key:?}"))
}

impl WorkloadResult {
    pub fn write(&self, w: &mut Writer) {
        w.begin_object();
        w.field_str("workload", &self.workload);
        w.field_u64("passes", self.passes);
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.key("failures");
        w.begin_array();
        for f in &self.failures {
            w.string(f);
        }
        w.end_array();
        w.key("metrics");
        w.begin_object();
        for (name, m) in &self.metrics {
            w.key(name);
            w.begin_object();
            let q = m.quartiles();
            w.field_str("unit", end_to_end(name).map_or("", |d| d.unit));
            w.field_f64("value", m.value);
            w.field_f64("median", q.median);
            w.field_f64("q1", q.q1);
            w.field_f64("q3", q.q3);
            w.field_u64("n", m.samples.len() as u64);
            w.key("samples");
            w.begin_array();
            for s in &m.samples {
                w.f64(*s);
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        write_map(w, "layers", &self.layers);
        write_map(w, "exact", &self.exact);
        w.end_object();
    }

    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        self.write(&mut w);
        w.finish()
    }

    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn from_value(v: &Value) -> Result<WorkloadResult, String> {
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("missing \"workload\"")?
            .to_string();
        let mut metrics = BTreeMap::new();
        if let Some(Value::Object(m)) = v.get("metrics") {
            for (name, mv) in m {
                let samples: Vec<f64> = mv
                    .get("samples")
                    .and_then(Value::as_array)
                    .ok_or_else(|| format!("{workload}.{name}: missing samples"))?
                    .iter()
                    .map(|s| s.as_f64().ok_or(format!("{workload}.{name}: bad sample")))
                    .collect::<Result<_, _>>()?;
                if samples.is_empty() {
                    return Err(format!("{workload}.{name}: no samples"));
                }
                let value = mv
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{workload}.{name}: missing value"))?;
                metrics.insert(name.clone(), Metric { value, samples });
            }
        }
        let failures = v
            .get("failures")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect();
        Ok(WorkloadResult {
            passes: read_u64(v, "passes")?,
            attempted: read_u64(v, "attempted")?,
            failed: read_u64(v, "failed")?,
            failures,
            metrics,
            layers: read_map(v.get("layers")),
            exact: read_map(v.get("exact")),
            workload,
        })
    }
}

/// The machine a result document was measured on.
#[derive(Debug, Clone, Default)]
pub struct Host {
    /// CPUs the kernel has online (the host's `nproc` before pinning).
    pub cpus_online: u64,
    /// CPUs the benchmark process may run on (the pinned CPU).
    pub cpus_allowed: String,
}

/// A result document: settings, host and every workload run.
pub fn document(host: &Host, settings: &[(&str, String)], runs: &[WorkloadResult]) -> String {
    let mut w = Writer::new();
    w.begin_object();
    w.field_u64("schema", 1);
    w.key("host");
    w.begin_object();
    w.field_u64("cpus_online", host.cpus_online);
    w.field_str("cpus_allowed", &host.cpus_allowed);
    w.end_object();
    w.key("settings");
    w.begin_object();
    for (k, v) in settings {
        w.field_str(k, v);
    }
    w.end_object();
    w.key("runs");
    w.begin_array();
    for r in runs {
        r.write(&mut w);
    }
    w.end_array();
    w.end_object();
    pretty(&json::parse(&w.finish()).expect("the writer emits valid JSON"))
}

/// Indented JSON with object keys sorted; arrays of numbers stay on one
/// line, so committed documents diff line by line.
#[must_use]
pub fn pretty(v: &Value) -> String {
    fn scalar(v: &Value) -> Option<String> {
        match v {
            Value::Null => Some("null".into()),
            Value::Bool(b) => Some(b.to_string()),
            Value::Number(n) if n.is_finite() => Some(n.to_string()),
            Value::Number(_) => Some("null".into()),
            Value::String(s) => Some(json::escape(s)),
            Value::Array(_) | Value::Object(_) => None,
        }
    }
    fn go(v: &Value, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        match v {
            Value::Array(items) if items.iter().all(|i| matches!(i, Value::Number(_))) => {
                let parts: Vec<String> = items.iter().filter_map(scalar).collect();
                out.push('[');
                out.push_str(&parts.join(", "));
                out.push(']');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    go(item, depth + 1, out);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, item)) in map.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    out.push_str(&json::escape(k));
                    out.push_str(": ");
                    go(item, depth + 1, out);
                }
                if !map.is_empty() {
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                }
                out.push('}');
            }
            other => out.push_str(&scalar(other).unwrap_or_default()),
        }
    }
    let mut out = String::new();
    go(v, 0, &mut out);
    out.push('\n');
    out
}

/// The runs of a result document.
///
/// # Errors
///
/// Unparseable JSON or a malformed run.
pub fn read_document(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let doc = json::parse(text)?;
    doc.get("runs")
        .and_then(Value::as_array)
        .ok_or("missing \"runs\" array")?
        .iter()
        .map(WorkloadResult::from_value)
        .collect()
}

/// Verdict of one (workload, metric) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound and the sides'
    /// samples overlap.
    Unresolved,
}

impl Verdict {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The relative change from `a` to `b` in the worsening direction
/// (positive = worse).
#[must_use]
pub fn worsening(def: &EndToEnd, a: f64, b: f64) -> f64 {
    let rel = if a == 0.0 {
        if b == a {
            0.0
        } else {
            f64::INFINITY.copysign(b - a)
        }
    } else {
        (b - a) / a.abs()
    };
    match def.better {
        Better::Higher => -rel,
        Better::Lower | Better::Exact => rel,
    }
}

/// Compares baseline runs `a` with candidate runs `b` (one value per run).
#[must_use]
pub fn verdict(def: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if def.better == Better::Exact {
        let first = a[0].to_bits();
        return if a.iter().chain(b).all(|x| x.to_bits() == first) {
            Verdict::Same
        } else {
            Verdict::Worse
        };
    }
    let (qa, qb) = (quartiles(a), quartiles(b));
    let worst = |s: &[f64]| match def.better {
        Better::Higher => s.iter().copied().fold(f64::INFINITY, f64::min),
        _ => s.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    };
    let best = |s: &[f64]| match def.better {
        Better::Higher => s.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        _ => s.iter().copied().fold(f64::INFINITY, f64::min),
    };
    // "b beats every a": b's worst sample is better than a's best.
    let separated =
        worsening(def, best(a), worst(b)) < 0.0 || worsening(def, worst(a), best(b)) > 0.0;
    if qa.spread().max(qb.spread()) > def.bound && !separated {
        return Verdict::Unresolved;
    }
    let d = worsening(def, qa.median, qb.median);
    if d > def.bound {
        Verdict::Worse
    } else if d < -def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Each (workload, metric)'s value in every run of a document.
#[must_use]
pub fn per_run(runs: &[WorkloadResult]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in runs {
        for (name, m) in &r.metrics {
            out.entry((r.workload.clone(), name.clone()))
                .or_default()
                .push(m.value);
        }
    }
    out
}

/// The `--compare` table: one row per (workload, end-to-end metric)
/// both documents report, in workload order of `a`. Returns the rows'
/// text and whether any verdict is `worse`.
#[must_use]
pub fn compare(a: &[WorkloadResult], b: &[WorkloadResult]) -> (String, bool) {
    use std::fmt::Write as _;
    let (pa, pb) = (per_run(a), per_run(b));
    let mut order: Vec<&str> = Vec::new();
    for r in a {
        if !order.contains(&r.workload.as_str()) {
            order.push(&r.workload);
        }
    }
    let mut text = format!(
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>7} {:>7}  {}\n",
        "workload", "metric", "a median", "b median", "delta", "bound", "spread", "verdict"
    );
    let mut any_worse = false;
    for wl in order {
        for def in &END_TO_END {
            let key = (wl.to_string(), def.name.to_string());
            let (Some(sa), Some(sb)) = (pa.get(&key), pb.get(&key)) else {
                continue;
            };
            let v = verdict(def, sa, sb);
            any_worse |= v == Verdict::Worse;
            let (qa, qb) = (quartiles(sa), quartiles(sb));
            let _ = writeln!(
                text,
                "{:<12} {:<22} {:>14} {:>14} {:>+8.2}% {:>6.1}% {:>6.1}%  {}",
                wl,
                def.name,
                format!("{:.6}", qa.median),
                format!("{:.6}", qb.median),
                100.0 * worsening(def, qa.median, qb.median),
                100.0 * def.bound,
                100.0 * qa.spread().max(qb.spread()),
                v.name()
            );
        }
    }
    (text, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_and_workload_name_follows_the_rule() {
        for n in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(n), "{n}");
        }
        for w in crate::workloads::Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
        }
        for good in ["a", "9lives", "sim.timed.s", "paper-suite", "x_y.z-w"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "ü", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let gated: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.gated).collect();
        let listed = names("end_to_end");
        assert_eq!(listed.len(), gated.len());
        for ((name, unit, better), def) in listed.iter().zip(&gated) {
            assert_eq!(
                (name.as_str(), unit.as_str(), better.as_str()),
                (def.name, def.unit, def.better.name())
            );
        }
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end")
            .iter()
            .map(|m| m.get("bound").and_then(Value::as_f64).expect("bound"))
            .collect();
        assert_eq!(bounds, gated.iter().map(|m| m.bound).collect::<Vec<_>>());
        let layers = names("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for ((name, unit, better), def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (name.as_str(), unit.as_str(), better.as_str()),
                (def.name, def.unit, def.better.name())
            );
        }
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Value::as_str).expect(k);
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(&str, &str)> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| (w.name(), w.why()))
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_round_trips_through_json() {
        let mut r = WorkloadResult {
            workload: "chip".into(),
            passes: 3,
            attempted: 7,
            failed: 1,
            failures: vec!["gather: \"quoted\"".into()],
            ..Default::default()
        };
        r.metrics.insert(
            "wall_s".into(),
            Metric {
                value: 1.25,
                samples: vec![1.5, 1.25, 1.375],
            },
        );
        r.layers.insert("sim.timed.s".into(), 0.125);
        r.exact.insert("gather/baseline/cycles".into(), 13096.0);
        let back =
            WorkloadResult::from_value(&json::parse(&r.to_json()).expect("json")).expect("result");
        assert_eq!(back, r);
    }

    #[test]
    fn verdicts() {
        let wall = &e2e("wall_s", "s", Better::Lower, 0.10, true);
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            verdict(wall, &base, &[1.03, 1.02, 1.04, 1.03, 1.02]),
            Verdict::Same
        );
        assert_eq!(
            verdict(wall, &base, &[1.20, 1.21, 1.19, 1.20, 1.22]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(wall, &base, &[0.80, 0.81, 0.79, 0.80, 0.82]),
            Verdict::Better
        );
        // Spread wider than the bound and overlapping samples.
        let noisy = [0.7, 1.0, 1.3, 0.8, 1.2];
        assert_eq!(
            verdict(wall, &noisy, &[0.9, 1.4, 1.1, 0.75, 1.25]),
            Verdict::Unresolved
        );
        // Wide spread, but every candidate run beats every baseline run.
        assert_eq!(
            verdict(wall, &noisy, &[0.3, 0.4, 0.5, 0.6, 0.65]),
            Verdict::Better
        );
        let kwips = &e2e("sim_kwips", "kwinst/s", Better::Higher, 0.10, true);
        assert_eq!(verdict(kwips, &[100.0], &[80.0]), Verdict::Worse);
        assert_eq!(verdict(kwips, &[100.0], &[120.0]), Verdict::Better);
        let cycles = end_to_end("sim_cycles").expect("sim_cycles");
        assert_eq!(verdict(cycles, &[5.0], &[5.0]), Verdict::Same);
        assert_eq!(verdict(cycles, &[5.0], &[4.0]), Verdict::Worse);
        let fails = end_to_end("fail_ratio").expect("fail_ratio");
        assert_eq!(verdict(fails, &[0.0], &[0.0]), Verdict::Same);
        assert_eq!(verdict(fails, &[0.0], &[0.1]), Verdict::Worse);
    }
}
