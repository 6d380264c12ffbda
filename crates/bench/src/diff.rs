//! Profile-summary diffing: the `bench_diff` perf gate.
//!
//! A summary document is the committed `BENCH_profile.json` shape: one
//! row per kernel with IPC, the stall mix, and the fill-latency
//! percentiles captured by the memory telemetry. The functions here
//! regenerate that document from captured [`KernelProfile`]s, parse
//! committed baselines of the current version, and compare a candidate
//! against a baseline with configurable thresholds — so CI can fail a
//! PR that silently slows a kernel down or shifts its stall mix,
//! without any human squinting at tables.

use std::fmt::Write as _;

use st2::prelude::*;
use st2::telemetry::json::{self, Value, Writer};
use st2::telemetry::profile::ALL_STALL_REASONS;

/// Summary document version written by [`summary_to_json`]. Version 2
/// added fill-latency percentiles, the bandwidth-starvation counter and
/// the per-reason stall-share map; version 3 added the crossbar-wait
/// counter and the partition fill-imbalance ratio; version 4 added host
/// wall-time and simulated cycles/sec (report-only — host-dependent, so
/// never gated); version 5 added the modeled energy columns (report-only
/// — model-derived, never gated) and stopped emitting `fill_imbalance`
/// for single-partition runs, where the ratio is undefined.
/// [`parse_summary`] rejects every other version.
pub const SUMMARY_VERSION: u32 = 5;

/// One kernel's summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSummary {
    /// Kernel name.
    pub kernel: String,
    /// Total kernel cycles.
    pub cycles: u64,
    /// Warp instructions issued.
    pub warp_instructions: u64,
    /// Warp instructions per cycle.
    pub ipc: f64,
    /// Issued fraction of all issue slots.
    pub issue_slot_util: f64,
    /// Dominant stall reason.
    pub top_stall: String,
    /// Issue slots charged to ST² misprediction repair.
    pub adder_repair_slots: u64,
    /// `adder_repair_slots` as a fraction of all issue slots.
    pub adder_repair_share: f64,
    /// Out-of-range instruction fetches (0 for well-formed programs).
    pub fetch_oob: u64,
    /// Median fill latency in cycles.
    pub fill_p50: u64,
    /// 95th-percentile fill latency in cycles.
    pub fill_p95: u64,
    /// Maximum fill latency in cycles.
    pub fill_max: u64,
    /// Cycles requests waited purely on L2/DRAM bandwidth.
    pub bw_starved_cycles: u64,
    /// Cycles fills queued at a full crossbar injection port.
    pub xbar_wait_cycles: u64,
    /// Busiest-partition fill count over the per-partition mean (0.0
    /// when no fills; `None` for a single partition, where the ratio is
    /// undefined).
    pub fill_imbalance: Option<f64>,
    /// Per-reason stall shares (fraction of all issue slots, nonzero
    /// reasons only, reason-name order).
    pub stall_shares: Vec<(String, f64)>,
    /// Host wall-clock time of the timed run in milliseconds (0.0 when
    /// not measured; machine-dependent, report-only).
    pub wall_ms: f64,
    /// Simulated cycles per host second (0.0 when not measured;
    /// machine-dependent, report-only — the sim-rate column in
    /// `bench_diff` never gates).
    pub cycles_per_sec: f64,
    /// Total modeled energy in nanojoules (0.0 for an unpriced profile;
    /// model-derived, report-only — energy columns inform but never
    /// gate).
    pub total_energy_nj: f64,
    /// DRAM share of the modeled energy in nanojoules (report-only).
    pub dram_energy_nj: f64,
    /// Peak per-interval average power in watts (report-only).
    pub peak_power_w: f64,
    /// Modeled energy per warp instruction in picojoules
    /// (report-only).
    pub energy_per_instruction_pj: f64,
}

/// A whole summary document (the `BENCH_profile.json` envelope).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryDoc {
    /// Free-text provenance ("how to regenerate me").
    pub generator: String,
    /// Per-kernel rows, suite order.
    pub kernels: Vec<KernelSummary>,
}

fn round(v: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (v * scale).round() / scale
}

/// Builds a summary document from captured kernel profiles.
#[must_use]
pub fn summary_from_profiles(profiles: &[KernelProfile], generator: &str) -> SummaryDoc {
    let kernels = profiles
        .iter()
        .map(|p| {
            let t = p.total();
            let slots = t.slots.max(1) as f64;
            let top_stall = ALL_STALL_REASONS
                .iter()
                .copied()
                .max_by_key(|r| t.stalls[r.index()])
                .map_or("-", StallReason::name)
                .to_string();
            let repair = t.stalls[st2::telemetry::profile::StallReason::AdderRepair.index()];
            let shares: Vec<(String, f64)> = ALL_STALL_REASONS
                .iter()
                .filter(|r| t.stalls[r.index()] > 0)
                .map(|r| {
                    (
                        r.name().to_string(),
                        round(t.stalls[r.index()] as f64 / slots, 5),
                    )
                })
                .collect();
            KernelSummary {
                kernel: p.kernel.clone(),
                cycles: p.cycles,
                warp_instructions: p.warp_instructions,
                ipc: round(p.warp_instructions as f64 / p.cycles.max(1) as f64, 4),
                issue_slot_util: round(t.issued as f64 / slots, 4),
                top_stall,
                adder_repair_slots: repair,
                adder_repair_share: round(repair as f64 / slots, 5),
                fetch_oob: t.fetch_oob,
                fill_p50: p.mem.fill_p50,
                fill_p95: p.mem.fill_p95,
                fill_max: p.mem.fill_max,
                bw_starved_cycles: p.mem.bw_starved_cycles,
                xbar_wait_cycles: p.mem.xbar_wait_cycles,
                // Busiest/mean is tautologically 1 with one partition:
                // omit the column so it never enters a comparison.
                fill_imbalance: (p.mem.partitions > 1).then(|| round(p.mem.fill_imbalance(), 4)),
                stall_shares: shares,
                // Profiles carry no host timing; callers that measured
                // the runs (profile_report) fill these in afterwards.
                wall_ms: 0.0,
                cycles_per_sec: 0.0,
                total_energy_nj: p.energy.map_or(0.0, |e| round(e.total_nj, 3)),
                dram_energy_nj: p.energy.map_or(0.0, |e| round(e.dram_nj, 3)),
                peak_power_w: p.energy.map_or(0.0, |e| round(e.peak_power_w, 4)),
                energy_per_instruction_pj: p
                    .energy
                    .map_or(0.0, |e| round(e.energy_per_instruction_pj, 4)),
            }
        })
        .collect();
    SummaryDoc {
        generator: generator.to_string(),
        kernels,
    }
}

/// Serialises a summary document (the `BENCH_profile.json` text).
#[must_use]
pub fn summary_to_json(doc: &SummaryDoc) -> String {
    let mut w = Writer::new();
    w.begin_object();
    w.field_u64("schema", 1);
    w.field_u64("version", u64::from(SUMMARY_VERSION));
    w.field_str("generator", &doc.generator);
    w.key("kernels");
    w.begin_array();
    for k in &doc.kernels {
        w.begin_object();
        w.field_str("kernel", &k.kernel);
        w.field_u64("cycles", k.cycles);
        w.field_u64("warp_instructions", k.warp_instructions);
        w.field_f64("ipc", k.ipc);
        w.field_f64("issue_slot_util", k.issue_slot_util);
        w.field_str("top_stall", &k.top_stall);
        w.field_u64("adder_repair_slots", k.adder_repair_slots);
        w.field_f64("adder_repair_share", k.adder_repair_share);
        w.field_u64("fetch_oob", k.fetch_oob);
        w.field_u64("fill_p50", k.fill_p50);
        w.field_u64("fill_p95", k.fill_p95);
        w.field_u64("fill_max", k.fill_max);
        w.field_u64("bw_starved_cycles", k.bw_starved_cycles);
        w.field_u64("xbar_wait_cycles", k.xbar_wait_cycles);
        if let Some(v) = k.fill_imbalance {
            w.field_f64("fill_imbalance", v);
        }
        w.field_f64("wall_ms", k.wall_ms);
        w.field_f64("cycles_per_sec", k.cycles_per_sec);
        w.field_f64("total_energy_nj", k.total_energy_nj);
        w.field_f64("dram_energy_nj", k.dram_energy_nj);
        w.field_f64("peak_power_w", k.peak_power_w);
        w.field_f64("energy_per_instruction_pj", k.energy_per_instruction_pj);
        w.key("stall_shares");
        w.begin_object();
        for (name, share) in &k.stall_shares {
            w.field_f64(name, *share);
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Parses a summary document of the current [`SUMMARY_VERSION`].
///
/// # Errors
///
/// Returns a message when the text is not valid JSON, its `version` is
/// not [`SUMMARY_VERSION`] (the message names the version found), or a
/// required field is missing.
pub fn parse_summary(text: &str) -> Result<SummaryDoc, String> {
    let v = json::parse(text)?;
    v.require_version("summary", SUMMARY_VERSION)?;
    let generator = v
        .get("generator")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    let mut kernels = Vec::new();
    for k in v
        .get("kernels")
        .and_then(Value::as_array)
        .ok_or("missing kernels array")?
    {
        let u = |key: &str| -> Result<u64, String> {
            k.get(key)
                .and_then(Value::as_f64)
                .map(|f| f as u64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let f = |key: &str| -> Result<f64, String> {
            k.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let Some(Value::Object(shares)) = k.get("stall_shares") else {
            return Err("missing stall_shares object".into());
        };
        let stall_shares = shares
            .iter()
            .map(|(name, v)| {
                v.as_f64()
                    .map(|f| (name.clone(), f))
                    .ok_or_else(|| format!("non-numeric stall share {name:?}"))
            })
            .collect::<Result<_, _>>()?;
        kernels.push(KernelSummary {
            kernel: k
                .get("kernel")
                .and_then(Value::as_str)
                .ok_or("missing kernel name")?
                .to_string(),
            cycles: u("cycles")?,
            warp_instructions: u("warp_instructions")?,
            ipc: f("ipc")?,
            issue_slot_util: f("issue_slot_util")?,
            top_stall: k
                .get("top_stall")
                .and_then(Value::as_str)
                .ok_or("missing top_stall")?
                .to_string(),
            adder_repair_slots: u("adder_repair_slots")?,
            adder_repair_share: f("adder_repair_share")?,
            fetch_oob: u("fetch_oob")?,
            fill_p50: u("fill_p50")?,
            fill_p95: u("fill_p95")?,
            fill_max: u("fill_max")?,
            bw_starved_cycles: u("bw_starved_cycles")?,
            xbar_wait_cycles: u("xbar_wait_cycles")?,
            fill_imbalance: k.get("fill_imbalance").and_then(Value::as_f64),
            stall_shares,
            wall_ms: f("wall_ms")?,
            cycles_per_sec: f("cycles_per_sec")?,
            total_energy_nj: f("total_energy_nj")?,
            dram_energy_nj: f("dram_energy_nj")?,
            peak_power_w: f("peak_power_w")?,
            energy_per_instruction_pj: f("energy_per_instruction_pj")?,
        });
    }
    Ok(SummaryDoc { generator, kernels })
}

/// Regression thresholds for [`diff_summaries`]. All are "worse-than"
/// bounds: improvements never fail the gate.
#[derive(Debug, Clone, Copy)]
pub struct DiffThresholds {
    /// Maximum tolerated relative IPC drop (0.10 = 10% slower).
    pub max_ipc_drop: f64,
    /// Maximum tolerated relative growth of the fill-latency p50/p95
    /// percentiles (only checked when the baseline carries them and is
    /// nonzero — log2 buckets make small wobbles land on the same bound).
    pub max_p95_growth: f64,
    /// Maximum tolerated absolute shift of any stall reason's share of
    /// issue slots (0.10 = ten percentage points).
    pub max_stall_shift: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            max_ipc_drop: 0.10,
            max_p95_growth: 0.25,
            max_stall_shift: 0.10,
        }
    }
}

/// One compared metric of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffLine {
    /// Kernel name.
    pub kernel: String,
    /// Metric label (e.g. `ipc`, `fill_p95`, `stall:mem_pending`).
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
    /// The change, in the metric's natural unit (relative for
    /// ipc/percentiles, absolute share for stalls). Meaningless when
    /// `defined` is false.
    pub delta: f64,
    /// Whether the baseline value makes the ratio well-defined. A
    /// zero-cycle or zero-IPC baseline row (or a zero percentile /
    /// rate / energy figure) has no meaningful relative change: the
    /// line renders as `—` and never gates, the same treatment the
    /// single-partition `fill_imbalance` gets.
    pub defined: bool,
    /// Whether the change exceeds its threshold in the bad direction.
    /// Always false when `defined` is false.
    pub regressed: bool,
}

impl DiffLine {
    /// The delta column: `(+x.x%)` for well-defined ratios, `(—)` for
    /// degenerate baselines.
    #[must_use]
    pub fn delta_str(&self) -> String {
        if self.defined {
            format!("({:+.1}%)", 100.0 * self.delta)
        } else {
            "(—)".into()
        }
    }
}

/// The outcome of one baseline/candidate comparison.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every compared metric, kernel order.
    pub lines: Vec<DiffLine>,
    /// Kernels present in the baseline but absent from the candidate
    /// (coverage loss — always a failure).
    pub missing: Vec<String>,
    /// Kernels present only in the candidate (informational).
    pub added: Vec<String>,
}

impl DiffReport {
    /// Whether any metric regressed or baseline coverage was lost.
    #[must_use]
    pub fn regressed(&self) -> bool {
        !self.missing.is_empty() || self.lines.iter().any(|l| l.regressed)
    }

    /// Renders the human-readable report (regressions first).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== bench_diff report ==");
        for m in &self.missing {
            let _ = writeln!(out, "REGRESSION {m:<14} kernel missing from candidate");
        }
        for l in self.lines.iter().filter(|l| l.regressed) {
            let _ = writeln!(
                out,
                "REGRESSION {:<14} {:<18} {:>10.4} -> {:>10.4} {}",
                l.kernel,
                l.metric,
                l.base,
                l.cand,
                l.delta_str()
            );
        }
        for m in &self.added {
            let _ = writeln!(out, "note: kernel {m} only in candidate");
        }
        let degenerate: Vec<&DiffLine> = self.lines.iter().filter(|l| !l.defined).collect();
        if !degenerate.is_empty() {
            let _ = writeln!(out, "-- degenerate baselines (report-only, never gate) --");
            for l in degenerate {
                let _ = writeln!(
                    out,
                    "undefined  {:<14} {:<18} {:>10.4} -> {:>10.4} {}",
                    l.kernel,
                    l.metric,
                    l.base,
                    l.cand,
                    l.delta_str()
                );
            }
        }
        let rates: Vec<&DiffLine> = self
            .lines
            .iter()
            .filter(|l| l.metric == "sim_rate")
            .collect();
        if !rates.is_empty() {
            let _ = writeln!(out, "-- sim rate (report-only, host-dependent) --");
            for l in rates {
                let _ = writeln!(
                    out,
                    "rate       {:<14} {:>12.0} -> {:>12.0} cycles/s {}",
                    l.kernel,
                    l.base,
                    l.cand,
                    l.delta_str()
                );
            }
        }
        let energies: Vec<&DiffLine> = self
            .lines
            .iter()
            .filter(|l| l.metric.starts_with("energy"))
            .collect();
        if !energies.is_empty() {
            let _ = writeln!(out, "-- energy (report-only, model-derived) --");
            for l in energies {
                let _ = writeln!(
                    out,
                    "energy     {:<14} {:<14} {:>12.1} -> {:>12.1} {}",
                    l.kernel,
                    l.metric,
                    l.base,
                    l.cand,
                    l.delta_str()
                );
            }
        }
        let regressions = self.lines.iter().filter(|l| l.regressed).count();
        let _ = writeln!(
            out,
            "{} metrics compared, {} regressed, {} kernels missing",
            self.lines.len(),
            regressions + self.missing.len(),
            self.missing.len()
        );
        out
    }
}

/// Compares a candidate summary against a baseline.
#[must_use]
pub fn diff_summaries(base: &SummaryDoc, cand: &SummaryDoc, thr: &DiffThresholds) -> DiffReport {
    let mut report = DiffReport::default();
    for b in &base.kernels {
        let Some(c) = cand.kernels.iter().find(|c| c.kernel == b.kernel) else {
            report.missing.push(b.kernel.clone());
            continue;
        };
        // Relative IPC drop (positive delta = slower). A zero-cycle or
        // zero-IPC baseline row makes the drop undefined: emit an
        // explicit never-gating `—` line instead of silently skipping
        // the kernel's headline metric.
        if b.cycles > 0 && b.ipc > 0.0 {
            let drop = 1.0 - c.ipc / b.ipc;
            report.lines.push(DiffLine {
                kernel: b.kernel.clone(),
                metric: "ipc".into(),
                base: b.ipc,
                cand: c.ipc,
                delta: -drop,
                defined: true,
                regressed: drop > thr.max_ipc_drop,
            });
        } else {
            report.lines.push(DiffLine {
                kernel: b.kernel.clone(),
                metric: "ipc".into(),
                base: b.ipc,
                cand: c.ipc,
                delta: 0.0,
                defined: false,
                regressed: false,
            });
        }
        // Simulation throughput and modeled energy, report-only. Host
        // wall-time is noisy and machine-dependent, and the energy model
        // re-prices with every calibration change, so these columns
        // inform but never gate.
        for (name, bv, cv) in [
            ("sim_rate", b.cycles_per_sec, c.cycles_per_sec),
            ("energy_nj", b.total_energy_nj, c.total_energy_nj),
            ("energy_dram_nj", b.dram_energy_nj, c.dram_energy_nj),
            (
                "energy_epi_pj",
                b.energy_per_instruction_pj,
                c.energy_per_instruction_pj,
            ),
        ] {
            let defined = bv > 0.0;
            report.lines.push(DiffLine {
                kernel: b.kernel.clone(),
                metric: name.into(),
                base: bv,
                cand: cv,
                delta: if defined { cv / bv - 1.0 } else { 0.0 },
                defined,
                regressed: false,
            });
        }
        // Fill-latency percentile growth. A zero baseline percentile
        // (compute-only kernel: no fills) makes growth undefined — `—`,
        // never gated.
        for (name, bv, cv) in [
            ("fill_p50", b.fill_p50, c.fill_p50),
            ("fill_p95", b.fill_p95, c.fill_p95),
        ] {
            if bv == 0 {
                report.lines.push(DiffLine {
                    kernel: b.kernel.clone(),
                    metric: name.into(),
                    base: 0.0,
                    cand: cv as f64,
                    delta: 0.0,
                    defined: false,
                    regressed: false,
                });
                continue;
            }
            let growth = cv as f64 / bv as f64 - 1.0;
            report.lines.push(DiffLine {
                kernel: b.kernel.clone(),
                metric: name.into(),
                base: bv as f64,
                cand: cv as f64,
                delta: growth,
                defined: true,
                regressed: growth > thr.max_p95_growth,
            });
        }
        // Absolute stall-share shifts over the union of reasons.
        let (bs, cs) = (&b.stall_shares, &c.stall_shares);
        let share = |v: &[(String, f64)], name: &str| {
            v.iter().find(|(n, _)| n == name).map_or(0.0, |(_, s)| *s)
        };
        let mut names: Vec<&str> = bs
            .iter()
            .chain(cs.iter())
            .map(|(n, _)| n.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let (sb, sc) = (share(bs, name), share(cs, name));
            let shift = (sc - sb).abs();
            report.lines.push(DiffLine {
                kernel: b.kernel.clone(),
                metric: format!("stall:{name}"),
                base: sb,
                cand: sc,
                delta: sc - sb,
                // Shares are absolute (of total slots), defined even
                // when the baseline share is zero.
                defined: true,
                regressed: shift > thr.max_stall_shift,
            });
        }
    }
    for c in &cand.kernels {
        if !base.kernels.iter().any(|b| b.kernel == c.kernel) {
            report.added.push(c.kernel.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(kernel: &str, ipc: f64, p95: u64, mem_share: f64) -> KernelSummary {
        KernelSummary {
            kernel: kernel.into(),
            cycles: 1000,
            warp_instructions: (ipc * 1000.0) as u64,
            ipc,
            issue_slot_util: ipc / 4.0,
            top_stall: "mem_pending".into(),
            adder_repair_slots: 0,
            adder_repair_share: 0.0,
            fetch_oob: 0,
            fill_p50: p95 / 2,
            fill_p95: p95,
            fill_max: p95 * 2,
            bw_starved_cycles: 17,
            xbar_wait_cycles: 3,
            fill_imbalance: Some(1.25),
            stall_shares: vec![("mem_pending".into(), mem_share)],
            wall_ms: 12.5,
            cycles_per_sec: 80000.0,
            total_energy_nj: 5000.0,
            dram_energy_nj: 1500.0,
            peak_power_w: 42.5,
            energy_per_instruction_pj: 6.25,
        }
    }

    fn doc(kernels: Vec<KernelSummary>) -> SummaryDoc {
        SummaryDoc {
            generator: "test".into(),
            kernels,
        }
    }

    #[test]
    fn summary_json_round_trips() {
        let d = doc(vec![row("pathfinder", 0.8, 256, 0.4)]);
        let text = summary_to_json(&d);
        let back = parse_summary(&text).expect("parses");
        assert_eq!(back, d);
    }

    #[test]
    fn summary_parser_rejects_other_versions() {
        let text = summary_to_json(&doc(vec![row("sgemm", 0.65, 300, 0.5)]));
        let v4 = text.replacen("\"version\":5,", "\"version\":4,", 1);
        let err = parse_summary(&v4).expect_err("version 4 rejected");
        assert!(err.contains("version 4"), "{err}");
        let unversioned = text.replacen("\"version\":5,", "", 1);
        assert_ne!(unversioned, text);
        let err = parse_summary(&unversioned).expect_err("no version rejected");
        assert!(err.contains("(missing)"), "{err}");
    }

    #[test]
    fn identical_summaries_pass() {
        let d = doc(vec![row("a", 1.0, 128, 0.3), row("b", 0.5, 512, 0.6)]);
        let report = diff_summaries(&d, &d, &DiffThresholds::default());
        assert!(!report.regressed());
        assert!(report.missing.is_empty() && report.added.is_empty());
    }

    #[test]
    fn regressions_are_caught_per_metric() {
        let thr = DiffThresholds::default();
        let base = doc(vec![row("a", 1.0, 128, 0.30)]);
        // IPC drop of 20% > 10% threshold.
        let slow = doc(vec![row("a", 0.8, 128, 0.30)]);
        assert!(diff_summaries(&base, &slow, &thr).regressed());
        // p95 growth of 2x > 25% threshold.
        let lat = doc(vec![row("a", 1.0, 256, 0.30)]);
        assert!(diff_summaries(&base, &lat, &thr).regressed());
        // Stall share shift of 15 points > 10-point threshold.
        let shift = doc(vec![row("a", 1.0, 128, 0.45)]);
        assert!(diff_summaries(&base, &shift, &thr).regressed());
        // Improvements never fail.
        let fast = doc(vec![row("a", 1.3, 64, 0.25)]);
        assert!(!diff_summaries(&base, &fast, &thr).regressed());
        // A collapsed sim rate is reported but never gates: host timing
        // is too noisy to fail a PR on.
        let mut crawl = row("a", 1.0, 128, 0.30);
        crawl.cycles_per_sec = 800.0;
        let report = diff_summaries(&base, &doc(vec![crawl]), &thr);
        assert!(!report.regressed(), "sim_rate must stay report-only");
        let rate = report
            .lines
            .iter()
            .find(|l| l.metric == "sim_rate")
            .expect("sim_rate line present");
        assert!((rate.delta - (800.0 / 80000.0 - 1.0)).abs() < 1e-12);
        assert!(
            report.render().contains("sim rate (report-only"),
            "render shows the informational rate section"
        );
        // A doubled energy bill is reported but never gates: the model
        // re-prices with every calibration change.
        let mut hot = row("a", 1.0, 128, 0.30);
        hot.total_energy_nj = 10000.0;
        hot.dram_energy_nj = 3000.0;
        let report = diff_summaries(&base, &doc(vec![hot]), &thr);
        assert!(!report.regressed(), "energy must stay report-only");
        let e = report
            .lines
            .iter()
            .find(|l| l.metric == "energy_nj")
            .expect("energy line present");
        assert!((e.delta - 1.0).abs() < 1e-12);
        assert!(
            report.render().contains("energy (report-only"),
            "render shows the informational energy section"
        );
        // A missing kernel is coverage loss.
        let empty = doc(vec![]);
        let report = diff_summaries(&base, &empty, &thr);
        assert!(report.regressed());
        assert_eq!(report.missing, vec!["a".to_string()]);
        let text = report.render();
        assert!(
            text.contains("REGRESSION"),
            "render names the failure:\n{text}"
        );
    }

    #[test]
    fn empty_summaries_compare_clean() {
        let thr = DiffThresholds::default();
        let report = diff_summaries(&doc(vec![]), &doc(vec![]), &thr);
        assert!(report.lines.is_empty());
        assert!(report.missing.is_empty() && report.added.is_empty());
        assert!(!report.regressed());
        assert!(report.render().contains("0 metrics compared"));
    }

    #[test]
    fn degenerate_baselines_render_as_dash_and_never_gate() {
        // A zero-cycle / zero-IPC baseline row (or a zero percentile,
        // rate or energy figure) has no defined relative change. The
        // row must not silently vanish from the report, must render as
        // `—`, and must never gate — no matter what the candidate does.
        let thr = DiffThresholds::default();
        let mut dead = row("a", 0.0, 0, 0.30);
        dead.cycles = 0;
        dead.warp_instructions = 0;
        dead.cycles_per_sec = 0.0;
        dead.total_energy_nj = 0.0;
        dead.dram_energy_nj = 0.0;
        dead.energy_per_instruction_pj = 0.0;
        let cand = row("a", 2.0, 512, 0.30);
        let report = diff_summaries(&doc(vec![dead]), &doc(vec![cand]), &thr);
        assert!(!report.regressed(), "degenerate baselines must never gate");
        for metric in [
            "ipc",
            "sim_rate",
            "energy_nj",
            "energy_dram_nj",
            "energy_epi_pj",
            "fill_p50",
            "fill_p95",
        ] {
            let l = report
                .lines
                .iter()
                .find(|l| l.metric == metric)
                .unwrap_or_else(|| panic!("{metric} line missing from the report"));
            assert!(!l.defined, "{metric}: zero baseline must be undefined");
            assert!(!l.regressed, "{metric}: undefined line gated");
            assert_eq!(l.delta_str(), "(—)", "{metric}");
        }
        let text = report.render();
        assert!(
            text.contains("degenerate baselines") && text.contains("(—)"),
            "render must surface the undefined rows:\n{text}"
        );
        // The reverse direction is an ordinary, fully defined diff: the
        // candidate collapsing to zero IPC is a 100% drop and gates.
        let report = diff_summaries(
            &doc(vec![row("a", 2.0, 512, 0.30)]),
            &doc(vec![{
                let mut d = row("a", 0.0, 0, 0.30);
                d.cycles = 0;
                d
            }]),
            &thr,
        );
        assert!(report.regressed(), "a collapsed candidate must gate");
    }

    #[test]
    fn summary_from_profiles_carries_mem_percentiles() {
        let mut p = KernelProfile {
            kernel: "probe".into(),
            cycles: 100,
            warp_instructions: 250,
            mem: Default::default(),
            sms: vec![Default::default()],
            pcs: vec![],
            occupancy: vec![],
            mem_timeline: vec![],
            energy_timeline: vec![],
            energy: None,
        };
        p.mem.fill_p95 = 256;
        p.mem.bw_starved_cycles = 9;
        p.mem.xbar_wait_cycles = 4;
        p.mem.partitions = 2;
        p.mem.part_fills = vec![3, 1];
        p.sms[0].slots = 400;
        p.sms[0].issued = 250;
        p.sms[0].stalls[StallReason::MemPending.index()] = 150;
        let d = summary_from_profiles(&[p], "unit");
        let k = &d.kernels[0];
        assert_eq!(k.ipc, 2.5);
        assert_eq!(k.fill_p95, 256);
        assert_eq!(k.bw_starved_cycles, 9);
        assert_eq!(k.xbar_wait_cycles, 4);
        // Busiest partition filled 3 of 4 lines against a mean of 2.
        assert_eq!(k.fill_imbalance, Some(1.5));
        assert_eq!(k.stall_shares.len(), 1);
        assert!((k.stall_shares[0].1 - 0.375).abs() < 1e-12);
        // Profiles carry no priced energy until attach_energy runs, so
        // the energy columns read zero and never gate (see
        // degenerate_baselines_render_as_dash_and_never_gate).
        assert_eq!(k.total_energy_nj, 0.0);
        // And the document it writes parses back identically.
        assert_eq!(parse_summary(&summary_to_json(&d)).unwrap(), d);
    }

    #[test]
    fn single_partition_profiles_omit_fill_imbalance() {
        // With one partition busiest/mean is identically 1, which reads
        // as "perfectly balanced" when it is really "undefined".
        let mut p = KernelProfile {
            kernel: "solo".into(),
            cycles: 100,
            warp_instructions: 100,
            mem: Default::default(),
            sms: vec![Default::default()],
            pcs: vec![],
            occupancy: vec![],
            mem_timeline: vec![],
            energy_timeline: vec![],
            energy: None,
        };
        p.mem.partitions = 1;
        p.mem.part_fills = vec![7];
        p.sms[0].slots = 100;
        p.sms[0].issued = 100;
        let d = summary_from_profiles(&[p], "unit");
        assert_eq!(d.kernels[0].fill_imbalance, None);
        assert_eq!(parse_summary(&summary_to_json(&d)).unwrap(), d);
    }

    #[test]
    fn priced_profiles_surface_energy_columns() {
        let mut p = KernelProfile {
            kernel: "hot".into(),
            cycles: 100,
            warp_instructions: 200,
            mem: Default::default(),
            sms: vec![Default::default()],
            pcs: vec![],
            occupancy: vec![],
            mem_timeline: vec![],
            energy_timeline: vec![],
            energy: Some(st2::telemetry::EnergySummary {
                total_nj: 1234.5678,
                dram_nj: 456.789,
                l2_nj: 10.0,
                mshr_nj: 1.0,
                xbar_nj: 2.0,
                write_alloc_nj: 3.0,
                issue_nj: 4.0,
                static_nj: 700.0,
                queue_nj: 5.0,
                peak_power_w: 37.25,
                peak_power_cycle: 2048,
                energy_per_instruction_pj: 6.17284,
            }),
        };
        p.mem.partitions = 1;
        p.sms[0].slots = 100;
        p.sms[0].issued = 100;
        let d = summary_from_profiles(&[p], "unit");
        let k = &d.kernels[0];
        assert_eq!(k.total_energy_nj, 1234.568);
        assert_eq!(k.dram_energy_nj, 456.789);
        assert_eq!(k.peak_power_w, 37.25);
        assert_eq!(k.energy_per_instruction_pj, 6.1728);
        assert_eq!(parse_summary(&summary_to_json(&d)).unwrap(), d);
    }
}
