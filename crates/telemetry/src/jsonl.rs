//! JSONL metric export: one self-describing JSON object per line.
//!
//! Line `type`s: `run` (header), `counter`, `gauge`, `histogram`,
//! `series` (one per core interval-row column), `pc_accuracy`, and
//! `events` (per-SM ring occupancy). Each line parses independently,
//! so the dump streams into `jq`, pandas or a spreadsheet without
//! loading the whole file.

use crate::json::Writer;
use crate::metrics::{CorePoint, IntervalRow};
use crate::Telemetry;

/// How many per-PC rows the `pc_accuracy` line carries.
const PC_TOP_N: usize = 32;

/// Renders a finalized [`Telemetry`] into JSONL (one metric per line).
#[must_use]
pub fn export(tele: &Telemetry, label: &str) -> String {
    let mut lines: Vec<String> = Vec::new();

    let mut w = Writer::new();
    w.begin_object();
    w.field_str("type", "run");
    w.field_str("kernel", label);
    w.field_u64("cycles", tele.cycles());
    w.end_object();
    lines.push(w.finish());

    for (name, value) in tele.counters().named() {
        let mut w = Writer::new();
        w.begin_object();
        w.field_str("type", "counter");
        w.field_str("name", name);
        w.field_u64("value", value);
        w.end_object();
        lines.push(w.finish());
    }

    for (name, value) in tele.gauges() {
        let mut w = Writer::new();
        w.begin_object();
        w.field_str("type", "gauge");
        w.field_str("name", name);
        w.field_f64("value", value);
        w.end_object();
        lines.push(w.finish());
    }

    for (name, hist) in tele.histograms().named() {
        let mut w = Writer::new();
        w.begin_object();
        w.field_str("type", "histogram");
        w.field_str("name", name);
        w.field_u64("count", hist.count());
        w.field_u64("sum", hist.sum());
        w.field_u64("max", hist.max());
        w.field_f64("mean", hist.mean());
        w.key("buckets");
        w.begin_array();
        for (lo, hi, count) in hist.nonzero_buckets() {
            w.begin_array();
            w.u64(lo);
            w.u64(hi);
            w.u64(count);
            w.end_array();
        }
        w.end_array();
        w.end_object();
        lines.push(w.finish());
    }

    let series = tele.series();
    for (ci, col) in CorePoint::COLUMNS.iter().enumerate() {
        let mut w = Writer::new();
        w.begin_object();
        w.field_str("type", "series");
        w.field_str("name", col);
        w.field_u64("interval_points", series.len() as u64);
        w.key("points");
        w.begin_array();
        for p in series {
            w.begin_array();
            w.u64(p.cycle);
            w.f64(p.values()[ci]);
            w.end_array();
        }
        w.end_array();
        w.end_object();
        lines.push(w.finish());
    }

    let pcs = tele.pc_accuracy();
    if !pcs.is_empty() {
        let mut w = Writer::new();
        w.begin_object();
        w.field_str("type", "pc_accuracy");
        w.field_u64("distinct_pcs", pcs.len() as u64);
        w.key("worst");
        w.begin_array();
        for (pc, ops, mispredicts) in pcs.iter().take(PC_TOP_N) {
            w.begin_array();
            w.u64(u64::from(*pc));
            w.u64(*ops);
            w.u64(*mispredicts);
            w.end_array();
        }
        w.end_array();
        w.end_object();
        lines.push(w.finish());
    }

    for (sm, ring) in tele.rings().iter().enumerate() {
        let mut w = Writer::new();
        w.begin_object();
        w.field_str("type", "events");
        w.field_u64("sm", sm as u64);
        w.field_u64("held", ring.len() as u64);
        w.field_u64("dropped", ring.dropped());
        w.end_object();
        lines.push(w.finish());
    }

    let mut out = lines.join("\n");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::TelemetryConfig;

    #[test]
    fn every_line_is_valid_json_with_a_type() {
        let mut t = Telemetry::for_run(2, TelemetryConfig::default());
        t.issue(0, 3, 0, 8, 0);
        t.mem_transaction(
            1,
            4,
            &crate::MemTxn {
                addr: 256,
                latency: 30,
                level: 1,
                ..crate::MemTxn::default()
            },
        );
        t.finalize(2048);
        let text = export(&t, "unit");
        let mut types = std::collections::BTreeSet::new();
        for line in text.lines() {
            let v = json::parse(line).expect("line parses");
            types.insert(v.get("type").unwrap().as_str().unwrap().to_string());
        }
        for expected in ["run", "counter", "gauge", "histogram", "series", "events"] {
            assert!(types.contains(expected), "missing line type {expected}");
        }
    }
}
