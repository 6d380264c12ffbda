//! Chrome trace-event JSON export.
//!
//! Produces the "JSON object format" of the Trace Event spec: a
//! `traceEvents` array plus metadata, loadable in `chrome://tracing` or
//! Perfetto. Simulated cycles map 1:1 to trace microseconds (`ts`), each
//! SM becomes a thread (`tid`), and each interval-row column becomes a
//! counter track (`ph: "C"`).

use crate::energy::PowerPoint;
use crate::event::{pool_name, EventKind};
use crate::json::Writer;
use crate::metrics::IntervalRow;
use crate::Telemetry;

fn meta_event(w: &mut Writer, name: &str, tid: Option<usize>, arg_name: &str) {
    w.begin_object();
    w.field_str("name", name);
    w.field_str("ph", "M");
    w.field_u64("pid", 0);
    if let Some(tid) = tid {
        w.field_u64("tid", tid as u64);
    }
    w.key("args");
    w.begin_object();
    w.field_str("name", arg_name);
    w.end_object();
    w.end_object();
}

fn complete_event(
    w: &mut Writer,
    name: &str,
    cat: &str,
    tid: usize,
    ts: u64,
    dur: u64,
    args: &[(&str, u64)],
) {
    w.begin_object();
    w.field_str("name", name);
    w.field_str("cat", cat);
    w.field_str("ph", "X");
    w.field_u64("ts", ts);
    w.field_u64("dur", dur.max(1));
    w.field_u64("pid", 0);
    w.field_u64("tid", tid as u64);
    w.key("args");
    w.begin_object();
    for (k, v) in args {
        w.field_u64(k, *v);
    }
    w.end_object();
    w.end_object();
}

fn instant_event(w: &mut Writer, name: &str, cat: &str, tid: usize, ts: u64, args: &[(&str, u64)]) {
    w.begin_object();
    w.field_str("name", name);
    w.field_str("cat", cat);
    w.field_str("ph", "i");
    w.field_str("s", "t");
    w.field_u64("ts", ts);
    w.field_u64("pid", 0);
    w.field_u64("tid", tid as u64);
    w.key("args");
    w.begin_object();
    for (k, v) in args {
        w.field_u64(k, *v);
    }
    w.end_object();
    w.end_object();
}

/// One async-track event (`ph` ∈ {"b", "n", "e"}) on the `mem.fill`
/// category: Chrome groups events sharing a `cat` + `id` into one async
/// span, so a request's begin / milestone / end render as a single bar
/// with markers in `chrome://tracing`.
fn async_event(
    w: &mut Writer,
    ph: &str,
    name: &str,
    id: u64,
    tid: usize,
    ts: u64,
    args: &[(&str, u64)],
) {
    w.begin_object();
    w.field_str("name", name);
    w.field_str("cat", "mem.fill");
    w.field_str("ph", ph);
    w.field_u64("id", id);
    w.field_u64("ts", ts);
    w.field_u64("pid", 0);
    w.field_u64("tid", tid as u64);
    w.key("args");
    w.begin_object();
    for (k, v) in args {
        w.field_u64(k, *v);
    }
    w.end_object();
    w.end_object();
}

/// One counter track per column of `rows`, in column order.
fn counter_tracks<const N: usize, R: IntervalRow<N>>(w: &mut Writer, rows: &[R]) {
    for (ci, col) in R::COLUMNS.iter().enumerate() {
        for r in rows {
            counter_event(w, col, r.cycle(), r.values()[ci]);
        }
    }
}

fn counter_event(w: &mut Writer, name: &str, ts: u64, value: f64) {
    w.begin_object();
    w.field_str("name", name);
    w.field_str("ph", "C");
    w.field_u64("ts", ts);
    w.field_u64("pid", 0);
    w.key("args");
    w.begin_object();
    w.field_f64("value", value);
    w.end_object();
    w.end_object();
}

/// Renders a finalized [`Telemetry`] into Chrome trace-event JSON.
#[must_use]
pub fn export(tele: &Telemetry, label: &str) -> String {
    export_with_power(tele, label, None)
}

/// [`export`] plus an optional priced power lane: each column of
/// `power` (see [`crate::energy::power_series`]) becomes its own
/// counter ("C") track, so traces render live watts next to the IPC
/// and memory counters.
#[must_use]
pub fn export_with_power(tele: &Telemetry, label: &str, power: Option<&[PowerPoint]>) -> String {
    let mut w = Writer::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();

    meta_event(&mut w, "process_name", None, &format!("st2-sim {label}"));
    for sm in 0..tele.rings().len() {
        meta_event(&mut w, "thread_name", Some(sm), &format!("SM {sm}"));
    }

    let mut fill_id = 0u64;
    for (sm, ring) in tele.rings().iter().enumerate() {
        for ev in ring.iter_in_order() {
            match ev.kind {
                EventKind::SchedIssue { warp, pc, pool } => complete_event(
                    &mut w,
                    &format!("issue {}", pool_name(pool)),
                    "sched",
                    sm,
                    ev.cycle,
                    1,
                    &[("warp", u64::from(warp)), ("pc", u64::from(pc))],
                ),
                EventKind::AdderMispredict {
                    pc,
                    slices_recomputed,
                } => instant_event(
                    &mut w,
                    "adder mispredict",
                    "adder",
                    sm,
                    ev.cycle,
                    &[
                        ("pc", u64::from(pc)),
                        ("slices_recomputed", u64::from(slices_recomputed)),
                    ],
                ),
                EventKind::CrfConflict { row } => instant_event(
                    &mut w,
                    "crf conflict",
                    "crf",
                    sm,
                    ev.cycle,
                    &[("row", u64::from(row))],
                ),
                EventKind::MemAccess {
                    addr,
                    latency,
                    level,
                } => complete_event(
                    &mut w,
                    match level {
                        0 => "mem L1",
                        1 => "mem L2",
                        _ => "mem DRAM",
                    },
                    "mem",
                    sm,
                    ev.cycle,
                    u64::from(latency),
                    &[("addr", addr)],
                ),
                EventKind::MemFill {
                    addr,
                    mshr_wait,
                    queue_wait,
                    latency,
                    level,
                    store,
                } => {
                    // One async span per fill: request → MSHR allocate
                    // → slot grant → fill complete, as "b"/"n"/"e"
                    // events sharing an id.
                    fill_id += 1;
                    let name = match (level, store) {
                        (1, false) => "fill L2 load",
                        (1, true) => "fill L2 store",
                        (2, false) => "fill DRAM load",
                        _ => "fill DRAM store",
                    };
                    let args = [
                        ("addr", addr),
                        ("mshr_wait", u64::from(mshr_wait)),
                        ("queue_wait", u64::from(queue_wait)),
                        ("latency", u64::from(latency)),
                    ];
                    async_event(&mut w, "b", name, fill_id, sm, ev.cycle, &args);
                    async_event(
                        &mut w,
                        "n",
                        "mshr allocate",
                        fill_id,
                        sm,
                        ev.cycle + u64::from(mshr_wait),
                        &[],
                    );
                    async_event(
                        &mut w,
                        "n",
                        "slot grant",
                        fill_id,
                        sm,
                        ev.cycle + u64::from(mshr_wait) + u64::from(queue_wait),
                        &[],
                    );
                    async_event(
                        &mut w,
                        "e",
                        name,
                        fill_id,
                        sm,
                        ev.cycle + u64::from(latency).max(1),
                        &[],
                    );
                }
                EventKind::Barrier { warp } => instant_event(
                    &mut w,
                    "barrier",
                    "sched",
                    sm,
                    ev.cycle,
                    &[("warp", u64::from(warp))],
                ),
                EventKind::Span { name, duration } => complete_event(
                    &mut w,
                    tele.span_name(name),
                    "span",
                    sm,
                    ev.cycle,
                    duration,
                    &[],
                ),
            }
        }
    }

    // Interval rows as counter tracks (core metrics, the memory
    // timeline, the raw energy-event timeline, and — when priced — the
    // derived power lane).
    counter_tracks(&mut w, tele.series());
    counter_tracks(&mut w, tele.mem_series());
    counter_tracks(&mut w, tele.energy_series());
    if let Some(power) = power {
        counter_tracks(&mut w, power);
    }

    w.end_array();
    w.field_str("displayTimeUnit", "ns");
    w.key("otherData");
    w.begin_object();
    w.field_str("kernel", label);
    w.field_u64("cycles", tele.cycles());
    w.end_object();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::TelemetryConfig;

    #[test]
    fn export_parses_and_has_schema_fields() {
        let mut t = Telemetry::for_run(1, TelemetryConfig::default());
        t.issue(0, 5, 2, 16, 0);
        t.mem_transaction(
            0,
            6,
            &crate::MemTxn {
                addr: 4096,
                latency: 120,
                level: 2,
                ..crate::MemTxn::default()
            },
        );
        t.barrier(0, 9, 2);
        t.span(0, "phase", 0, 10);
        assert_eq!(t.span_name(0), "phase");
        assert_eq!(
            t.intern_span_name("phase"),
            0,
            "span names are interned once"
        );
        t.finalize(100);
        let text = export(&t, "unit");
        let v = json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events.len() >= 6);
        for e in events {
            assert!(e.get("ph").is_some(), "every event has a phase");
            let ph = e.get("ph").unwrap().as_str().unwrap();
            if ph != "M" {
                assert!(e.get("ts").is_some(), "non-metadata events have ts");
            }
        }
        assert_eq!(
            v.get("otherData").unwrap().get("kernel").unwrap().as_str(),
            Some("unit")
        );
    }

    #[test]
    fn power_lane_exports_as_counter_events() {
        let mut t = Telemetry::for_run(1, TelemetryConfig::default());
        t.issue(0, 5, 0, 0, 0);
        t.energy_cycles(100);
        t.finalize(100);
        let power = [PowerPoint {
            cycle: 100,
            total_w: 2.5,
            dram_w: 1.0,
            static_w: 0.5,
        }];
        let text = export_with_power(&t, "unit", Some(&power));
        let v = json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("C"))
            .collect();
        let named = |n: &str| {
            counters
                .iter()
                .find(|e| e.get("name").and_then(json::Value::as_str) == Some(n))
        };
        let total = named("power.total_w").expect("power lane present");
        assert_eq!(
            total.get("args").unwrap().get("value").unwrap().as_f64(),
            Some(2.5)
        );
        assert!(named("energy.sm_cycles").is_some(), "raw event lane too");
        // Without a priced series, export still carries the raw lanes
        // but no watts.
        let bare = export(&t, "unit");
        assert!(bare.contains("energy.sm_cycles"));
        assert!(!bare.contains("power.total_w"));
    }

    #[test]
    fn fills_export_as_paired_async_spans() {
        let mut t = Telemetry::for_run(1, TelemetryConfig::default());
        t.mem_transaction(
            0,
            10,
            &crate::MemTxn {
                addr: 4096,
                latency: 120,
                level: 2,
                store: false,
                mshr_wait: 4,
                l2_wait: 2,
                dram_wait: 1,
                ..crate::MemTxn::default()
            },
        );
        t.mem_transaction(
            0,
            12,
            &crate::MemTxn {
                addr: 8192,
                latency: 40,
                level: 1,
                store: true,
                ..crate::MemTxn::default()
            },
        );
        t.finalize(200);
        let text = export(&t, "unit");
        let v = json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some(ph))
                .count()
        };
        // Each fill contributes one begin, two milestones, one end,
        // all on the mem.fill category with matching ids.
        assert_eq!(phase("b"), 2);
        assert_eq!(phase("e"), 2);
        assert_eq!(phase("n"), 4);
        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("b"))
            .collect();
        for b in &begins {
            assert_eq!(b.get("cat").and_then(json::Value::as_str), Some("mem.fill"));
            let id = b.get("id").and_then(json::Value::as_f64).unwrap();
            let end = events.iter().find(|e| {
                e.get("ph").and_then(json::Value::as_str) == Some("e")
                    && e.get("id").and_then(json::Value::as_f64) == Some(id)
            });
            assert!(end.is_some(), "unmatched async begin id {id}");
        }
        // The DRAM fill's end lands latency cycles after its begin.
        let dram_begin = begins
            .iter()
            .find(|e| e.get("name").and_then(json::Value::as_str) == Some("fill DRAM load"))
            .unwrap();
        assert_eq!(
            dram_begin.get("ts").and_then(json::Value::as_f64),
            Some(10.0)
        );
    }
}
