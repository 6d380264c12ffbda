//! Host-time spans recorded around every call into a simulator layer.
//!
//! Spans are kept in memory and written once, at exit, as a Chrome
//! trace. A disabled tracer records nothing and reads no clock, so the
//! untraced passes that give the end-to-end metrics pay nothing for it.

use std::time::Instant;

use crate::api::json::Writer;

/// Which part of a workload run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// One repetition of the workload's set-up.
    Setup,
    /// One measured pass.
    Pass,
    /// Runs outside the passes that a per-layer metric subtracts from.
    Reference,
}

impl Phase {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Pass => "pass",
            Phase::Reference => "reference",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `sim.timed`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub phase: Phase,
    /// Set-up repetition or pass number.
    pub index: u32,
    /// Kernel and variant the call worked on (`""` when none).
    pub label: String,
}

/// Records [`Span`]s when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    phase: Phase,
    index: u32,
    label: String,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            phase: Phase::Setup,
            index: 0,
            label: String::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans that follow with a phase and its index.
    pub fn enter(&mut self, phase: Phase, index: u32) {
        self.phase = phase;
        self.index = index;
        self.label.clear();
    }

    /// Tags the spans that follow with the kernel they work on.
    pub fn set_label(&mut self, label: &str) {
        if self.enabled {
            self.label.clear();
            self.label.push_str(label);
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span; it nests under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            phase: self.phase,
            index: self.index,
            label: self.label.clone(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Open spans right now.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes the spans a caught panic left open above `depth`.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.end();
        }
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (overlapping children count once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns - s.start_ns - covered
        })
        .collect()
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): one complete event per span, times in microseconds.
#[must_use]
pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let mut w = Writer::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (i, s) in spans.iter().enumerate() {
        w.begin_object();
        w.field_str("name", s.name);
        w.field_str("cat", s.name.split('.').next().unwrap_or(s.name));
        w.field_str("ph", "X");
        w.field_f64("ts", s.start_ns as f64 / 1e3);
        w.field_f64("dur", (s.end_ns - s.start_ns) as f64 / 1e3);
        w.field_u64("pid", 1);
        w.field_u64("tid", 1);
        w.key("args");
        w.begin_object();
        w.field_u64("id", i as u64);
        if let Some(p) = s.parent {
            w.field_u64("parent", p as u64);
        }
        w.field_str("workload", workload);
        w.field_str("phase", s.phase.name());
        w.field_u64("index", u64::from(s.index));
        w.field_str("kernel", &s.label);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            phase: Phase::Pass,
            index: 0,
            label: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_back_to_back_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            // Two back-to-back children of the pass...
            span("sim.timed", 10, 40, Some(0)),
            span("sim.timed", 40, 70, Some(0)),
            // ...the first with a nested grandchild.
            span("kernels.verify", 20, 25, Some(1)),
            // A leaf with no children keeps its whole duration.
            span("power.price", 80, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 30 - 10, 25, 30, 5, 10]);
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once() {
        let spans = vec![
            span("pass", 10, 50, None),
            span("a", 5, 30, Some(0)),
            span("b", 20, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_unwind_closes_open_spans() {
        let mut t = Tracer::new(false);
        t.span("sim.timed", || ());
        assert!(t.spans().is_empty());

        let mut t = Tracer::new(true);
        t.enter(Phase::Pass, 3);
        t.begin("pass");
        let depth = t.depth();
        t.begin("sim.timed");
        t.begin("inner");
        t.unwind_to(depth);
        t.end();
        assert_eq!(t.depth(), 0);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert!(t
            .spans()
            .iter()
            .all(|s| s.index == 3 && s.end_ns >= s.start_ns));
        let doc = chrome_json("chip", t.spans());
        assert!(crate::api::json::parse(&doc).is_ok());
    }
}
