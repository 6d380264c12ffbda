//! Human-readable per-kernel summary: the one-screen digest of a run.

use std::fmt::Write as _;

use crate::Telemetry;

fn rate(part: u64, whole: u64) -> String {
    if whole == 0 {
        "  n/a".to_string()
    } else {
        format!("{:5.1}%", 100.0 * part as f64 / whole as f64)
    }
}

/// Renders a finalized [`Telemetry`] into a text summary.
#[must_use]
pub fn render(tele: &Telemetry, label: &str) -> String {
    let c = tele.counters();
    let [(_, accuracy), (_, ipc), _] = tele.gauges();

    let mut out = String::new();
    let _ = writeln!(out, "== telemetry summary: {label} ==");
    let _ = writeln!(out, "{:-<62}", "");
    let _ = writeln!(out, "cycles                 : {}", tele.cycles());
    let _ = writeln!(
        out,
        "warp instructions      : {}  (IPC {ipc:.3})",
        c.warp_instructions,
    );

    let (ops, mis) = (c.adder_ops, c.adder_mispredicts);
    let _ = writeln!(out, "adder ops              : {ops}");
    let _ = writeln!(
        out,
        "adder mispredicts      : {mis}  ({} of ops, accuracy {accuracy:.4})",
        rate(mis, ops).trim(),
    );

    let (l1, l1m) = (c.l1_accesses, c.l1_misses);
    let _ = writeln!(
        out,
        "L1 accesses            : {l1}  (miss {})",
        rate(l1m, l1).trim()
    );
    let _ = writeln!(out, "DRAM accesses          : {}", c.dram_accesses);
    let _ = writeln!(
        out,
        "CRF writes / conflicts : {} / {}",
        c.crf_writes, c.crf_conflicts
    );

    for (name, hist) in tele.histograms().named() {
        if hist.count() == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "hist {name:<22}: n={} mean={:.2} max={}",
            hist.count(),
            hist.mean(),
            hist.max()
        );
    }

    let pcs = tele.pc_accuracy();
    let worst: Vec<&(u32, u64, u64)> = pcs.iter().filter(|(_, _, m)| *m > 0).take(5).collect();
    if !worst.is_empty() {
        let _ = writeln!(out, "worst-predicted PCs    :");
        for (pc, ops, mis) in worst {
            let _ = writeln!(
                out,
                "  pc {pc:>6}  ops {ops:>10}  mispredicts {mis:>8}  ({})",
                rate(*mis, *ops).trim()
            );
        }
    }

    let dropped: u64 = tele.rings().iter().map(super::RingBuffer::dropped).sum();
    let held: usize = tele.rings().iter().map(super::RingBuffer::len).sum();
    let _ = writeln!(
        out,
        "events held / dropped  : {held} / {dropped}  ({} SM rings)",
        tele.rings().len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryConfig;

    #[test]
    fn summary_mentions_key_lines() {
        let mut t = Telemetry::for_run(1, TelemetryConfig::default());
        t.issue(0, 1, 0, 4, 0);
        t.finalize(100);
        let s = render(&t, "probe");
        assert!(s.contains("telemetry summary: probe"));
        assert!(s.contains("cycles"));
        assert!(s.contains("warp instructions"));
        assert!(s.contains("adder ops"));
        assert!(s.contains("events held / dropped"));
    }
}
