//! The per-kernel profile summary: the committed `BENCH_profile.json`.
//!
//! One row per kernel with IPC, the stall mix, the fill-latency
//! percentiles captured by the memory telemetry and the modeled energy
//! columns, written straight from captured [`KernelProfile`]s. Every
//! value is simulated, so the document is a pure function of the
//! simulator and its inputs: the `profile_golden` test regenerates it
//! at test scale and compares it byte for byte with the committed file.

use st2::prelude::*;
use st2::telemetry::json::Writer;
use st2::telemetry::profile::ALL_STALL_REASONS;
use st2::telemetry::EnergySummary;

/// Summary document version written by [`summary_json`]. Version 2
/// added fill-latency percentiles, the bandwidth-starvation counter and
/// the per-reason stall-share map; version 3 added the crossbar-wait
/// counter and the partition fill-imbalance ratio; version 4 added host
/// wall-time and simulated cycles/sec; version 5 added the modeled
/// energy columns and stopped emitting `fill_imbalance` for
/// single-partition runs, where the ratio is undefined; version 6
/// dropped the host wall-time and cycles/sec columns, so two runs write
/// the same bytes.
pub const SUMMARY_VERSION: u32 = 6;

fn round(v: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (v * scale).round() / scale
}

/// Serialises captured kernel profiles as a summary document (the
/// `BENCH_profile.json` text), one row per profile in the given order.
/// `generator` records the command that produced the profiles.
#[must_use]
pub fn summary_json(profiles: &[KernelProfile], generator: &str) -> String {
    let mut w = Writer::new();
    w.begin_object();
    w.field_u64("schema", 1);
    w.field_u64("version", u64::from(SUMMARY_VERSION));
    w.field_str("generator", generator);
    w.key("kernels");
    w.begin_array();
    for p in profiles {
        let t = p.total();
        let slots = t.slots.max(1) as f64;
        let repair = t.stalls[StallReason::AdderRepair.index()];
        // An unpriced profile reads zero in every energy column.
        let energy = |f: fn(&EnergySummary) -> f64, places| {
            p.energy.as_ref().map_or(0.0, |e| round(f(e), places))
        };
        w.begin_object();
        w.field_str("kernel", &p.kernel);
        w.field_u64("cycles", p.cycles);
        w.field_u64("warp_instructions", p.warp_instructions);
        w.field_f64("ipc", round(p.ipc(), 4));
        w.field_f64("issue_slot_util", round(t.issued as f64 / slots, 4));
        w.field_str("top_stall", p.top_stall().name());
        w.field_u64("adder_repair_slots", repair);
        w.field_f64("adder_repair_share", round(repair as f64 / slots, 5));
        w.field_u64("fetch_oob", t.fetch_oob);
        w.field_u64("fill_p50", p.mem.fill_p50);
        w.field_u64("fill_p95", p.mem.fill_p95);
        w.field_u64("fill_max", p.mem.fill_max);
        w.field_u64("bw_starved_cycles", p.mem.bw_starved_cycles);
        w.field_u64("xbar_wait_cycles", p.mem.xbar_wait_cycles);
        // Busiest/mean is tautologically 1 with one partition: omit it.
        if p.mem.partitions > 1 {
            w.field_f64("fill_imbalance", round(p.mem.fill_imbalance(), 4));
        }
        w.field_f64("total_energy_nj", energy(|e| e.total_nj, 3));
        w.field_f64("dram_energy_nj", energy(|e| e.dram_nj, 3));
        w.field_f64("peak_power_w", energy(|e| e.peak_power_w, 4));
        w.field_f64(
            "energy_per_instruction_pj",
            energy(|e| e.energy_per_instruction_pj, 4),
        );
        // Nonzero reasons only, reason order.
        w.key("stall_shares");
        w.begin_object();
        for r in ALL_STALL_REASONS {
            let n = t.stalls[r.index()];
            if n > 0 {
                w.field_f64(r.name(), round(n as f64 / slots, 5));
            }
        }
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
    use st2::telemetry::json::{self, Value};

    /// A one-SM profile whose slots all issued, unpriced.
    fn profile(kernel: &str, warp_instructions: u64) -> KernelProfile {
        let mut p = KernelProfile {
            kernel: kernel.into(),
            cycles: 100,
            warp_instructions,
            mem: Default::default(),
            sms: vec![Default::default()],
            pcs: vec![],
            occupancy: vec![],
            mem_timeline: vec![],
            energy_timeline: vec![],
            energy: None,
        };
        p.mem.partitions = 1;
        p.sms[0].slots = 100;
        p.sms[0].issued = 100;
        p
    }

    /// The single kernel row of the summary of `p`.
    fn row(p: KernelProfile) -> Value {
        let doc = json::parse(&summary_json(&[p], "unit")).expect("summary parses");
        assert_eq!(doc.get("version"), Some(&Value::Number(6.0)));
        assert_eq!(doc.get("generator").and_then(Value::as_str), Some("unit"));
        let kernels = doc.get("kernels").and_then(Value::as_array).expect("rows");
        assert_eq!(kernels.len(), 1);
        kernels[0].clone()
    }

    fn num(row: &Value, key: &str) -> Option<f64> {
        row.get(key).and_then(Value::as_f64)
    }

    #[test]
    fn summary_json_carries_mem_percentiles() {
        let mut p = profile("probe", 250);
        p.mem.fill_p95 = 256;
        p.mem.bw_starved_cycles = 9;
        p.mem.xbar_wait_cycles = 4;
        p.mem.partitions = 2;
        p.mem.part_fills = vec![3, 1];
        p.sms[0].slots = 400;
        p.sms[0].issued = 250;
        p.sms[0].stalls[StallReason::MemPending.index()] = 150;
        let k = row(p);
        assert_eq!(num(&k, "ipc"), Some(2.5));
        assert_eq!(num(&k, "fill_p95"), Some(256.0));
        assert_eq!(num(&k, "bw_starved_cycles"), Some(9.0));
        assert_eq!(num(&k, "xbar_wait_cycles"), Some(4.0));
        // Busiest partition filled 3 of 4 lines against a mean of 2.
        assert_eq!(num(&k, "fill_imbalance"), Some(1.5));
        let Some(Value::Object(shares)) = k.get("stall_shares") else {
            panic!("stall_shares is an object");
        };
        assert_eq!(shares.len(), 1);
        assert_eq!(shares.get("mem_pending"), Some(&Value::Number(0.375)));
        // Profiles carry no priced energy until attach_energy runs.
        assert_eq!(num(&k, "total_energy_nj"), Some(0.0));
        // Host timing is not part of the document.
        assert!(k.get("wall_ms").is_none() && k.get("cycles_per_sec").is_none());
    }

    #[test]
    fn top_stall_breaks_ties_toward_the_later_reason() {
        let mut p = profile("tie", 100);
        p.sms[0].stalls[StallReason::Scoreboard.index()] = 5;
        p.sms[0].stalls[StallReason::Barrier.index()] = 5;
        assert_eq!(p.top_stall(), StallReason::Barrier);
        assert_eq!(
            row(p).get("top_stall").and_then(Value::as_str),
            Some("barrier")
        );
    }

    #[test]
    fn single_partition_profiles_omit_fill_imbalance() {
        // With one partition busiest/mean is identically 1, which reads
        // as "perfectly balanced" when it is really "undefined".
        let mut p = profile("solo", 100);
        p.mem.part_fills = vec![7];
        assert_eq!(row(p).get("fill_imbalance"), None);
    }

    #[test]
    fn priced_profiles_surface_energy_columns() {
        let mut p = profile("hot", 200);
        p.energy = Some(EnergySummary {
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
        });
        let k = row(p);
        assert_eq!(num(&k, "total_energy_nj"), Some(1234.568));
        assert_eq!(num(&k, "dram_energy_nj"), Some(456.789));
        assert_eq!(num(&k, "peak_power_w"), Some(37.25));
        assert_eq!(num(&k, "energy_per_instruction_pj"), Some(6.1728));
    }
}
