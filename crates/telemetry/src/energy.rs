//! Energy weighting for the integer energy-event timeline.
//!
//! The collector records *what happened* per interval — DRAM fills, L2
//! slot grants, MSHR merges, crossbar hops, write-allocates, issued
//! instructions, SM-resident cycles — as pure integer counts (see
//! `crate::ENERGY_SERIES_COLUMNS`). This module prices those events:
//! an [`EnergyWeights`] table (joules per event, produced by the
//! calibrated `st2-power` model) turns the timeline into per-interval
//! power and a run-level [`EnergySummary`]. Keeping joules out of the
//! hot path keeps the timeline exact integers, so lockstep and
//! event-driven runs agree bit for bit.

use crate::metrics::IntervalSeries;

/// Column indices of [`crate::ENERGY_SERIES_COLUMNS`].
const DRAM_FILLS: usize = 0;
const L2_GRANTS: usize = 1;
const MSHR_MERGES: usize = 2;
const XBAR_HOPS: usize = 3;
const WRITE_ALLOCS: usize = 4;
const INSTRUCTIONS: usize = 5;
const SM_CYCLES: usize = 6;

/// Column indices of [`crate::MEM_SERIES_COLUMNS`] consumed here.
const MEM_BW_WAIT: usize = 4;
const MEM_XBAR_WAIT: usize = 5;

/// Joules charged per energy-timeline event. Produced by the calibrated
/// power model (`st2_power::EnergyModel::interval_weights`); the
/// telemetry crate only applies them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyWeights {
    /// Per DRAM line fill (row activate + burst transfer).
    pub dram_fill_j: f64,
    /// Per fresh fill granted an L2 request slot (tag probe + data
    /// array access).
    pub l2_grant_j: f64,
    /// Per MSHR merge (CAM match + entry update; no array traffic).
    pub mshr_merge_j: f64,
    /// Per fill crossing the SM↔partition crossbar (one hop).
    pub xbar_hop_j: f64,
    /// Per write-allocate fill (tag write + line install on top of the
    /// fill itself).
    pub write_alloc_j: f64,
    /// Per issued warp instruction (front-end + operand delivery
    /// average; the component model refines this per unit).
    pub instruction_j: f64,
    /// Per SM-resident clock tick (static/leakage + clock tree), per
    /// SM.
    pub sm_cycle_j: f64,
    /// DRAM background (refresh + standby) per device clock tick.
    pub dram_cycle_j: f64,
    /// Per cycle a request sat queued for a bandwidth slot or crossbar
    /// port (buffer occupancy energy).
    pub queue_wait_j: f64,
    /// Core clock in GHz — converts interval cycles to seconds for
    /// power.
    pub clock_ghz: f64,
}

impl EnergyWeights {
    /// Joules spent in one interval, split by component.
    /// `waits` is the interval's queued-cycles total (bandwidth +
    /// crossbar) from the memory timeline; `dt` the interval length in
    /// device cycles.
    #[must_use]
    fn split(&self, values: &[f64], waits: f64, dt: u64) -> ComponentJoules {
        ComponentJoules {
            dram: values[DRAM_FILLS] * self.dram_fill_j + dt as f64 * self.dram_cycle_j,
            l2: values[L2_GRANTS] * self.l2_grant_j,
            mshr: values[MSHR_MERGES] * self.mshr_merge_j,
            xbar: values[XBAR_HOPS] * self.xbar_hop_j,
            write_alloc: values[WRITE_ALLOCS] * self.write_alloc_j,
            issue: values[INSTRUCTIONS] * self.instruction_j,
            static_: values[SM_CYCLES] * self.sm_cycle_j,
            queue: waits * self.queue_wait_j,
        }
    }

    /// Seconds spanned by `dt` device cycles.
    #[must_use]
    fn seconds(&self, dt: u64) -> f64 {
        dt as f64 / (self.clock_ghz.max(1e-9) * 1e9)
    }
}

/// One interval's energy, split by component (joules).
#[derive(Debug, Clone, Copy, Default)]
struct ComponentJoules {
    dram: f64,
    l2: f64,
    mshr: f64,
    xbar: f64,
    write_alloc: f64,
    issue: f64,
    static_: f64,
    queue: f64,
}

impl ComponentJoules {
    fn total(&self) -> f64 {
        self.dram
            + self.l2
            + self.mshr
            + self.xbar
            + self.write_alloc
            + self.issue
            + self.static_
            + self.queue
    }
}

/// Run-level energy rollup: totals per component, the hottest interval,
/// and energy per instruction. All energies in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySummary {
    /// Total modeled energy.
    pub total_nj: f64,
    /// DRAM: line fills plus background (refresh/standby) over the run.
    pub dram_nj: f64,
    /// L2 slot grants (tag + data array accesses for fresh fills).
    pub l2_nj: f64,
    /// MSHR merge CAM activity.
    pub mshr_nj: f64,
    /// Crossbar hop traffic.
    pub xbar_nj: f64,
    /// Write-allocate line installs.
    pub write_alloc_nj: f64,
    /// Instruction issue / execution front-end.
    pub issue_nj: f64,
    /// Static/leakage across all SM-resident cycles (parked SMs
    /// included).
    pub static_nj: f64,
    /// Queue-occupancy energy over bandwidth/crossbar wait cycles.
    pub queue_nj: f64,
    /// Highest per-interval average power observed (watts).
    pub peak_power_w: f64,
    /// End cycle of the peak-power interval.
    pub peak_power_cycle: u64,
    /// Energy per issued warp instruction, in picojoules.
    pub energy_per_instruction_pj: f64,
}

impl EnergySummary {
    /// Rolls the energy-event timeline up into a run summary.
    ///
    /// `energy` and `mem` are the collector's two interval series; they
    /// snapshot at the same boundaries, so rows pair by index (the
    /// memory row supplies the interval's queued cycles). Missing mem
    /// rows price queue energy as zero.
    #[must_use]
    pub(crate) fn from_series(
        energy: &IntervalSeries,
        mem: &IntervalSeries,
        w: &EnergyWeights,
    ) -> Self {
        let mut sum = ComponentJoules::default();
        let mut instructions = 0.0;
        let mut peak_power_w = 0.0;
        let mut peak_power_cycle = 0;
        let mut prev_cycle = 0u64;
        for (i, p) in energy.points().iter().enumerate() {
            let dt = p.cycle.saturating_sub(prev_cycle);
            prev_cycle = p.cycle;
            let waits = mem
                .points()
                .get(i)
                .map_or(0.0, |m| m.values[MEM_BW_WAIT] + m.values[MEM_XBAR_WAIT]);
            let e = w.split(&p.values, waits, dt);
            instructions += p.values[INSTRUCTIONS];
            sum.dram += e.dram;
            sum.l2 += e.l2;
            sum.mshr += e.mshr;
            sum.xbar += e.xbar;
            sum.write_alloc += e.write_alloc;
            sum.issue += e.issue;
            sum.static_ += e.static_;
            sum.queue += e.queue;
            if dt > 0 {
                let watts = e.total() / w.seconds(dt);
                if watts > peak_power_w {
                    peak_power_w = watts;
                    peak_power_cycle = p.cycle;
                }
            }
        }
        let total = sum.total();
        EnergySummary {
            total_nj: total * 1e9,
            dram_nj: sum.dram * 1e9,
            l2_nj: sum.l2 * 1e9,
            mshr_nj: sum.mshr * 1e9,
            xbar_nj: sum.xbar * 1e9,
            write_alloc_nj: sum.write_alloc * 1e9,
            issue_nj: sum.issue * 1e9,
            static_nj: sum.static_ * 1e9,
            queue_nj: sum.queue * 1e9,
            peak_power_w,
            peak_power_cycle,
            energy_per_instruction_pj: if instructions > 0.0 {
                total * 1e12 / instructions
            } else {
                0.0
            },
        }
    }
}

/// Power-lane column order (see [`power_series`]).
pub(crate) const POWER_SERIES_COLUMNS: [&str; 3] =
    ["power.total_w", "power.dram_w", "power.static_w"];

/// Derives a per-interval average-power series (watts) from the
/// energy-event timeline, for the profile-report power track and the
/// Chrome-trace counter lane. Columns: `POWER_SERIES_COLUMNS`.
#[must_use]
pub fn power_series(
    energy: &IntervalSeries,
    mem: &IntervalSeries,
    w: &EnergyWeights,
) -> IntervalSeries {
    let mut out = IntervalSeries::new(
        POWER_SERIES_COLUMNS
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
    );
    let mut prev_cycle = 0u64;
    for (i, p) in energy.points().iter().enumerate() {
        let dt = p.cycle.saturating_sub(prev_cycle);
        prev_cycle = p.cycle;
        if dt == 0 {
            continue;
        }
        let waits = mem
            .points()
            .get(i)
            .map_or(0.0, |m| m.values[MEM_BW_WAIT] + m.values[MEM_XBAR_WAIT]);
        let e = w.split(&p.values, waits, dt);
        let secs = w.seconds(dt);
        out.push(
            p.cycle,
            vec![e.total() / secs, e.dram / secs, e.static_ / secs],
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights() -> EnergyWeights {
        EnergyWeights {
            dram_fill_j: 140e-12,
            l2_grant_j: 8e-12,
            mshr_merge_j: 1.2e-12,
            xbar_hop_j: 1.8e-12,
            write_alloc_j: 4e-12,
            instruction_j: 0.42e-12,
            sm_cycle_j: 0.05e-12,
            dram_cycle_j: 0.3e-12,
            queue_wait_j: 0.02e-12,
            clock_ghz: 1.0,
        }
    }

    fn series(rows: &[(u64, [f64; 7])]) -> IntervalSeries {
        let mut s = IntervalSeries::new(
            crate::ENERGY_SERIES_COLUMNS
                .iter()
                .map(|c| (*c).to_string())
                .collect(),
        );
        for (cycle, v) in rows {
            s.push(*cycle, v.to_vec());
        }
        s
    }

    fn mem_series(rows: &[(u64, f64, f64)]) -> IntervalSeries {
        let mut s = IntervalSeries::new(
            crate::MEM_SERIES_COLUMNS
                .iter()
                .map(|c| (*c).to_string())
                .collect(),
        );
        for (cycle, bw, xbar) in rows {
            s.push(*cycle, vec![0.0, 0.0, 0.0, 0.0, *bw, *xbar]);
        }
        s
    }

    #[test]
    fn summary_prices_every_component() {
        let e = series(&[(100, [2.0, 5.0, 3.0, 4.0, 1.0, 1000.0, 400.0])]);
        let m = mem_series(&[(100, 30.0, 20.0)]);
        let w = weights();
        let s = EnergySummary::from_series(&e, &m, &w);
        let expect_dram = 2.0 * 140e-12 + 100.0 * 0.3e-12;
        assert!((s.dram_nj - expect_dram * 1e9).abs() < 1e-12);
        assert!((s.l2_nj - 5.0 * 8e-3).abs() < 1e-12);
        assert!((s.mshr_nj - 3.0 * 1.2e-3).abs() < 1e-12);
        assert!((s.xbar_nj - 4.0 * 1.8e-3).abs() < 1e-12);
        assert!((s.write_alloc_nj - 4e-3).abs() < 1e-12);
        assert!((s.queue_nj - 50.0 * 0.02e-3).abs() < 1e-12);
        let total = s.dram_nj
            + s.l2_nj
            + s.mshr_nj
            + s.xbar_nj
            + s.write_alloc_nj
            + s.issue_nj
            + s.static_nj
            + s.queue_nj;
        assert!((s.total_nj - total).abs() < 1e-9);
        // 1 GHz, 100-cycle interval => 100 ns; P = E / t.
        assert!((s.peak_power_w - total * 1e-9 / 100e-9).abs() < 1e-9);
        assert_eq!(s.peak_power_cycle, 100);
        assert!((s.energy_per_instruction_pj - total / 1000.0 * 1e3).abs() < 1e-9);
    }

    #[test]
    fn peak_interval_wins() {
        let e = series(&[
            (100, [0.0, 0.0, 0.0, 0.0, 0.0, 10.0, 100.0]),
            (200, [50.0, 0.0, 0.0, 0.0, 0.0, 10.0, 100.0]),
            (300, [0.0, 0.0, 0.0, 0.0, 0.0, 10.0, 100.0]),
        ]);
        let m = mem_series(&[(100, 0.0, 0.0), (200, 0.0, 0.0), (300, 0.0, 0.0)]);
        let s = EnergySummary::from_series(&e, &m, &weights());
        assert_eq!(s.peak_power_cycle, 200, "DRAM burst interval is hottest");
        let pw = power_series(&e, &m, &weights());
        assert_eq!(pw.points().len(), 3);
        let total_col = pw.column("power.total_w").unwrap();
        assert!(total_col[1].1 > total_col[0].1);
        assert!(total_col[1].1 > total_col[2].1);
    }

    #[test]
    fn summary_is_additive_over_merged_series() {
        // Pricing is linear in the event counts: a series whose row is
        // the sum of two others' rows costs what they cost together.
        let a = series(&[(100, [1.0, 2.0, 1.0, 0.0, 1.0, 500.0, 100.0])]);
        let b = series(&[(100, [3.0, 4.0, 0.0, 2.0, 0.0, 700.0, 100.0])]);
        let merged = series(&[(100, [4.0, 6.0, 1.0, 2.0, 1.0, 1200.0, 200.0])]);
        let ma = mem_series(&[(100, 10.0, 0.0)]);
        let mb = mem_series(&[(100, 5.0, 3.0)]);
        let mm = mem_series(&[(100, 15.0, 3.0)]);
        let w = weights();
        let s = EnergySummary::from_series(&merged, &mm, &w);
        let sa = EnergySummary::from_series(&a, &ma, &w);
        let sb = EnergySummary::from_series(&b, &mb, &w);
        // DRAM background prices dt once per merged row, so compare
        // against a+b minus the double-counted background.
        let bg_nj = 100.0 * 0.3e-12 * 1e9;
        assert!((s.dram_nj - (sa.dram_nj + sb.dram_nj - bg_nj)).abs() < 1e-9);
        assert!((s.l2_nj - (sa.l2_nj + sb.l2_nj)).abs() < 1e-9);
        assert!((s.queue_nj - (sa.queue_nj + sb.queue_nj)).abs() < 1e-9);
        assert!((s.static_nj - (sa.static_nj + sb.static_nj)).abs() < 1e-9);
    }
}
