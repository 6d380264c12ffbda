//! Energy weighting for the integer energy-event timeline.
//!
//! The collector records *what happened* per interval — DRAM fills, L2
//! slot grants, MSHR merges, crossbar hops, write-allocates, issued
//! instructions, SM-resident cycles — as pure integer counts in
//! [`EnergyPoint`]s. This module prices those events:
//! an [`EnergyWeights`] table (joules per event, produced by the
//! calibrated `st2-power` model) turns the timeline into per-interval
//! power and a run-level [`EnergySummary`]. Keeping joules out of the
//! hot path keeps the timeline exact integers, so lockstep and
//! event-driven runs agree bit for bit.

use crate::metrics::{EnergyPoint, IntervalRow, MemPoint};

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
    fn split(&self, p: &EnergyPoint, waits: f64, dt: u64) -> ComponentJoules {
        ComponentJoules {
            dram: p.dram_fills as f64 * self.dram_fill_j + dt as f64 * self.dram_cycle_j,
            l2: p.l2_grants as f64 * self.l2_grant_j,
            mshr: p.mshr_merges as f64 * self.mshr_merge_j,
            xbar: p.xbar_hops as f64 * self.xbar_hop_j,
            write_alloc: p.write_allocs as f64 * self.write_alloc_j,
            issue: p.instructions as f64 * self.instruction_j,
            static_: p.sm_cycles as f64 * self.sm_cycle_j,
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

/// Prices each interval of the energy timeline: `(row, interval length
/// in cycles, joules)`. The energy and memory timelines snapshot at the
/// same boundaries, so rows pair by index (the memory row supplies the
/// interval's queued cycles); a missing memory row prices queue energy
/// as zero.
fn priced<'a>(
    energy: &'a [EnergyPoint],
    mem: &'a [MemPoint],
    w: &'a EnergyWeights,
) -> impl Iterator<Item = (&'a EnergyPoint, u64, ComponentJoules)> + 'a {
    let mut prev_cycle = 0u64;
    energy.iter().enumerate().map(move |(i, p)| {
        let dt = p.cycle.saturating_sub(prev_cycle);
        prev_cycle = p.cycle;
        let waits = mem
            .get(i)
            .map_or(0.0, |m| m.bw_wait_cycles as f64 + m.xbar_wait_cycles as f64);
        (p, dt, w.split(p, waits, dt))
    })
}

impl EnergySummary {
    /// Rolls the energy-event timeline up into a run summary, pairing
    /// each row with the memory row of the same interval.
    #[must_use]
    pub(crate) fn price(energy: &[EnergyPoint], mem: &[MemPoint], w: &EnergyWeights) -> Self {
        let mut sum = ComponentJoules::default();
        let mut instructions = 0.0;
        let mut peak_power_w = 0.0;
        let mut peak_power_cycle = 0;
        for (p, dt, e) in priced(energy, mem, w) {
            instructions += p.instructions as f64;
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

/// One interval's average power, in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerPoint {
    /// Cycle at the end of the interval.
    pub cycle: u64,
    /// Total modeled power.
    pub total_w: f64,
    /// DRAM power (fills plus background).
    pub dram_w: f64,
    /// Static/leakage power across SM-resident cycles.
    pub static_w: f64,
}

impl IntervalRow<3> for PowerPoint {
    const COLUMNS: [&'static str; 3] = ["power.total_w", "power.dram_w", "power.static_w"];

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn values(&self) -> [f64; 3] {
        [self.total_w, self.dram_w, self.static_w]
    }
}

/// Derives a per-interval average-power track from the energy-event
/// timeline, for the profile-report power column and the Chrome-trace
/// counter lanes. Zero-length intervals are skipped.
#[must_use]
pub fn power_series(
    energy: &[EnergyPoint],
    mem: &[MemPoint],
    w: &EnergyWeights,
) -> Vec<PowerPoint> {
    priced(energy, mem, w)
        .filter(|&(_, dt, _)| dt > 0)
        .map(|(p, dt, e)| {
            let secs = w.seconds(dt);
            PowerPoint {
                cycle: p.cycle,
                total_w: e.total() / secs,
                dram_w: e.dram / secs,
                static_w: e.static_ / secs,
            }
        })
        .collect()
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

    fn series(rows: &[(u64, [u64; 7])]) -> Vec<EnergyPoint> {
        rows.iter()
            .map(|&(cycle, v)| EnergyPoint {
                cycle,
                dram_fills: v[0],
                l2_grants: v[1],
                mshr_merges: v[2],
                xbar_hops: v[3],
                write_allocs: v[4],
                instructions: v[5],
                sm_cycles: v[6],
            })
            .collect()
    }

    fn mem_series(rows: &[(u64, u64, u64)]) -> Vec<MemPoint> {
        rows.iter()
            .map(|&(cycle, bw_wait_cycles, xbar_wait_cycles)| MemPoint {
                cycle,
                bw_wait_cycles,
                xbar_wait_cycles,
                ..MemPoint::default()
            })
            .collect()
    }

    #[test]
    fn summary_prices_every_component() {
        let e = series(&[(100, [2, 5, 3, 4, 1, 1000, 400])]);
        let m = mem_series(&[(100, 30, 20)]);
        let w = weights();
        let s = EnergySummary::price(&e, &m, &w);
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
            (100, [0, 0, 0, 0, 0, 10, 100]),
            (200, [50, 0, 0, 0, 0, 10, 100]),
            (300, [0, 0, 0, 0, 0, 10, 100]),
        ]);
        let m = mem_series(&[(100, 0, 0), (200, 0, 0), (300, 0, 0)]);
        let s = EnergySummary::price(&e, &m, &weights());
        assert_eq!(s.peak_power_cycle, 200, "DRAM burst interval is hottest");
        let pw = power_series(&e, &m, &weights());
        assert_eq!(pw.len(), 3);
        assert!(pw[1].total_w > pw[0].total_w);
        assert!(pw[1].total_w > pw[2].total_w);
    }

    #[test]
    fn summary_is_additive_over_merged_series() {
        // Pricing is linear in the event counts: a series whose row is
        // the sum of two others' rows costs what they cost together.
        let a = series(&[(100, [1, 2, 1, 0, 1, 500, 100])]);
        let b = series(&[(100, [3, 4, 0, 2, 0, 700, 100])]);
        let merged = series(&[(100, [4, 6, 1, 2, 1, 1200, 200])]);
        let ma = mem_series(&[(100, 10, 0)]);
        let mb = mem_series(&[(100, 5, 3)]);
        let mm = mem_series(&[(100, 15, 3)]);
        let w = weights();
        let s = EnergySummary::price(&merged, &mm, &w);
        let sa = EnergySummary::price(&a, &ma, &w);
        let sb = EnergySummary::price(&b, &mb, &w);
        // DRAM background prices dt once per merged row, so compare
        // against a+b minus the double-counted background.
        let bg_nj = 100.0 * 0.3e-12 * 1e9;
        assert!((s.dram_nj - (sa.dram_nj + sb.dram_nj - bg_nj)).abs() < 1e-9);
        assert!((s.l2_nj - (sa.l2_nj + sb.l2_nj)).abs() < 1e-9);
        assert!((s.queue_nj - (sa.queue_nj + sb.queue_nj)).abs() < 1e-9);
        assert!((s.static_nj - (sa.static_nj + sb.static_nj)).abs() < 1e-9);
    }
}
