//! Level-shifter overhead model (§VI).
//!
//! ST² slices run in a scaled-down voltage domain, so every adder input
//! and output bit crosses a voltage boundary through a level shifter. The
//! paper bounds the overhead with published figures: 2.8 µm² per shifter
//! in 45 nm [Liu et al., ISCAS'15], and 1.38 fJ per transition / 307 nW
//! static / 20.8 ps worst-case delay for 16 nm FinFET shifters
//! [Shapiro & Friedman, TVLSI'16]. This module reproduces that arithmetic
//! for a TITAN-V-class chip.

use serde::{Deserialize, Serialize};

/// Per-shifter characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelShifterModel {
    /// Cell area (µm², 45 nm figure — conservatively unscaled).
    pub(crate) area_um2: f64,
    /// Dynamic energy per output transition (fJ).
    pub(crate) energy_per_transition_fj: f64,
    /// Static power per shifter (nW).
    pub(crate) static_power_nw: f64,
    /// Worst-case propagation delay per transition (ps).
    pub(crate) delay_ps: f64,
}

impl LevelShifterModel {
    /// The constants the paper cites (\[20\] for area, \[21\] for
    /// energy/static/delay).
    #[must_use]
    pub fn paper_constants() -> Self {
        LevelShifterModel {
            area_um2: 2.8,
            energy_per_transition_fj: 1.38,
            static_power_nw: 307.0,
            delay_ps: 20.8,
        }
    }
}

impl Default for LevelShifterModel {
    fn default() -> Self {
        Self::paper_constants()
    }
}

/// How many shifter-protected adders of each width a chip carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdderPopulation {
    /// Streaming multiprocessors on the chip.
    pub sms: u32,
    /// 32-bit integer ALU adders per SM.
    pub alu_per_sm: u32,
    /// FP32 units per SM (24-bit mantissa adders).
    pub fpu_per_sm: u32,
    /// FP64 units per SM (53-bit mantissa adders).
    pub dpu_per_sm: u32,
}

impl AdderPopulation {
    /// NVIDIA TITAN V (Volta GV100): 80 SMs × (64 ALU + 64 FPU + 32 DPU).
    #[must_use]
    pub fn titan_v() -> Self {
        AdderPopulation {
            sms: 80,
            alu_per_sm: 64,
            fpu_per_sm: 64,
            dpu_per_sm: 32,
        }
    }

    /// Level shifters per adder: both input operands plus the output for
    /// every bit of the adder's datapath.
    #[must_use]
    pub(crate) fn shifters_per_sm(&self) -> u64 {
        let per_adder = |bits: u64| 3 * bits;
        u64::from(self.alu_per_sm) * per_adder(32)
            + u64::from(self.fpu_per_sm) * per_adder(24)
            + u64::from(self.dpu_per_sm) * per_adder(53)
    }

    /// Total level shifters on the chip.
    #[must_use]
    pub(crate) fn total_shifters(&self) -> u64 {
        u64::from(self.sms) * self.shifters_per_sm()
    }
}

/// Chip-level level-shifter overheads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShifterOverheads {
    /// Shifters on the chip.
    pub count: u64,
    /// Total area (mm²).
    pub area_mm2: f64,
    /// Area as a fraction of the die.
    pub area_frac_of_die: f64,
    /// Total static power (W).
    pub static_power_w: f64,
    /// Worst-case dynamic power (W) under the paper's pessimistic
    /// assumption that *every* bit of every adder operation transitions.
    pub worst_case_dynamic_w: f64,
    /// Added delay per crossing (ps).
    pub delay_ps: f64,
}

/// Computes chip-level overheads.
///
/// `adder_ops_per_second` is the chip-wide rate of operations entering
/// shifted adders (for the pessimistic all-bits-toggle dynamic bound).
/// `die_area_mm2` defaults to the TITAN V's 815 mm² when computing the
/// area fraction.
#[must_use]
pub fn chip_overheads(
    model: &LevelShifterModel,
    population: &AdderPopulation,
    adder_ops_per_second: f64,
    die_area_mm2: f64,
) -> ShifterOverheads {
    let count = population.total_shifters();
    let area_mm2 = count as f64 * model.area_um2 / 1e6;
    let static_power_w = count as f64 * model.static_power_nw * 1e-9;
    // Pessimistic dynamic bound: every shifter of an *average* adder
    // transitions once per operation. Ops/s × shifters-per-adder ×
    // energy/transition. Average shifters per adder over the population:
    let adders = f64::from(population.sms)
        * f64::from(population.alu_per_sm + population.fpu_per_sm + population.dpu_per_sm);
    let avg_shifters_per_adder = count as f64 / adders;
    let worst_case_dynamic_w =
        adder_ops_per_second * avg_shifters_per_adder * model.energy_per_transition_fj * 1e-15;
    ShifterOverheads {
        count,
        area_mm2,
        area_frac_of_die: area_mm2 / die_area_mm2,
        static_power_w,
        worst_case_dynamic_w,
        delay_ps: model.delay_ps,
    }
}

/// The TITAN V die area used for the paper's 0.68 % figure.
pub const TITAN_V_DIE_MM2: f64 = 815.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_area_bound() {
        // Paper: "these level shifters in total occupy less than 5.5 mm²,
        // which ... is 0.68 % of the 815 mm² chip area."
        let o = chip_overheads(
            &LevelShifterModel::paper_constants(),
            &AdderPopulation::titan_v(),
            0.0,
            TITAN_V_DIE_MM2,
        );
        assert!(
            o.area_mm2 < 5.5,
            "area {} must be below 5.5 mm²",
            o.area_mm2
        );
        assert!(o.area_frac_of_die < 0.0068 + 1e-4);
    }

    #[test]
    fn reproduces_paper_static_power_bound() {
        // Paper: total static power "is only 0.6 W".
        let o = chip_overheads(
            &LevelShifterModel::paper_constants(),
            &AdderPopulation::titan_v(),
            0.0,
            TITAN_V_DIE_MM2,
        );
        assert!(
            o.static_power_w < 0.6,
            "static {} must be below 0.6 W",
            o.static_power_w
        );
        assert!(o.static_power_w > 0.2, "sanity: non-trivial static power");
    }

    #[test]
    fn shifter_counts() {
        let p = AdderPopulation::titan_v();
        // 64×96 + 64×72 + 32×159 = 15840 per SM.
        assert_eq!(p.shifters_per_sm(), 15840);
        assert_eq!(p.total_shifters(), 15840 * 80);
    }

    #[test]
    fn dynamic_bound_scales_with_rate() {
        let m = LevelShifterModel::paper_constants();
        let p = AdderPopulation::titan_v();
        let lo = chip_overheads(&m, &p, 1e9, TITAN_V_DIE_MM2);
        let hi = chip_overheads(&m, &p, 2e9, TITAN_V_DIE_MM2);
        assert!((hi.worst_case_dynamic_w / lo.worst_case_dynamic_w - 2.0).abs() < 1e-9);
    }
}
