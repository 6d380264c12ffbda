//! Adder characterisation: the circuit-level design-space exploration of
//! §V-B and the energy coefficients the power model consumes.
//!
//! The flow mirrors the paper's: determine the reference adder's minimum
//! delay at nominal voltage (this defines the nominal clock period), then
//! for each candidate slice bitwidth find the supply voltage at which the
//! slice still fits within that period, and evaluate per-operation energy
//! on a random input stream.

use crate::builder::{pack_inputs, reference_adder, ripple_adder};
use crate::netlist::Netlist;
use crate::sim::EventSim;
use crate::volt::VoltageModel;
use serde::{Deserialize, Serialize};

/// A simple deterministic 64-bit generator (splitmix64) so the
/// characterisation is reproducible without external dependencies.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One point of the slice-bitwidth design-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlicePoint {
    /// Slice width in bits.
    pub width: u32,
    /// Number of slices composing a 64-bit adder.
    pub slices: u32,
    /// Lowest supply fraction at which the slice fits the nominal period.
    pub vmin_frac: f64,
    /// Energy of one slice computation at `vmin_frac` (fJ), including the
    /// speculative-adder cell overhead (registers, compare, select).
    pub slice_energy_fj: f64,
    /// Energy of a full 64-bit first-cycle computation (all slices, fJ).
    pub adder_energy_fj: f64,
    /// Potential per-adder energy saving vs the reference (0‥1), assuming
    /// perfect prediction (first cycle only).
    pub savings_frac: f64,
}

/// Energy/delay coefficients exported to the power model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdderEnergyTable {
    /// Nominal clock period (ps) — reference 64-bit adder at nominal V.
    pub nominal_period_ps: f64,
    /// Reference 64-bit adder energy per operation at nominal V (fJ).
    pub reference_energy_fj: f64,
    /// Reference 32-bit adder energy per operation at nominal V (fJ) —
    /// the TITAN V's native ALU width.
    pub reference32_energy_fj: f64,
    /// One 8-bit slice computation at the scaled voltage (fJ), including
    /// speculative-cell overhead.
    pub slice_energy_fj: f64,
    /// The scaled supply fraction for 8-bit slices.
    pub slice_vmin_frac: f64,
    /// CRF row read energy (fJ) — 224 bits read per warp access.
    pub crf_read_energy_fj: f64,
    /// CRF row write energy (fJ).
    pub crf_write_energy_fj: f64,
    /// Per-op energy of a CSLA of the same width (fJ) — duplicated slices.
    pub csla_energy_fj: f64,
}

impl AdderEnergyTable {
    /// First-cycle energy of an `n`-slice speculative adder (fJ).
    #[must_use]
    pub fn st2_first_cycle_fj(&self, slices: u32) -> f64 {
        f64::from(slices) * self.slice_energy_fj
    }
}

/// The characterisation engine.
#[derive(Debug, Clone)]
pub struct Characterizer {
    volt: VoltageModel,
    vectors: usize,
    seed: u64,
    /// Fixed per-slice speculative-cell overhead as a fraction of slice
    /// switching energy (input/output/state registers, carry compare,
    /// select mux — the red additions in the paper's Fig. 4).
    cell_overhead_frac: f64,
}

impl Characterizer {
    /// Default 90 nm-like characteriser (500 random vectors, fixed seed).
    #[must_use]
    pub fn default_90nm() -> Self {
        Characterizer {
            volt: VoltageModel::saed90_like(),
            vectors: 500,
            seed: 0x5EED_CAFE,
            cell_overhead_frac: 0.12,
        }
    }

    /// Overrides the number of random vectors (for quick tests).
    #[must_use]
    pub fn with_vectors(mut self, vectors: usize) -> Self {
        self.vectors = vectors;
        self
    }

    /// Critical-path delay of a netlist at nominal voltage (ps).
    #[must_use]
    pub fn critical_delay_ps(&self, net: &Netlist) -> f64 {
        self.volt.path_delay_ps(net.critical_path(), 1.0)
    }

    /// Lowest voltage fraction at which `net` settles within `period_ps`
    /// (1.0 if no scaling is possible).
    #[must_use]
    pub fn min_voltage_fraction(&self, net: &Netlist, period_ps: f64) -> f64 {
        self.volt
            .min_voltage_fraction_for_path(net.critical_path(), period_ps)
            .unwrap_or(1.0)
    }

    /// Average switched capacitance per operation on `vectors` random
    /// operand pairs (relative units).
    #[must_use]
    pub fn average_capacitance(&self, net: &Netlist, bits: u32) -> f64 {
        let mut rng = SplitMix64::new(self.seed);
        let mut sim = EventSim::new(net);
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        let mut total = 0.0;
        for _ in 0..self.vectors {
            let a = rng.next_u64() & mask;
            let b = rng.next_u64() & mask;
            total += sim
                .apply(&pack_inputs(bits, a, b, false))
                .switched_capacitance;
        }
        total / self.vectors as f64
    }

    /// Energy per operation (fJ) of a netlist at a voltage fraction, on
    /// random vectors.
    #[must_use]
    pub fn energy_per_op_fj(&self, net: &Netlist, bits: u32, v_frac: f64) -> f64 {
        self.volt
            .switching_energy_fj(self.average_capacitance(net, bits), v_frac)
    }

    /// One point of the slice design-space exploration for a 64-bit adder
    /// split into `width`-bit ripple slices.
    ///
    /// # Panics
    ///
    /// Panics if `width` does not divide 64.
    #[must_use]
    pub fn slice_point(&self, width: u32, period_ps: f64, reference_energy_fj: f64) -> SlicePoint {
        assert!(width >= 1 && 64 % width == 0, "width must divide 64");
        let slices = 64 / width;
        let slice = ripple_adder(width);
        let vmin = self.min_voltage_fraction(&slice, period_ps);
        let raw = self.energy_per_op_fj(&slice, width, vmin);
        let slice_energy = raw * (1.0 + self.cell_overhead_frac);
        let adder_energy = slice_energy * f64::from(slices);
        SlicePoint {
            width,
            slices,
            vmin_frac: vmin,
            slice_energy_fj: slice_energy,
            adder_energy_fj: adder_energy,
            savings_frac: 1.0 - adder_energy / reference_energy_fj,
        }
    }

    /// The full §V-B sweep over slice widths {2, 4, 8, 16, 32}.
    #[must_use]
    pub fn slice_dse(&self) -> Vec<SlicePoint> {
        let reference = reference_adder(64);
        let period = self.critical_delay_ps(&reference);
        let ref_energy = self.energy_per_op_fj(&reference, 64, 1.0);
        [2u32, 4, 8, 16, 32]
            .iter()
            .map(|&w| self.slice_point(w, period, ref_energy))
            .collect()
    }

    /// Builds the coefficient table consumed by the `st2-power` model.
    #[must_use]
    pub fn adder_energy_table(&self) -> AdderEnergyTable {
        let reference = reference_adder(64);
        let reference32 = reference_adder(32);
        let period = self.critical_delay_ps(&reference);
        let ref_energy = self.energy_per_op_fj(&reference, 64, 1.0);
        let ref32_energy = self.energy_per_op_fj(&reference32, 32, 1.0);
        let point = self.slice_point(8, period, ref_energy);
        let csla = crate::builder::carry_select_adder(64, 8);
        let csla_energy = self.energy_per_op_fj(&csla, 64, 1.0);
        // CRF row access: a 224-bit register-file row. Model per-bit access
        // capacitance as ~1.5 gate-cap units (wordline + bitline share).
        let crf_row_cap = 224.0 * 1.5;
        AdderEnergyTable {
            nominal_period_ps: period,
            reference_energy_fj: ref_energy,
            reference32_energy_fj: ref32_energy,
            slice_energy_fj: point.slice_energy_fj,
            slice_vmin_frac: point.vmin_frac,
            crf_read_energy_fj: self.volt.switching_energy_fj(crf_row_cap * 0.5, 1.0),
            crf_write_energy_fj: self.volt.switching_energy_fj(crf_row_cap * 0.7, 1.0),
            csla_energy_fj: csla_energy,
        }
    }
}

impl Default for Characterizer {
    fn default() -> Self {
        Self::default_90nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Characterizer {
        Characterizer::default_90nm().with_vectors(60)
    }

    #[test]
    fn eight_bit_slice_scales_deep() {
        // The paper's headline circuit result: 8-bit slices allow the
        // supply to scale to ~60 % of nominal within the nominal period.
        let ch = quick();
        let reference = reference_adder(64);
        let period = ch.critical_delay_ps(&reference);
        let slice = ripple_adder(8);
        let vmin = ch.min_voltage_fraction(&slice, period);
        assert!(
            (0.5..=0.72).contains(&vmin),
            "8-bit slice vmin {vmin} outside the plausible band around 0.6"
        );
    }

    #[test]
    fn slice_dse_shape() {
        // Wider slices scale less; savings should peak at a narrow width
        // and the 8-bit point must deliver substantial savings.
        let ch = quick();
        let points = ch.slice_dse();
        assert_eq!(points.len(), 5);
        let by_width = |w: u32| points.iter().find(|p| p.width == w).expect("width present");
        assert!(by_width(8).vmin_frac < by_width(32).vmin_frac);
        assert!(
            by_width(8).savings_frac > 0.6,
            "8-bit savings {} too low",
            by_width(8).savings_frac
        );
        for p in &points {
            assert!(p.savings_frac < 1.0);
            assert!(p.slices * p.width == 64);
        }
    }

    #[test]
    fn energy_table_consistency() {
        let t = quick().adder_energy_table();
        assert!(t.nominal_period_ps > 0.0);
        assert!(t.reference_energy_fj > t.reference32_energy_fj);
        assert!(t.slice_vmin_frac < 1.0);
        // First cycle of 8 slices must be far below the reference.
        assert!(t.st2_first_cycle_fj(8) < 0.5 * t.reference_energy_fj);
        // CSLA burns more than the reference (duplicated slices).
        assert!(t.csla_energy_fj > t.reference_energy_fj * 0.8);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
