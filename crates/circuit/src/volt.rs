//! Supply-voltage scaling: alpha-power-law delay and `C·V²` energy.
//!
//! Speculative adders gain their power advantage by running each slice at
//! the *lowest* supply voltage at which the slice still settles within the
//! nominal clock period (defined by the reference adder at nominal
//! voltage). Delay grows as voltage falls following the alpha-power law
//! `t(V) ∝ V / (V − V_th)^α` (Rabaey); switching energy falls
//! quadratically, `E ∝ C·V²` — the "quadratic power savings" of §II-B.

use serde::{Deserialize, Serialize};

/// Technology voltage/delay/energy model (defaults loosely calibrated to a
/// 90 nm library, matching the paper's SAED 90 nm flow).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoltageModel {
    /// Nominal supply voltage (V).
    pub(crate) vnom: f64,
    /// Threshold voltage (V).
    pub(crate) vth: f64,
    /// Velocity-saturation exponent of the alpha-power law.
    pub(crate) alpha: f64,
    /// Delay of one gate-delay unit at `vnom` (ps).
    pub(crate) unit_delay_ps: f64,
    /// Energy per unit of switched capacitance at `vnom` (fJ).
    pub(crate) unit_energy_fj: f64,
}

impl VoltageModel {
    /// A 90 nm-like default: 1.2 V nominal, 0.35 V threshold, α = 1.4.
    #[must_use]
    pub fn saed90_like() -> Self {
        VoltageModel {
            vnom: 1.2,
            vth: 0.35,
            alpha: 1.4,
            unit_delay_ps: 35.0,
            unit_energy_fj: 1.1,
        }
    }

    /// Delay multiplier at `v_frac · vnom` relative to nominal.
    ///
    /// # Panics
    ///
    /// Panics if the requested voltage is at or below the threshold
    /// voltage (the circuit would not switch).
    #[must_use]
    pub fn delay_factor(&self, v_frac: f64) -> f64 {
        let v = v_frac * self.vnom;
        assert!(
            v > self.vth,
            "supply {v:.3} V is not above threshold {:.3} V",
            self.vth
        );
        let nominal = self.vnom / (self.vnom - self.vth).powf(self.alpha);
        let scaled = v / (v - self.vth).powf(self.alpha);
        scaled / nominal
    }

    /// Absolute delay (ps) of a path of `units` gate-delay units at
    /// `v_frac · vnom`.
    #[must_use]
    pub fn path_delay_ps(&self, units: u32, v_frac: f64) -> f64 {
        f64::from(units) * self.unit_delay_ps * self.delay_factor(v_frac)
    }

    /// Switching energy (fJ) for `switched_capacitance` relative units at
    /// `v_frac · vnom`: quadratic in voltage.
    #[must_use]
    pub fn switching_energy_fj(&self, switched_capacitance: f64, v_frac: f64) -> f64 {
        switched_capacitance * self.unit_energy_fj * v_frac * v_frac
    }

    /// The lowest voltage fraction (granularity 0.005) at which a path of
    /// `units` gate-delay units still fits within `period_ps`, or `None`
    /// if even nominal voltage is too slow.
    #[must_use]
    pub fn min_voltage_fraction_for_path(&self, units: u32, period_ps: f64) -> Option<f64> {
        if self.path_delay_ps(units, 1.0) > period_ps {
            return None;
        }
        // Delay is monotone decreasing in voltage: scan downward.
        let floor = (self.vth / self.vnom) + 0.02;
        let mut best = 1.0;
        let mut v = 1.0;
        while v - 0.005 > floor {
            v -= 0.005;
            if self.path_delay_ps(units, v) <= period_ps {
                best = v;
            } else {
                break;
            }
        }
        Some(best)
    }
}

impl Default for VoltageModel {
    fn default() -> Self {
        Self::saed90_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_factor_is_one() {
        let m = VoltageModel::saed90_like();
        assert!((m.delay_factor(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delay_grows_as_voltage_falls() {
        let m = VoltageModel::saed90_like();
        let mut prev = m.delay_factor(1.0);
        for v in [0.9, 0.8, 0.7, 0.6, 0.5] {
            let f = m.delay_factor(v);
            assert!(f > prev, "delay factor must grow: {f} at {v}");
            prev = f;
        }
    }

    #[test]
    fn energy_is_quadratic() {
        let m = VoltageModel::saed90_like();
        let full = m.switching_energy_fj(10.0, 1.0);
        let half = m.switching_energy_fj(10.0, 0.5);
        assert!((half / full - 0.25).abs() < 1e-12);
    }

    #[test]
    fn min_voltage_monotone_in_slack() {
        let m = VoltageModel::saed90_like();
        let tight = m
            .min_voltage_fraction_for_path(30, m.path_delay_ps(30, 1.0) * 1.01)
            .expect("fits at nominal");
        let loose = m
            .min_voltage_fraction_for_path(10, m.path_delay_ps(30, 1.0) * 1.01)
            .expect("fits at nominal");
        assert!(loose < tight, "more slack must allow lower voltage");
        assert!(tight <= 1.0 && loose > m.vth / m.vnom);
    }

    #[test]
    fn impossible_period_is_none() {
        let m = VoltageModel::saed90_like();
        assert!(m.min_voltage_fraction_for_path(100, 1.0).is_none());
    }

    #[test]
    #[should_panic(expected = "not above threshold")]
    fn below_threshold_panics() {
        let m = VoltageModel::saed90_like();
        let _ = m.delay_factor(0.2);
    }
}
