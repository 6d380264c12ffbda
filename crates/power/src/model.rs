//! Eq. (1): the calibrated total-power model.

use crate::component::NUM_COMPONENTS;
use crate::energy::ComponentEnergy;
use serde::{Deserialize, Serialize};
use st2_sim::ActivityCounters;

/// The paper's Eq. 1:
/// `P_total = P_const + N_idleSM·P_idleSM + Σᵢ Pᵢ·Scaleᵢ`.
///
/// `Pᵢ` is the simulator-derived dynamic power of component `i`; the scale
/// factors (and the constant/idle terms) are estimated by the
/// least-squares calibration against "silicon" measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Constant power (W).
    pub p_const_w: f64,
    /// Static power per idle SM (W).
    pub p_idle_sm_w: f64,
    /// Per-component scale factors.
    pub scales: [f64; NUM_COMPONENTS],
}

impl PowerModel {
    /// Average number of idle SMs during a run.
    #[must_use]
    pub(crate) fn avg_idle_sms(act: &ActivityCounters) -> f64 {
        if act.cycles == 0 {
            0.0
        } else {
            act.idle_sm_cycles as f64 / act.cycles as f64
        }
    }

    /// Total modelled power for a run (W).
    #[must_use]
    pub(crate) fn total_power_w(
        &self,
        components: &ComponentEnergy,
        act: &ActivityCounters,
        clock_ghz: f64,
    ) -> f64 {
        let seconds = act.cycles as f64 / (clock_ghz * 1e9);
        if seconds == 0.0 {
            return self.p_const_w;
        }
        let dynamic: f64 = components
            .as_array()
            .iter()
            .zip(self.scales.iter())
            .map(|(e, s)| e / seconds * s)
            .sum();
        self.p_const_w + Self::avg_idle_sms(act) * self.p_idle_sm_w + dynamic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;

    /// An uncalibrated model (all scales 1, no constant terms).
    fn unit() -> PowerModel {
        PowerModel {
            p_const_w: 0.0,
            p_idle_sm_w: 0.0,
            scales: [1.0; NUM_COMPONENTS],
        }
    }

    #[test]
    fn unit_model_reproduces_energy_over_time() {
        let mut e = ComponentEnergy::default();
        e.add(Component::AluFpu, 1.2e-3); // 1.2 mJ
        let act = ActivityCounters {
            cycles: 1_200_000, // at 1.2 GHz → 1 ms
            ..Default::default()
        };
        let p = unit().total_power_w(&e, &act, 1.2);
        assert!((p - 1.2).abs() < 1e-9, "1.2 mJ over 1 ms = 1.2 W, got {p}");
    }

    #[test]
    fn scales_and_constants_apply() {
        let mut e = ComponentEnergy::default();
        e.add(Component::Dram, 1e-3);
        let act = ActivityCounters {
            cycles: 1_200_000,
            idle_sm_cycles: 2_400_000, // avg 2 idle SMs
            ..Default::default()
        };
        let mut m = unit();
        m.p_const_w = 10.0;
        m.p_idle_sm_w = 0.5;
        m.scales[crate::component::component_index(Component::Dram)] = 2.0;
        let p = m.total_power_w(&e, &act, 1.2);
        assert!((p - (10.0 + 1.0 + 2.0)).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn zero_cycles_is_constant_only() {
        let m = PowerModel {
            p_const_w: 7.0,
            p_idle_sm_w: 1.0,
            scales: [1.0; NUM_COMPONENTS],
        };
        let p = m.total_power_w(
            &ComponentEnergy::default(),
            &ActivityCounters::default(),
            1.2,
        );
        assert_eq!(p, 7.0);
    }
}
