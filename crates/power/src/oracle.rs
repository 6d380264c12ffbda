//! The synthetic "silicon": a stand-in for NVML power measurements of a
//! TITAN V.
//!
//! The paper samples real hardware at 50–100 Hz while running each
//! stressor. We cannot, so the oracle hides a ground-truth power model
//! (randomised true scale factors, constant and idle power) and returns
//! noisy measurements of it. The calibration then has to *recover* those
//! factors from the stressors — and the validation error on the kernel
//! suite measures how well it did, exactly as in §V-C.

use crate::component::NUM_COMPONENTS;
use crate::energy::{ComponentEnergy, EnergyModel};
use crate::model::PowerModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st2_sim::ActivityCounters;

/// Hidden ground truth plus a measurement-noise process.
#[derive(Debug, Clone)]
pub struct SiliconOracle {
    truth: PowerModel,
    noise_sigma: f64,
    rng: StdRng,
}

impl SiliconOracle {
    /// Creates an oracle with randomised (seeded) true scale factors in
    /// a plausible band around 1 and the given relative measurement
    /// noise.
    #[must_use]
    pub fn new(seed: u64, noise_sigma: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scales = [0.0; NUM_COMPONENTS];
        for s in &mut scales {
            *s = rng.random_range(0.7..1.5);
        }
        SiliconOracle {
            truth: PowerModel {
                p_const_w: rng.random_range(20.0..40.0),
                p_idle_sm_w: rng.random_range(0.05..0.25),
                scales,
            },
            noise_sigma,
            rng,
        }
    }

    /// The hidden ground truth (tests only — the calibration never sees
    /// this).
    #[must_use]
    pub fn ground_truth(&self) -> &PowerModel {
        &self.truth
    }

    /// A noisy power "measurement" (W) for a run.
    pub(crate) fn measure(
        &mut self,
        energy: &EnergyModel,
        components: &ComponentEnergy,
        act: &ActivityCounters,
        clock_ghz: f64,
    ) -> f64 {
        let _ = energy;
        let ideal = self.truth.total_power_w(components, act, clock_ghz);
        // Approximately Gaussian multiplicative noise (sum of uniforms).
        let u: f64 = (0..12)
            .map(|_| self.rng.random_range(0.0..1.0f64))
            .sum::<f64>()
            - 6.0;
        ideal * (1.0 + self.noise_sigma * u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;

    #[test]
    fn deterministic_per_seed() {
        let a = SiliconOracle::new(42, 0.05);
        let b = SiliconOracle::new(42, 0.05);
        assert_eq!(a.ground_truth(), b.ground_truth());
        let c = SiliconOracle::new(43, 0.05);
        assert_ne!(a.ground_truth(), c.ground_truth());
    }

    #[test]
    fn noise_scales_with_sigma() {
        let energy = EnergyModel::characterized();
        let mut e = ComponentEnergy::default();
        e.add(Component::Dram, 1e-3);
        let act = ActivityCounters {
            cycles: 1_200_000,
            ..Default::default()
        };
        let mut quiet = SiliconOracle::new(7, 0.0);
        let ideal = quiet.truth.total_power_w(&e, &act, 1.2);
        let m = quiet.measure(&energy, &e, &act, 1.2);
        assert!((m - ideal).abs() < 1e-12, "zero noise must be exact");

        let mut noisy = SiliconOracle::new(7, 0.1);
        let samples: Vec<f64> = (0..50)
            .map(|_| noisy.measure(&energy, &e, &act, 1.2))
            .collect();
        let spread = samples
            .iter()
            .fold(0.0f64, |acc, &s| acc.max((s - ideal).abs() / ideal));
        assert!(
            spread > 0.02,
            "noise should be visible, max spread {spread}"
        );
    }
}
