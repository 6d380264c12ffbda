//! Fig. 7: per-kernel energy breakdowns and suite-level aggregates.

use crate::component::{all_components, Component};
use crate::energy::{ComponentEnergy, EnergyModel};
use serde::{Deserialize, Serialize};
use st2_sim::ActivityCounters;

/// Baseline-vs-ST² energy of one kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelEnergy {
    /// Kernel label.
    pub name: String,
    /// Baseline per-component energy (J).
    pub baseline: ComponentEnergy,
    /// ST² per-component energy (J).
    pub st2: ComponentEnergy,
}

impl KernelEnergy {
    /// Builds from two activity captures of the same kernel.
    #[must_use]
    pub fn from_activities(
        name: impl Into<String>,
        energy: &EnergyModel,
        baseline: &ActivityCounters,
        st2: &ActivityCounters,
        clock_ghz: f64,
    ) -> Self {
        let mut base_e = energy.component_energy(baseline, false, clock_ghz);
        base_e.add(
            Component::Others,
            energy.static_energy_j(baseline, clock_ghz),
        );
        let mut st2_e = energy.component_energy(st2, true, clock_ghz);
        st2_e.add(Component::Others, energy.static_energy_j(st2, clock_ghz));
        KernelEnergy {
            name: name.into(),
            baseline: base_e,
            st2: st2_e,
        }
    }

    /// ST² system energy normalised to baseline (the Fig. 7 bar height).
    #[must_use]
    pub fn normalized_system(&self) -> f64 {
        self.st2.system() / self.baseline.system()
    }

    /// System-energy saving fraction.
    #[must_use]
    pub fn system_savings(&self) -> f64 {
        1.0 - self.normalized_system()
    }

    /// Chip (no-DRAM) energy-saving fraction.
    #[must_use]
    pub fn chip_savings(&self) -> f64 {
        1.0 - self.st2.chip() / self.baseline.chip()
    }

    /// Fraction of baseline *system* energy spent in ALU+FPU.
    #[must_use]
    pub fn alu_fpu_system_share(&self) -> f64 {
        self.baseline.get(Component::AluFpu) / self.baseline.system()
    }

    /// Fraction of baseline *chip* energy spent in ALU+FPU.
    #[must_use]
    pub(crate) fn alu_fpu_chip_share(&self) -> f64 {
        self.baseline.get(Component::AluFpu) / self.baseline.chip()
    }

    /// Whether the paper would classify this kernel as
    /// arithmetic-intensive (> 20 % of system energy in ALU+FPU).
    #[must_use]
    pub(crate) fn is_arithmetic_intense(&self) -> bool {
        self.alu_fpu_system_share() > 0.20
    }

    /// Component stack normalised to the baseline system energy, for a
    /// Fig. 7-style stacked bar: `(component, baseline_frac, st2_frac)`.
    #[must_use]
    pub fn stacks(&self) -> Vec<(Component, f64, f64)> {
        let total = self.baseline.system();
        all_components()
            .iter()
            .map(|&c| (c, self.baseline.get(c) / total, self.st2.get(c) / total))
            .collect()
    }
}

/// Suite-level aggregates matching the paper's §VI claims.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuiteSummary {
    /// Kernels summarised.
    pub kernels: usize,
    /// Average baseline ALU+FPU share of system energy (paper: 27 %).
    pub avg_alu_fpu_system_share: f64,
    /// Average baseline ALU+FPU share of chip energy (paper: 30 %).
    pub avg_alu_fpu_chip_share: f64,
    /// Average system-energy savings (paper: 19 %).
    pub avg_system_savings: f64,
    /// Average chip-energy savings (paper: 21 %).
    pub avg_chip_savings: f64,
    /// Arithmetic-intensive kernels (> 20 % share; paper: 14 of 23).
    pub intense_kernels: usize,
    /// Their average system savings (paper: 26 %).
    pub intense_avg_system_savings: f64,
    /// Their average chip savings (paper: 28 %).
    pub intense_avg_chip_savings: f64,
    /// Best per-kernel system savings (paper: 40 %, msort_K2).
    pub max_system_savings: f64,
}

/// Summarises a suite of per-kernel energies.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn summarize(kernels: &[KernelEnergy]) -> SuiteSummary {
    assert!(!kernels.is_empty(), "no kernels to summarise");
    let n = kernels.len() as f64;
    let avg = |f: &dyn Fn(&KernelEnergy) -> f64| kernels.iter().map(f).sum::<f64>() / n;
    let intense: Vec<&KernelEnergy> = kernels
        .iter()
        .filter(|k| k.is_arithmetic_intense())
        .collect();
    let ni = intense.len().max(1) as f64;
    SuiteSummary {
        kernels: kernels.len(),
        avg_alu_fpu_system_share: avg(&KernelEnergy::alu_fpu_system_share),
        avg_alu_fpu_chip_share: avg(&KernelEnergy::alu_fpu_chip_share),
        avg_system_savings: avg(&KernelEnergy::system_savings),
        avg_chip_savings: avg(&KernelEnergy::chip_savings),
        intense_kernels: intense.len(),
        intense_avg_system_savings: intense.iter().map(|k| k.system_savings()).sum::<f64>() / ni,
        intense_avg_chip_savings: intense.iter().map(|k| k.chip_savings()).sum::<f64>() / ni,
        max_system_savings: kernels
            .iter()
            .map(KernelEnergy::system_savings)
            .fold(f64::MIN, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(name: &str, alu_base: f64, alu_st2: f64, dram: f64) -> KernelEnergy {
        let mut baseline = ComponentEnergy::default();
        baseline.add(Component::AluFpu, alu_base);
        baseline.add(Component::Dram, dram);
        baseline.add(Component::Others, 1.0);
        let mut st2 = ComponentEnergy::default();
        st2.add(Component::AluFpu, alu_st2);
        st2.add(Component::Dram, dram);
        st2.add(Component::Others, 1.0);
        KernelEnergy {
            name: name.into(),
            baseline,
            st2,
        }
    }

    #[test]
    fn savings_arithmetic() {
        // baseline: 1 ALU + 1 DRAM + 1 others = 3; st2: 0.3+1+1 = 2.3.
        let k = fake("k", 1.0, 0.3, 1.0);
        assert!((k.system_savings() - 0.7 / 3.0).abs() < 1e-12);
        assert!((k.chip_savings() - 0.7 / 2.0).abs() < 1e-12);
        assert!((k.alu_fpu_system_share() - 1.0 / 3.0).abs() < 1e-12);
        assert!(k.is_arithmetic_intense());
    }

    #[test]
    fn summary_separates_intense_kernels() {
        let ks = vec![
            fake("hot", 2.0, 0.6, 0.5),   // share 2/3.5 = 0.57 -> intense
            fake("cold", 0.1, 0.03, 3.0), // share 0.1/4.1 -> not intense
        ];
        let s = summarize(&ks);
        assert_eq!(s.kernels, 2);
        assert_eq!(s.intense_kernels, 1);
        assert!(s.intense_avg_system_savings > s.avg_system_savings);
        assert!(s.max_system_savings >= s.intense_avg_system_savings);
    }

    #[test]
    fn stacks_sum_to_normalised_totals() {
        let k = fake("k", 1.0, 0.3, 1.0);
        let stacks = k.stacks();
        let base_sum: f64 = stacks.iter().map(|(_, b, _)| b).sum();
        let st2_sum: f64 = stacks.iter().map(|(_, _, s)| s).sum();
        assert!((base_sum - 1.0).abs() < 1e-12);
        assert!((st2_sum - k.normalized_system()).abs() < 1e-12);
    }
}
