//! The 123 micro-benchmark stressors.
//!
//! Following GPUWattch's methodology, each stressor isolates and stresses
//! one hardware component with a known activity profile; the solver fits
//! the per-component scale factors from these runs alone, so the 23-kernel
//! suite remains a proper validation set. Our stressors are synthesised
//! activity profiles (the real ones are CUDA micro-kernels run on
//! silicon): a dominant component at a randomised intensity plus
//! realistic background activity.

use crate::component::{all_components, Component};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use st2_isa::InstClass;
use st2_sim::ActivityCounters;

/// Number of stressors (the paper's count).
pub const NUM_STRESSORS: usize = 123;

/// One stressor: the activity profile of a run that isolates component
/// `i % 9` of [`all_components`] (stressor `i`).
#[derive(Debug, Clone)]
pub struct Stressor {
    /// Activity counters of the run.
    pub(crate) activity: ActivityCounters,
}

/// Builds the stressor suite (deterministic).
#[must_use]
pub fn stressors() -> Vec<Stressor> {
    let mut rng = StdRng::seed_from_u64(0x57E5_50E5);
    let comps = all_components();
    (0..NUM_STRESSORS)
        .map(|i| {
            let target = comps[i % comps.len()];
            let intensity: f64 = rng.random_range(0.3..3.0);
            Stressor {
                activity: profile(target, intensity, &mut rng),
            }
        })
        .collect()
}

/// Whole-chip activity multiplier: a stressor keeps all 80 SMs busy, so
/// per-cycle event counts are on the order of SMs × warp width. Without
/// this the dynamic power would be milliwatts next to the ~30 W constant
/// power and the multiplicative measurement noise would drown the signal
/// the solver needs.
const CHIP_PARALLELISM: u64 = 80 * 24;

fn profile(target: Component, intensity: f64, rng: &mut StdRng) -> ActivityCounters {
    let cycles = rng.random_range(400_000..1_200_000u64);
    let background = cycles * CHIP_PARALLELISM / 16;
    let mut act = ActivityCounters {
        cycles,
        active_sm_cycles: cycles * 80,
        idle_sm_cycles: rng.random_range(0..cycles * 20),
        warp_instructions: background / 8,
        regfile_reads: background,
        regfile_writes: background / 2,
        l1_accesses: background / 200,
        ..Default::default()
    };
    act.mix.add(InstClass::Control, background / 20);
    act.mix.add(InstClass::Other, background / 10);

    let burst = (cycles as f64 * intensity) as u64 * CHIP_PARALLELISM / 4;
    match target {
        Component::AluFpu => {
            act.adder_int_ops = burst * 8;
            act.mix.add(InstClass::AluAdd, burst * 6);
            act.mix.add(InstClass::AluOther, burst * 3);
        }
        Component::IntMulDiv => {
            act.mix.add(InstClass::IntMulDiv, burst * 4);
        }
        Component::FpMulDiv => {
            act.mix.add(InstClass::FpMulDiv, burst * 4);
            act.fma_ops = burst;
        }
        Component::Sfu => {
            act.mix.add(InstClass::Sfu, burst * 2);
        }
        Component::RegFile => {
            act.regfile_reads += burst * 16;
            act.regfile_writes += burst * 8;
        }
        Component::CachesMc => {
            act.l1_accesses += burst;
            act.l2_accesses = burst / 3;
            act.mshr_merges = burst / 4;
            act.write_allocates = burst / 8;
            act.bw_starved_cycles = burst / 6;
            act.mix.add(InstClass::Mem, burst);
        }
        Component::Noc => {
            act.l1_accesses += burst / 2;
            act.noc_flits = burst * 3;
            act.xbar_hops = burst / 2;
            act.xbar_wait_cycles = burst / 5;
            act.l2_accesses = burst / 2;
        }
        Component::Dram => {
            act.l1_accesses += burst / 2;
            act.l2_accesses = burst / 2;
            act.l2_misses = burst / 3;
            act.dram_accesses = burst / 3;
            act.noc_flits = burst;
        }
        Component::Others => {
            act.warp_instructions += burst * 4;
            act.mix.add(InstClass::Control, burst * 2);
        }
    }
    act
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The component stressor `i` isolates.
    fn target(i: usize) -> Component {
        let comps = all_components();
        comps[i % comps.len()]
    }

    #[test]
    fn produces_123_deterministic_stressors() {
        let a = stressors();
        let b = stressors();
        assert_eq!(a.len(), NUM_STRESSORS);
        assert_eq!(a[7].activity, b[7].activity);
    }

    #[test]
    fn every_component_is_stressed() {
        for c in all_components() {
            assert!(
                (0..NUM_STRESSORS).filter(|&i| target(i) == c).count() >= 10,
                "{c} under-covered"
            );
        }
    }

    #[test]
    fn stressors_emphasise_their_target() {
        // A DRAM stressor must move more DRAM traffic than an ALU one.
        let s = stressors();
        let first = |c| {
            (0..NUM_STRESSORS)
                .find(|&i| target(i) == c)
                .expect("stressed")
        };
        let dram = &s[first(Component::Dram)];
        let alu = &s[first(Component::AluFpu)];
        assert!(dram.activity.dram_accesses > alu.activity.dram_accesses);
        assert!(alu.activity.adder_int_ops > dram.activity.adder_int_ops);
    }
}
