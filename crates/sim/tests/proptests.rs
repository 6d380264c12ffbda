//! Property-based tests for the simulator substrate: SIMT stack
//! invariants, coalescing, and baseline/ST² result equivalence on random
//! kernels.

use proptest::prelude::*;
use st2_isa::{KernelBuilder, LaunchConfig, MemImage, Operand, Special};
use st2_sim::memory::coalesce;
use st2_sim::simt::{full_mask, SimtStack};
use st2_sim::{run_functional, run_timed, FunctionalOptions, GpuConfig};

proptest! {
    /// Coalescing: every lane's address is covered by exactly one segment,
    /// and segment count never exceeds the lane count.
    #[test]
    fn coalesce_covers_all_addresses(
        addrs in prop::collection::vec(0u64..1_000_000, 1..32),
        line_log in 5u32..8,
    ) {
        let line = 1u64 << line_log;
        let mut segs = Vec::new();
        coalesce(&addrs, line, &mut segs);
        prop_assert!(segs.len() <= addrs.len());
        for &a in &addrs {
            prop_assert!(segs.contains(&(a / line * line)));
        }
        // Segments are unique.
        let mut sorted = segs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), segs.len());
    }

    /// Random branch sequences never corrupt the SIMT stack: the active
    /// mask stays a subset of the initial mask and never goes empty while
    /// threads remain, and reconvergence always restores the full set.
    #[test]
    fn simt_stack_mask_invariants(
        lanes in 1u32..=32,
        branches in prop::collection::vec((any::<u32>(), 1u32..10), 1..12),
    ) {
        let initial = full_mask(lanes);
        let mut s = SimtStack::new(lanes);
        for &(taken_bits, width) in &branches {
            let pc = s.pc();
            let active = s.active_mask();
            prop_assert!(active != 0 && active & !initial == 0);
            let taken = taken_bits & active;
            let target = pc + width + 1;
            let reconv = target.max(pc + 1) + 1;
            s.branch(taken, target, pc + 1, reconv);
            prop_assert!(s.active_mask() != 0);
            // Drain: jump every live path to its reconvergence point.
            while s.depth() > 1 {
                let r = reconv;
                s.set_pc(r);
            }
            prop_assert_eq!(s.active_mask(), active, "reconvergence restores the set");
        }
    }

    /// A randomly-parameterised arithmetic kernel produces identical
    /// memory under the functional engine, the timed baseline, and the
    /// timed ST² configuration.
    #[test]
    fn engines_agree_on_random_kernels(
        mul in 1i64..1000,
        add in -1000i64..1000,
        iters in 1i64..20,
        blocks in 1u32..4,
        block_dim in prop::sample::select(vec![32u32, 64, 96]),
    ) {
        let mut k = KernelBuilder::new("prop");
        let tid = k.special(Special::GlobalTid);
        let acc = k.reg();
        k.mov(acc, Operand::Imm(0));
        k.for_range(Operand::Imm(0), Operand::Imm(iters), |k, i| {
            let t = k.reg();
            k.imul(t, i.into(), Operand::Imm(mul));
            k.iadd(t, t.into(), tid.into());
            k.iadd(t, t.into(), Operand::Imm(add));
            k.imax(acc, acc.into(), t.into());
        });
        let a = k.reg();
        k.imul(a, tid.into(), Operand::Imm(8));
        k.st_global_u64(acc.into(), a, 0);
        let p = k.finish();
        let launch = LaunchConfig::new(blocks, block_dim);
        let bytes = launch.total_threads() * 8;

        let mut m1 = MemImage::new(bytes);
        let _ = run_functional(&p, launch, &mut m1, &FunctionalOptions::default());
        let mut m2 = MemImage::new(bytes);
        let base = run_timed(&p, launch, &mut m2, &GpuConfig::scaled(2));
        let mut m3 = MemImage::new(bytes);
        let st2 = run_timed(&p, launch, &mut m3, &GpuConfig::scaled(2).with_st2());

        prop_assert_eq!(m1.as_bytes(), m2.as_bytes());
        prop_assert_eq!(m2.as_bytes(), m3.as_bytes());
        prop_assert!(st2.cycles >= base.cycles);
        prop_assert_eq!(
            base.activity.mix.total(),
            st2.activity.mix.total()
        );
    }
}
