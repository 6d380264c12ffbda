//! Wall-clock probe (ignored by default): min-of-N interleaved timing
//! for the starved event-driven config with the memory calendar on and
//! off, mirroring the `event_driven` Criterion group. On noisy shared
//! runners Criterion's medians swing by 2-3×; the interleaved min-of-N
//! here is the stable number EXPERIMENTS.md quotes. Run with
//! `cargo test --release -p st2-bench --test mem_cal_probe -- --ignored --nocapture`.
use st2::prelude::*;

fn memory_starved_kernel(num_sms: u32) -> (Program, LaunchConfig, MemImage) {
    const ITERS: i64 = 4;
    let mut k = KernelBuilder::new("mem_starved");
    let tid = k.special(Special::GlobalTid);
    let base = k.reg();
    k.imul(base, tid.into(), Operand::Imm(8));
    let acc = k.reg();
    k.mov(acc, Operand::Imm(0));
    k.for_range(Operand::Imm(0), Operand::Imm(ITERS), |k, i| {
        let addr = k.reg();
        k.imul(addr, i.into(), Operand::Imm(32 * 1024));
        k.iadd(addr, addr.into(), base.into());
        let v = k.reg();
        k.ld_global_u64(v, addr, 0);
        k.iadd(acc, acc.into(), v.into());
    });
    k.st_global_u64(acc.into(), base, 0);
    let launch = LaunchConfig::new(num_sms * 8, 256);
    let mem = MemImage::new(ITERS as u64 * 32 * 1024 + launch.total_threads() * 8);
    (k.finish(), launch, mem)
}

#[test]
#[ignore]
fn probe() {
    let starved = GpuConfig::scaled(16)
        .with_mshr_entries(4)
        .with_dram_bw(1)
        .with_l2_bw(1);
    let (program, launch, memory) = memory_starved_kernel(starved.num_sms);
    // Interleave the legs round-robin so CPU frequency / load drift over
    // the probe's lifetime biases every leg equally, then take each
    // leg's min.
    let legs = [
        ("lockstep", starved.with_event_driven(false)),
        ("ed-no-memcal", starved.with_mem_calendar(false)),
        ("ed-memcal", starved),
    ];
    let mut best = [f64::MAX; 3];
    let mut skips = [0u64; 3];
    let mut cycles = [0u64; 3];
    for _ in 0..9 {
        for (i, (_, cfg)) in legs.iter().enumerate() {
            let mut mem = memory.clone();
            let t0 = std::time::Instant::now();
            let out = run_timed(&program, launch, &mut mem, cfg);
            best[i] = best[i].min(t0.elapsed().as_secs_f64());
            skips[i] = out.mem_skip_cycles;
            cycles[i] = out.cycles;
        }
    }
    for (i, (label, _)) in legs.iter().enumerate() {
        println!(
            "{label:<14} min {:8.2} ms  cycles {}  mem_skip_cycles {}",
            best[i] * 1e3,
            cycles[i],
            skips[i]
        );
    }
}
