//! Criterion bench: event-driven fast-forward on/off on a
//! memory-starved config, the wall-clock side of the
//! `GpuConfig::event_driven` and `GpuConfig::mem_calendar` knobs
//! (results are bit-identical by construction; see the determinism
//! integration test).
//!
//! `event_driven/on` should beat `event_driven/off` by several × on the
//! starved config: most SMs spend most cycles parked on in-flight fills
//! with exact wake hints, which is exactly what the calendar skips.

use criterion::{criterion_group, criterion_main, Criterion};
use st2::prelude::*;
use std::hint::black_box;

/// A synthetic pointer-chasing-style load loop: every warp issues a
/// 32 KiB-strided global load per iteration, so each one misses L1 and
/// parks on an MSHR fill. With 8 resident warps per block and 8 blocks
/// per SM this makes the SM issue scan the dominant cost of the
/// lockstep driver — exactly the work the wake calendar elides.
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

/// Event-driven fast-forward on a memory-starved configuration: sixteen
/// SMs riding a single-request-per-cycle DRAM/L2 with tiny MSHR files,
/// so nearly every SM is parked on fills nearly every cycle (the
/// calendar sleeps ~87% of SM-cycles here). The `no-mem-cal` leg keeps
/// the SM calendar but steps the memory side every cycle — its gap to
/// `starved/on` is the memory calendar's own contribution (skipped
/// retire scans and MSHR view snapshots on fill-free cycles).
fn bench_event_driven(c: &mut Criterion) {
    let starved = GpuConfig::scaled(16)
        .with_mshr_entries(4)
        .with_dram_bw(1)
        .with_l2_bw(1);
    let (program, launch, memory) = memory_starved_kernel(starved.num_sms);
    let mut group = c.benchmark_group("event_driven");
    group.sample_size(10);
    for (label, cfg) in [
        ("starved/off", starved.with_event_driven(false)),
        ("starved/no-mem-cal", starved.with_mem_calendar(false)),
        ("starved/on", starved),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut mem = memory.clone();
                black_box(run_timed(&program, launch, &mut mem, &cfg))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_driven);
criterion_main!(benches);
