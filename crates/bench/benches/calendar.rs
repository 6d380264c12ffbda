//! Criterion bench: the wake calendars against the step-everything
//! lockstep reference on a memory-starved config (results are
//! bit-identical by construction; see the determinism integration
//! test).
//!
//! `calendar/starved/calendar` should beat `calendar/starved/lockstep`
//! by several × on the starved config: most SMs spend most cycles
//! parked on in-flight fills with exact wake hints, which is exactly
//! what the calendar skips.

use criterion::{criterion_group, criterion_main, Criterion};
use st2::prelude::*;
use st2::sim::run_timed_lockstep;
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

/// Sixteen SMs riding a single-request-per-cycle DRAM/L2 with tiny MSHR
/// files, so nearly every SM is parked on fills nearly every cycle (the
/// calendar sleeps ~87% of SM-cycles here).
fn bench_calendar(c: &mut Criterion) {
    let starved = GpuConfig::scaled(16)
        .with_mshr_entries(4)
        .with_dram_bw(1)
        .with_l2_bw(1);
    let (program, launch, memory) = memory_starved_kernel(starved.num_sms);
    let mut group = c.benchmark_group("calendar");
    group.sample_size(10);
    group.bench_function("starved/calendar", |b| {
        b.iter(|| {
            let mut mem = memory.clone();
            black_box(run_timed(&program, launch, &mut mem, &starved))
        });
    });
    group.bench_function("starved/lockstep", |b| {
        b.iter(|| {
            let mut mem = memory.clone();
            black_box(run_timed_lockstep(
                &program,
                launch,
                &mut mem,
                &starved,
                RunOptions::default(),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_calendar);
criterion_main!(benches);
