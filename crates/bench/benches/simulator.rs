//! Criterion benches: functional and cycle-level simulation throughput,
//! baseline vs ST² execute stage.

use criterion::{criterion_group, criterion_main, Criterion};
use st2::prelude::*;
use std::hint::black_box;

fn bench_simulator(c: &mut Criterion) {
    let spec = st2::kernels::pathfinder::build(Scale::Test);
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20);

    group.bench_function("functional/pathfinder", |b| {
        b.iter(|| {
            let mut mem = spec.memory.clone();
            black_box(run_functional(
                &spec.program,
                spec.launch,
                &mut mem,
                &FunctionalOptions::default(),
            ))
        });
    });

    let base = GpuConfig::scaled(2);
    group.bench_function("timed_baseline/pathfinder", |b| {
        b.iter(|| {
            let mut mem = spec.memory.clone();
            black_box(run_timed(&spec.program, spec.launch, &mut mem, &base))
        });
    });

    let st2 = base.with_st2();
    group.bench_function("timed_st2/pathfinder", |b| {
        b.iter(|| {
            let mut mem = spec.memory.clone();
            black_box(run_timed(&spec.program, spec.launch, &mut mem, &st2))
        });
    });

    // Telemetry neutrality guard: the disabled collector must run within
    // noise of plain `run_timed` (which itself routes through a disabled
    // collector), while the enabled collector shows the true cost of
    // full recording.
    group.bench_function("timed_st2_tele_disabled/pathfinder", |b| {
        b.iter(|| {
            let mut mem = spec.memory.clone();
            let mut tele = Telemetry::disabled();
            black_box(run_timed_with(
                &spec.program,
                spec.launch,
                &mut mem,
                &st2,
                RunOptions::with_telemetry(&mut tele),
            ))
        });
    });
    group.bench_function("timed_st2_tele_enabled/pathfinder", |b| {
        b.iter(|| {
            let mut mem = spec.memory.clone();
            let mut tele = Telemetry::for_run(st2.num_sms as usize, TelemetryConfig::default());
            black_box(run_timed_with(
                &spec.program,
                spec.launch,
                &mut mem,
                &st2,
                RunOptions::with_telemetry(&mut tele),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
