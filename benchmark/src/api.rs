//! The benchmark's one door into the simulator.
//!
//! Every call into a simulator layer goes through a function here, and
//! each is timed as a span named after the layer it enters. When the
//! simulator's entry points change shape (merged, or returning `Result`),
//! only this file changes.

use st2::core::dse::fig5_design_points;
use st2::isa::{KernelBuilder, Operand, Special};
use st2::power::breakdown::{summarize as summarize_suite, SuiteSummary};
use st2::sim::{run_timed_with, FunctionalOptions, RunOptions};
use st2::telemetry::TelemetryConfig;

pub use st2::core::{AddRecord, AdderStats, SpeculationConfig};
pub use st2::isa::{LaunchConfig, MemImage, Program};
pub use st2::kernels::{KernelSpec, Scale};
pub use st2::power::{EnergyModel, KernelEnergy};
pub use st2::sim::{ActivityCounters, FunctionalOutput, GpuConfig, TimedOutput};
pub use st2::telemetry::json;
pub use st2::telemetry::{EnergyWeights, KernelProfile, Telemetry};

use crate::trace::Tracer;

/// The 4-SM, one-partition machine the paper's figures run on.
#[must_use]
pub fn paper_gpu() -> GpuConfig {
    GpuConfig::default()
}

/// The full 80-SM, 8-partition chip.
#[must_use]
pub fn chip_gpu() -> GpuConfig {
    GpuConfig::titan_v_full()
}

/// The paper's final speculation design point.
#[must_use]
pub fn st2_design() -> SpeculationConfig {
    SpeculationConfig::st2()
}

/// The Fig. 5 design points.
#[must_use]
pub fn design_points() -> Vec<SpeculationConfig> {
    fig5_design_points()
}

pub fn build_suite(t: &mut Tracer, scale: Scale) -> Vec<KernelSpec> {
    t.span("kernels.build", || st2::kernels::suite(scale))
}

/// A grid-stride gather: thread `g` adds up `table[(i * threads + g) mod
/// entries]` for `i` in `0..iters` and stores the sum at
/// `out_base + 8 g`. The table sits at address 0; `entries` is a power
/// of two. Addresses depend only on thread and iteration, never on table
/// values, so timing is the same for every table.
pub fn build_gather(
    t: &mut Tracer,
    threads: u64,
    entries: u64,
    iters: i64,
    out_base: u64,
) -> Program {
    t.span("kernels.build", || {
        let imm = |v: u64| Operand::Imm(i64::try_from(v).expect("gather sizes fit in i64"));
        let mut k = KernelBuilder::new("gather");
        let g = k.special(Special::GlobalTid);
        let acc = k.reg();
        k.mov(acc, Operand::Imm(0));
        k.for_range(Operand::Imm(0), Operand::Imm(iters), |k, i| {
            let idx = k.reg();
            k.imul(idx, i.into(), imm(threads));
            k.iadd(idx, idx.into(), g.into());
            k.iand(idx, idx.into(), imm(entries - 1));
            let addr = k.reg();
            k.ishl(addr, idx.into(), Operand::Imm(3));
            let v = k.reg();
            k.ld_global_u64(v, addr, 0);
            k.iadd(acc, acc.into(), v.into());
        });
        let out = k.reg();
        k.ishl(out, g.into(), Operand::Imm(3));
        k.st_global_u64(
            acc.into(),
            out,
            i64::try_from(out_base).expect("gather sizes fit in i64"),
        );
        k.finish()
    })
}

pub fn verify(t: &mut Tracer, spec: &KernelSpec, mem: &MemImage) -> Result<(), String> {
    t.span("kernels.verify", || spec.verify(mem))
}

pub fn characterize(t: &mut Tracer) -> EnergyModel {
    t.span("power.characterize", EnergyModel::characterized)
}

pub fn interval_weights(t: &mut Tracer, model: &EnergyModel, clock_ghz: f64) -> EnergyWeights {
    t.span("power.characterize", || model.interval_weights(clock_ghz))
}

pub fn price(
    t: &mut Tracer,
    name: &str,
    model: &EnergyModel,
    baseline: &ActivityCounters,
    st2: &ActivityCounters,
    clock_ghz: f64,
) -> KernelEnergy {
    t.span("power.price", || {
        KernelEnergy::from_activities(name, model, baseline, st2, clock_ghz)
    })
}

pub fn summarize(t: &mut Tracer, kernels: &[KernelEnergy]) -> SuiteSummary {
    t.span("power.price", || summarize_suite(kernels))
}

/// A timed run on a copy of `mem`: the output and the final image.
pub fn run_timed(
    t: &mut Tracer,
    program: &Program,
    launch: LaunchConfig,
    mem: &MemImage,
    cfg: &GpuConfig,
) -> (TimedOutput, MemImage) {
    t.span("sim.timed", || {
        let mut m = mem.clone();
        let out = st2::sim::run_timed(program, launch, &mut m, cfg);
        (out, m)
    })
}

/// [`run_timed`] observed by a telemetry collector, which it returns.
pub fn run_timed_observed(
    t: &mut Tracer,
    program: &Program,
    launch: LaunchConfig,
    mem: &MemImage,
    cfg: &GpuConfig,
) -> (TimedOutput, MemImage, Telemetry) {
    t.span("sim.timed", || {
        let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
        let mut m = mem.clone();
        let out = run_timed_with(
            program,
            launch,
            &mut m,
            cfg,
            RunOptions::with_telemetry(&mut tele),
        );
        (out, m, tele)
    })
}

/// A functional run on a copy of `mem`: the output and the final image.
pub fn run_functional(
    t: &mut Tracer,
    program: &Program,
    launch: LaunchConfig,
    mem: &MemImage,
    collect_records: bool,
) -> (FunctionalOutput, MemImage) {
    t.span("sim.engine", || {
        let mut m = mem.clone();
        let opts = FunctionalOptions {
            collect_records,
            ..Default::default()
        };
        let out = st2::sim::run_functional(program, launch, &mut m, &opts);
        (out, m)
    })
}

pub fn sweep(
    t: &mut Tracer,
    records: &[AddRecord],
    points: &[SpeculationConfig],
) -> Vec<(SpeculationConfig, AdderStats)> {
    t.span("core.sweep", || st2::core::dse::sweep(records, points))
}

pub fn capture_profile(
    t: &mut Tracer,
    tele: &Telemetry,
    kernel: &str,
    program: &Program,
) -> KernelProfile {
    t.span("telemetry.capture", || {
        KernelProfile::capture(tele, kernel, Some(program))
    })
}

pub fn attach_energy(t: &mut Tracer, profile: &mut KernelProfile, weights: &EnergyWeights) {
    t.span("telemetry.price", || profile.attach_energy(weights));
}

pub fn profile_json(t: &mut Tracer, profile: &KernelProfile) -> String {
    t.span("telemetry.json", || profile.to_json())
}
