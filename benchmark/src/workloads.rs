//! The four workloads: the set-up each needs, what one pass runs, and
//! the checks on every output.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::api::{
    self, EnergyModel, EnergyWeights, FunctionalOutput, GpuConfig, KernelEnergy, KernelProfile,
    KernelSpec, LaunchConfig, MemImage, Program, Scale, SpeculationConfig, TimedOutput,
};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    Chip,
    Profile,
    Dse,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSuite,
        Workload::Chip,
        Workload::Profile,
        Workload::Dse,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::Chip => "chip",
            Workload::Profile => "profile",
            Workload::Dse => "dse",
        }
    }

    /// Why the benchmark runs it (one line, as `BENCHMARK.json` has it).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperSuite => {
                "23 kernels, baseline and ST2, on the 4-SM GPU as fig6/fig7/perf_overhead run them; the ST2 adder model is most of the host time"
            }
            Workload::Chip => {
                "a gather that fills all 80 SMs and 8 L2 partitions with a table twice the L2; driver, memory side and calendars do the work, the adder model none"
            }
            Workload::Profile => {
                "the profile_report path: ST2 timed runs with telemetry collecting, then profile capture, energy pricing and JSON"
            }
            Workload::Dse => {
                "the fig5 path: functional runs collecting adder records, then the predictor sweep over 13 design points; never calls the timed driver"
            }
        }
    }

    /// Measured passes of a full-size run: fixed, so two commits do
    /// identical work and take the same number of samples. Each count
    /// makes about 9 s of passes.
    #[must_use]
    pub fn passes(self) -> usize {
        match self {
            Workload::PaperSuite => 8,
            Workload::Chip | Workload::Profile | Workload::Dse => 9,
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the measured configuration, or the test-scale one the
/// `--smoke` run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }

    fn scale(self) -> Scale {
        match self {
            Size::Full => Scale::Full,
            Size::Smoke => Scale::Test,
        }
    }
}

/// Work counts of one pass, summed over its simulator runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Warp instructions simulated, timed and functional.
    pub warp_instructions: u64,
    pub functional_warp_instructions: u64,
    pub timed_cycles: u64,
    /// `num_sms × cycles` over the timed runs.
    pub sm_cycles: u64,
    pub sleep_cycles: u64,
    pub mem_skip_cycles: u64,
    pub ff_wakeups: u64,
    pub timed_warp_instructions: u64,
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub mshr_merges: u64,
    pub dram_accesses: u64,
    pub bw_starved_cycles: u64,
    pub xbar_wait_cycles: u64,
    /// Operations through the ST2 adder model, timed or replayed.
    pub adder_ops: u64,
    pub mispredicts: u64,
    /// Records × design points the sweep replayed.
    pub record_points: u64,
    pub json_bytes: u64,
}

/// What one pass did and produced.
#[derive(Debug, Default)]
pub struct PassOut {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Outputs `golden.json` pins exactly.
    pub exact: BTreeMap<String, f64>,
    pub counts: Counts,
    /// Host seconds of each operation, by label.
    pub op_s: BTreeMap<String, f64>,
}

impl PassOut {
    fn timed(&mut self, kernel: &str, variant: &str, out: &TimedOutput, cfg: &GpuConfig) {
        let a = &out.activity;
        let c = &mut self.counts;
        c.warp_instructions += a.warp_instructions;
        c.timed_warp_instructions += a.warp_instructions;
        c.timed_cycles += out.cycles;
        c.sm_cycles += u64::from(cfg.num_sms) * out.cycles;
        c.sleep_cycles += out.sm_sleep_cycles;
        c.mem_skip_cycles += out.mem_skip_cycles;
        c.ff_wakeups += out.ff_wakeups;
        c.l1_accesses += a.l1_accesses;
        c.l1_misses += a.l1_misses;
        c.mshr_merges += a.mshr_merges;
        c.dram_accesses += a.dram_accesses;
        c.bw_starved_cycles += a.bw_starved_cycles;
        c.xbar_wait_cycles += a.xbar_wait_cycles;
        c.adder_ops += a.adder.ops;
        c.mispredicts += a.adder.mispredicted_ops;
        self.pin(kernel, variant, "cycles", out.cycles);
        self.pin(kernel, variant, "adder_ops", a.adder_ops());
        self.pin(kernel, variant, "mispredicts", a.adder.mispredicted_ops);
    }

    fn functional(&mut self, out: &FunctionalOutput) {
        self.counts.warp_instructions += out.warp_instructions;
        self.counts.functional_warp_instructions += out.warp_instructions;
    }

    fn pin(&mut self, kernel: &str, variant: &str, field: &str, value: u64) {
        self.exact
            .insert(format!("{kernel}/{variant}/{field}"), value as f64);
    }
}

/// Runs one checked operation: counts and times it, and counts an `Err`
/// or a panic as a failure. Spans a panic left open are closed.
pub fn op(
    t: &mut Tracer,
    out: &mut PassOut,
    label: &str,
    f: impl FnOnce(&mut Tracer, &mut PassOut) -> Result<(), String>,
) {
    out.attempted += 1;
    let depth = t.depth();
    t.set_label(label);
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| f(t, out)));
    *out.op_s.entry(label.to_string()).or_default() += t0.elapsed().as_secs_f64();
    match result {
        Ok(Ok(())) => {}
        Ok(Err(e)) => out.failures.push(format!("{label}: {e}")),
        Err(panic) => {
            t.unwind_to(depth);
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            out.failures.push(format!("{label}: panicked: {msg}"));
        }
    }
}

/// A set-up workload, ready to run passes.
pub trait Bench {
    /// One pass: every operation, with its checks, recorded in `out`.
    fn pass(&self, t: &mut Tracer, out: &mut PassOut);

    /// The pass's timed runs with nothing observing them, for per-layer
    /// metrics that subtract an unobserved run. Most workloads have none.
    fn reference(&self, _t: &mut Tracer) {}
}

/// Builds a workload's inputs: everything a pass reads but never
/// changes. `seed` only feeds `chip`'s table; the suite's inputs are
/// fixed by the kernels crate.
pub fn setup(w: Workload, size: Size, seed: u64, t: &mut Tracer) -> Box<dyn Bench> {
    match w {
        Workload::PaperSuite => Box::new(PaperSuite {
            specs: api::build_suite(t, size.scale()),
            energy: api::characterize(t),
            cfg: api::paper_gpu(),
        }),
        Workload::Chip => Box::new(Chip::new(t, size, seed)),
        Workload::Profile => {
            let cfg = api::paper_gpu().with_st2();
            let energy = api::characterize(t);
            Box::new(Profile {
                specs: api::build_suite(t, size.scale()),
                weights: api::interval_weights(t, &energy, cfg.clock_ghz),
                cfg,
            })
        }
        // The design-space sweep runs at test scale in both sizes, as
        // `fig5 --scale test` does: a full-scale record stream is 4× longer
        // and tells nothing more about the predictors.
        Workload::Dse => Box::new(Dse {
            specs: api::build_suite(t, Scale::Test),
            points: api::design_points(),
            st2: api::st2_design(),
        }),
    }
}

struct PaperSuite {
    specs: Vec<KernelSpec>,
    energy: EnergyModel,
    cfg: GpuConfig,
}

impl Bench for PaperSuite {
    fn pass(&self, t: &mut Tracer, out: &mut PassOut) {
        let st2_cfg = self.cfg.with_st2();
        let mut priced: Vec<KernelEnergy> = Vec::new();
        let mut slowdowns = Vec::new();
        for spec in &self.specs {
            op(t, out, spec.name, |t, out| {
                t.set_label(&format!("{}/baseline", spec.name));
                let (base, base_mem) =
                    api::run_timed(t, &spec.program, spec.launch, &spec.memory, &self.cfg);
                out.timed(spec.name, "baseline", &base, &self.cfg);
                t.set_label(&format!("{}/st2", spec.name));
                let (st2, st2_mem) =
                    api::run_timed(t, &spec.program, spec.launch, &spec.memory, &st2_cfg);
                out.timed(spec.name, "st2", &st2, &st2_cfg);
                t.set_label(spec.name);
                if base_mem.as_bytes() != st2_mem.as_bytes() {
                    return Err("speculation changed the results".into());
                }
                api::verify(t, spec, &base_mem)?;
                slowdowns.push(st2.cycles as f64 / base.cycles as f64 - 1.0);
                priced.push(api::price(
                    t,
                    spec.name,
                    &self.energy,
                    &base.activity,
                    &st2.activity,
                    self.cfg.clock_ghz,
                ));
                Ok(())
            });
        }
        op(t, out, "suite", |t, out| {
            if priced.len() != self.specs.len() {
                return Err("a kernel failed, so the suite averages are undefined".into());
            }
            let summary = api::summarize(t, &priced);
            let slowdown = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
            out.exact
                .insert("st2_slowdown_pct".into(), 100.0 * slowdown);
            out.exact.insert(
                "st2_energy_saving_pct".into(),
                100.0 * summary.avg_system_savings,
            );
            Ok(())
        });
    }
}

/// The `chip` gather's geometry.
struct ChipShape {
    blocks: u32,
    /// Table entries (u64); a power of two.
    entries: u64,
    iters: i64,
}

impl ChipShape {
    fn of(size: Size) -> ChipShape {
        match size {
            // 8 resident 256-thread blocks fill each of the 80 SMs; the
            // 8 MiB table is larger than the 4.5 MiB L2.
            Size::Full => ChipShape {
                blocks: 640,
                entries: 1 << 20,
                iters: 8,
            },
            Size::Smoke => ChipShape {
                blocks: 80,
                entries: 1 << 17,
                iters: 2,
            },
        }
    }
}

const CHIP_BLOCK_DIM: u32 = 256;

struct Chip {
    program: Program,
    launch: LaunchConfig,
    memory: MemImage,
    /// Byte address of the per-thread sums, right after the table.
    out_base: u64,
    /// CPU reference of the sums.
    expected: Vec<u64>,
    cfg: GpuConfig,
}

/// SplitMix64: the table's values from the seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Chip {
    fn new(t: &mut Tracer, size: Size, seed: u64) -> Chip {
        let shape = ChipShape::of(size);
        let launch = LaunchConfig::new(shape.blocks, CHIP_BLOCK_DIM);
        let threads = launch.total_threads();
        let out_base = shape.entries * 8;
        let program = api::build_gather(t, threads, shape.entries, shape.iters, out_base);
        let (memory, expected) = t.span("kernels.build", || {
            let mut state = seed;
            let table: Vec<u64> = (0..shape.entries).map(|_| splitmix64(&mut state)).collect();
            let mut memory = MemImage::new(out_base + threads * 8);
            for (i, &v) in table.iter().enumerate() {
                memory.write_u64(i as u64 * 8, v);
            }
            let iters = u64::try_from(shape.iters).expect("positive iteration count");
            let expected = (0..threads)
                .map(|g| {
                    (0..iters).fold(0u64, |acc, i| {
                        acc.wrapping_add(table[((i * threads + g) & (shape.entries - 1)) as usize])
                    })
                })
                .collect();
            (memory, expected)
        });
        Chip {
            program,
            launch,
            memory,
            out_base,
            expected,
            cfg: api::chip_gpu(),
        }
    }

    /// The timed image must equal the functional one, keep the table
    /// intact, and hold the CPU reference's sums.
    fn check(&self, timed: &MemImage, functional: &MemImage) -> Result<(), String> {
        if timed.as_bytes() != functional.as_bytes() {
            return Err("timed and functional memory images differ".into());
        }
        let table = ..usize::try_from(self.out_base).expect("image fits in memory");
        if timed.as_bytes()[table] != self.memory.as_bytes()[table] {
            return Err("the gather wrote into its table".into());
        }
        for (g, &want) in self.expected.iter().enumerate() {
            let got = timed.read_u64(self.out_base + g as u64 * 8);
            if got != want {
                return Err(format!("thread {g} summed {got:#x}, expected {want:#x}"));
            }
        }
        Ok(())
    }
}

impl Bench for Chip {
    fn pass(&self, t: &mut Tracer, out: &mut PassOut) {
        op(t, out, "gather", |t, out| {
            t.set_label("gather/baseline");
            let (timed, timed_mem) =
                api::run_timed(t, &self.program, self.launch, &self.memory, &self.cfg);
            out.timed("gather", "baseline", &timed, &self.cfg);
            t.set_label("gather/functional");
            let (func, func_mem) =
                api::run_functional(t, &self.program, self.launch, &self.memory, false);
            out.functional(&func);
            out.pin(
                "gather",
                "functional",
                "warp_instructions",
                func.warp_instructions,
            );
            t.span("kernels.verify", || self.check(&timed_mem, &func_mem))
        });
    }
}

struct Profile {
    specs: Vec<KernelSpec>,
    weights: EnergyWeights,
    cfg: GpuConfig,
}

/// Every SM's issue slots must add up: attributed stalls plus issued
/// slots equal `cycles × issue_width`.
fn reconcile(profile: &KernelProfile, cfg: &GpuConfig, cycles: u64) -> Result<(), String> {
    if profile.cycles != cycles {
        return Err(format!(
            "profile covers {} of {cycles} cycles",
            profile.cycles
        ));
    }
    for (i, sm) in profile.sms.iter().enumerate() {
        if sm.cycles != cycles || sm.slots != cycles * u64::from(cfg.issue_width) {
            return Err(format!(
                "SM{i} slot total diverged from cycles × issue_width"
            ));
        }
        if sm.unattributed() != 0 {
            return Err(format!(
                "SM{i} has {} unattributed issue slots",
                sm.unattributed()
            ));
        }
    }
    Ok(())
}

impl Bench for Profile {
    fn pass(&self, t: &mut Tracer, out: &mut PassOut) {
        for spec in &self.specs {
            op(t, out, spec.name, |t, out| {
                t.set_label(&format!("{}/st2", spec.name));
                let (run, mem, tele) =
                    api::run_timed_observed(t, &spec.program, spec.launch, &spec.memory, &self.cfg);
                out.timed(spec.name, "st2", &run, &self.cfg);
                t.set_label(spec.name);
                api::verify(t, spec, &mem)?;
                let mut profile = api::capture_profile(t, &tele, spec.name, &spec.program);
                api::attach_energy(t, &mut profile, &self.weights);
                reconcile(&profile, &self.cfg, run.cycles)?;
                let doc = api::profile_json(t, &profile);
                out.counts.json_bytes += doc.len() as u64;
                Ok(())
            });
        }
    }

    fn reference(&self, t: &mut Tracer) {
        for spec in &self.specs {
            t.set_label(&format!("{}/st2", spec.name));
            api::run_timed(t, &spec.program, spec.launch, &spec.memory, &self.cfg);
        }
    }
}

struct Dse {
    specs: Vec<KernelSpec>,
    points: Vec<SpeculationConfig>,
    st2: SpeculationConfig,
}

impl Bench for Dse {
    fn pass(&self, t: &mut Tracer, out: &mut PassOut) {
        let st2_label = self.st2.label();
        let mut st2_rates = Vec::new();
        for spec in &self.specs {
            op(t, out, spec.name, |t, out| {
                let (func, mem) =
                    api::run_functional(t, &spec.program, spec.launch, &spec.memory, true);
                out.functional(&func);
                api::verify(t, spec, &mem)?;
                let records = func.records.len() as u64;
                out.pin(spec.name, "functional", "records", records);
                for (cfg, stats) in api::sweep(t, &func.records, &self.points) {
                    let label = cfg.label();
                    out.pin(spec.name, &label, "mispredicts", stats.mispredicted_ops);
                    out.counts.adder_ops += stats.ops;
                    out.counts.mispredicts += stats.mispredicted_ops;
                    out.counts.record_points += records;
                    if label == st2_label {
                        st2_rates.push(stats.misprediction_rate());
                    }
                }
                Ok(())
            });
        }
        op(t, out, "suite", |_, out| {
            if st2_rates.len() != self.specs.len() {
                return Err(format!(
                    "{} of {} kernels report the {st2_label} design point",
                    st2_rates.len(),
                    self.specs.len()
                ));
            }
            let avg = st2_rates.iter().sum::<f64>() / st2_rates.len() as f64;
            out.exact.insert("st2_miss_pct".into(), 100.0 * avg);
            Ok(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_operation_is_caught_and_counted() {
        let mut t = Tracer::new(true);
        let mut out = PassOut::default();
        t.begin("pass");
        op(&mut t, &mut out, "boom", |t, _| {
            t.begin("sim.timed");
            panic!("simulated deadlock");
        });
        op(&mut t, &mut out, "error", |_, _| Err("wrong sum".into()));
        op(&mut t, &mut out, "fine", |_, _| Ok(()));
        assert_eq!((out.attempted, out.failures.len()), (3, 2));
        assert_eq!(out.op_s.len(), 3, "failed operations are timed too");
        assert_eq!(t.depth(), 1, "the panic's open span is closed");
        assert!(out.failures[0].contains("simulated deadlock"));
        assert!(out.failures[1].contains("wrong sum"));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(!w.why().contains('\n') && w.why().len() <= 200);
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn chip_reference_matches_the_simulator_at_smoke_size() {
        let mut t = Tracer::new(false);
        let chip = Chip::new(&mut t, Size::Smoke, 7);
        let mut out = PassOut::default();
        chip.pass(&mut t, &mut out);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.counts.timed_cycles > 0 && out.counts.functional_warp_instructions > 0);
    }
}
