//! The paper's figures and tables, one function each, as `repro <figure>`
//! prints them. Each writes from shared [`Inputs`], which run the
//! functional suite with adder records, one [`sweep`] per kernel and one
//! baseline/ST² [`timed_suite`] at most once between them.

use std::cell::OnceCell;
use std::io::{self, Write};

use st2::circuit::shifter::AdderPopulation;
use st2::circuit::{builder, Characterizer};
use st2::core::dse::{carry_correlation, fig3_schemes, fig5_design_points, sweep};
use st2::core::{
    AdderStats, PredictorKind, RecomputePolicy, SliceLayout, SpeculationConfig, UpdatePolicy,
};
use st2::isa::InstClass::*;
use st2::power::breakdown::summarize;
use st2::power::calibrate::calibrate;
use st2::power::micro::{stressors, NUM_STRESSORS};
use st2::power::overheads::{storage_overheads, titan_v_shifter_overheads};
use st2::power::validate::validate;
use st2::prelude::*;
use st2::sim::TraceEntry;

use crate::{
    functional_suite, header, pct, timed_pair, timed_suite, write_csv, BenchArgs, FunctionalRun,
    TimedPair,
};

/// Every figure name, in the order `repro all` writes them.
pub const FIGURES: [&str; 11] = [
    "fig1",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "overheads",
    "perf_overhead",
    "power_validation",
    "slice_dse",
    "ablations",
];

/// The suite runs the figures share, each run on first use.
#[derive(Default)]
pub struct Inputs {
    args: BenchArgs,
    functional: OnceCell<Vec<FunctionalRun>>,
    sweeps: OnceCell<Sweeps>,
    timed: OnceCell<Vec<TimedPair>>,
}

/// One [`sweep`] per kernel of the functional suite.
struct Sweeps {
    configs: Vec<SpeculationConfig>,
    /// Per kernel, the statistics of each of `configs`, in order.
    stats: Vec<Vec<AdderStats>>,
}

impl Sweeps {
    /// A per-kernel metric of one swept configuration, averaged over
    /// kernels.
    fn avg(&self, cfg: SpeculationConfig, metric: fn(&AdderStats) -> f64) -> f64 {
        let i = self
            .configs
            .iter()
            .position(|c| *c == cfg)
            .unwrap_or_else(|| panic!("{cfg} was not swept"));
        let total: f64 = self.stats.iter().map(|kernel| metric(&kernel[i])).sum();
        total / self.stats.len() as f64
    }
}

impl Inputs {
    /// Inputs for the run `args` describes; nothing runs yet.
    #[must_use]
    pub fn new(args: BenchArgs) -> Self {
        Inputs {
            args,
            ..Self::default()
        }
    }

    /// The functional suite with adder records.
    fn functional(&self) -> &[FunctionalRun] {
        let args = &self.args;
        self.functional
            .get_or_init(|| functional_suite(args.scale, true, args.kernels.as_deref()))
    }

    /// The per-kernel sweep over `configs`, unless a sweep has run
    /// already: `all` sweeps every figure's configurations at once.
    fn sweeps(&self, configs: fn() -> Vec<SpeculationConfig>) -> &Sweeps {
        self.sweeps.get_or_init(|| {
            let configs = configs();
            let stats = self.functional().iter().map(|r| {
                let swept = sweep(&r.out.records, &configs);
                swept.into_iter().map(|(_, stats)| stats).collect()
            });
            Sweeps {
                stats: stats.collect(),
                configs,
            }
        })
    }

    /// The baseline/ST² timed suite on the selected GPU.
    fn timed(&self) -> &[TimedPair] {
        let args = &self.args;
        self.timed
            .get_or_init(|| timed_suite(args.scale, &args.gpu(), args.kernels.as_deref()))
    }
}

/// Writes figure `name`, or every figure in [`FIGURES`] order for
/// `all`, which first runs each shared input once.
///
/// # Errors
///
/// Returns the first error writing to `w` or to a CSV artifact.
///
/// # Panics
///
/// Panics on an unknown name, listing the known ones.
pub fn write_figure(name: &str, inputs: &Inputs, w: &mut impl Write) -> io::Result<()> {
    match name {
        "all" => {
            let _ = (inputs.sweeps(every_swept_config), inputs.timed());
            FIGURES.iter().try_for_each(|f| write_figure(f, inputs, w))
        }
        "fig1" => fig1(inputs, w),
        "fig2" => fig2(inputs, w),
        "fig3" => fig3(inputs, w),
        "fig5" => fig5(inputs, w),
        "fig6" => fig6(inputs, w),
        "fig7" => fig7(inputs, w),
        "overheads" => overheads(w),
        "perf_overhead" => perf_overhead(inputs, w),
        "power_validation" => power_validation(inputs, w),
        "slice_dse" => slice_dse(w),
        "ablations" => ablations(inputs, w),
        other => panic!("unknown figure {other:?}; {}", usage()),
    }
}

/// The list of figure names, for usage errors.
#[must_use]
pub fn usage() -> String {
    format!("expected one of: all, {}", FIGURES.join(", "))
}

/// Fig. 1 — dynamic instruction mix per kernel.
///
/// Paper claim: ALU and FPU operations are prevalent — 21 of 23 kernels
/// execute more than 20 % ALU+FPU dynamic instructions.
fn fig1(inputs: &Inputs, w: &mut impl Write) -> io::Result<()> {
    let runs = inputs.functional();
    header(w, "Fig. 1: dynamic instruction mix (thread-level)")?;
    writeln!(
        w,
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "kernel", "ALU Add", "ALU Oth", "FPU Add", "FPU Oth", "Other", "ALU+FPU"
    )?;
    let mut heavy = 0;
    let mut sum = [0.0f64; 5];
    for r in runs {
        let m = &r.out.mix;
        let alu_add = m.fraction(AluAdd);
        let alu_other = m.fraction(AluOther) + m.fraction(IntMulDiv);
        let fpu_add = m.fraction(FpuAdd);
        let fpu_other = m.fraction(FpuOther) + m.fraction(FpMulDiv) + m.fraction(Sfu);
        let other = 1.0 - alu_add - alu_other - fpu_add - fpu_other;
        let arith = alu_add + alu_other + fpu_add + fpu_other;
        if arith > 0.20 {
            heavy += 1;
        }
        let shares = [alu_add, alu_other, fpu_add, fpu_other, other];
        for (s, v) in sum.iter_mut().zip(shares) {
            *s += v;
        }
        let [a, b, c, d, e] = shares.map(pct);
        let name = r.spec.name;
        let arith = pct(arith);
        writeln!(
            w,
            "{name:<14} {a:>9} {b:>9} {c:>9} {d:>9} {e:>9} {arith:>10}"
        )?;
    }
    let n = runs.len();
    let [a, b, c, d, e] = sum.map(|s| pct(s / n as f64));
    writeln!(
        w,
        "{:<14} {a:>9} {b:>9} {c:>9} {d:>9} {e:>9}\n\n\
         kernels with >20% ALU+FPU instructions: {heavy}/{n} (paper: 21/23)",
        "Average"
    )
}

/// Fig. 2 — value evolution of the pathfinder hot loop's additions in
/// logical time, for one thread.
///
/// Paper claim: values produced by the *same* instruction across
/// iterations are strongly correlated in magnitude, while values of
/// different instructions executing consecutively vary wildly.
fn fig2(inputs: &Inputs, w: &mut impl Write) -> io::Result<()> {
    let spec = st2::kernels::pathfinder::build(inputs.args.scale);
    let mut mem = spec.memory.clone();
    let trace_gtid = 8; // an interior column of block 0
    let options = FunctionalOptions {
        trace_gtid: Some(trace_gtid),
        ..Default::default()
    };
    let out = run_functional(&spec.program, spec.launch, &mut mem, &options);
    spec.verify(&mem).expect("pathfinder verifies");

    let title = format!("Fig. 2: pathfinder addition-result evolution (thread {trace_gtid})");
    header(w, &title)?;
    // Restrict to adder-producing instructions inside the hot loop (skip
    // the one-off prologue PCs by requiring at least 4 executions).
    let hot: Vec<u32> = out
        .trace
        .pcs()
        .into_iter()
        .filter(|&pc| out.trace.for_pc(pc).len() >= 4)
        .collect();
    writeln!(w, "hot-loop producing PCs: {hot:?}\n")?;
    let row = |[pc, a, b, c, d]: [String; 5]| format!("{pc:<6} {a:>12} {b:>12} {c:>12} {d:>12}");
    writeln!(
        w,
        "{}",
        row(["PC", "iter1", "iter2", "iter3", "iter4"].map(String::from))
    )?;
    // Quantify the figure's message.
    let step = |p: &[TraceEntry]| (p[1].value - p[0].value).unsigned_abs();
    let mut same_pc = Vec::new();
    for &pc in &hot {
        let s = out.trace.for_pc(pc);
        let value = |i: usize| s.get(i).map(|e| e.value.to_string()).unwrap_or_default();
        let cells = [format!("PC{pc}"), value(0), value(1), value(2), value(3)];
        writeln!(w, "{}", row(cells))?;
        same_pc.extend(s.windows(2).map(step));
    }
    let in_order: Vec<u64> = out.trace.entries().windows(2).map(step).collect();
    let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let (same_pc, in_order) = (avg(&same_pc), avg(&in_order));
    writeln!(
        w,
        "\navg |Δ| same PC, consecutive iterations : {same_pc:>12.1}\n\
         avg |Δ| consecutive instructions (order): {in_order:>12.1}\n\
         ratio (order / same-PC)                 : {:>12.1}x\n\n\
         Paper's reading: same-PC values evolve gradually (strong\n\
         spatio-temporal correlation); program-order neighbours jump\n\
         between 100s, ~0, tens of thousands and negatives.",
        in_order / same_pc.max(1.0)
    )
}

/// Fig. 3 — 8-bit slice carry-in correlation across the temporal and
/// spatial axes, per kernel.
///
/// Paper claim (averages): Prev+Gtid ≈ 50 %, Prev+FullPC+Gtid ≈ 83 %,
/// Prev+FullPC+Ltid ≈ 89 %.
fn fig3(inputs: &Inputs, w: &mut impl Write) -> io::Result<()> {
    let schemes = fig3_schemes();
    header(w, "Fig. 3: slice carry-in match rate vs previous execution")?;
    let row = |name: &str, [a, b, c]: [String; 3]| format!("{name:<14} {a:>16} {b:>18} {c:>18}");
    writeln!(w, "{}", row("kernel", schemes.map(|s| s.label.to_string())))?;
    let mut sums = [0.0f64; 3];
    let mut counts = [0u32; 3];
    for r in inputs.functional() {
        let results = schemes.map(|s| carry_correlation(&r.out.records, s));
        for (i, res) in results.iter().enumerate() {
            if res.compared > 0 {
                sums[i] += res.match_rate();
                counts[i] += 1;
            }
        }
        // A kernel where each (key) executes at most once has nothing to
        // compare against (a purely straight-line per-thread kernel under
        // per-thread keying): report n/a, as the rate is undefined rather
        // than zero.
        let cells = results.map(|res| match res.compared {
            0 => "n/a".to_string(),
            _ => pct(res.match_rate()),
        });
        writeln!(w, "{}", row(r.spec.name, cells))?;
    }
    let averages = [0, 1, 2].map(|i| pct(sums[i] / f64::from(counts[i].max(1))));
    writeln!(w, "{}", row("Average", averages))?;
    writeln!(
        w,
        "\npaper averages:        ~50%              ~83%               ~89%\n\
         reading: temporal correlation alone is weak; adding the PC\n\
         (spatial axis) makes it strong; sharing across warp lanes\n\
         keeps it strong while shrinking the table."
    )
}

/// Fig. 5 — design-space exploration of the carry-speculation mechanism.
///
/// Paper claims: staticZero/staticOne are poor (staticOne worst);
/// VaLHALLA+Peek cuts VaLHALLA's misses ~18 %; Prev+Peek ~26 %;
/// Prev+ModPC4+Peek reaches ~12 % (57 % below VaLHALLA); the Gtid variant
/// is *worse* (destructive isolation); Ltid+Prev+ModPC4+Peek lands at
/// ~9 % (65 % below VaLHALLA); XOR hashing adds nothing.
fn fig5(inputs: &Inputs, w: &mut impl Write) -> io::Result<()> {
    // Per-kernel sweeps, averaged across kernels (the figure's
    // "Avg. Thread Misprediction Rate").
    let sweeps = inputs.sweeps(fig5_design_points);
    let avg = |cfg| sweeps.avg(cfg, AdderStats::misprediction_rate);
    let points = fig5_design_points();

    header(w, "Fig. 5: avg thread misprediction rate per design point")?;
    writeln!(w, "{:<28} {:>10}", "design point", "miss rate")?;
    for &cfg in &points {
        writeln!(w, "{:<28} {:>10}", cfg.label(), pct(avg(cfg)))?;
    }
    if let Some(dir) = &inputs.args.out {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|&cfg| vec![cfg.label(), format!("{:.6}", avg(cfg))])
            .collect();
        write_csv(w, dir, "fig5", &["design_point", "miss_rate"], &rows)?;
    }

    let valhalla = avg(SpeculationConfig::valhalla());
    writeln!(w, "\nrelative improvements vs VaLHALLA:")?;
    let headline = [
        "VaLHALLA+Peek",
        "Prev+Peek",
        "Prev+ModPC4+Peek",
        "Ltid+Prev+ModPC4+Peek",
    ];
    for &cfg in points
        .iter()
        .filter(|c| headline.contains(&c.label().as_str()))
    {
        let fewer = 100.0 * (1.0 - avg(cfg) / valhalla);
        writeln!(w, "  {:<26} {fewer:>6.1}% fewer misses", cfg.label())?;
    }
    let st2 = avg(SpeculationConfig::st2());
    writeln!(
        w,
        "\npaper: VaLHALLA+Peek −18%, Prev+Peek −26%, ModPC4 −57%, final −65%\n\
         final ST2 design: {} misses (paper: ~9%); accuracy {}",
        pct(st2),
        pct(1.0 - st2)
    )
}

/// Fig. 6 — per-kernel thread misprediction rate for the final ST²
/// design, from the cycle-level simulation (per-SM Carry Register Files,
/// real warp interleaving and write-back contention).
///
/// Paper claims: 9 % average thread misprediction rate; one misprediction
/// causes 1.94 slices (avg, up to 2.73) to recompute.
fn fig6(inputs: &Inputs, w: &mut impl Write) -> io::Result<()> {
    let pairs = inputs.timed();
    let title = "Fig. 6: thread misprediction rate (ST2, Ltid+Prev+ModPC4+Peek)";
    header(w, title)?;
    writeln!(
        w,
        "{:<14} {:>10} {:>12} {:>14} {:>12} {:>12}",
        "kernel", "miss rate", "recomp/miss", "static bnd", "CRF wr", "CRF confl"
    )?;
    let mut rate_sum = 0.0;
    let mut rec_sum = 0.0;
    let mut rec_max = 0.0f64;
    let mut rows = Vec::new();
    for p in pairs {
        let a = &p.st2.activity.adder;
        let (rate, rec, stat) = (
            a.misprediction_rate(),
            a.avg_recomputed_per_misprediction(),
            a.static_fraction(),
        );
        rate_sum += rate;
        rec_sum += rec;
        rec_max = rec_max.max(rec);
        let (writes, conflicts) = (p.st2.activity.crf_writes, p.st2.activity.crf_conflicts);
        writeln!(
            w,
            "{:<14} {:>10} {rec:>12.2} {:>14} {writes:>12} {conflicts:>12}",
            p.name,
            pct(rate),
            pct(stat),
        )?;
        rows.push(vec![
            p.name.to_string(),
            format!("{rate:.6}"),
            format!("{rec:.4}"),
            format!("{stat:.6}"),
            writes.to_string(),
            conflicts.to_string(),
        ]);
    }
    if let Some(dir) = &inputs.args.out {
        let columns = [
            "kernel",
            "miss_rate",
            "recompute_per_miss",
            "static_fraction",
            "crf_writes",
            "crf_conflicts",
        ];
        write_csv(w, dir, "fig6", &columns, &rows)?;
    }
    let n = pairs.len() as f64;
    let conflicts: u64 = pairs.iter().map(|p| p.st2.activity.crf_conflicts).sum();
    let writes: u64 = pairs.iter().map(|p| p.st2.activity.crf_writes).sum();
    writeln!(
        w,
        "\naverage thread misprediction rate: {} (paper: ~9%)\n\
         average prediction accuracy      : {} (paper: 91%)\n\
         slices recomputed per miss       : avg {:.2}, max {rec_max:.2} \
         (paper: 1.94 avg, 2.73 max)\n\
         CRF write-back conflicts         : {conflicts} of {writes} writes ({}) — the paper's\n\
         \"minimal contention, addressed with random arbitration\"",
        pct(rate_sum / n),
        pct(1.0 - rate_sum / n),
        rec_sum / n,
        pct(conflicts as f64 / writes.max(1) as f64)
    )
}

/// Fig. 7 — normalized system energy, baseline vs ST² GPU, stacked by
/// component, plus the §VI headline aggregates.
///
/// Paper claims: baseline spends 27 % of system energy in ALU+FPU (30 %
/// of chip energy); ST² saves 19 % system / 21 % chip on average; on the
/// 14 arithmetic-intensive kernels 26 % / 28 %, up to 40 % / 42 % for
/// msort_K2.
fn fig7(inputs: &Inputs, w: &mut impl Write) -> io::Result<()> {
    let clock_ghz = inputs.args.gpu().clock_ghz;
    let energy = EnergyModel::characterized();
    let kernels: Vec<KernelEnergy> = inputs
        .timed()
        .iter()
        .map(|p| {
            let (base, st2) = (&p.baseline.activity, &p.st2.activity);
            KernelEnergy::from_activities(p.name, &energy, base, st2, clock_ghz)
        })
        .collect();

    header(w, "Fig. 7: normalized system energy (baseline = 1.00)")?;
    writeln!(
        w,
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "kernel", "ALU+FPU", "RegFile", "Mem+NoC", "DRAM", "Others", "ST2 tot"
    )?;
    let mut rows = Vec::new();
    for k in &kernels {
        let b = |c: Component| k.baseline.get(c) / k.baseline.system();
        let memnoc = b(Component::CachesMc) + b(Component::Noc);
        let others = b(Component::Others)
            + b(Component::IntMulDiv)
            + b(Component::FpMulDiv)
            + b(Component::Sfu);
        writeln!(
            w,
            "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8.3}",
            k.name,
            pct(b(Component::AluFpu)),
            pct(b(Component::RegFile)),
            pct(memnoc),
            pct(b(Component::Dram)),
            pct(others),
            k.normalized_system(),
        )?;
        for (c, b, s) in k.stacks() {
            let (b, s) = (format!("{b:.6}"), format!("{s:.6}"));
            rows.push(vec![k.name.clone(), c.to_string(), b, s]);
        }
    }
    if let Some(dir) = &inputs.args.out {
        let columns = ["kernel", "component", "baseline_frac", "st2_frac"];
        write_csv(w, dir, "fig7", &columns, &rows)?;
    }
    let s = summarize(&kernels);
    header(w, "Suite aggregates vs paper")?;
    let best = kernels
        .iter()
        .max_by(|a, b| {
            a.system_savings()
                .partial_cmp(&b.system_savings())
                .expect("finite")
        })
        .expect("non-empty");
    writeln!(
        w,
        "baseline ALU+FPU share of system energy : {}  (paper: 27%)\n\
         baseline ALU+FPU share of chip energy   : {}  (paper: 30%)\n\
         average system energy savings           : {}  (paper: 19%)\n\
         average chip energy savings             : {}  (paper: 21%)\n\
         arithmetic-intensive kernels (>20%)     : {}  (paper: 14)\n  \
         their avg system savings              : {}  (paper: 26%)\n  \
         their avg chip savings                : {}  (paper: 28%)\n\
         best kernel                             : {} at {} system savings \
         (paper: msort_K2, 40%)",
        pct(s.avg_alu_fpu_system_share),
        pct(s.avg_alu_fpu_chip_share),
        pct(s.avg_system_savings),
        pct(s.avg_chip_savings),
        s.intense_kernels,
        pct(s.intense_avg_system_savings),
        pct(s.intense_avg_chip_savings),
        best.name,
        pct(best.system_savings())
    )
}

/// §VI area and power overheads of ST² GPU on a TITAN-V-class chip.
///
/// Paper claims: 448 B CRF per SM (35 kB chip-wide), 15 kB of extra DFFs,
/// 50 kB total = 0.09 % of on-chip caches and register files; level
/// shifters occupy < 5.5 mm² (0.68 % of the 815 mm² die), burn 0.6 W
/// static and a worst-case 470 µW dynamic, add 20.8 ps per crossing, and
/// shave the average system savings from 19 % to 18.5 %.
fn overheads(w: &mut impl Write) -> io::Result<()> {
    let pop = AdderPopulation::titan_v();
    let s = storage_overheads(&pop);
    let kb = |bytes: u64| bytes as f64 / 1024.0;
    header(w, "§VI: storage overheads")?;
    writeln!(
        w,
        "CRF per SM            : {} B      (paper: 448 B)\n\
         CRF chip-wide         : {:.1} kB  (paper: ~35 kB)\n\
         DFF bits per adder    : ALU {}, FP32 {}, FP64 {} (paper: 14/4/12)\n\
         DFFs chip-wide        : {:.1} kB  (paper: ~15 kB)\n\
         total                 : {:.1} kB  (paper: ~50 kB)\n\
         fraction of SRAM+RF   : {}    (paper: 0.09%)",
        s.crf_bytes_per_sm,
        kb(s.crf_bytes_chip),
        s.dff_bits_alu,
        s.dff_bits_fp32,
        s.dff_bits_fp64,
        kb(s.dff_bytes_chip),
        kb(s.total_bytes_chip),
        pct(s.fraction_of_onchip_sram)
    )?;

    header(w, "§VI: level-shifter overheads")?;
    // Worst-case adder-op pressure: every ALU/FPU/DPU issues each cycle.
    let adders = f64::from(pop.sms) * f64::from(pop.alu_per_sm + pop.fpu_per_sm + pop.dpu_per_sm);
    // Average dynamic pressure across the suite is far lower; use a
    // representative 10 % utilisation at 1.2 GHz.
    let ls = titan_v_shifter_overheads(adders * 1.2e9 * 0.10);
    writeln!(
        w,
        "shifters on chip      : {}\n\
         area                  : {:.2} mm²  (paper: < 5.5 mm²)\n\
         fraction of 815 mm²   : {}     (paper: 0.68%)\n\
         static power          : {:.2} W    (paper: 0.6 W)\n\
         dynamic @10% util     : {:.3} W   (paper's worst-case average: 470 µW–scale)\n\
         delay per crossing    : {:.1} ps  (paper: 20.8 ps)\n\n\
         Paper's conclusion, reproduced: the overheads are negligible —\n\
         tens of kB of state on a chip with ~35 MB of SRAM, a fraction of\n\
         a percent of die area, and sub-watt shifter power.",
        ls.count,
        ls.area_mm2,
        pct(ls.area_frac_of_die),
        ls.static_power_w,
        ls.worst_case_dynamic_w,
        ls.delay_ps
    )
}

/// §VI performance overhead — ST² execution time vs baseline, per kernel.
///
/// Paper claims: within 0.36 % of baseline on average; worst kernel is
/// dwt2d_K1 at 3.5 %.
fn perf_overhead(inputs: &Inputs, w: &mut impl Write) -> io::Result<()> {
    let pairs = inputs.timed();
    header(w, "§VI: ST2 performance overhead")?;
    writeln!(
        w,
        "{:<14} {:>12} {:>12} {:>10} {:>12}",
        "kernel", "base cycles", "ST2 cycles", "slowdown", "stall cyc"
    )?;
    let mut sum = 0.0;
    let mut worst = ("", 0.0f64);
    let mut rows = Vec::new();
    for p in pairs {
        let (s, base, st2) = (p.slowdown(), p.baseline.cycles, p.st2.cycles);
        sum += s;
        if s > worst.1 {
            worst = (p.name, s);
        }
        let stalls = p.st2.activity.stall_cycles;
        let name = p.name;
        writeln!(
            w,
            "{name:<14} {base:>12} {st2:>12} {:>9.2}% {stalls:>12}",
            100.0 * s
        )?;
        rows.push(vec![
            name.to_string(),
            base.to_string(),
            st2.to_string(),
            format!("{s:.6}"),
        ]);
    }
    if let Some(dir) = &inputs.args.out {
        let columns = ["kernel", "baseline_cycles", "st2_cycles", "slowdown"];
        write_csv(w, dir, "perf_overhead", &columns, &rows)?;
    }
    writeln!(
        w,
        "\naverage slowdown: {} (paper: 0.36%)\n\
         worst kernel    : {} at {} (paper: dwt2d_K1 at 3.5%)",
        pct(sum / pairs.len() as f64),
        worst.0,
        pct(worst.1)
    )
}

/// How many TITAN V SMs each simulated SM of `cfg` stands for when its
/// activity is extrapolated to the whole chip: 20 on the 4-SM harness,
/// 1 on an 80-SM preset.
///
/// # Panics
///
/// Panics unless `cfg`'s SM count divides the chip's.
#[must_use]
fn chip_sm_factor(cfg: &GpuConfig) -> u64 {
    let (chip, sms) = (GpuConfig::titan_v_full().num_sms, cfg.num_sms);
    assert_eq!(chip % sms, 0, "{sms} simulated SMs do not divide {chip}");
    u64::from(chip / sms)
}

/// §V-C power-model validation — calibrate on the 123 stressors, validate
/// on the 23-kernel suite.
///
/// Paper claims: mean absolute relative error 10.5 % ± 3.8 % (95 % CI),
/// Pearson r ≈ 0.8, with the model trained on micro-benchmarks only.
fn power_validation(inputs: &Inputs, w: &mut impl Write) -> io::Result<()> {
    let cfg = inputs.args.gpu();
    let energy = EnergyModel::characterized();

    // "Silicon": hidden true scale factors + 8% measurement noise (the
    // paper probes NVML at 50-100 Hz).
    let mut oracle = SiliconOracle::new(0x7E57, 0.08);

    header(w, "§V-C: power-model calibration")?;
    writeln!(w, "micro-benchmark stressors: {NUM_STRESSORS}")?;
    let model = calibrate(&energy, &stressors(), &mut oracle, cfg.clock_ghz);
    writeln!(
        w,
        "fitted P_const = {:.1} W, P_idleSM = {:.3} W\nfitted scale factors:",
        model.p_const_w, model.p_idle_sm_w
    )?;
    let components = st2::power::component::all_components();
    for (c, s) in components.iter().zip(&model.scales) {
        writeln!(w, "  {c:<12} {s:.3}")?;
    }
    let truth = &oracle.ground_truth().scales;
    let errors = model
        .scales
        .iter()
        .zip(truth)
        .map(|(f, t)| ((f - t) / t).abs());
    let scale_err = errors.sum::<f64>() / model.scales.len() as f64;
    writeln!(
        w,
        "avg scale-factor recovery error vs hidden truth: {}",
        pct(scale_err)
    )?;

    let title = "§V-C: validation on the 23-kernel suite (never seen in training)";
    header(w, title)?;
    // The oracle "measures" a full TITAN V running the largest inputs;
    // the simulation covers `cfg`'s SMs on a scaled-down grid.
    // Extrapolate the activity to chip level (the power model is linear,
    // so the per-kernel structure is preserved — only the magnitudes
    // change, which is what correlating against watts-scale measurements
    // requires).
    const CHIP_EVENTS: u64 = 2_000;
    let sm_factor = chip_sm_factor(&cfg);
    let runs: Vec<(&str, st2::sim::ActivityCounters)> = inputs
        .timed()
        .iter()
        .map(|p| {
            (
                p.name,
                p.baseline.activity.extrapolated(CHIP_EVENTS, sm_factor),
            )
        })
        .collect();
    if runs.len() < 2 {
        // MARE's confidence interval and Pearson's r need two kernels.
        return writeln!(
            w,
            "validation skipped: it needs at least two suite kernels, and \
             --kernels kept {}",
            runs.len()
        );
    }
    let report = validate(&energy, &model, &runs, &mut oracle, cfg.clock_ghz);
    writeln!(
        w,
        "kernels            : {}\n\
         MARE               : {} ± {} (95% CI)   (paper: 10.5% ± 3.8%)\n\
         Pearson r          : {:.3}               (paper: ~0.8)",
        report.kernels,
        pct(report.mare),
        pct(report.ci95),
        report.pearson_r
    )
}

/// §V-B circuit design-space exploration — slice bitwidth vs voltage
/// scaling and per-adder energy savings.
///
/// Paper claims: 8-bit slices are the best option, allowing the supply to
/// scale to 60 % of nominal, for 75–87 % potential per-adder energy
/// savings.
fn slice_dse(w: &mut impl Write) -> io::Result<()> {
    let ch = Characterizer::default_90nm();
    let reference = builder::reference_adder(64);
    let period = ch.critical_delay_ps(&reference);
    let ref_energy = ch.energy_per_op_fj(&reference, 64, 1.0);

    header(w, "§V-B: slice-bitwidth design-space exploration")?;
    writeln!(
        w,
        "reference 64-bit adder: {period:.0} ps critical path, {ref_energy:.0} fJ/op\n\n\
         {:<8} {:>8} {:>10} {:>14} {:>14} {:>10}",
        "width", "slices", "Vmin/Vdd", "slice fJ", "64-bit fJ", "savings"
    )?;
    for p in ch.slice_dse() {
        writeln!(
            w,
            "{:<8} {:>8} {:>10} {:>14.1} {:>14.1} {:>10}",
            format!("{}-bit", p.width),
            p.slices,
            pct(p.vmin_frac),
            p.slice_energy_fj,
            p.adder_energy_fj,
            pct(p.savings_frac),
        )?;
    }
    let eight = ch.slice_point(8, period, ref_energy);
    // CSLA comparison (the always-duplicate design ST² avoids).
    let t = ch.adder_energy_table();
    writeln!(
        w,
        "\n8-bit slice point: Vdd scales to {} of nominal (paper: 60%),\n\
         per-adder saving potential {} (paper: 75–87%)\n\n\
         CSLA 64-bit at nominal: {:.0} fJ/op ({:.2}x the reference) — the\n\
         cost of computing both carry cases for every slice, every op.",
        pct(eight.vmin_frac),
        pct(eight.savings_frac),
        t.csla_energy_fj,
        t.csla_energy_fj / t.reference_energy_fj
    )
}

/// A1: ST² with the literal Fig. 4 propagate-to-top recompute chain.
fn propagate_to_top() -> SpeculationConfig {
    SpeculationConfig {
        recompute: RecomputePolicy::PropagateToTop,
        ..SpeculationConfig::st2()
    }
}

/// A2: ST² writing its history back after every operation.
fn write_always() -> SpeculationConfig {
    SpeculationConfig {
        update: UpdatePolicy::Always,
        ..SpeculationConfig::st2()
    }
}

/// A3: ST² remembering `depth` past executions.
fn history_depth(depth: u8) -> SpeculationConfig {
    SpeculationConfig {
        history_depth: depth,
        ..SpeculationConfig::st2()
    }
}

/// A5: operand-window lookahead over `window` bits.
fn windowed(window: u8, peek: bool) -> SpeculationConfig {
    SpeculationConfig {
        predictor: PredictorKind::Windowed { window },
        peek,
        ..SpeculationConfig::static_zero()
    }
}

/// The Fig. 5 design points and then the [`swept_configs`] not among
/// them: what `all` sweeps.
fn every_swept_config() -> Vec<SpeculationConfig> {
    let mut configs = fig5_design_points();
    for c in swept_configs() {
        if !configs.contains(&c) {
            configs.push(c);
        }
    }
    configs
}

/// Every configuration A1, A2, A3 and A5 compare, each once.
fn swept_configs() -> Vec<SpeculationConfig> {
    let mut configs = vec![
        SpeculationConfig::st2(),
        propagate_to_top(),
        write_always(),
        history_depth(2),
        history_depth(4),
    ];
    for window in [2u8, 4, 8] {
        configs.extend([windowed(window, false), windowed(window, true)]);
    }
    configs
}

/// Ablation studies for the design choices DESIGN.md calls out — beyond
/// the paper's own exploration:
///
/// 1. **Recompute policy** — the Peek-cut recompute wave vs the literal
///    Fig. 4 propagate-to-top chain (energy-relevant only).
/// 2. **History write-back policy** — the paper's write-on-mispredict CRF
///    rule vs an idealised write-always table.
/// 3. **History depth** — 1 (the paper) vs 2 and 4 entries with per-bit
///    majority voting (the temporal axis).
/// 4. **Slice width vs speculation accuracy** — the architectural
///    complement of §V-B's circuit sweep: fewer, wider slices mean fewer
///    boundaries to guess.
/// 5. **Related-work predictors** — CASA/VLSA-style operand-window
///    lookahead at several window sizes.
/// 6. **Warp scheduler** — GTO vs round-robin sensitivity of the ST²
///    slowdown (a timing-model ablation).
fn ablations(inputs: &Inputs, w: &mut impl Write) -> io::Result<()> {
    let scale = inputs.args.scale;
    let sweeps = inputs.sweeps(swept_configs);
    let avg_rate = |cfg| sweeps.avg(cfg, AdderStats::misprediction_rate);
    let avg_depth = |cfg| sweeps.avg(cfg, AdderStats::avg_recomputed_per_misprediction);

    header(
        w,
        "A1: recompute policy (misprediction rate is policy-independent)",
    )?;
    for (name, cfg) in [
        ("CutAtStaticPeek", SpeculationConfig::st2()),
        ("PropagateToTop", propagate_to_top()),
    ] {
        writeln!(
            w,
            "{name:<22} miss {:>6}  slices recomputed/miss {:>5.2}",
            pct(avg_rate(cfg)),
            avg_depth(cfg)
        )?;
    }
    writeln!(
        w,
        "→ the Peek cut removes recompute energy without touching accuracy."
    )?;

    header(w, "A2: CRF write-back policy")?;
    writeln!(
        w,
        "{:<22} miss {:>6}   (one CRF row write per mispredicting warp)\n\
         {:<22} miss {:>6}   (a write every operation — more ports, more energy)",
        "OnMispredict (paper)",
        pct(avg_rate(SpeculationConfig::st2())),
        "Always",
        pct(avg_rate(write_always()))
    )?;

    header(w, "A3: history depth (temporal axis)")?;
    for depth in [1u8, 2, 4] {
        let rate = pct(avg_rate(history_depth(depth)));
        writeln!(w, "depth {depth}: miss {rate:>6}")?;
    }
    writeln!(
        w,
        "→ depth 1 suffices: carry patterns are step-like, majority voting\n  \
         over deeper history only delays adaptation (the paper keeps 1)."
    )?;

    header(
        w,
        "A4: slice width vs speculation accuracy (integer adders)",
    )?;
    let runs = inputs.functional();
    for (width, count) in [(4u8, 16u8), (8, 8), (16, 4), (32, 2)] {
        let layout = SliceLayout::new(width, count);
        let rate = runs
            .iter()
            .map(|r| {
                // Integer records on the forced layout, FP records on
                // their own mantissa layouts, through one ST² context.
                let mut adder = SpeculativeAdder::st2();
                for rec in &r.out.records {
                    let _ = match rec.width {
                        WidthClass::Int64 => adder.add(&rec.ctx, layout, rec.a, rec.b, rec.sub),
                        _ => adder.replay(rec),
                    };
                }
                adder.stats().misprediction_rate()
            })
            .sum::<f64>()
            / runs.len() as f64;
        let rate = pct(rate);
        writeln!(w, "{count:>2} × {width:>2}-bit slices: miss {rate:>6}")?;
    }
    writeln!(
        w,
        "→ wider slices mispredict less (fewer boundaries) but scale voltage\n  \
         less (§V-B): 8-bit balances both axes — the paper's choice."
    )?;

    header(
        w,
        "A5: operand-window lookahead predictors (CASA/VLSA-style)",
    )?;
    for window in [2u8, 4, 8] {
        let [plain, peek] = [false, true].map(|p| pct(avg_rate(windowed(window, p))));
        writeln!(w, "window {window} bits: miss {plain:>6}")?;
        writeln!(w, "window {window} + Peek : miss {peek:>6}")?;
    }
    writeln!(
        w,
        "→ operand windows beat static guesses but not history: correlation\n  \
         lives across *time*, not within one operand pair."
    )?;

    header(w, "A6: warp scheduler sensitivity of the ST2 slowdown")?;
    let base = inputs.args.gpu();
    for (name, scheduler) in [
        ("GTO", SchedulerKind::Gto),
        ("RoundRobin", SchedulerKind::RoundRobin),
    ] {
        let cfg = base.with_scheduler(scheduler);
        // The shared timed suite ran on `base`: reuse its pairs for the
        // leg that matches it, when it has run.
        let shared = inputs.timed.get().filter(|_| cfg == base);
        let sample = [
            st2::kernels::pathfinder::build(scale),
            st2::kernels::sad::build(scale),
            st2::kernels::sortnets::build_k1(scale),
            st2::kernels::kmeans::build(scale),
        ];
        let k = sample.len() as f64;
        let slow: f64 = sample
            .into_iter()
            .map(|spec| {
                let pair = shared.and_then(|pairs| pairs.iter().find(|p| p.name == spec.name));
                pair.map_or_else(|| timed_pair(spec, &cfg).slowdown(), TimedPair::slowdown)
            })
            .sum();
        writeln!(w, "{name:<12} avg ST2 slowdown {:>6}", pct(slow / k))?;
    }
    writeln!(
        w,
        "→ the sub-percent overhead is robust to the scheduling policy."
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn swept_configs_are_distinct_and_distinctly_labelled() {
        let configs = swept_configs();
        assert_eq!(configs.len(), 11);
        let distinct: HashSet<SpeculationConfig> = configs.iter().copied().collect();
        assert_eq!(distinct.len(), configs.len(), "a config is swept twice");
        let labels: HashSet<String> = configs.iter().map(SpeculationConfig::label).collect();
        assert_eq!(labels.len(), configs.len(), "two configs share a label");
    }

    #[test]
    fn chip_sm_factor_scales_to_the_80_sm_chip() {
        assert_eq!(chip_sm_factor(&crate::harness_gpu()), 20);
        assert_eq!(chip_sm_factor(&GpuConfig::titan_v()), 1);
        assert_eq!(chip_sm_factor(&GpuConfig::titan_v_full()), 1);
    }
}
