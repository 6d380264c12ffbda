//! Fast functional execution: warp-lockstep interpretation of a whole
//! launch, producing instruction mixes, adder-event streams and value
//! traces.
//!
//! Warps are stepped round-robin (one instruction per warp per round)
//! across a batch of concurrently "resident" blocks, approximating the
//! interleaving a real GPU produces — which matters, because the
//! shared-thread (Ltid) history mechanism depends on threads of different
//! warps executing the same code close together in time.

use crate::exec::{step, ExecEnv, LaneBuffers, StepHooks, WarpCtx};
use crate::stats::InstMix;
use crate::timed::RunOptions;
use crate::trace::ValueTrace;
use st2_core::AddRecord;
use st2_isa::{LaunchConfig, MemImage, Program};
use st2_telemetry::Telemetry;

/// Options for a functional run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FunctionalOptions {
    /// Collect [`AddRecord`]s for the design-space analyses.
    pub collect_records: bool,
    /// Trace result values of one global thread id (Fig. 2).
    pub trace_gtid: Option<u64>,
}

/// How many blocks run interleaved in one batch.
const CONCURRENT_BLOCKS: u32 = 8;

/// Safety valve: a run aborts after this many warp-steps.
const MAX_STEPS: u64 = 500_000_000;

/// Results of a functional run.
#[derive(Debug, Clone, Default)]
pub struct FunctionalOutput {
    /// Thread-level dynamic instruction mix (Fig. 1 input).
    pub mix: InstMix,
    /// Adder events in execution order (Figs. 3 and 5 input).
    pub records: Vec<AddRecord>,
    /// Value trace of the selected thread (Fig. 2 input).
    pub trace: ValueTrace,
    /// Warp-level instructions executed.
    pub warp_instructions: u64,
}

/// Runs a kernel launch functionally against `global` memory.
///
/// # Panics
///
/// Panics if the program is invalid, a kernel accesses memory out of
/// bounds, or `MAX_STEPS` (500 million warp-steps) is exceeded (runaway
/// kernel).
pub fn run_functional(
    program: &Program,
    launch: LaunchConfig,
    global: &mut MemImage,
    opts: &FunctionalOptions,
) -> FunctionalOutput {
    run_functional_with(program, launch, global, opts, RunOptions::default())
}

/// [`run_functional`] with options, mirroring
/// [`crate::timed::run_timed_with`]: one signature for plain and observed
/// runs.
///
/// With a telemetry collector ([`RunOptions::with_telemetry`]), events
/// are stamped with *logical time* — the running warp-instruction count,
/// since the functional engine has no clock. Each block batch becomes a
/// span, warp issues and barriers are recorded, and the collector is
/// finalized at the total instruction count (so "IPC" reads as
/// instructions per logical step, ≈ 1).
///
/// # Panics
///
/// Same conditions as [`run_functional`].
pub fn run_functional_with(
    program: &Program,
    launch: LaunchConfig,
    global: &mut MemImage,
    opts: &FunctionalOptions,
    run_opts: RunOptions<'_>,
) -> FunctionalOutput {
    run_in_batches(program, launch, global, opts, run_opts, CONCURRENT_BLOCKS)
}

/// [`run_functional_with`] interleaving `batch` blocks at a time.
fn run_in_batches(
    program: &Program,
    launch: LaunchConfig,
    global: &mut MemImage,
    opts: &FunctionalOptions,
    run_opts: RunOptions<'_>,
    batch: u32,
) -> FunctionalOutput {
    let mut disabled = Telemetry::disabled();
    let tele = run_opts.telemetry.unwrap_or(&mut disabled);
    program.validate().expect("invalid program");
    let mut out = FunctionalOutput::default();
    let mut steps = 0u64;

    let warps_per_block = launch.warps_per_block();
    let mut lanes = LaneBuffers::default();

    let mut next_block = 0u32;
    while next_block < launch.grid_dim {
        let blocks: Vec<u32> = (next_block..(next_block + batch).min(launch.grid_dim)).collect();
        next_block += batch;
        let batch_start = out.warp_instructions;

        // Materialise the batch: per-block shared memory and warps.
        struct BlockRun {
            shared: MemImage,
            warps: Vec<WarpCtx>,
            at_barrier: Vec<bool>,
        }
        let mut runs: Vec<BlockRun> = blocks
            .iter()
            .map(|&b| {
                let warps = (0..warps_per_block)
                    .map(|w| {
                        let lanes = (launch.block_dim - w * 32).min(32);
                        WarpCtx::new(
                            w,
                            b,
                            u64::from(b) * u64::from(launch.block_dim) + u64::from(w) * 32,
                            lanes,
                            program.num_regs(),
                        )
                    })
                    .collect();
                BlockRun {
                    shared: MemImage::new(program.shared_bytes().max(8)),
                    warps,
                    at_barrier: vec![false; warps_per_block as usize],
                }
            })
            .collect();

        loop {
            let mut progressed = false;
            for run in &mut runs {
                for wi in 0..run.warps.len() {
                    if run.warps[wi].is_done() || run.at_barrier[wi] {
                        continue;
                    }
                    let mut env = ExecEnv {
                        program,
                        launch,
                        global: &mut *global,
                        shared: &mut run.shared,
                    };
                    let mut hooks = StepHooks {
                        records: opts.collect_records.then_some(&mut out.records),
                        trace: opts.trace_gtid.map(|g| (&mut out.trace, g)),
                        lane_adds: false,
                    };
                    let info = step(&mut run.warps[wi], &mut env, &mut hooks, &mut lanes);
                    out.mix.add(info.class, u64::from(info.active_threads));
                    out.warp_instructions += 1;
                    steps += 1;
                    assert!(steps < MAX_STEPS, "runaway kernel (step limit)");
                    if tele.is_enabled() {
                        // Logical time: the warp-instruction count.
                        let t = out.warp_instructions;
                        tele.issue(0, t, wi as u32, info.pc, info.pool_code());
                        if info.barrier {
                            tele.barrier(0, t, wi as u32);
                        }
                        tele.advance(t);
                    }
                    if info.barrier {
                        run.at_barrier[wi] = true;
                    }
                    progressed = true;
                }
                // Barrier release: every warp either waiting or done.
                if run
                    .at_barrier
                    .iter()
                    .zip(&run.warps)
                    .all(|(&b, w)| b || w.is_done())
                    && run.at_barrier.iter().any(|&b| b)
                {
                    run.at_barrier.iter_mut().for_each(|b| *b = false);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        debug_assert!(
            runs.iter().all(|r| r.warps.iter().all(WarpCtx::is_done)),
            "batch finished with live warps (deadlocked barrier?)"
        );
        tele.span(
            0,
            "functional.batch",
            batch_start,
            out.warp_instructions - batch_start,
        );
    }
    tele.finalize(out.warp_instructions);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use st2_isa::{KernelBuilder, Operand, Special};

    /// vector add: c[i] = a[i] + b[i] over n elements (f32).
    fn vecadd(n: u32) -> (Program, LaunchConfig, MemImage) {
        let mut k = KernelBuilder::new("vecadd");
        let tid = k.special(Special::GlobalTid);
        let in_range = k.reg();
        k.setlt(in_range, tid.into(), Operand::Imm(i64::from(n)));
        k.if_(in_range, |k| {
            let off = k.reg();
            k.imul(off, tid.into(), Operand::Imm(4));
            let pa = k.reg();
            k.iadd(pa, off.into(), Operand::Imm(0));
            let a = k.reg();
            k.ld_global_u32(a, pa, 0);
            let pb = k.reg();
            k.iadd(pb, off.into(), Operand::Imm(i64::from(n) * 4));
            let b = k.reg();
            k.ld_global_u32(b, pb, 0);
            let c = k.reg();
            k.fadd(c, a.into(), b.into());
            let pc = k.reg();
            k.iadd(pc, off.into(), Operand::Imm(i64::from(n) * 8));
            k.st_global_u32(c.into(), pc, 0);
        });
        let p = k.finish();
        let mut g = MemImage::new(u64::from(n) * 12);
        for i in 0..n {
            g.write_f32(u64::from(i) * 4, i as f32);
            g.write_f32(u64::from(n + i) * 4, 2.0 * i as f32);
        }
        let launch = LaunchConfig::new(n.div_ceil(128), 128);
        (p, launch, g)
    }

    #[test]
    fn vecadd_correct_and_counted() {
        let n = 1000;
        let (p, launch, mut g) = vecadd(n);
        let out = run_functional(&p, launch, &mut g, &FunctionalOptions::default());
        for i in 0..n {
            assert_eq!(
                g.read_f32(u64::from(2 * n + i) * 4),
                3.0 * i as f32,
                "c[{i}]"
            );
        }
        assert!(out.mix.total() > u64::from(n) * 5);
        assert!(out.mix.count(st2_isa::InstClass::FpuAdd) >= u64::from(n));
    }

    #[test]
    fn records_capture_fp_and_int_adds() {
        let (p, launch, mut g) = vecadd(256);
        let out = run_functional(
            &p,
            launch,
            &mut g,
            &FunctionalOptions {
                collect_records: true,
                ..Default::default()
            },
        );
        use st2_core::WidthClass;
        let fp = out
            .records
            .iter()
            .filter(|r| r.width == WidthClass::Mant24)
            .count();
        let int = out
            .records
            .iter()
            .filter(|r| r.width == WidthClass::Int64)
            .count();
        assert!(fp >= 200, "fp adds recorded: {fp}");
        assert!(int >= 256, "int address adds recorded: {int}");
    }

    #[test]
    fn barrier_synchronises_block() {
        // Shared-memory reversal: thread t writes s[t] = t, barrier,
        // reads s[blockdim-1-t].
        let bd = 64u32;
        let mut k = KernelBuilder::new("rev");
        let s_base = k.shared_alloc(u64::from(bd) * 4);
        let tid = k.special(Special::Tid);
        let sa = k.reg();
        k.imul(sa, tid.into(), Operand::Imm(4));
        k.iadd(sa, sa.into(), Operand::Imm(s_base as i64));
        k.st_shared_u32(tid.into(), sa, 0);
        k.bar();
        let rt = k.reg();
        k.isub(rt, Operand::Imm(i64::from(bd) - 1), tid.into());
        let ra = k.reg();
        k.imul(ra, rt.into(), Operand::Imm(4));
        k.iadd(ra, ra.into(), Operand::Imm(s_base as i64));
        let v = k.reg();
        k.ld_shared_u32(v, ra, 0);
        let ga = k.reg();
        let gtid = k.special(Special::GlobalTid);
        k.imul(ga, gtid.into(), Operand::Imm(4));
        k.st_global_u32(v.into(), ga, 0);
        let p = k.finish();
        let mut g = MemImage::new(u64::from(bd) * 4 * 2);
        let launch = LaunchConfig::new(2, bd);
        let _ = run_functional(&p, launch, &mut g, &FunctionalOptions::default());
        for b in 0..2u32 {
            for t in 0..bd {
                assert_eq!(
                    g.read_u32(u64::from(b * bd + t) * 4),
                    bd - 1 - t,
                    "block {b} thread {t}"
                );
            }
        }
    }

    #[test]
    fn trace_follows_one_thread() {
        let (p, launch, mut g) = vecadd(64);
        let out = run_functional(
            &p,
            launch,
            &mut g,
            &FunctionalOptions {
                trace_gtid: Some(5),
                ..Default::default()
            },
        );
        assert!(!out.trace.entries().is_empty());
        // Logical time is strictly increasing.
        let times: Vec<u64> = out.trace.entries().iter().map(|e| e.logical_time).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn batching_is_transparent() {
        // Same results regardless of how many blocks interleave.
        let (p, launch, mut g1) = vecadd(512);
        let (_, _, mut g2) = vecadd(512);
        let opts = FunctionalOptions::default();
        let o1 = run_in_batches(&p, launch, &mut g1, &opts, RunOptions::default(), 1);
        let o2 = run_in_batches(&p, launch, &mut g2, &opts, RunOptions::default(), 16);
        assert_eq!(g1.as_bytes(), g2.as_bytes());
        assert_eq!(o1.mix, o2.mix);
    }
}
