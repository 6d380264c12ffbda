//! GPU configuration (TITAN V Volta-like defaults).

use serde::{Deserialize, Serialize};

/// Warp scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SchedulerKind {
    /// Greedy-then-oldest: keep issuing the last warp while it is ready,
    /// else fall back to the oldest ready warp (GPGPU-Sim's GTO, the
    /// usual best performer).
    #[default]
    Gto,
    /// Loose round-robin: rotate priority across resident warps.
    RoundRobin,
}

/// Functional-unit and memory latencies (cycles) and pool sizes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Streaming multiprocessors simulated. The full TITAN V has 80; the
    /// harness typically simulates fewer SMs with a proportionally smaller
    /// grid — energy results are normalised so the shape is preserved.
    pub num_sms: u32,
    /// Max resident warps per SM (Volta: 64).
    pub max_warps_per_sm: u32,
    /// Max resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Instructions issued per SM per cycle (4 sub-schedulers).
    pub issue_width: u32,

    /// ALU pipelines per SM (warp-wide issue slots).
    pub alu_pipes: u32,
    /// FPU pipelines per SM.
    pub fpu_pipes: u32,
    /// DPU pipelines per SM.
    pub dpu_pipes: u32,
    /// Integer/FP multiply-divide pipelines per SM.
    pub muldiv_pipes: u32,
    /// SFU pipelines per SM.
    pub sfu_pipes: u32,
    /// LD/ST ports per SM.
    pub ldst_pipes: u32,

    /// ALU result latency.
    pub alu_latency: u32,
    /// FPU result latency.
    pub fpu_latency: u32,
    /// DPU result latency.
    pub dpu_latency: u32,
    /// Multiplier latency.
    pub mul_latency: u32,
    /// Divider latency (iterative).
    pub div_latency: u32,
    /// SFU latency.
    pub sfu_latency: u32,
    /// SFU issue interval (throughput ratio).
    pub sfu_interval: u32,
    /// Shared-memory access latency.
    pub shared_latency: u32,

    /// L1 data cache size per SM (bytes).
    pub l1_bytes: u64,
    /// L1 line size.
    pub l1_line: u64,
    /// L1 associativity.
    pub l1_assoc: u32,
    /// L1 hit latency.
    pub l1_latency: u32,
    /// L2 total size (bytes).
    pub l2_bytes: u64,
    /// L2 line size.
    pub l2_line: u64,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// L2 hit latency.
    pub l2_latency: u32,
    /// DRAM latency.
    pub dram_latency: u32,

    /// Miss-status holding registers per SM: distinct L1 line fills that
    /// may be in flight concurrently. A full file back-pressures the
    /// LDST pipe (`StallReason::MemThrottle`). Volta L1s track 64
    /// outstanding lines.
    pub mshr_entries: u32,
    /// Coalesced requests the L2 accepts per cycle, chip-wide. Excess
    /// requests queue FIFO into later cycles.
    pub l2_bw: u32,
    /// Line fills DRAM services per cycle, chip-wide (an abstraction of
    /// the HBM2 channel count over the core clock).
    pub dram_bw: u32,
    /// Independent L2 partitions (address-sliced banks behind the
    /// SM↔partition crossbar). Must be a power of two; lines are routed
    /// by an XOR-folded hash of the line address. `1` models the legacy
    /// monolithic L2 with no crossbar and is bit-identical to it.
    pub l2_partitions: u32,
    /// Per-(SM, partition) crossbar injection-port depth: coalesced
    /// requests an SM may have queued toward one partition before
    /// further requests stall at the port. Only modeled when
    /// `l2_partitions > 1` (a monolithic L2 has no crossbar).
    pub xbar_queue: u32,

    /// Core clock (GHz) — converts cycles to seconds for power.
    pub clock_ghz: f64,

    /// Warp scheduling policy.
    pub scheduler: SchedulerKind,

    /// ST² speculative adders in the execute stage, predicting through
    /// one Carry Register File per SM; `false` = baseline fixed-latency
    /// adders.
    pub st2: bool,
}

impl GpuConfig {
    /// A TITAN V-like configuration at full scale (80 SMs).
    #[must_use]
    pub fn titan_v() -> Self {
        GpuConfig {
            num_sms: 80,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            issue_width: 4,
            alu_pipes: 4,
            fpu_pipes: 4,
            dpu_pipes: 2,
            muldiv_pipes: 2,
            sfu_pipes: 1,
            ldst_pipes: 2,
            alu_latency: 4,
            fpu_latency: 4,
            dpu_latency: 8,
            mul_latency: 5,
            div_latency: 24,
            sfu_latency: 16,
            sfu_interval: 4,
            shared_latency: 24,
            l1_bytes: 128 * 1024,
            l1_line: 128,
            l1_assoc: 4,
            l1_latency: 28,
            l2_bytes: 4608 * 1024,
            l2_line: 128,
            l2_assoc: 16,
            l2_latency: 190,
            dram_latency: 420,
            mshr_entries: 64,
            l2_bw: 16,
            dram_bw: 6,
            l2_partitions: 4,
            xbar_queue: 8,
            clock_ghz: 1.2,
            scheduler: SchedulerKind::Gto,
            st2: false,
        }
    }

    /// The full 80-SM TITAN V as a run-ready timed-engine preset: the
    /// [`GpuConfig::titan_v`] per-SM shape at chip scale, with the
    /// memory side widened so every per-partition slice divides evenly
    /// (8 L2 partitions; two L2 request slots and one DRAM fill slot per
    /// partition per cycle; the full 64-entry MSHR file splits into
    /// 8-entry per-partition slices per SM). Guaranteed to pass
    /// [`GpuConfig::validate`] — the config test suite pins the
    /// divisibility so the per-partition derivation in
    /// `Partition::build_all` never rounds.
    #[must_use]
    pub fn titan_v_full() -> Self {
        GpuConfig {
            l2_partitions: 8,
            l2_bw: 16,
            dram_bw: 8,
            xbar_queue: 8,
            ..Self::titan_v()
        }
    }

    /// A scaled-down simulation target (`sms` SMs, same per-SM shape,
    /// proportional L2 capacity, L2/DRAM bandwidth and partition count).
    /// Bandwidth floors keep small configurations latency-dominated
    /// rather than pathologically serialised, while still leaving
    /// headroom for `with_dram_bw(1)`-style stress studies. The
    /// partition count scales with the SM count and is rounded down to a
    /// power of two; small harness configurations get one partition
    /// (the legacy monolithic L2).
    #[must_use]
    pub fn scaled(sms: u32) -> Self {
        let full = Self::titan_v();
        let sms = sms.max(1);
        let partitions = (full.l2_partitions * sms / 80).max(1);
        GpuConfig {
            num_sms: sms,
            l2_bytes: (full.l2_bytes * u64::from(sms) / 80).max(64 * 1024),
            l2_bw: (full.l2_bw * sms / 80).max(4),
            dram_bw: (full.dram_bw * sms / 80).max(2),
            l2_partitions: 1 << partitions.ilog2(),
            ..full
        }
    }

    /// Enables the paper's final ST² design.
    #[must_use]
    pub fn with_st2(mut self) -> Self {
        self.st2 = true;
        self
    }

    /// Selects the warp scheduler.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the per-SM dual/quad-issue width (issue slots per cycle).
    /// The warp-stall profiler attributes exactly `issue_width` slots
    /// per SM per cycle, so this also scales its slot accounting. Zero
    /// is rejected by [`GpuConfig::validate`], not clamped here.
    #[must_use]
    pub fn with_issue_width(mut self, width: u32) -> Self {
        self.issue_width = width;
        self
    }

    /// Sets the per-SM MSHR file size. Small values throttle
    /// memory-level parallelism; zero is rejected by
    /// [`GpuConfig::validate`], not clamped here.
    #[must_use]
    pub fn with_mshr_entries(mut self, entries: u32) -> Self {
        self.mshr_entries = entries;
        self
    }

    /// Sets the chip-wide L2 request bandwidth (requests per cycle).
    /// Zero is rejected by [`GpuConfig::validate`], not clamped here.
    #[must_use]
    pub fn with_l2_bw(mut self, bw: u32) -> Self {
        self.l2_bw = bw;
        self
    }

    /// Sets the chip-wide DRAM fill bandwidth (fills per cycle). Zero
    /// is rejected by [`GpuConfig::validate`], not clamped here.
    #[must_use]
    pub fn with_dram_bw(mut self, bw: u32) -> Self {
        self.dram_bw = bw;
        self
    }

    /// Sets the L2 partition count (address-sliced banks behind the
    /// crossbar). Must be a power of two — checked by
    /// [`GpuConfig::validate`], not clamped here, so typos surface as
    /// errors instead of silently running a different geometry.
    #[must_use]
    pub fn with_l2_partitions(mut self, partitions: u32) -> Self {
        self.l2_partitions = partitions;
        self
    }

    /// Sets the per-(SM, partition) crossbar injection-port depth.
    #[must_use]
    pub fn with_xbar_queue(mut self, depth: u32) -> Self {
        self.xbar_queue = depth;
        self
    }

    /// Checks cross-field invariants the timed engine depends on.
    ///
    /// # Errors
    ///
    /// Returns a message when the L1 and L2 line sizes differ (the
    /// hierarchy tags both levels at one granularity), a line size is
    /// not a positive power of two, any count of SMs, resident warps or
    /// blocks, issue slots or functional-unit pipes is zero, a cache
    /// associativity, the MSHR file capacity, or an L2/DRAM bandwidth
    /// is zero (a machine with none of a resource never finishes a
    /// kernel that needs it, so zeros are rejected here instead of
    /// silently clamped to 1 deep in the engine), `l2_partitions` is
    /// zero or not a power of two (the address decoder folds the line
    /// address into `log2(partitions)` bits), the crossbar queue depth
    /// is zero, or
    /// `l2_bw < l2_partitions` (each partition needs at least one L2
    /// request slot per cycle).
    pub fn validate(&self) -> Result<(), String> {
        for (knob, v) in [
            ("num_sms", self.num_sms),
            ("max_warps_per_sm", self.max_warps_per_sm),
            ("max_blocks_per_sm", self.max_blocks_per_sm),
            ("issue_width", self.issue_width),
            ("alu_pipes", self.alu_pipes),
            ("fpu_pipes", self.fpu_pipes),
            ("dpu_pipes", self.dpu_pipes),
            ("muldiv_pipes", self.muldiv_pipes),
            ("sfu_pipes", self.sfu_pipes),
            ("ldst_pipes", self.ldst_pipes),
            ("l1_assoc", self.l1_assoc),
            ("l2_assoc", self.l2_assoc),
            ("mshr_entries", self.mshr_entries),
            ("l2_bw", self.l2_bw),
            ("dram_bw", self.dram_bw),
        ] {
            if v == 0 {
                return Err(format!(
                    "{knob} must be at least 1: a zero-{knob} machine never \
                     finishes a kernel that needs one"
                ));
            }
        }
        if self.l1_line != self.l2_line {
            return Err(format!(
                "l1_line ({}) must equal l2_line ({}): mixed-granularity tagging is unsupported",
                self.l1_line, self.l2_line
            ));
        }
        if self.l1_line == 0 || !self.l1_line.is_power_of_two() {
            return Err(format!(
                "cache line size must be a positive power of two, got {}",
                self.l1_line
            ));
        }
        if self.l2_partitions == 0 || !self.l2_partitions.is_power_of_two() {
            return Err(format!(
                "l2_partitions must be a positive power of two, got {}",
                self.l2_partitions
            ));
        }
        if self.xbar_queue == 0 {
            return Err("xbar_queue must be at least 1".to_string());
        }
        if self.l2_bw < self.l2_partitions {
            return Err(format!(
                "l2_bw ({}) must be at least l2_partitions ({}): every partition needs an L2 slot per cycle",
                self.l2_bw, self.l2_partitions
            ));
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::scaled(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_v_shape() {
        let c = GpuConfig::titan_v();
        assert_eq!(c.num_sms, 80);
        assert_eq!(c.max_warps_per_sm, 64);
        assert!(!c.st2);
    }

    #[test]
    fn scaled_keeps_per_sm_shape() {
        let c = GpuConfig::scaled(4);
        assert_eq!(c.num_sms, 4);
        assert_eq!(c.alu_pipes, GpuConfig::titan_v().alu_pipes);
        assert!(c.l2_bytes < GpuConfig::titan_v().l2_bytes);
    }

    #[test]
    fn memory_knobs_scale_and_zero_is_rejected() {
        let full = GpuConfig::titan_v();
        assert_eq!(full.mshr_entries, 64);
        assert!(full.l2_bw >= full.dram_bw, "L2 ingests more than DRAM");
        let small = GpuConfig::scaled(4);
        assert!(small.l2_bw < full.l2_bw);
        assert!(small.dram_bw >= 1);
        assert_eq!(small.with_dram_bw(7).dram_bw, 7);
        // Zero-valued knobs are no longer silently clamped to 1: the
        // builders store them verbatim and `validate` rejects them with
        // the knob's name in the message.
        for (cfg, knob) in [
            (small.with_mshr_entries(0), "mshr_entries"),
            (small.with_l2_bw(0), "l2_bw"),
            (small.with_dram_bw(0), "dram_bw"),
        ] {
            let err = cfg.validate().expect_err(knob);
            assert!(err.contains(knob), "{knob}: {err}");
        }
        let mut c = small;
        c.l1_assoc = 0;
        assert!(c.validate().expect_err("l1_assoc").contains("l1_assoc"));
        c.l1_assoc = small.l1_assoc;
        c.l2_assoc = 0;
        assert!(c.validate().expect_err("l2_assoc").contains("l2_assoc"));
    }

    #[test]
    fn validate_rejects_zero_sized_machines() {
        // A zero here would otherwise run into the cycle-limit panic or,
        // for the warp and block limits, silently get one block slot.
        let base = GpuConfig::scaled(2);
        let zeroed = |field: fn(&mut GpuConfig) -> &mut u32| {
            let mut c = base;
            *field(&mut c) = 0;
            c
        };
        for (knob, c) in [
            ("num_sms", zeroed(|c| &mut c.num_sms)),
            ("max_warps_per_sm", zeroed(|c| &mut c.max_warps_per_sm)),
            ("max_blocks_per_sm", zeroed(|c| &mut c.max_blocks_per_sm)),
            ("issue_width", base.with_issue_width(0)),
            ("alu_pipes", zeroed(|c| &mut c.alu_pipes)),
            ("fpu_pipes", zeroed(|c| &mut c.fpu_pipes)),
            ("dpu_pipes", zeroed(|c| &mut c.dpu_pipes)),
            ("muldiv_pipes", zeroed(|c| &mut c.muldiv_pipes)),
            ("sfu_pipes", zeroed(|c| &mut c.sfu_pipes)),
            ("ldst_pipes", zeroed(|c| &mut c.ldst_pipes)),
        ] {
            let err = c.validate().expect_err(knob);
            assert!(err.starts_with(knob), "{knob}: {err}");
        }
    }

    #[test]
    fn validate_rejects_mismatched_lines() {
        let mut c = GpuConfig::scaled(1);
        assert!(c.validate().is_ok());
        c.l2_line = 64;
        assert!(c.validate().is_err());
        c.l2_line = c.l1_line;
        c.l1_line = 96;
        c.l2_line = 96;
        assert!(c.validate().is_err(), "non-power-of-two line rejected");
    }

    #[test]
    fn titan_v_full_preset() {
        let c = GpuConfig::titan_v_full();
        assert_eq!(c.num_sms, 80);
        assert!(c.validate().is_ok());
        // The memory side divides evenly into partition slices, so the
        // per-partition derivation in `Partition::build_all` never
        // rounds: 2 L2 slots and 1 DRAM slot per partition per cycle,
        // 8 MSHR entries per (SM, partition) slice.
        assert_eq!(c.l2_partitions, 8);
        assert_eq!(c.l2_bw % c.l2_partitions, 0);
        assert_eq!(c.dram_bw % c.l2_partitions, 0);
        assert_eq!(c.mshr_entries % c.l2_partitions, 0);
        assert_eq!(c.mshr_entries / c.l2_partitions, 8);
        // Same per-SM shape as the reference titan_v.
        assert_eq!(c.alu_pipes, GpuConfig::titan_v().alu_pipes);
        assert_eq!(c.l2_bytes, GpuConfig::titan_v().l2_bytes);
    }

    #[test]
    fn st2_toggle() {
        let c = GpuConfig::scaled(2).with_st2();
        assert!(c.st2);
    }

    #[test]
    fn partition_knobs_scale_and_validate() {
        let full = GpuConfig::titan_v();
        assert_eq!(full.l2_partitions, 4);
        assert_eq!(full.xbar_queue, 8);
        assert!(full.validate().is_ok());
        // The small harness config stays monolithic (partitions = 1), so
        // default runs keep the legacy single-L2 timing.
        let small = GpuConfig::scaled(4);
        assert_eq!(small.l2_partitions, 1);
        assert!(small.validate().is_ok());
        // Scaling always lands on a power of two.
        for sms in [1, 4, 20, 40, 60, 80, 160] {
            let c = GpuConfig::scaled(sms);
            assert!(c.l2_partitions.is_power_of_two(), "sms={sms}");
            assert!(c.validate().is_ok(), "sms={sms}");
        }

        // Validation rejects the degenerate geometries.
        assert!(small.with_l2_partitions(0).validate().is_err());
        assert!(
            small.with_l2_partitions(3).validate().is_err(),
            "non-power-of-two partition count accepted"
        );
        assert!(small.with_xbar_queue(0).validate().is_err());
        assert!(
            small
                .with_l2_partitions(4)
                .with_l2_bw(2)
                .validate()
                .is_err(),
            "l2_bw below the partition count accepted"
        );
        assert!(small.with_l2_partitions(4).validate().is_ok());
        assert_eq!(small.with_xbar_queue(3).xbar_queue, 3);
    }
}
