//! Design-space exploration: the analyses behind the paper's Fig. 3
//! (spatio-temporal carry correlation) and Fig. 5 (misprediction rate of
//! every candidate speculation mechanism).
//!
//! Both analyses replay a recorded stream of [`AddRecord`]s — produced by
//! the GPU simulator's functional execution in program order — through
//! idealised (contention-free) speculation state, exactly as the paper's
//! exploration does before committing to the implementable design.

use crate::adder::execute_op;
use crate::config::{PcIndex, SpeculationConfig, ThreadKey};
use crate::event::AddRecord;
use crate::history::HistoryTable;
use crate::predictor::Predictor;
use crate::stats::AdderStats;
use serde::{Deserialize, Serialize};

/// A correlation keying scheme of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorrelationScheme {
    /// Display label matching the paper's legend.
    pub label: &'static str,
    /// Spatial part of the key.
    pub pc_index: PcIndex,
    /// Thread part of the key.
    pub thread_key: ThreadKey,
}

/// The three schemes the paper compares in Fig. 3.
#[must_use]
pub fn fig3_schemes() -> [CorrelationScheme; 3] {
    [
        CorrelationScheme {
            label: "Prev+Gtid",
            pc_index: PcIndex::None,
            thread_key: ThreadKey::Gtid,
        },
        CorrelationScheme {
            label: "Prev+FullPC+Gtid",
            pc_index: PcIndex::Full,
            thread_key: ThreadKey::Gtid,
        },
        CorrelationScheme {
            label: "Prev+FullPC+Ltid",
            pc_index: PcIndex::Full,
            thread_key: ThreadKey::Ltid,
        },
    ]
}

/// Result of one correlation measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorrelationResult {
    /// Boundary carries compared (excludes each key's cold first use).
    pub compared: u64,
    /// Boundary carries that matched the previous execution under the key.
    pub matched: u64,
}

impl CorrelationResult {
    /// Fraction of boundary carry-ins that match the previous execution —
    /// the paper's Fig. 3 y-axis.
    #[must_use]
    pub fn match_rate(&self) -> f64 {
        if self.compared == 0 {
            0.0
        } else {
            self.matched as f64 / self.compared as f64
        }
    }
}

/// Measures how often each slice carry-in equals the one produced by the
/// previous execution under the given history key.
///
/// Cold keys (first occurrence) are not counted — there is nothing to
/// compare against, matching the paper's definition of temporal
/// correlation.
#[must_use]
pub fn carry_correlation(records: &[AddRecord], scheme: CorrelationScheme) -> CorrelationResult {
    let mut table = HistoryTable::new(scheme.pc_index, scheme.thread_key, 1);
    let mut result = CorrelationResult {
        compared: 0,
        matched: 0,
    };
    for rec in records {
        let layout = rec.width.layout();
        let bm = layout.boundary_mask();
        let (a_eff, b_eff, cin0) = crate::bits::effective_operands(layout, rec.a, rec.b, rec.sub);
        let (_, carries) = crate::bits::carry_chain(layout, a_eff, b_eff, cin0);
        let truth = carries & bm;
        if let Some(previous) = table.lookup(&rec.ctx) {
            result.compared += u64::from(layout.boundaries());
            result.matched += u64::from((!(previous ^ truth) & bm).count_ones());
        }
        table.record(&rec.ctx, truth);
    }
    result
}

/// Runs one speculation configuration over a recorded add stream,
/// dispatching each record to its own slice layout while sharing a single
/// predictor (one CRF serves an SM's integer and floating-point adders).
#[derive(Debug, Clone)]
pub struct ConfigRunner {
    config: SpeculationConfig,
    predictor: Predictor,
    stats: AdderStats,
}

impl ConfigRunner {
    /// Creates a runner for a configuration.
    #[must_use]
    pub fn new(config: SpeculationConfig) -> Self {
        ConfigRunner {
            config,
            predictor: Predictor::from_config(&config),
            stats: AdderStats::default(),
        }
    }

    /// The configuration under test.
    #[must_use]
    pub fn config(&self) -> &SpeculationConfig {
        &self.config
    }

    /// Replays one recorded operation.
    pub fn process(&mut self, rec: &AddRecord) {
        let _ = execute_op(
            &mut self.predictor,
            &self.config,
            rec.width.layout(),
            &rec.ctx,
            rec.a,
            rec.b,
            rec.sub,
            &mut self.stats,
        );
    }

    /// Replays a whole stream.
    pub fn process_all(&mut self, records: &[AddRecord]) {
        for r in records {
            self.process(r);
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &AdderStats {
        &self.stats
    }
}

/// Replays an add stream with every *integer* record forced onto an
/// alternative slice layout — the speculation-accuracy axis of the slice
/// bitwidth trade-off (the paper's §V-B sweeps only the circuit axis;
/// this is the matching architectural ablation). Floating-point records
/// keep their natural mantissa layouts.
#[must_use]
pub fn sweep_int_layout(
    records: &[AddRecord],
    config: SpeculationConfig,
    int_layout: crate::bits::SliceLayout,
) -> AdderStats {
    let mut predictor = Predictor::from_config(&config);
    let mut stats = AdderStats::default();
    for rec in records {
        let layout = match rec.width {
            crate::event::WidthClass::Int64 => int_layout,
            other => other.layout(),
        };
        let _ = execute_op(
            &mut predictor,
            &config,
            layout,
            &rec.ctx,
            rec.a,
            rec.b,
            rec.sub,
            &mut stats,
        );
    }
    stats
}

/// The design points of the paper's Fig. 5, in its left-to-right order.
#[must_use]
pub fn fig5_design_points() -> Vec<SpeculationConfig> {
    vec![
        SpeculationConfig::static_zero(),
        SpeculationConfig::static_one(),
        SpeculationConfig::valhalla(),
        SpeculationConfig::valhalla_peek(),
        SpeculationConfig::prev(),
        SpeculationConfig::prev_peek(),
        SpeculationConfig::prev_modpc_peek(1),
        SpeculationConfig::prev_modpc_peek(2),
        SpeculationConfig::prev_modpc_peek(4),
        SpeculationConfig::prev_modpc_peek(8),
        SpeculationConfig::gtid_prev_modpc4_peek(),
        SpeculationConfig::st2(),
        SpeculationConfig::xor_hash(),
    ]
}

/// Replays `records` through every configuration, returning per-config
/// statistics (the data behind Fig. 5).
#[must_use]
pub fn sweep(
    records: &[AddRecord],
    configs: &[SpeculationConfig],
) -> Vec<(SpeculationConfig, AdderStats)> {
    configs
        .iter()
        .map(|cfg| {
            let mut runner = ConfigRunner::new(*cfg);
            runner.process_all(records);
            (*cfg, *runner.stats())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AddRecord, OpContext, WidthClass};

    /// A synthetic stream mimicking the paper's observation: each PC's
    /// values evolve gradually; different PCs produce wildly different
    /// magnitudes; threads in the same lane behave alike.
    fn synthetic_stream() -> Vec<AddRecord> {
        let mut recs = Vec::new();
        for iter in 0..200i64 {
            for warp in 0..4u32 {
                for lane in 0..8u32 {
                    let gtid = warp * 32 + lane;
                    // PC1: loop iterator (tiny values).
                    recs.push(AddRecord::int64(1, gtid, lane, iter, 1, false));
                    // PC2: index arithmetic (tens of thousands).
                    recs.push(AddRecord::int64(
                        2,
                        gtid,
                        lane,
                        40_000 + 100 * iter,
                        i64::from(lane) * 8,
                        false,
                    ));
                    // PC3: negative results (full carry chains).
                    recs.push(AddRecord::int64(3, gtid, lane, iter, iter + 7, true));
                }
            }
        }
        recs
    }

    #[test]
    fn fig3_ordering_holds() {
        // Spatio-temporal correlation (FullPC) must beat temporal-only, and
        // lane sharing must not hurt on lane-homogeneous data.
        let recs = synthetic_stream();
        let [gtid_only, fullpc_gtid, fullpc_ltid] = fig3_schemes();
        let r1 = carry_correlation(&recs, gtid_only).match_rate();
        let r2 = carry_correlation(&recs, fullpc_gtid).match_rate();
        let r3 = carry_correlation(&recs, fullpc_ltid).match_rate();
        assert!(r2 > r1, "FullPC+Gtid {r2} should beat Gtid-only {r1}");
        assert!(
            r3 >= r2 - 0.02,
            "Ltid sharing {r3} should not collapse vs {r2}"
        );
        assert!(r2 > 0.8, "per-PC correlation should be strong, got {r2}");
    }

    #[test]
    fn fig5_st2_beats_static_and_valhalla() {
        let recs = synthetic_stream();
        let results = sweep(
            &recs,
            &[
                SpeculationConfig::static_zero(),
                SpeculationConfig::valhalla(),
                SpeculationConfig::st2(),
            ],
        );
        let rate = |i: usize| results[i].1.misprediction_rate();
        assert!(rate(2) < rate(1), "ST2 {} !< VaLHALLA {}", rate(2), rate(1));
        assert!(
            rate(2) < rate(0),
            "ST2 {} !< staticZero {}",
            rate(2),
            rate(0)
        );
    }

    #[test]
    fn peek_always_helps() {
        let recs = synthetic_stream();
        let results = sweep(
            &recs,
            &[SpeculationConfig::prev(), SpeculationConfig::prev_peek()],
        );
        assert!(
            results[1].1.misprediction_rate() <= results[0].1.misprediction_rate(),
            "Peek must not increase mispredictions"
        );
    }

    #[test]
    fn mixed_width_stream_is_accepted() {
        let mut runner = ConfigRunner::new(SpeculationConfig::st2());
        runner.process(&AddRecord {
            ctx: OpContext::default(),
            a: 0x40_0000,
            b: 0x10_0000,
            sub: false,
            width: WidthClass::Mant24,
        });
        runner.process(&AddRecord::int64(1, 0, 0, 5, 6, false));
        assert_eq!(runner.stats().ops, 2);
    }

    #[test]
    fn empty_stream_yields_zero_rates() {
        let r = carry_correlation(&[], fig3_schemes()[0]);
        assert_eq!(r.match_rate(), 0.0);
        let s = sweep(&[], &[SpeculationConfig::st2()]);
        assert_eq!(s[0].1.ops, 0);
    }
}
