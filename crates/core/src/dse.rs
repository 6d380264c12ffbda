//! Design-space exploration: the analyses behind the paper's Fig. 3
//! (spatio-temporal carry correlation) and Fig. 5 (misprediction rate of
//! every candidate speculation mechanism).
//!
//! Both analyses replay a recorded stream of [`AddRecord`]s — produced by
//! the GPU simulator's functional execution in program order — through
//! idealised (contention-free) speculation state, exactly as the paper's
//! exploration does before committing to the implementable design.

use crate::adder::SpeculativeAdder;
use crate::config::{PcIndex, SpeculationConfig, ThreadKey};
use crate::event::AddRecord;
use crate::history::HistoryTable;
use crate::slice::{prepare, PreparedAdd};
use crate::stats::AdderStats;
use serde::{Deserialize, Serialize};

/// A correlation keying scheme of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorrelationScheme {
    /// Display label matching the paper's legend.
    pub label: &'static str,
    /// Spatial part of the key.
    pub(crate) pc_index: PcIndex,
    /// Thread part of the key.
    pub(crate) thread_key: ThreadKey,
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
    pub(crate) matched: u64,
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

/// Records prepared at a time by [`sweep`]: enough to amortise the pass
/// over the configurations, few enough that the prepared chunk stays in
/// cache while every configuration replays it.
const CHUNK: usize = 1024;

fn prepare_record(rec: &AddRecord) -> PreparedAdd {
    prepare(rec.width.layout(), rec.a, rec.b, rec.sub)
}

/// Replays `records` through every configuration, returning per-config
/// statistics (the data behind Fig. 5).
///
/// Each record's configuration-independent work (effective operands,
/// carry chain, generate/propagate, Peek) is done once, a chunk of
/// records at a time, and every configuration then replays that chunk in
/// stream order. Configurations share no state, so each one's statistics
/// equal those of its own [`SpeculativeAdder`] replaying the stream with
/// [`SpeculativeAdder::replay`].
#[must_use]
pub fn sweep(
    records: &[AddRecord],
    configs: &[SpeculationConfig],
) -> Vec<(SpeculationConfig, AdderStats)> {
    let mut adders: Vec<SpeculativeAdder> =
        configs.iter().map(|c| SpeculativeAdder::new(*c)).collect();
    let mut prepared = Vec::with_capacity(CHUNK.min(records.len()));
    for chunk in records.chunks(CHUNK) {
        prepared.clear();
        prepared.extend(chunk.iter().map(prepare_record));
        for adder in &mut adders {
            for (rec, prep) in chunk.iter().zip(&prepared) {
                let _ = adder.replay_prepared(&rec.ctx, prep);
            }
        }
    }
    adders.iter().map(|a| (*a.config(), *a.stats())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PredictorKind, RecomputePolicy, UpdatePolicy};
    use crate::event::{AddRecord, OpContext, WidthClass};
    use proptest::prelude::*;

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
        let mut adder = SpeculativeAdder::st2();
        let _ = adder.replay(&AddRecord {
            ctx: OpContext::default(),
            a: 0x40_0000,
            b: 0x10_0000,
            sub: false,
            width: WidthClass::Mant24,
        });
        let _ = adder.replay(&AddRecord::int64(1, 0, 0, 5, 6, false));
        assert_eq!(adder.stats().ops, 2);
    }

    #[test]
    fn empty_stream_yields_zero_rates() {
        let r = carry_correlation(&[], fig3_schemes()[0]);
        assert_eq!(r.match_rate(), 0.0);
        let s = sweep(&[], &[SpeculationConfig::st2()]);
        assert_eq!(s[0].1.ops, 0);
    }

    /// Operands that give both stable and changing carry patterns: small
    /// counters, small negatives (long carry chains) and random bits.
    fn operand() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..4096,
            (0u64..4096).prop_map(|v| v.wrapping_neg()),
            any::<u64>(),
        ]
    }

    /// A record of any width, from a handful of PCs and three warps.
    fn record() -> impl Strategy<Value = AddRecord> {
        let width = prop::sample::select(vec![
            WidthClass::Int64,
            WidthClass::Mant24,
            WidthClass::Mant53,
        ]);
        (
            0u32..24,
            0u32..96,
            operand(),
            operand(),
            any::<bool>(),
            width,
        )
            .prop_map(|(pc, gtid, a, b, sub, width)| AddRecord {
                ctx: OpContext {
                    pc,
                    gtid,
                    ltid: gtid % 32,
                },
                a,
                b,
                sub,
                width,
            })
    }

    /// The Fig. 5 points, every non-default policy and history depth,
    /// operand windows with and without Peek, and a full-PC (map-backed)
    /// table, with ST² listed a second time at the end.
    fn property_configs() -> Vec<SpeculationConfig> {
        let st2 = SpeculationConfig::st2();
        let mut configs = fig5_design_points();
        configs.extend([
            SpeculationConfig {
                recompute: RecomputePolicy::PropagateToTop,
                ..st2
            },
            SpeculationConfig {
                update: UpdatePolicy::Always,
                ..st2
            },
            SpeculationConfig {
                history_depth: 2,
                ..st2
            },
            SpeculationConfig {
                history_depth: 4,
                ..st2
            },
            SpeculationConfig {
                pc_index: PcIndex::Full,
                ..st2
            },
        ]);
        for window in [2u8, 8] {
            for peek in [false, true] {
                configs.push(SpeculationConfig {
                    predictor: PredictorKind::Windowed { window },
                    peek,
                    ..SpeculationConfig::static_zero()
                });
            }
        }
        configs.push(st2);
        configs
    }

    proptest! {
        /// Sharing the prepared chunk across configurations changes no
        /// statistic: every config's sweep result equals its own
        /// independent replay, for streams shorter than, equal to and
        /// longer than one chunk.
        #[test]
        fn sweep_matches_independent_runners(
            stream in prop::collection::vec(record(), 3 * CHUNK + 7..3 * CHUNK + 8),
            len in prop::sample::select(vec![0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]),
        ) {
            let records = &stream[..len];
            let configs = property_configs();
            let swept = sweep(records, &configs);
            prop_assert_eq!(swept.len(), configs.len());
            for (cfg, (swept_cfg, stats)) in configs.iter().zip(&swept) {
                let mut adder = SpeculativeAdder::new(*cfg);
                for rec in records {
                    let _ = adder.replay(rec);
                }
                prop_assert_eq!(swept_cfg, cfg);
                prop_assert_eq!(stats, adder.stats(), "{} over {} records", cfg, len);
            }
            let st2 = configs.iter().position(|c| *c == SpeculationConfig::st2()).unwrap();
            prop_assert_eq!(swept[st2].1, swept[configs.len() - 1].1);
        }

        /// The ablations' slice-width loop (`add` on a forced layout for
        /// Int64 records, `replay` for the rest), run at Int64's own
        /// layout, replays a mixed-width stream exactly as `sweep` does.
        #[test]
        fn int_layout_loop_at_natural_layout_matches_sweep(
            records in prop::collection::vec(record(), 0..2 * CHUNK + 3),
        ) {
            let int_layout = WidthClass::Int64.layout();
            let mut adder = SpeculativeAdder::st2();
            for rec in &records {
                let _ = match rec.width {
                    WidthClass::Int64 => adder.add(&rec.ctx, int_layout, rec.a, rec.b, rec.sub),
                    _ => adder.replay(rec),
                };
            }
            let swept = sweep(&records, &[SpeculationConfig::st2()]);
            prop_assert_eq!(&swept[0].1, adder.stats());
        }
    }
}
