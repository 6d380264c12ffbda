//! Carry predictors: the dynamic half of every speculation mechanism.
//!
//! A predictor produces the boundary-carry guesses that the slice engine
//! consumes (before the static Peek override). The variants cover the whole
//! comparison space of the paper's Fig. 5 plus the related-work designs:
//!
//! * [`PredictorKind::StaticZero`] / [`PredictorKind::StaticOne`] — constant.
//! * [`PredictorKind::Valhalla`] — one history bit broadcast to all slices.
//! * [`PredictorKind::Windowed`] — CASA/VLSA-style operand lookahead.
//! * [`PredictorKind::Prev`] — the ST² per-slice history table.
//!
//! [`PredictorKind::StaticZero`]: crate::PredictorKind::StaticZero
//! [`PredictorKind::StaticOne`]: crate::PredictorKind::StaticOne
//! [`PredictorKind::Valhalla`]: crate::PredictorKind::Valhalla
//! [`PredictorKind::Windowed`]: crate::PredictorKind::Windowed
//! [`PredictorKind::Prev`]: crate::PredictorKind::Prev

use crate::bits::{mask, SliceLayout};
use crate::config::{PredictorKind, SpeculationConfig, UpdatePolicy};
use crate::event::OpContext;
use crate::history::HistoryTable;

/// A carry predictor instance (state + mechanism).
#[derive(Debug, Clone)]
pub enum Predictor {
    /// Constant prediction for every boundary.
    Static(bool),
    /// VaLHALLA: a single 1-bit prediction broadcast to *all* slices.
    ///
    /// Following the ST² paper's characterisation (§II-B), the broadcast
    /// bit is "a static prediction for all slices' carry-ins based on the
    /// correlation between the length of the carry propagation chain and
    /// the input operands": operands with high set MSbs produce long
    /// carry chains (subtractions, negative values), low MSbs short ones.
    /// A per-thread 1-bit history breaks ties when the operands are
    /// uninformative.
    Valhalla {
        /// Per-thread (gtid) 1-bit histories (tie-breaker).
        hist: ThreadBits,
    },
    /// Stateless operand lookahead over a `window`-bit suffix of the
    /// previous slice, assuming no carry enters the window (CASA/VLSA).
    Windowed {
        /// Window size in bits (clamped to the slice width).
        window: u8,
    },
    /// The ST² `Prev` history table.
    Prev {
        /// The keyed history table.
        table: HistoryTable,
        /// Write-back policy.
        update: UpdatePolicy,
    },
}

/// One bit per global thread id, growing to the highest id written;
/// unwritten bits read as 0.
#[derive(Debug, Clone, Default)]
pub struct ThreadBits {
    words: Vec<u64>,
}

impl ThreadBits {
    /// The bit for thread `gtid`.
    #[must_use]
    pub(crate) fn get(&self, gtid: u32) -> bool {
        let (word, bit) = (gtid as usize / 64, gtid % 64);
        self.words.get(word).is_some_and(|w| w >> bit & 1 != 0)
    }

    /// Sets the bit for thread `gtid`.
    pub(crate) fn set(&mut self, gtid: u32, value: bool) {
        let (word, bit) = (gtid as usize / 64, gtid % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] = self.words[word] & !(1 << bit) | u64::from(value) << bit;
    }
}

/// Bookkeeping the predictor reports back for energy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorActivity {
    /// History-table reads performed by the last `predict` call.
    pub reads: u64,
    /// History-table writes performed by the last `update` call.
    pub writes: u64,
}

impl Predictor {
    /// Builds the predictor for a configuration.
    #[must_use]
    pub fn from_config(cfg: &SpeculationConfig) -> Self {
        match cfg.predictor {
            PredictorKind::StaticZero => Predictor::Static(false),
            PredictorKind::StaticOne => Predictor::Static(true),
            PredictorKind::Valhalla => Predictor::Valhalla {
                hist: ThreadBits::default(),
            },
            PredictorKind::Windowed { window } => Predictor::Windowed { window },
            PredictorKind::Prev => Predictor::Prev {
                table: HistoryTable::new(cfg.pc_index, cfg.thread_key, cfg.history_depth),
                update: cfg.update,
            },
        }
    }

    /// Predicts the boundary-carry vector for an operation.
    ///
    /// `a_eff` / `b_eff` are the *effective* operands (subtraction already
    /// inverted) — needed only by the operand-derived predictors.
    pub fn predict(
        &mut self,
        ctx: &OpContext,
        layout: SliceLayout,
        a_eff: u64,
        b_eff: u64,
        activity: &mut PredictorActivity,
    ) -> u64 {
        let bm = mask(u32::from(layout.boundaries()));
        match self {
            Predictor::Static(bit) => {
                if *bit {
                    bm
                } else {
                    0
                }
            }
            Predictor::Valhalla { hist } => {
                activity.reads += 1;
                let msb = layout.total_bits() - 1;
                let a_top = a_eff >> msb & 1;
                let b_top = b_eff >> msb & 1;
                // Operand-correlated broadcast: both MSbs high ⇒ the chain
                // will run (predict 1 everywhere); both low ⇒ short chain
                // (predict 0); mixed ⇒ fall back to the 1-bit history.
                let bit = match (a_top, b_top) {
                    (1, 1) => true,
                    (0, 0) => false,
                    _ => hist.get(ctx.gtid),
                };
                if bit {
                    bm
                } else {
                    0
                }
            }
            Predictor::Windowed { window } => {
                windowed_lookahead(layout, a_eff, b_eff, *window) & bm
            }
            Predictor::Prev { table, .. } => {
                activity.reads += 1;
                table.predict(ctx) & bm
            }
        }
    }

    /// Feeds back the true boundary carries of a completed operation.
    pub fn update(
        &mut self,
        ctx: &OpContext,
        layout: SliceLayout,
        true_carries: u64,
        mispredicted: bool,
        activity: &mut PredictorActivity,
    ) {
        match self {
            Predictor::Static(_) | Predictor::Windowed { .. } => {}
            Predictor::Valhalla { hist } => {
                // Majority boundary carry of this addition becomes the next
                // broadcast prediction for this thread's adder.
                let boundaries = layout.boundaries();
                if boundaries == 0 {
                    return;
                }
                let ones = (true_carries & mask(u32::from(boundaries))).count_ones();
                let bit = ones * 2 >= u32::from(boundaries);
                hist.set(ctx.gtid, bit);
                activity.writes += 1;
            }
            Predictor::Prev { table, update } => {
                let write = match update {
                    UpdatePolicy::OnMispredict => mispredicted,
                    UpdatePolicy::Always => true,
                };
                if write {
                    table.record(ctx, true_carries);
                    activity.writes += 1;
                }
            }
        }
    }
}

/// CASA/VLSA-style lookahead: the carry out of boundary `j` is computed
/// exactly over the `window` bits immediately below it, assuming no carry
/// enters the window. For `window == layout.width()` this is the "no
/// cross-boundary chain" approximation.
#[must_use]
pub fn windowed_lookahead(layout: SliceLayout, a_eff: u64, b_eff: u64, window: u8) -> u64 {
    let w = window.clamp(1, layout.width());
    let mut out = 0u64;
    for j in 0..layout.boundaries() {
        let msb = layout.msb_of_slice(j);
        let lo = msb + 1 - u32::from(w);
        let am = (a_eff >> lo) & mask(u32::from(w));
        let bm = (b_eff >> lo) & mask(u32::from(w));
        if (am + bm) >> w != 0 {
            out |= 1 << j;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PcIndex, ThreadKey};

    const L: SliceLayout = SliceLayout::INT64;

    fn ctx() -> OpContext {
        OpContext {
            pc: 3,
            gtid: 7,
            ltid: 7,
        }
    }

    #[test]
    fn static_predictors() {
        let mut act = PredictorActivity::default();
        let mut z = Predictor::from_config(&SpeculationConfig::static_zero());
        let mut o = Predictor::from_config(&SpeculationConfig::static_one());
        assert_eq!(z.predict(&ctx(), L, 1, 2, &mut act), 0);
        assert_eq!(o.predict(&ctx(), L, 1, 2, &mut act), 0x7f);
    }

    #[test]
    fn valhalla_broadcast_from_operands_and_history() {
        let mut act = PredictorActivity::default();
        let mut v = Predictor::from_config(&SpeculationConfig::valhalla());
        let top = 1u64 << 63;
        // Operand-determined cases: both MSbs high ⇒ 1s, both low ⇒ 0s.
        assert_eq!(v.predict(&ctx(), L, top | 1, top | 2, &mut act), 0x7f);
        assert_eq!(v.predict(&ctx(), L, 1, 2, &mut act), 0);
        // Mixed MSbs fall back to the per-thread history bit.
        assert_eq!(v.predict(&ctx(), L, top, 0, &mut act), 0, "cold history");
        v.update(&ctx(), L, 0x7f, true, &mut act);
        assert_eq!(v.predict(&ctx(), L, top, 0, &mut act), 0x7f, "learned 1");
        v.update(&ctx(), L, 0x01, true, &mut act);
        assert_eq!(v.predict(&ctx(), L, top, 0, &mut act), 0, "learned 0");
        // Histories are per thread:
        let other = OpContext { gtid: 99, ..ctx() };
        v.update(&ctx(), L, 0x7f, true, &mut act);
        assert_eq!(v.predict(&other, L, top, 0, &mut act), 0);
    }

    #[test]
    fn windowed_lookahead_generates() {
        // 0xff + 0x01 generates out of the low byte; window sees it.
        assert_eq!(windowed_lookahead(L, 0xff, 0x01, 8) & 1, 1);
        // 0x80 + 0x00 does not generate within the window.
        assert_eq!(windowed_lookahead(L, 0x80, 0x00, 8) & 1, 0);
        // Window of 1 bit: only a double-MSb generates (same as peek's
        // static-one case).
        assert_eq!(windowed_lookahead(L, 0x80, 0x80, 1) & 1, 1);
        assert_eq!(windowed_lookahead(L, 0x80, 0x7f, 1) & 1, 0);
    }

    #[test]
    fn prev_on_mispredict_update_policy() {
        let cfg = SpeculationConfig {
            pc_index: PcIndex::None,
            thread_key: ThreadKey::Shared,
            update: UpdatePolicy::OnMispredict,
            ..SpeculationConfig::prev()
        };
        let mut act = PredictorActivity::default();
        let mut p = Predictor::from_config(&cfg);
        p.update(&ctx(), L, 0x55, false, &mut act);
        assert_eq!(act.writes, 0, "correct prediction: no write-back");
        assert_eq!(p.predict(&ctx(), L, 0, 0, &mut act), 0, "table still cold");
        p.update(&ctx(), L, 0x55, true, &mut act);
        assert_eq!(act.writes, 1);
        assert_eq!(p.predict(&ctx(), L, 0, 0, &mut act), 0x55);
    }
}
