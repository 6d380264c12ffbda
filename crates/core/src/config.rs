//! Configuration of the carry speculation mechanism.
//!
//! The paper arrives at its final design — `Ltid+Prev+ModPC4+Peek` — through
//! a design-space exploration along three axes (Fig. 5): the *spatial* axis
//! (how many PC bits disambiguate instructions), the *temporal* axis (what
//! history is kept), and *thread sharing* (whether threads share history).
//! [`SpeculationConfig`] spans that whole space plus the static and
//! VaLHALLA-style baselines.

use crate::bits::SliceLayout;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the prediction bits for the slice carry-ins are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictorKind {
    /// Always predict carry-in 0 for every boundary (`staticZero`).
    StaticZero,
    /// Always predict carry-in 1 for every boundary (`staticOne`).
    StaticOne,
    /// VaLHALLA-style: a single history-derived bit broadcast to *all*
    /// slices, speculated on every operation.
    ///
    /// The exact VaLHALLA table is described in a separate GLSVLSI'17 paper;
    /// following the ST² paper's characterisation we model it as a 1-bit
    /// per-adder history register (the majority boundary carry of the
    /// previous addition) broadcast to every slice.
    Valhalla,
    /// CASA/VLSA-style windowed lookahead: predict each boundary carry from
    /// the previous `window` operand bits, assuming no carry enters the
    /// window. Stateless (purely operand-derived).
    Windowed {
        /// Number of operand bits inspected below each boundary.
        window: u8,
    },
    /// The ST² `Prev` mechanism: per-slice carry-outs of the previous
    /// execution, stored in a history table keyed per [`PcIndex`] and
    /// [`ThreadKey`].
    Prev,
}

/// How the program counter participates in the history-table index
/// (the *spatial* axis of the design space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PcIndex {
    /// PC is ignored: consecutive additions alias regardless of code
    /// location (the bare `Prev` design).
    None,
    /// The low `k` bits of the PC index the table (`ModPCk`). The paper's
    /// sweet spot is `k = 4`, giving the 16-entry Carry Register File.
    ModPc(u8),
    /// XOR-fold of the full PC into `k` bits. The paper notes this more
    /// complex hash "provides no additional benefits"; we implement it to
    /// measure that claim.
    XorFold(u8),
    /// The full PC (an idealised, unimplementably large table).
    Full,
}

/// How the executing thread participates in the history-table index
/// (the *thread sharing* axis of the design space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ThreadKey {
    /// All threads share one history entry per PC index. Interference may
    /// be constructive (threads prefetch carries for each other) or
    /// destructive.
    #[default]
    Shared,
    /// Fully disambiguated by global thread id (`Gtid+...`): no sharing.
    /// The paper finds this fares *worse* — sharing is beneficial — and it
    /// would need an impractically large table (11 Gtid bits + 4 PC bits).
    Gtid,
    /// Keyed by the warp-local lane id 0‥31 (`Ltid+...`): threads in the
    /// same lane of *different* warps share history. The paper's final
    /// choice.
    Ltid,
}

/// Which slices re-execute in the second cycle after a misprediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RecomputePolicy {
    /// The error wave stops at slices whose carry-in is *statically
    /// guaranteed* by Peek: such a slice's first-cycle result is already
    /// correct and it shields everything above it. This matches the paper's
    /// measured 1.94 average recomputed slices per misprediction.
    #[default]
    CutAtStaticPeek,
    /// A literal reading of the E/S error-propagation chain of Fig. 4:
    /// every slice at or above the first error recomputes.
    PropagateToTop,
}

/// When the history table is written back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum UpdatePolicy {
    /// Only threads that mispredicted write their new carry-outs back
    /// (the paper's CRF write-back rule, saving write energy).
    #[default]
    OnMispredict,
    /// Write back after every operation (an idealised ablation).
    Always,
}

/// A full carry-speculation design point.
///
/// ```
/// use st2_core::SpeculationConfig;
/// let cfg = SpeculationConfig::st2();
/// assert_eq!(cfg.label(), "Ltid+Prev+ModPC4+Peek");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpeculationConfig {
    /// The prediction source.
    pub predictor: PredictorKind,
    /// Spatial (PC) part of the history index. Ignored unless
    /// `predictor == Prev`.
    pub pc_index: PcIndex,
    /// Thread part of the history index. Ignored unless `predictor == Prev`.
    pub thread_key: ThreadKey,
    /// Whether the static Peek mechanism overrides dynamic speculation when
    /// the neighbouring operand MSbs already determine the carry.
    pub peek: bool,
    /// Recompute-wave semantics after a misprediction.
    pub recompute: RecomputePolicy,
    /// History write-back policy.
    pub update: UpdatePolicy,
    /// History depth (number of past executions remembered; the prediction
    /// uses the per-bit majority of the retained entries). The paper's
    /// design keeps depth 1; deeper histories are an ablation.
    pub history_depth: u8,
}

impl SpeculationConfig {
    /// The paper's final ST² design: `Ltid+Prev+ModPC4+Peek`.
    #[must_use]
    pub fn st2() -> Self {
        SpeculationConfig {
            predictor: PredictorKind::Prev,
            pc_index: PcIndex::ModPc(4),
            thread_key: ThreadKey::Ltid,
            peek: true,
            recompute: RecomputePolicy::CutAtStaticPeek,
            update: UpdatePolicy::OnMispredict,
            history_depth: 1,
        }
    }

    /// The `staticZero` baseline.
    #[must_use]
    pub fn static_zero() -> Self {
        SpeculationConfig {
            predictor: PredictorKind::StaticZero,
            ..Self::bare()
        }
    }

    /// The `staticOne` baseline.
    #[must_use]
    pub fn static_one() -> Self {
        SpeculationConfig {
            predictor: PredictorKind::StaticOne,
            ..Self::bare()
        }
    }

    /// The VaLHALLA baseline (single broadcast prediction, no Peek).
    #[must_use]
    pub fn valhalla() -> Self {
        SpeculationConfig {
            predictor: PredictorKind::Valhalla,
            ..Self::bare()
        }
    }

    /// VaLHALLA retrofitted with the Peek mechanism.
    #[must_use]
    pub fn valhalla_peek() -> Self {
        SpeculationConfig {
            predictor: PredictorKind::Valhalla,
            peek: true,
            ..Self::bare()
        }
    }

    /// Bare `Prev` (no PC index, shared across threads, no Peek).
    #[must_use]
    pub fn prev() -> Self {
        SpeculationConfig {
            predictor: PredictorKind::Prev,
            ..Self::bare()
        }
    }

    /// `Prev+Peek`.
    #[must_use]
    pub fn prev_peek() -> Self {
        SpeculationConfig {
            peek: true,
            ..Self::prev()
        }
    }

    /// `Prev+ModPCk+Peek` for a given number of PC bits.
    #[must_use]
    pub fn prev_modpc_peek(k: u8) -> Self {
        SpeculationConfig {
            pc_index: PcIndex::ModPc(k),
            ..Self::prev_peek()
        }
    }

    /// `Gtid+Prev+ModPC4+Peek` (full thread disambiguation — the design the
    /// paper shows fares significantly worse).
    #[must_use]
    pub fn gtid_prev_modpc4_peek() -> Self {
        SpeculationConfig {
            thread_key: ThreadKey::Gtid,
            ..Self::prev_modpc_peek(4)
        }
    }

    /// `Ltid+Prev+ModPC4+XOR+Peek`: the XOR-folded variant the paper reports
    /// as providing no additional benefit.
    #[must_use]
    pub fn xor_hash() -> Self {
        SpeculationConfig {
            pc_index: PcIndex::XorFold(4),
            ..Self::st2()
        }
    }

    fn bare() -> Self {
        SpeculationConfig {
            predictor: PredictorKind::StaticZero,
            pc_index: PcIndex::None,
            thread_key: ThreadKey::Shared,
            peek: false,
            recompute: RecomputePolicy::CutAtStaticPeek,
            update: UpdatePolicy::OnMispredict,
            history_depth: 1,
        }
    }

    /// A short human-readable label matching the paper's Fig. 5 x-axis.
    ///
    /// The paper's design points all use the default update and recompute
    /// policies; the others append `+WrAlways` and `+RecTop`, so no two
    /// configurations that differ only in policy share a label.
    #[must_use]
    pub fn label(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        match self.predictor {
            PredictorKind::StaticZero => parts.push("staticZero".into()),
            PredictorKind::StaticOne => parts.push("staticOne".into()),
            PredictorKind::Valhalla => parts.push("VaLHALLA".into()),
            PredictorKind::Windowed { window } => parts.push(format!("Window{window}")),
            PredictorKind::Prev => {
                match self.thread_key {
                    ThreadKey::Shared => {}
                    ThreadKey::Gtid => parts.push("Gtid".into()),
                    ThreadKey::Ltid => parts.push("Ltid".into()),
                }
                parts.push("Prev".into());
                match self.pc_index {
                    PcIndex::None => {}
                    PcIndex::ModPc(k) => parts.push(format!("ModPC{k}")),
                    PcIndex::XorFold(k) => parts.push(format!("XorPC{k}")),
                    PcIndex::Full => parts.push("FullPC".into()),
                }
                if self.history_depth > 1 {
                    parts.push(format!("Depth{}", self.history_depth));
                }
            }
        }
        if self.peek {
            parts.push("Peek".into());
        }
        if self.update == UpdatePolicy::Always {
            parts.push("WrAlways".into());
        }
        if self.recompute == RecomputePolicy::PropagateToTop {
            parts.push("RecTop".into());
        }
        parts.join("+")
    }

    /// Number of distinct history-table entries this configuration needs for
    /// `threads` hardware threads, or `None` for unbounded (FullPC) designs.
    ///
    /// Used to reason about implementability: the paper notes
    /// `Gtid+Prev+ModPC4+Peek` needs a 15-bit index (2048 threads/SM × 16 PC
    /// slots) while the Ltid design needs only 16 × 32 lanes.
    #[must_use]
    pub fn table_entries(&self, threads: u32, layout: SliceLayout) -> Option<u64> {
        let _ = layout;
        if self.predictor != PredictorKind::Prev {
            return Some(0);
        }
        let pc_slots = match self.pc_index {
            PcIndex::None => 1u64,
            PcIndex::ModPc(k) | PcIndex::XorFold(k) => 1u64 << k,
            PcIndex::Full => return None,
        };
        let thread_slots = match self.thread_key {
            ThreadKey::Shared => 1u64,
            ThreadKey::Gtid => u64::from(threads),
            ThreadKey::Ltid => 32,
        };
        Some(pc_slots * thread_slots)
    }
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        Self::st2()
    }
}

impl fmt::Display for SpeculationConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(SpeculationConfig::static_zero().label(), "staticZero");
        assert_eq!(SpeculationConfig::valhalla().label(), "VaLHALLA");
        assert_eq!(SpeculationConfig::valhalla_peek().label(), "VaLHALLA+Peek");
        assert_eq!(SpeculationConfig::prev().label(), "Prev");
        assert_eq!(SpeculationConfig::prev_peek().label(), "Prev+Peek");
        assert_eq!(
            SpeculationConfig::prev_modpc_peek(4).label(),
            "Prev+ModPC4+Peek"
        );
        assert_eq!(
            SpeculationConfig::gtid_prev_modpc4_peek().label(),
            "Gtid+Prev+ModPC4+Peek"
        );
        assert_eq!(SpeculationConfig::st2().label(), "Ltid+Prev+ModPC4+Peek");
        assert_eq!(
            SpeculationConfig::xor_hash().label(),
            "Ltid+Prev+XorPC4+Peek"
        );
    }

    #[test]
    fn non_default_policies_get_label_suffixes() {
        let st2 = SpeculationConfig::st2();
        let always = SpeculationConfig {
            update: UpdatePolicy::Always,
            ..st2
        };
        let top = SpeculationConfig {
            recompute: RecomputePolicy::PropagateToTop,
            ..st2
        };
        assert_eq!(always.label(), "Ltid+Prev+ModPC4+Peek+WrAlways");
        assert_eq!(top.label(), "Ltid+Prev+ModPC4+Peek+RecTop");
        assert_eq!(
            SpeculationConfig {
                recompute: RecomputePolicy::PropagateToTop,
                ..always
            }
            .label(),
            "Ltid+Prev+ModPC4+Peek+WrAlways+RecTop"
        );
    }

    #[test]
    fn table_sizes() {
        let l = SliceLayout::INT64;
        // Ltid+ModPC4: 16 PC slots x 32 lanes = 512 entries (the CRF holds
        // these as 16 rows x 32 lanes x 7 bits = 448 bytes).
        assert_eq!(SpeculationConfig::st2().table_entries(2048, l), Some(512));
        // Gtid needs 2048 x 16 = 32768 entries.
        assert_eq!(
            SpeculationConfig::gtid_prev_modpc4_peek().table_entries(2048, l),
            Some(32768)
        );
        assert_eq!(
            SpeculationConfig {
                pc_index: PcIndex::Full,
                ..SpeculationConfig::st2()
            }
            .table_entries(2048, l),
            None
        );
        assert_eq!(
            SpeculationConfig::static_zero().table_entries(2048, l),
            Some(0)
        );
    }
}
