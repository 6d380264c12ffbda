//! # ST² speculative adders
//!
//! This crate is the primary contribution of the DAC 2021 paper
//! *"ST² GPU: An Energy-Efficient GPU Design with Spatio-Temporal
//! Shared-Thread Speculative Adders"* (Kandiah, Gok, Tziantzioulis,
//! Hardavellas), reproduced from scratch in Rust.
//!
//! A **speculative adder** splits a wide adder into narrow slices that run in
//! parallel at a scaled-down supply voltage, breaking the carry chain. Each
//! slice's carry-in is *predicted*; at the end of the nominal cycle every
//! slice compares its prediction against the carry-out its neighbour actually
//! produced, and mispredicted slices take one extra cycle to recompute with
//! the inverted carry (a carry-select-style correction), so **results are
//! always correct** in at most two cycles.
//!
//! The ST² design predicts carries from the *spatio-temporal history* of the
//! program: the carry pattern an instruction produced the last time it
//! executed (indexed by PC bits — the spatial axis) by any thread in the same
//! warp lane (the shared-thread axis), with a static *Peek* fast path that
//! skips speculation entirely whenever the neighbouring operand bits already
//! determine the carry.
//!
//! ## Quick example
//!
//! ```
//! use st2_core::{OpContext, SliceLayout, SpeculationConfig, SpeculativeAdder};
//!
//! // The paper's final design point: Ltid+Prev+ModPC4+Peek.
//! let mut adder = SpeculativeAdder::st2();
//! let ctx = OpContext { pc: 7, gtid: 0, ltid: 0 };
//! for i in 0..100u64 {
//!     let out = adder.add(&ctx, SliceLayout::INT64, i * 3, i * 5, false);
//!     assert_eq!(out.sum, (i * 3).wrapping_add(i * 5));
//! }
//! // After warm-up, the loop's carry pattern is fully predicted.
//! assert!(adder.stats().misprediction_rate() < 0.2);
//! # let _ = SpeculationConfig::st2();
//! ```
//!
//! ## Module map
//!
//! - [`bits`] — slice layouts and carry-chain arithmetic
//! - [`slice`](mod@slice) — the cycle-accurate slice engine (detect / recompute / select)
//! - [`adder`] — [`SpeculativeAdder`]: predictor + peek + slice engine
//! - [`predictor`] — carry predictors (static, VaLHALLA, windowed, history)
//! - [`history`] — the Prev history table with ModPC-k / XOR-fold / Gtid / Ltid keying
//! - [`peek`] — the static Peek mechanism
//! - [`crf`] — the Carry Register File (16 × 224-bit, the paper's Fig. 4)
//! - [`float`] — FP32/FP64 mantissa-operand extraction for FPU/DPU adders
//! - [`event`] — portable add-event records consumed by analyses
//! - [`sink`] — the [`EventSink`] observer trait higher layers hook into
//! - [`dse`] — the design-space exploration of the paper's Fig. 3 and Fig. 5
//! - `stats` — misprediction and activity statistics

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder;
pub mod bits;
pub mod crf;
pub mod dse;
pub mod event;
pub mod float;
pub mod history;
pub mod peek;
pub mod predictor;
#[cfg(test)]
mod reference;
pub mod sink;
pub mod slice;
pub(crate) mod stats;

mod config;

pub use adder::{AddOutcome, SpeculativeAdder};
pub use bits::SliceLayout;
pub use config::{
    PcIndex, PredictorKind, RecomputePolicy, SpeculationConfig, ThreadKey, UpdatePolicy,
};
pub use crf::CarryRegisterFile;
pub use event::{AddRecord, LaneAdd, OpContext, WidthClass};
pub use sink::{EventSink, NullSink};
pub use stats::AdderStats;
