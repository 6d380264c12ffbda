//! # Cycle-level SIMT GPU simulator (GPGPU-Sim substitute)
//!
//! Executes kernels written in the [`st2_isa`] mini-ISA on a Volta-like
//! GPU model: streaming multiprocessors with resident warps, a
//! greedy-then-oldest scheduler, a register scoreboard, functional-unit
//! pools (ALU / FPU / DPU / SFU / LD-ST / MUL-DIV), an L1/L2/DRAM memory
//! hierarchy with warp-level coalescing, and — the point of the exercise —
//! **ST² variable-latency speculative adders** wired into the execute
//! stage with a per-SM Carry Register File.
//!
//! Two execution modes share one functional core ([`exec`]):
//!
//! * [`engine::run_functional`] — fast warp-lockstep execution producing
//!   dynamic instruction mixes (Fig. 1), [`st2_core::AddRecord`] streams
//!   for the design-space exploration (Figs. 3 and 5), and value traces
//!   (Fig. 2).
//! * [`timed::run_timed`] — a cycle-level model producing execution time
//!   (the §VI performance-overhead study) and the per-component activity
//!   counts the power model consumes (Fig. 7).
//!
//! The timed mode is layered: [`sm::SmCore`] is a self-contained per-SM
//! core (scheduler, scoreboard, pipes, ST² speculation) that reaches the
//! cache hierarchy only through a [`memory::RequestQueue`]; [`timed`] is
//! the driver that owns block dispatch, the shared
//! [`memory::MemoryHierarchy`] (sharded into [`memory::Partition`] banks
//! by [`addrdec::AddressDecoder`]), and the global clock. One loop steps
//! every core in SM-index order, then serves the queued memory
//! transactions in (SM-index, issue) order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addrdec;
pub mod config;
pub mod engine;
pub mod exec;
pub mod memory;
pub mod simt;
pub mod sm;
pub mod stats;
pub mod timed;
pub mod trace;

pub use addrdec::AddressDecoder;
pub use config::{GpuConfig, SchedulerKind};
pub use engine::{run_functional, run_functional_with, FunctionalOptions, FunctionalOutput};
pub use memory::RequestQueue;
pub use sm::{CycleReport, SmCore};
pub use stats::{ActivityCounters, InstMix, SimStats};
pub use timed::{run_timed, run_timed_lockstep, run_timed_with, RunOptions, TimedOutput};
pub use trace::ValueTrace;
