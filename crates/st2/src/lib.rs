//! # ST² GPU — the facade crate
//!
//! One dependency that pulls in the whole reproduction of *"ST² GPU: An
//! Energy-Efficient GPU Design with Spatio-Temporal Shared-Thread
//! Speculative Adders"* (DAC 2021):
//!
//! | Crate | Role |
//! |---|---|
//! | [`core`] ([`st2_core`]) | ST² speculative adders, carry predictors, the CRF |
//! | [`circuit`] ([`st2_circuit`]) | gate-level netlists, voltage scaling, characterisation |
//! | [`isa`] ([`st2_isa`]) | the mini SIMT ISA and kernel-builder DSL |
//! | [`kernels`] ([`st2_kernels`]) | the 23 evaluation kernels |
//! | [`sim`] ([`st2_sim`]) | the cycle-level GPU simulator |
//! | [`power`] ([`st2_power`]) | the GPUWattch-style power model |
//! | [`telemetry`] ([`st2_telemetry`]) | cycle-level tracing, metrics, Chrome-trace/JSONL export |
//!
//! ## Quickstart
//!
//! ```
//! use st2::prelude::*;
//!
//! // Run a kernel on the simulated GPU with ST² adders:
//! let spec = st2::kernels::pathfinder::build(Scale::Test);
//! let mut mem = spec.memory.clone();
//! let out = run_functional(&spec.program, spec.launch, &mut mem,
//!                          &FunctionalOptions::default());
//! assert!(spec.verify(&mem).is_ok());
//! assert!(out.mix.total() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use st2_circuit as circuit;
pub use st2_core as core;
pub use st2_isa as isa;
pub use st2_kernels as kernels;
pub use st2_power as power;
pub use st2_sim as sim;
pub use st2_telemetry as telemetry;

/// The most common imports for using the reproduction.
pub mod prelude {
    pub use st2_core::{
        AddRecord, AdderStats, CarryRegisterFile, OpContext, SliceLayout, SpeculationConfig,
        SpeculativeAdder, WidthClass,
    };
    pub use st2_isa::{KernelBuilder, LaunchConfig, MemImage, Operand, Program, Special};
    pub use st2_kernels::{suite, BenchSuite, KernelSpec, Scale};
    pub use st2_power::{Component, EnergyModel, KernelEnergy, PowerModel, SiliconOracle};
    pub use st2_sim::{
        run_functional, run_functional_with, run_timed, run_timed_with, FunctionalOptions,
        GpuConfig, RunOptions, SchedulerKind, TimedOutput, ValueTrace,
    };
    pub use st2_telemetry::{KernelProfile, StallReason, Telemetry, TelemetryConfig};
}
