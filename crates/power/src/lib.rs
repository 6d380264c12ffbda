//! # GPUWattch-style power modelling for ST² GPU
//!
//! Reproduces the paper's §V-C methodology end to end:
//!
//! 1. A component-level power model
//!    `P_total = P_const + N_idleSM·P_idleSM + Σ P_i·Scale_i`  (Eq. 1)
//!    over the activity counters the simulator produces (`energy`,
//!    `model`).
//! 2. A suite of 123 micro-benchmark *stressors* that isolate individual
//!    components ([`micro`]).
//! 3. A synthetic "silicon" oracle standing in for NVML measurements of a
//!    TITAN V (`oracle`) — hidden true scale factors plus measurement
//!    noise.
//! 4. A least-squares solver that calibrates the scale factors from the
//!    stressors alone (`solver`, [`calibrate`]), then validates on the
//!    23-kernel suite, reporting mean absolute relative error and the
//!    Pearson correlation ([`validate`]) — the paper reports
//!    10.5 % ± 3.8 % and r ≈ 0.8.
//! 5. The Fig. 7 energy breakdowns ([`breakdown`]) and the §VI area/power
//!    overhead accounting ([`overheads`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod calibrate;
pub mod component;
pub(crate) mod energy;
pub mod micro;
pub(crate) mod model;
pub(crate) mod oracle;
pub mod overheads;
pub(crate) mod solver;
pub mod validate;

pub use breakdown::{KernelEnergy, SuiteSummary};
pub use component::{Component, NUM_COMPONENTS};
pub use energy::{ComponentEnergy, EnergyCoefficients, EnergyModel};
pub use model::PowerModel;
pub use oracle::SiliconOracle;
