//! # Gate-level circuit substrate for ST² adders
//!
//! The paper characterises its adders with a commercial flow (Synopsys
//! Design Compiler / IC Compiler / VCS-MX / HSpice on the SAED 90 nm
//! library). This crate rebuilds the *methodology* from scratch:
//!
//! 1. **Netlists** of primitive gates (`netlist`, [`builder`]) for the
//!    reference adder (a lookahead design standing in for the DesignWare
//!    balanced adder), ripple slices, and carry-select compositions.
//! 2. **Event-driven unit-delay simulation** ([`sim`]) that counts every
//!    output transition — including glitches from late-arriving carries,
//!    which is where sliced adders save switching energy beyond the
//!    voltage scaling itself.
//! 3. **Voltage/delay/energy models** (`volt`): alpha-power-law delay
//!    scaling and `C·V²` switching energy, used to find the lowest supply
//!    voltage at which a slice still fits in the nominal clock period.
//! 4. **Characterisation** ([`characterize`]): the slice-bitwidth
//!    design-space exploration of §V-B (8-bit slices ⇒ Vdd ≈ 60 % of
//!    nominal ⇒ 75–87 % per-adder energy-saving potential) and the energy
//!    coefficients consumed by the `st2-power` model.
//! 5. **Level shifters** ([`shifter`]): the area/energy/delay overhead
//!    model of §VI using the constants the paper cites.
//!
//! ```
//! use st2_circuit::{builder, characterize::Characterizer};
//! let ch = Characterizer::default_90nm();
//! let reference = builder::reference_adder(64);
//! let period = ch.critical_delay_ps(&reference);
//! let ref_energy = ch.energy_per_op_fj(&reference, 64, 1.0);
//! let point = ch.slice_point(8, period, ref_energy);
//! assert!(point.vmin_frac < 0.8, "an 8-bit slice must scale well below nominal");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod characterize;
pub(crate) mod netlist;
pub mod shifter;
pub mod sim;
pub(crate) mod volt;

pub use characterize::{AdderEnergyTable, Characterizer, SlicePoint};
// Named here so that the builders' public return type can be written.
pub use netlist::Netlist;
pub use shifter::LevelShifterModel;
pub use volt::VoltageModel;
