//! # The ST² GPU evaluation workloads
//!
//! Re-implementations of the paper's 23 evaluation kernels (18 workloads
//! from Rodinia, NVIDIA CUDA Samples and Parboil) as real algorithms in
//! the [`st2_isa`] mini-ISA, with deterministic synthetic inputs and CPU
//! reference checkers.
//!
//! The point of re-implementing the *actual algorithms* (rather than
//! stressing the adders with random numbers) is that the paper's whole
//! mechanism rests on spatio-temporal value correlation, which is born in
//! algorithmic structure: loop iterators, array indexing, accumulating
//! sums, gradually evolving data. Every kernel here produces the same
//! *kind* of operand stream the CUDA original would.
//!
//! Use [`suite::suite`] to obtain all 23 kernels, or a single module's
//! `build` for one workload:
//!
//! ```
//! use st2_kernels::{pathfinder, Scale};
//! let spec = pathfinder::build(Scale::Test);
//! assert_eq!(spec.name, "pathfinder");
//! assert!(spec.program.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub(crate) mod bprop;
pub mod btree;
pub(crate) mod data;
pub(crate) mod dct8x8;
pub(crate) mod dwt2d;
pub mod histogram;
pub mod kmeans;
pub mod mergesort;
pub mod mriq;
pub mod pathfinder;
pub mod qrng;
pub mod sad;
pub mod sgemm;
pub mod sobol;
pub mod sortnets;
pub(crate) mod spec;
pub(crate) mod sradv1;
pub mod suite;
pub mod walsh;

pub use spec::{BenchSuite, KernelSpec, Scale};
pub use suite::suite;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::KernelSpec;
    use st2_sim::{run_functional, FunctionalOptions};

    /// Runs a kernel functionally and applies its CPU reference checker.
    pub(crate) fn run_and_verify(spec: &KernelSpec) {
        let mut mem = spec.memory.clone();
        let out = run_functional(
            &spec.program,
            spec.launch,
            &mut mem,
            &FunctionalOptions::default(),
        );
        assert!(
            out.mix.total() > 0,
            "{}: kernel executed nothing",
            spec.name
        );
        if let Err(e) = spec.verify(&mem) {
            panic!("{} failed verification: {e}", spec.name);
        }
    }
}
