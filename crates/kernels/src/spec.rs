//! Kernel specifications: a program, its launch geometry, initialised
//! memory, and a CPU reference checker.

use st2_isa::{LaunchConfig, MemImage, Program};
use std::fmt;
use std::sync::Arc;

/// Which benchmark suite a kernel comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchSuite {
    /// Rodinia.
    Rodinia,
    /// NVIDIA CUDA Samples.
    CudaSamples,
    /// Parboil.
    Parboil,
}

impl fmt::Display for BenchSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchSuite::Rodinia => f.write_str("Rodinia"),
            BenchSuite::CudaSamples => f.write_str("CUDA Samples"),
            BenchSuite::Parboil => f.write_str("Parboil"),
        }
    }
}

/// Input scale: tests use tiny inputs, the reproduction harness uses the
/// full configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Small inputs for unit tests (sub-second functional runs).
    Test,
    /// The harness configuration ("largest available input" in spirit,
    /// sized so the whole 23-kernel suite simulates in minutes).
    #[default]
    Full,
}

impl Scale {
    /// A multiplicative size knob (kernels interpret it appropriately).
    #[must_use]
    pub(crate) fn factor(self) -> u32 {
        match self {
            Scale::Test => 1,
            Scale::Full => 4,
        }
    }
}

/// Post-run output checker against a CPU reference.
pub(crate) type Checker = Arc<dyn Fn(&MemImage) -> Result<(), String> + Send + Sync>;

/// One runnable kernel with everything needed to execute and verify it.
#[derive(Clone)]
pub struct KernelSpec {
    /// The paper's kernel label (e.g. `"pathfinder"`, `"msort_K2"`).
    pub name: &'static str,
    /// Source benchmark suite.
    pub(crate) suite: BenchSuite,
    /// The program.
    pub program: Program,
    /// Launch geometry.
    pub launch: LaunchConfig,
    /// Initialised device memory (inputs laid out by the builder).
    pub memory: MemImage,
    /// CPU reference checker, run against post-execution memory.
    pub(crate) check: Option<Checker>,
}

impl fmt::Debug for KernelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelSpec")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("insts", &self.program.len())
            .field("launch", &self.launch)
            .field("memory_bytes", &self.memory.len())
            .finish()
    }
}

impl KernelSpec {
    /// Runs the checker against `memory` (post-execution).
    ///
    /// # Errors
    ///
    /// Returns the checker's message if verification fails.
    pub fn verify(&self, memory: &MemImage) -> Result<(), String> {
        match &self.check {
            Some(c) => c(memory),
            None => Ok(()),
        }
    }
}

/// Compares an f32 region of memory against expected values.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub(crate) fn check_f32_region(
    mem: &MemImage,
    base: u64,
    expect: &[f32],
    tol: f32,
) -> Result<(), String> {
    for (i, &e) in expect.iter().enumerate() {
        let got = mem.read_f32(base + i as u64 * 4);
        let err = (got - e).abs();
        let bound = tol * e.abs().max(1.0);
        // `err > bound || err.is_nan()` rather than `!(err <= bound)`:
        // a NaN output must fail loudly.
        if err > bound || err.is_nan() {
            return Err(format!("f32[{i}] = {got}, expected {e} (±{bound})"));
        }
    }
    Ok(())
}

/// Compares an i32 region of memory against expected values.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub(crate) fn check_i32_region(mem: &MemImage, base: u64, expect: &[i64]) -> Result<(), String> {
    for (i, &e) in expect.iter().enumerate() {
        let got = mem.read_i32_sext(base + i as u64 * 4);
        if got != e {
            return Err(format!("i32[{i}] = {got}, expected {e}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use st2_isa::KernelBuilder;

    #[test]
    fn verify_without_checker_passes() {
        let spec = KernelSpec {
            name: "t",
            suite: BenchSuite::Rodinia,
            program: KernelBuilder::new("t").finish(),
            launch: LaunchConfig::new(1, 32),
            memory: MemImage::new(8),
            check: None,
        };
        assert!(spec.verify(&spec.memory).is_ok());
    }

    #[test]
    fn f32_region_checker() {
        let m = MemImage::from_f32(&[1.0, 2.0]);
        assert!(check_f32_region(&m, 0, &[1.0, 2.0], 1e-6).is_ok());
        assert!(check_f32_region(&m, 0, &[1.0, 2.5], 1e-6).is_err());
    }

    #[test]
    fn i32_region_checker() {
        let m = MemImage::from_i32(&[3, -4]);
        assert!(check_i32_region(&m, 0, &[3, -4]).is_ok());
        assert!(check_i32_region(&m, 0, &[3, 4]).is_err());
    }

    #[test]
    fn scale_factors() {
        assert_eq!(Scale::Test.factor(), 1);
        assert!(Scale::Full.factor() > Scale::Test.factor());
    }
}
