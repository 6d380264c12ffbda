//! The full 23-kernel evaluation suite in the paper's Fig. 6 order.

use crate::spec::{KernelSpec, Scale};

/// Builds all 23 kernels at the given scale, in the paper's Fig. 6
/// left-to-right order.
#[must_use]
pub fn suite(scale: Scale) -> Vec<KernelSpec> {
    vec![
        crate::binomial::build(scale),
        crate::kmeans::build(scale),
        crate::sgemm::build(scale),
        crate::walsh::build_k1(scale),
        crate::mriq::build(scale),
        crate::bprop::build_k2(scale),
        crate::sradv1::build(scale),
        crate::pathfinder::build(scale),
        crate::dwt2d::build(scale),
        crate::sortnets::build_k1(scale),
        crate::qrng::build_k2(scale),
        crate::bprop::build_k1(scale),
        crate::btree::build_k1(scale),
        crate::histogram::build(scale),
        crate::dct8x8::build(scale),
        crate::btree::build_k2(scale),
        crate::mergesort::build_k1(scale),
        crate::walsh::build_k2(scale),
        crate::sortnets::build_k2(scale),
        crate::qrng::build_k1(scale),
        crate::mergesort::build_k2(scale),
        crate::sobol::build(scale),
        crate::sad::build(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_23_unique_kernels() {
        let s = suite(Scale::Test);
        assert_eq!(s.len(), 23);
        let mut names: Vec<&str> = s.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 23, "duplicate kernel names");
    }

    #[test]
    fn all_programs_validate() {
        for spec in suite(Scale::Test) {
            assert!(
                spec.program.validate().is_ok(),
                "{} failed validation",
                spec.name
            );
            assert!(spec.launch.total_threads() > 0);
            assert!(!spec.memory.is_empty());
        }
    }

    #[test]
    fn suite_covers_all_three_benchmarks() {
        use crate::spec::BenchSuite::*;
        let s = suite(Scale::Test);
        for b in [Rodinia, CudaSamples, Parboil] {
            assert!(s.iter().any(|k| k.suite == b), "missing {b:?}");
        }
    }

    #[test]
    fn whole_suite_runs_and_verifies() {
        for spec in suite(Scale::Test) {
            crate::testutil::run_and_verify(&spec);
        }
    }
}
