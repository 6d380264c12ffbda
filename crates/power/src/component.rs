//! The component taxonomy of the paper's Fig. 7 energy breakdown.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One energy component (the Fig. 7 legend, bottom-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Component {
    /// ALU + FPU + DPU execution (adds/subs and simple operations) — the
    /// component ST² attacks.
    AluFpu,
    /// Integer multiply/divide units.
    IntMulDiv,
    /// FP multiply/divide units.
    FpMulDiv,
    /// Special function units.
    Sfu,
    /// Register file.
    RegFile,
    /// Caches and memory controllers.
    CachesMc,
    /// Network-on-chip.
    Noc,
    /// Off-chip DRAM.
    Dram,
    /// Everything else: fetch/decode/issue, pipeline registers, constant
    /// and idle power.
    Others,
}

/// Number of components.
pub const NUM_COMPONENTS: usize = 9;

/// All components, Fig. 7 stacking order.
#[must_use]
pub fn all_components() -> [Component; NUM_COMPONENTS] {
    [
        Component::AluFpu,
        Component::IntMulDiv,
        Component::FpMulDiv,
        Component::Sfu,
        Component::RegFile,
        Component::CachesMc,
        Component::Noc,
        Component::Dram,
        Component::Others,
    ]
}

/// Dense index of a component.
#[must_use]
pub(crate) fn component_index(c: Component) -> usize {
    match c {
        Component::AluFpu => 0,
        Component::IntMulDiv => 1,
        Component::FpMulDiv => 2,
        Component::Sfu => 3,
        Component::RegFile => 4,
        Component::CachesMc => 5,
        Component::Noc => 6,
        Component::Dram => 7,
        Component::Others => 8,
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Component::AluFpu => "ALU+FPU",
            Component::IntMulDiv => "int Mul/Div",
            Component::FpMulDiv => "fp Mul/Div",
            Component::Sfu => "SFU",
            Component::RegFile => "RegFile",
            Component::CachesMc => "Caches+MC",
            Component::Noc => "NoC",
            Component::Dram => "DRAM",
            Component::Others => "Others",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_a_permutation() {
        let mut seen = [false; NUM_COMPONENTS];
        for c in all_components() {
            let i = component_index(c);
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn display_matches_paper_legend() {
        assert_eq!(Component::AluFpu.to_string(), "ALU+FPU");
        assert_eq!(Component::CachesMc.to_string(), "Caches+MC");
    }
}
