//! Deterministic synthetic input generation.
//!
//! All workload inputs are derived from seeded generators so every run of
//! every experiment is reproducible bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded generator for one workload (seed derives from the name so
/// workloads don't share streams).
#[must_use]
pub(crate) fn rng_for(name: &str) -> StdRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Uniform f32 values in `[lo, hi)`.
#[must_use]
pub(crate) fn f32_vec(rng: &mut StdRng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.random_range(lo..hi)).collect()
}

/// Uniform i32 values in `[lo, hi)`.
#[must_use]
pub(crate) fn i32_vec(rng: &mut StdRng, n: usize, lo: i32, hi: i32) -> Vec<i32> {
    (0..n).map(|_| rng.random_range(lo..hi)).collect()
}

/// A smooth "image-like" f32 field: low-frequency structure plus noise —
/// the gradually-evolving data that real stencil workloads see.
#[must_use]
pub(crate) fn smooth_field(rng: &mut StdRng, w: usize, h: usize, amplitude: f32) -> Vec<f32> {
    let mut v = Vec::with_capacity(w * h);
    let fx = rng.random_range(0.02..0.08f32);
    let fy = rng.random_range(0.02..0.08f32);
    for y in 0..h {
        for x in 0..w {
            let base = ((x as f32 * fx).sin() + (y as f32 * fy).cos() + 2.0) / 4.0;
            let noise: f32 = rng.random_range(-0.05..0.05);
            v.push((base + noise).max(0.0) * amplitude);
        }
    }
    v
}

/// A smooth integer field in `[0, max)` (e.g. pathfinder wall weights).
#[must_use]
pub(crate) fn smooth_i32_field(rng: &mut StdRng, w: usize, h: usize, max: i32) -> Vec<i32> {
    smooth_field(rng, w, h, max as f32)
        .into_iter()
        .map(|f| (f as i32).clamp(0, max - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_name() {
        let a: Vec<f32> = f32_vec(&mut rng_for("x"), 8, 0.0, 1.0);
        let b: Vec<f32> = f32_vec(&mut rng_for("x"), 8, 0.0, 1.0);
        let c: Vec<f32> = f32_vec(&mut rng_for("y"), 8, 0.0, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_respected() {
        let v = i32_vec(&mut rng_for("r"), 1000, -5, 10);
        assert!(v.iter().all(|&x| (-5..10).contains(&x)));
        let f = smooth_field(&mut rng_for("s"), 16, 16, 100.0);
        assert_eq!(f.len(), 256);
        assert!(f.iter().all(|&x| (0.0..=110.0).contains(&x)));
    }
}
