//! Typed memory images for global and shared memory.

use serde::{Deserialize, Serialize};

/// A byte-addressed memory image with typed accessors.
///
/// Out-of-range accesses panic: in this reproduction an OOB access is a
/// kernel bug that should fail loudly in tests, not corrupt results.
///
/// ```
/// use st2_isa::MemImage;
/// let mut m = MemImage::new(64);
/// m.write_f32(8, 2.5);
/// assert_eq!(m.read_f32(8), 2.5);
/// m.write_u64(16, u64::MAX);
/// assert_eq!(m.read_u64(16), u64::MAX);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemImage {
    data: Vec<u8>,
}

impl MemImage {
    /// A zero-filled image of `bytes` bytes.
    #[must_use]
    pub fn new(bytes: u64) -> Self {
        MemImage {
            data: vec![0; bytes as usize],
        }
    }

    /// Builds an image holding a slice of f32 values.
    #[must_use]
    pub fn from_f32(values: &[f32]) -> Self {
        let mut m = MemImage::new(values.len() as u64 * 4);
        for (i, &v) in values.iter().enumerate() {
            m.write_f32(i as u64 * 4, v);
        }
        m
    }

    /// Builds an image holding a slice of i32 values (stored as 4-byte).
    #[must_use]
    pub fn from_i32(values: &[i32]) -> Self {
        let mut m = MemImage::new(values.len() as u64 * 4);
        for (i, &v) in values.iter().enumerate() {
            m.write_u32(i as u64 * 4, v as u32);
        }
        m
    }

    /// Size in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// Whether the image is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Grows the image to at least `bytes` (zero-filled).
    pub fn ensure_len(&mut self, bytes: u64) {
        if bytes as usize > self.data.len() {
            self.data.resize(bytes as usize, 0);
        }
    }

    /// Reads 4 bytes (little-endian).
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.data[a..a + 4].try_into().expect("4-byte slice"))
    }

    /// Writes 4 bytes.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        let a = addr as usize;
        self.data[a..a + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads 8 bytes.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let a = addr as usize;
        u64::from_le_bytes(self.data[a..a + 8].try_into().expect("8-byte slice"))
    }

    /// Writes 8 bytes.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        let a = addr as usize;
        self.data[a..a + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads an f32.
    #[must_use]
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an f32.
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Reads an f64.
    #[must_use]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an f64.
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Reads a 4-byte value sign-extended to i64 (the common "i32 in
    /// memory" case for kernels with 64-bit registers).
    #[must_use]
    pub fn read_i32_sext(&self, addr: u64) -> i64 {
        i64::from(self.read_u32(addr) as i32)
    }

    /// The raw bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut m = MemImage::new(32);
        m.write_u32(0, 0xdead_beef);
        assert_eq!(m.read_u32(0), 0xdead_beef);
        m.write_f64(8, -1.25e100);
        assert_eq!(m.read_f64(8), -1.25e100);
        m.write_u32(4, u32::MAX);
        assert_eq!(m.read_i32_sext(4), -1);
    }

    #[test]
    fn from_slices() {
        let m = MemImage::from_f32(&[1.0, 2.0, 3.5]);
        let floats: Vec<f32> = (0..3).map(|i| m.read_f32(4 * i)).collect();
        assert_eq!(floats, vec![1.0, 2.0, 3.5]);
        let m = MemImage::from_i32(&[-5, 7]);
        assert_eq!([m.read_i32_sext(0), m.read_i32_sext(4)], [-5, 7]);
    }

    #[test]
    fn ensure_len_grows_only() {
        let mut m = MemImage::new(8);
        m.ensure_len(4);
        assert_eq!(m.len(), 8);
        m.ensure_len(100);
        assert_eq!(m.len(), 100);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let m = MemImage::new(4);
        let _ = m.read_u64(0);
    }
}
