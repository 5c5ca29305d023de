//! Dense tensors and exact integer storage for reference execution.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// A dense row-major tensor of `i64` elements.
///
/// The reference executor works over exact integers (think INT16 inputs with
/// a wide accumulator, which is what the paper's ASIC evaluation uses); this
/// lets generated-hardware validation demand bit-exact equality instead of a
/// floating-point tolerance.
///
/// # Examples
///
/// ```
/// use tensorlib_ir::DenseTensor;
/// let mut t = DenseTensor::zeros(&[2, 3]);
/// t.set(&[1, 2], 7);
/// assert_eq!(t.get(&[1, 2]), 7);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct DenseTensor {
    dims: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<i64>,
}

impl DenseTensor {
    /// Creates a zero-filled tensor with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any dimension is zero.
    pub fn zeros(dims: &[usize]) -> DenseTensor {
        assert!(!dims.is_empty(), "tensor must have at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "tensor dimensions must be positive");
        let mut strides = vec![1usize; dims.len()];
        for d in (0..dims.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * dims[d + 1];
        }
        DenseTensor {
            strides,
            data: vec![0; dims.iter().product()],
            dims: dims.to_vec(),
        }
    }

    /// Creates a tensor filled with small pseudo-random values from a seeded
    /// generator. Deterministic for a given seed.
    ///
    /// Values are drawn from `-8..=8` — small enough that even triple-product
    /// kernels (MTTKRP, TTMc) with long reductions stay far from `i64`
    /// overflow.
    pub fn random(dims: &[usize], seed: u64) -> DenseTensor {
        let mut t = DenseTensor::zeros(dims);
        let mut rng = SmallRng::seed_from_u64(seed);
        for v in &mut t.data {
            *v = rng.gen_range(-8..=8);
        }
        t
    }

    /// The tensor's dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flattened row-major offset of an index vector.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong arity or is out of bounds.
    pub fn offset(&self, idx: &[i64]) -> usize {
        assert_eq!(idx.len(), self.dims.len(), "index arity mismatch");
        let mut off = 0usize;
        for (d, &i) in idx.iter().enumerate() {
            assert!(
                i >= 0 && (i as usize) < self.dims[d],
                "index {i} out of bounds for dim {d} (extent {})",
                self.dims[d]
            );
            off += i as usize * self.strides[d];
        }
        off
    }

    /// Reads the element at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn get(&self, idx: &[i64]) -> i64 {
        self.data[self.offset(idx)]
    }

    /// Writes the element at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn set(&mut self, idx: &[i64], value: i64) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    /// Adds `value` into the element at `idx` (the accumulation primitive).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn accumulate(&mut self, idx: &[i64], value: i64) {
        let off = self.offset(idx);
        self.data[off] += value;
    }

    /// A view of the flat row-major data.
    pub fn as_slice(&self) -> &[i64] {
        &self.data
    }
}

impl fmt::Display for DenseTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DenseTensor{:?} ({} elems)", self.dims, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_strides() {
        let t = DenseTensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.dims(), &[2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
        assert_eq!(t.offset(&[1, 0, 0]), 12);
        assert_eq!(t.offset(&[0, 1, 0]), 4);
        assert_eq!(t.offset(&[1, 2, 3]), 23);
        assert!(!t.is_empty());
    }

    #[test]
    fn get_set_accumulate() {
        let mut t = DenseTensor::zeros(&[3, 3]);
        t.set(&[2, 1], 5);
        t.accumulate(&[2, 1], 3);
        assert_eq!(t.get(&[2, 1]), 8);
        assert_eq!(t.get(&[0, 0]), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = DenseTensor::zeros(&[2, 2]);
        let _ = t.get(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let t = DenseTensor::zeros(&[2, 2]);
        let _ = t.get(&[0]);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = DenseTensor::random(&[4, 4], 7);
        let b = DenseTensor::random(&[4, 4], 7);
        let c = DenseTensor::random(&[4, 4], 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&v| (-8..=8).contains(&v)));
    }

    #[test]
    fn display_mentions_shape() {
        let t = DenseTensor::zeros(&[2, 5]);
        assert!(t.to_string().contains("[2, 5]"));
    }
}
