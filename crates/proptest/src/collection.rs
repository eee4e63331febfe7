//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use prng::Rng;

/// Acceptable length specifications for [`vec()`]: a fixed length or a
/// half-open range of lengths.
pub trait IntoSizeRange {
    /// Draws a concrete length.
    fn sample_len(&self, rng: &mut TestRng) -> usize;
}

impl IntoSizeRange for usize {
    fn sample_len(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl IntoSizeRange for core::ops::Range<usize> {
    fn sample_len(&self, rng: &mut TestRng) -> usize {
        if self.start >= self.end {
            self.start
        } else {
            rng.gen_range(self.clone())
        }
    }
}

impl IntoSizeRange for core::ops::RangeInclusive<usize> {
    fn sample_len(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// A strategy for vectors whose elements come from `element` and whose
/// length comes from `size`.
pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, size: L) -> VecStrategy<S, L> {
    VecStrategy { element, size }
}

/// See [`vec()`].
pub struct VecStrategy<S, L> {
    element: S,
    size: L,
}

impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
    type Value = Vec<S::Value>;

    fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.sample_len(rng);
        (0..len).map(|_| self.element.gen_value(rng)).collect()
    }
}
