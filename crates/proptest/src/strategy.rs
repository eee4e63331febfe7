//! Value-generation strategies (no shrinking).

use crate::test_runner::TestRng;
use prng::Rng;
use std::fmt::Debug;
use std::marker::PhantomData;

/// A recipe for generating random values of one type.
///
/// Unlike real proptest there is no value tree: a strategy is just a
/// deterministic function of the test RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Generates one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// out of it (dependent generation).
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Rejects generated values for which `f` is false. After 100
    /// consecutive rejections the filter panics (the property is too
    /// restrictive).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            f,
            whence,
        }
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn gen_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn gen_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn gen_value(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.gen_value(rng)).gen_value(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn gen_value(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..100 {
            let v = self.inner.gen_value(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 100 consecutive values: {}",
            self.whence
        );
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;

    fn gen_value(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.gen_value(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Marker so `any::<T>()` can return a concrete type.
pub struct Any<T>(pub(crate) PhantomData<T>);

impl<T: crate::Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn gen_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}
