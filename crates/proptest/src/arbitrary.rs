//! `any::<T>()` — uniform generation for primitive types.

use crate::strategy::Any;
use crate::test_runner::TestRng;
use prng::Fill;
use std::fmt::Debug;
use std::marker::PhantomData;

/// Types with a canonical uniform generator.
pub trait Arbitrary: Debug + Sized {
    /// Generates one uniformly distributed value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// A strategy producing uniformly distributed `T` values.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_arbitrary_fill {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                <$t as Fill>::fill_from(rng)
            }
        }
    )*};
}
impl_arbitrary_fill!(bool, u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize, f64, f32);

macro_rules! impl_arbitrary_tuple {
    ($($name:ident),+) => {
        impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($name::arbitrary(rng),)+)
            }
        }
    };
}
impl_arbitrary_tuple!(A);
impl_arbitrary_tuple!(A, B);
impl_arbitrary_tuple!(A, B, C);
impl_arbitrary_tuple!(A, B, C, D);
impl_arbitrary_tuple!(A, B, C, D, E);
impl_arbitrary_tuple!(A, B, C, D, E, F);
