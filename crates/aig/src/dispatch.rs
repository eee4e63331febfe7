//! The runtime instruction-set choice behind [`dispatched!`](crate::dispatched).
//!
//! The running CPU is inspected once, on the first kernel call, and the
//! result cached in an atomic: every later dispatched call pays one
//! relaxed load and a branch. A [`Level`] can only be obtained from that
//! detection ([`level`], [`Level::supported`]), so holding one proves the
//! CPU runs its instance — the invariant the macro's `unsafe` calls rest
//! on.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// The kernel instances [`dispatched!`](crate::dispatched) writes, from
/// the baseline up. Each level's CPU requirement includes the one below.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// The build target's baseline; the only instance off `x86_64`.
    Scalar,
    /// `x86_64` with `popcnt`: one instruction per 64-bit bit count.
    Popcnt,
    /// x86-64-v4 with VPOPCNTDQ (`avx512f`, `avx512bw`, `avx512vl`,
    /// `avx512dq`, `avx512vpopcntdq` and `popcnt`): kernels written on
    /// eight-word lanes run as 512-bit vector code.
    Avx512,
}

impl Isa {
    /// Every instance, lowest first.
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Popcnt, Isa::Avx512];

    /// The instance's name as reports print it.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Popcnt => "popcnt",
            Isa::Avx512 => "avx512-vpopcntdq",
        }
    }
}

/// An instruction-set level the running CPU supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Level(Isa);

impl Level {
    /// The instance this level runs.
    #[inline(always)]
    pub fn isa(self) -> Isa {
        self.0
    }

    /// Every level the running CPU supports, lowest first: the detected
    /// [`level`] and all below it. Tests run each kernel instance
    /// through these.
    pub fn supported() -> impl Iterator<Item = Level> {
        let top = level().0;
        Isa::ALL.into_iter().filter(move |&i| i <= top).map(Level)
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.name())
    }
}

/// The detected [`Isa`] as its index in [`Isa::ALL`], or `u8::MAX`
/// before the first detection.
static DETECTED: AtomicU8 = AtomicU8::new(u8::MAX);

/// The highest level the running CPU supports: the instance every
/// dispatched kernel runs.
#[inline]
pub fn level() -> Level {
    match DETECTED.load(Ordering::Relaxed) {
        0 => Level(Isa::Scalar),
        1 => Level(Isa::Popcnt),
        2 => Level(Isa::Avx512),
        _ => detect(),
    }
}

/// Inspects the CPU and caches the answer. Racing first calls store
/// the same value.
#[cold]
fn detect() -> Level {
    let isa = detect_isa();
    DETECTED.store(isa as u8, Ordering::Relaxed);
    Level(isa)
}

#[cfg(target_arch = "x86_64")]
fn detect_isa() -> Isa {
    use std::arch::is_x86_feature_detected as has;
    if !has!("popcnt") {
        Isa::Scalar
    } else if has!("avx512f")
        && has!("avx512bw")
        && has!("avx512vl")
        && has!("avx512dq")
        && has!("avx512vpopcntdq")
    {
        Isa::Avx512
    } else {
        Isa::Popcnt
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_isa() -> Isa {
    Isa::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_cached_and_levels_ascend_to_it() {
        let top = level();
        assert_eq!(level(), top, "a second call must read the cached level");
        let all: Vec<Level> = Level::supported().collect();
        assert_eq!(all.first().map(|l| l.isa()), Some(Isa::Scalar));
        assert_eq!(all.last(), Some(&top));
        assert!(all.windows(2).all(|p| p[0] < p[1]));
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512vpopcntdq") {
                assert_eq!(top.isa(), Isa::Avx512, "{top}");
            }
        }
    }
}
