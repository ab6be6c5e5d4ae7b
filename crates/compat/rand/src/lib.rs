//! Offline stand-in for the `rand` crate.
//!
//! The build container has no crates.io access, so the workspace vendors the
//! small slice of the `rand` 0.8 API this repository actually uses:
//! `StdRng::seed_from_u64`, `Rng::gen`, `Rng::gen_bool` and `Rng::gen_range`
//! over primitive types. The generator is xoshiro256** seeded through
//! splitmix64 — high-quality, fast, and fully deterministic per seed, which
//! is all the simulator requires (DESIGN.md §7). Streams differ numerically
//! from upstream `rand`'s ChaCha-based `StdRng`; every test in this
//! repository asserts qualitative/statistical properties, not exact draws.

#![forbid(unsafe_code)]

/// Seedable generators (mirrors `rand::rngs`).
pub mod rngs {
    /// The standard deterministic generator (xoshiro256**).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::StdRng;

#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Construction from seeds (mirrors `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let s = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        Self { s }
    }
}

impl StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        // xoshiro256** by Blackman & Vigna (public domain).
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Types producible by [`Rng::gen`] (stand-in for the `Standard`
/// distribution).
pub trait Standard: Sized {
    /// Draw one value.
    fn draw(rng: &mut StdRng) -> Self;
}

impl Standard for bool {
    #[inline]
    fn draw(rng: &mut StdRng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}
impl Standard for f64 {
    #[inline]
    fn draw(rng: &mut StdRng) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn draw(rng: &mut StdRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draw one value uniformly from the range.
    fn sample(self, rng: &mut StdRng) -> Self::Output;
}

macro_rules! impl_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift rejection-free mapping (Lemire); bias is
                // < 2^-64 per draw, far below anything observable here.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (a, b) = (*self.start(), *self.end());
                assert!(a <= b, "gen_range: empty range");
                if a == <$t>::MIN && b == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = (b - a) as u64 + 1;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                a + hi as $t
            }
        }
    )*};
}
impl_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as i64).wrapping_add(hi as i64) as $t
            }
        }
    )*};
}
impl_range_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u = f64::draw(rng);
        self.start + u * (self.end - self.start)
    }
}

/// The user-facing generator trait (mirrors `rand::Rng`).
pub trait Rng {
    /// Draw a value of any [`Standard`]-producible type.
    fn gen<T: Standard>(&mut self) -> T;
    /// Draw uniformly from a range.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output;
    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool;
}

impl Rng for StdRng {
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }
    #[inline]
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::{Rng, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = r.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = r.gen_range(-2.5f64..4.5);
            assert!((-2.5..4.5).contains(&y));
        }
        // Every value of a small range is hit.
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_balanced() {
        let mut r = StdRng::seed_from_u64(3);
        let trues = (0..10_000).filter(|_| r.gen::<bool>()).count();
        assert!((4600..5400).contains(&trues), "{trues}");
    }
}
