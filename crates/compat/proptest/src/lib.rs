//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no crates.io access, so the workspace vendors the
//! subset of the proptest API its property tests use: the `proptest!` macro,
//! range/`any`/tuple/`prop_map` strategies, `collection::{vec, hash_set}`,
//! and the `prop_assert*`/`prop_assume!` macros. Inputs are generated from a
//! deterministic per-test RNG (seeded from the test body's position in the
//! source), every test runs `ProptestConfig::cases` cases, and there is no
//! shrinking: a failing case panics with the ordinary assertion message.
//! `proptest-regressions` files are ignored.

#![forbid(unsafe_code)]

/// Deterministic generator handed to strategies (splitmix64 core).
#[derive(Debug, Clone)]
pub struct TestRng {
    x: u64,
}

impl TestRng {
    /// Seed a generator; each test gets `seed_from(test-id, case)`.
    pub fn new(seed: u64) -> Self {
        Self {
            x: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform usize in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// A value generator. Mirrors `proptest::strategy::Strategy` minus shrinking.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies: ranges and `any`
// ---------------------------------------------------------------------------

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (a, b) = (*self.start(), *self.end());
                assert!(a <= b, "empty strategy range");
                let span = (b as i128 - a as i128 + 1) as u128;
                let off = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (a as i128 + off) as $t
            }
        }
    )*};
}
impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// Marker for [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _t: core::marker::PhantomData<T>,
}

/// The full-type-range strategy (mirrors `proptest::arbitrary::any`).
pub fn any<T>() -> Any<T> {
    Any {
        _t: core::marker::PhantomData,
    }
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($n:ident $idx:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

// ---------------------------------------------------------------------------
// Collection strategies
// ---------------------------------------------------------------------------

/// Size specifications accepted by [`collection::vec`] /
/// [`collection::hash_set`].
pub trait SizeRange {
    /// Draw a concrete size.
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}
impl SizeRange for core::ops::Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty size range");
        self.start + rng.below(self.end - self.start)
    }
}
impl SizeRange for core::ops::RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.start() + rng.below(self.end() - self.start() + 1)
    }
}

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};
    use std::collections::HashSet;
    use std::hash::Hash;

    /// Vec of values from `element`, length drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// See [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// HashSet of values from `element`; the drawn size is a target — fewer
    /// elements result if duplicates keep appearing (mirrors proptest).
    pub fn hash_set<S, R>(element: S, size: R) -> HashSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Eq + Hash,
        R: SizeRange,
    {
        HashSetStrategy { element, size }
    }

    /// See [`hash_set`].
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S, R> Strategy for HashSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Eq + Hash,
        R: SizeRange,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let n = self.size.pick(rng);
            let mut out = HashSet::with_capacity(n);
            let mut tries = 0usize;
            while out.len() < n && tries < 100 * (n + 1) {
                out.insert(self.element.generate(rng));
                tries += 1;
            }
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Runner configuration + macros
// ---------------------------------------------------------------------------

/// Runner configuration (mirrors `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Everything a property test needs (mirrors `proptest::prelude`).
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy, TestRng,
    };
}

/// Assert inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Skip the current case unless `cond` holds. Rejected cases count toward
/// the case budget in this subset (proptest re-draws; the difference is
/// immaterial for the loose statistical properties tested here).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}

/// Define property tests: each `#[test] fn name(arg in strategy, …) { body }`
/// becomes a test running `cases` deterministic cases. The caller writes the
/// `#[test]` attribute (as with the real crate); the macro adds none of its own.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            // Per-test deterministic seed: the test name's bytes.
            let mut seed = 0xCBF2_9CE4_8422_2325u64;
            for b in stringify!($name).bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x1000_0000_01B3);
            }
            for case in 0..cfg.cases as u64 {
                let mut rng = $crate::TestRng::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                // One closure per case so `prop_assume!` can skip via return.
                #[allow(unused_mut, unused_variables)]
                let mut body = |rng: &mut $crate::TestRng| {
                    $(let $arg = $crate::Strategy::generate(&$strat, rng);)*
                    $body
                };
                body(&mut rng);
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3usize..10, y in -2.0f64..2.0, b in any::<bool>()) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            let _ = b;
        }

        #[test]
        fn vec_sizes(v in collection::vec(any::<u8>(), 4..9)) {
            prop_assert!((4..9).contains(&v.len()));
        }

        #[test]
        fn hash_set_capped(s in collection::hash_set(0usize..8, 0..=8)) {
            prop_assert!(s.len() <= 8);
            prop_assert!(s.iter().all(|&x| x < 8));
        }

        #[test]
        fn map_applies(z in (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| a + b)) {
            prop_assert!((0.0..2.0).contains(&z));
        }

        #[test]
        fn assume_skips(n in 0usize..10) {
            prop_assume!(n > 2);
            prop_assert!(n > 2);
        }
    }
}
