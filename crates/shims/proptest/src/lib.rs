//! Offline API-compatible subset of the `proptest` crate.
//!
//! The build environment has no crates.io access, so this shim implements the
//! surface the workspace's property tests use: the [`proptest!`] macro with a
//! `#![proptest_config(...)]` header, [`Strategy`] implemented for integer and
//! float ranges plus tuples, [`Just`], [`Strategy::prop_flat_map`] /
//! [`Strategy::prop_map`], [`collection::vec`], [`bool::ANY`],
//! [`ProptestConfig::with_cases`], and the `prop_assert!` family.
//!
//! Sampling is driven by a deterministic SplitMix64 stream, so test runs are
//! reproducible. Unlike real proptest there is **no shrinking**: a failing
//! case panics with the assertion message from the offending inputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::Range;

/// Deterministic RNG driving strategy sampling (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A fresh deterministic stream (fixed seed — runs are reproducible).
    pub fn deterministic() -> Self {
        TestRng {
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (`bound > 0`).
    pub fn next_index(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        (((self.next_u64() >> 11) as u128 * bound as u128) >> 53) as u64
    }
}

/// Per-test configuration (subset of `proptest::test_runner::ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of random values (subset of `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Derive a strategy from each sampled value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Transform each sampled value.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy that always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.next_index(span) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u8, u16, u32, u64);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+)),* $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy!((A), (A, B), (A, B, C), (A, B, C, D));

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `vec(element, 0..n)`: a vector of `element` samples with random length.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Boolean strategies (subset of `proptest::bool`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// Strategy yielding `true`/`false` with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The canonical boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Assert inside a property test (plain `assert!` — no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Bind `pat in strategy` parameters sequentially, innermost-first, then run
/// the test body. Internal helper for [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_bind {
    ($rng:ident, $body:block $(,)?) => { $body };
    ($rng:ident, $body:block, $pat:pat in $strategy:expr $(, $($rest:tt)*)?) => {{
        let $pat = $crate::Strategy::sample(&($strategy), &mut $rng);
        $crate::__proptest_bind!($rng, $body $(, $($rest)*)?)
    }};
}

/// Subset of the `proptest!` macro: a `#![proptest_config(...)]` header
/// followed by `#[test]` functions whose arguments are `pattern in strategy`
/// pairs. Each test runs `config.cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$attr:meta])*
            fn $name:ident($($params:tt)*) $body:block
        )*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::TestRng::deterministic();
                for _case in 0..config.cases {
                    $crate::__proptest_bind!(rng, $body, $($params)*);
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $($rest)*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn pair_strategy() -> impl Strategy<Value = (usize, Vec<u8>)> {
        (2usize..10).prop_flat_map(|n| {
            let bytes = crate::collection::vec(0u8..64, 1..(2 * n));
            (Just(n), bytes)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges respect their bounds and flat-mapped strategies compose.
        #[test]
        fn ranges_and_flat_map_work(
            (n, bytes) in pair_strategy(),
            x in 0.25f64..0.75,
            flag in crate::bool::ANY,
        ) {
            prop_assert!((2..10).contains(&n));
            prop_assert!(!bytes.is_empty() && bytes.len() < 2 * n);
            prop_assert!(bytes.iter().all(|&b| b < 64));
            prop_assert!((0.25..0.75).contains(&x));
            prop_assert_eq!(u8::from(flag) <= 1, true);
        }
    }

    #[test]
    fn deterministic_sampling() {
        let mut a = crate::TestRng::deterministic();
        let mut b = crate::TestRng::deterministic();
        let s = (0usize..100, 0.0f64..1.0);
        for _ in 0..100 {
            prop_assert_eq!(s.sample(&mut a), s.sample(&mut b));
        }
    }
}
