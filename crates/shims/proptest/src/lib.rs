//! Workspace-local stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so the slice of proptest
//! this workspace's property tests use is reimplemented here: the
//! `proptest! { ... }` macro (each block opens with its
//! `#![proptest_config(...)]` header), range and `any::<T>()` strategies over
//! the integer types the tests draw, `collection::vec`, and the
//! `prop_assert!`/`prop_assert_eq!` assertion macros.
//!
//! Differences from the real crate, deliberately accepted: no shrinking (a
//! failing case reports its values via the assertion message only), and the
//! case stream is a fixed deterministic sequence per test name, so failures
//! reproduce exactly across runs.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::marker::PhantomData;
use std::ops::Range;

/// Per-test configuration. Only the case count is honoured.
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic generator driving a test's case stream.
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds from the test name, so each test has a stable, independent
    /// stream.
    pub fn deterministic(test_name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A value generator.
pub trait Strategy {
    /// Generated value type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )+};
}

impl_range_strategy!(u8, u32, u64, usize, i32);

/// Produces uniformly random values over a type's whole domain.
pub struct Any<T>(PhantomData<T>);

/// `any::<T>()` strategy constructor.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Types [`any`] can generate.
pub trait Arbitrary {
    /// Draws one unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )+};
}

impl_arbitrary_int!(u8, u32, u64, usize, i64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed size or a range.
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(!r.is_empty(), "empty vec size range");
            SizeRange(r)
        }
    }

    /// Strategy generating `Vec`s of `element` values.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `vec(element, len)` where `len` is a `usize` or `Range<usize>`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.0.gen_range(self.size.0.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Assertion with proptest's name; panics like `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Equality assertion with proptest's name; panics like `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// The `proptest! { ... }` block: expands each contained
/// `fn name(arg in strategy, ...) { body }` into a `#[test]`-able function
/// that draws `cases` argument tuples and runs the body per case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ cfg = ($cfg); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic(stringify!($name));
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_fns!{ cfg = ($cfg); $($rest)* }
    };
}

/// Drop-in for `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, proptest, Arbitrary, ProptestConfig,
        Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Ranges honour their bounds.
        #[test]
        fn ranges_in_bounds(x in 3u32..17, n in 1usize..9) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..9).contains(&n));
        }

        /// Vec strategies honour length specs, fixed and ranged.
        #[test]
        fn vec_lengths(fixed in collection::vec(any::<u8>(), 27),
                       ranged in collection::vec(0u32..5, 0..12)) {
            prop_assert_eq!(fixed.len(), 27);
            prop_assert!(ranged.len() < 12);
            prop_assert!(ranged.iter().all(|&v| v < 5));
        }
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        let mut a = TestRng::deterministic("alpha");
        let mut b = TestRng::deterministic("alpha");
        let mut c = TestRng::deterministic("beta");
        let s = 0u64..u64::MAX;
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
        assert_ne!(s.generate(&mut a), s.generate(&mut c));
    }
}
