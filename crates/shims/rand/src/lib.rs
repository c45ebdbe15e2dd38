//! Workspace-local stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so the small
//! slice of `rand` 0.8 this workspace actually uses is reimplemented here and
//! wired in via a path dependency. The API mirrors `rand` closely enough that
//! swapping the real crate back in is a one-line `Cargo.toml` change per
//! crate; the statistical quality (SplitMix64) is more than sufficient for
//! the seeded, reproducible streams the workspace needs (synthetic fields,
//! sampling, SGD shuffling).
//!
//! Implemented surface: `rngs::StdRng`, [`SeedableRng::seed_from_u64`],
//! [`Rng::gen_range`] over half-open and inclusive ranges of the types the
//! workspace draws (`f64`, `f32`, `u8`, `u32`, `u64`, `usize`, `i32`), and
//! [`seq::SliceRandom::shuffle`].

use std::ops::{Range, RangeInclusive};

/// Low-level entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding interface (only the `u64` convenience seeder is provided).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }
}

impl<G: RngCore + ?Sized> Rng for G {}

/// A range that knows how to draw a uniform sample of `T` from it.
///
/// Mirroring real `rand`, the implementations are blanket impls over
/// [`SampleUniform`] so that `R = Range<T>` structurally pins `T` — type
/// inference at `gen_range(0.0..0.6)` call sites then behaves exactly like
/// the real crate (float literals fall back to `f64`).
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> T;
}

/// Types `gen_range` can sample uniformly.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Uniform sample from the half-open interval `[lo, hi)`.
    fn sample_half_open<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self;
    /// Uniform sample from the closed interval `[lo, hi]`.
    fn sample_inclusive<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> T {
        debug_assert!(self.start < self.end, "empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> T {
        let (lo, hi) = self.into_inner();
        debug_assert!(lo <= hi, "empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

impl SampleUniform for f64 {
    fn sample_half_open<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + u * (hi - lo)
    }
    fn sample_inclusive<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
        Self::sample_half_open(lo, hi, rng)
    }
}

impl SampleUniform for f32 {
    fn sample_half_open<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
        let u = (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        lo + u * (hi - lo)
    }
    fn sample_inclusive<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
        Self::sample_half_open(lo, hi, rng)
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
                let span = (hi as i128 - lo as i128) as u128;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
            fn sample_inclusive<G: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut G) -> Self {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )+};
}

impl_sample_uniform_int!(u8, u32, u64, usize, i32);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic 64-bit generator (SplitMix64). Stands in for `rand`'s
    /// `StdRng`; same name so call sites don't change.
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng {
                state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678_9ABC_DEF0,
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Slice utilities.
pub mod seq {
    use super::Rng;

    /// Shuffling for slices (Fisher–Yates).
    pub trait SliceRandom {
        /// Shuffles the slice in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0.0f64..1.0), b.gen_range(0.0f64..1.0));
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen_range(0u64..u64::MAX), c.gen_range(0u64..u64::MAX));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let f = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
            let g = rng.gen_range(0.5f32..0.8);
            assert!((0.5..0.8).contains(&g));
            let i = rng.gen_range(1..=4);
            assert!((1..=4).contains(&i));
            let u = rng.gen_range(0usize..17);
            assert!(u < 17);
        }
    }

    #[test]
    fn floats_cover_the_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.gen_range(0.0f64..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "50 elements staying put is astronomically unlikely"
        );
    }
}
