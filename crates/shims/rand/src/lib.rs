//! Offline API-compatible subset of the `rand` crate.
//!
//! The build environment has no crates.io access, so this shim implements
//! exactly the surface the workspace uses: [`Rng::gen`] for `f64`/`bool`,
//! [`rngs::StdRng`] seeded via [`SeedableRng::seed_from_u64`], and
//! [`seq::SliceRandom::shuffle`]. The generator is xoshiro256++ seeded with
//! SplitMix64 — deterministic for a given seed on every platform, but *not*
//! stream-compatible with upstream `rand`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Types that [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// The raw 64-bit generator interface (object-safe).
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Convenience methods over [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draw a value of type `T` (uniform over its natural range).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform integer in `[0, bound)`. Used by [`seq::SliceRandom`].
    fn gen_index(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        // Multiply-shift rejection-free mapping; bias is < 2^-53 for the
        // slice lengths this workspace shuffles.
        (((self.next_u64() >> 11) as u128 * bound as u128) >> 53) as usize
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stand-in for `rand::rngs::StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the full state.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Slice utilities, mirroring `rand::seq`.
pub mod seq {
    use super::Rng;

    /// Random slice operations (subset of `rand::seq::SliceRandom`).
    pub trait SliceRandom {
        /// Shuffle the slice in place (Fisher–Yates).
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_index(i + 1);
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
    fn deterministic_and_uniform_ish() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..1000).map(|_| a.gen::<f64>()).collect();
        let ys: Vec<f64> = (0..1000).map(|_| b.gen::<f64>()).collect();
        assert_eq!(xs, ys);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
