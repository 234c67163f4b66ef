//! Offline stand-in for `rand` 0.9.
//!
//! Provides the subset this workspace uses: [`Rng`] (`random`,
//! `random_range`, `random_bool`), [`SeedableRng::seed_from_u64`],
//! [`rngs::StdRng`] (xoshiro256++ seeded via SplitMix64 — *not* the
//! same stream as real rand's ChaCha12, but deterministic and of good
//! statistical quality), and [`seq::SliceRandom::shuffle`].

use std::ops::Range;

/// Low-level entropy source.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing sampling methods (rand 0.9 naming).
pub trait Rng: RngCore {
    /// Samples a value of `T` from its standard distribution
    /// (`f64`/`f32`: uniform in `[0, 1)`; integers: uniform over the
    /// full range; `bool`: fair coin).
    fn random<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from a range.
    fn random_range<T, R2: SampleRange<T>>(&mut self, range: R2) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.random::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable by [`Rng::random`].
pub trait StandardSample {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty)*) => {$(
        impl StandardSample for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

/// Ranges samplable by [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "empty range");
        self.start + f32::sample(rng) * (self.end - self.start)
    }
}

macro_rules! range_int {
    ($($t:ty)*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Multiply-shift bounded sampling (Lemire); span is far
                // below 2^64 in practice so modulo bias is negligible,
                // but do it right anyway.
                let hi = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + hi) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "empty range");
                let span = (e as i128 - s as i128 + 1) as u128;
                let hi = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (s as i128 + hi) as $t
            }
        }
    )*};
}
range_int!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// Builds an RNG whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named RNGs.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard RNG: xoshiro256++ seeded via SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the reference seeding procedure.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl StdRng {
        /// The generator's whole state: with [`Self::from_state`], what
        /// a checkpoint stores to resume the stream where it stopped
        /// (real `rand` offers the same through its `serde` feature).
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// A generator that continues the stream [`Self::state`] was
        /// taken from. `None` for the all-zero state, the one state
        /// xoshiro256++ never reaches and never leaves.
        pub fn from_state(s: [u64; 4]) -> Option<Self> {
            (s != [0; 4]).then_some(Self { s })
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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

    /// Alias: a small fast RNG (same engine in this shim).
    pub type SmallRng = StdRng;
}

/// Sequence-related helpers.
pub mod seq {
    use super::Rng;

    /// Shuffling of slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..i + 1);
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
    fn deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x: f64 = a.random();
            let y: f64 = b.random();
            assert_eq!(x, y);
            assert!((0.0..1.0).contains(&x));
            let n = a.random_range(3usize..17);
            assert!((3..17).contains(&n));
            b.random_range(3usize..17);
            let z = a.random_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&z));
            b.random_range(-1.0f64..1.0);
        }
    }

    #[test]
    fn state_resumes_the_stream() {
        let mut a = StdRng::seed_from_u64(5);
        for _ in 0..17 {
            a.random::<u64>();
        }
        let mut b = StdRng::from_state(a.state()).expect("a live state");
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        assert!(StdRng::from_state([0; 4]).is_none());
    }

    #[test]
    fn range_hits_all_values() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.random_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        let mut rng = StdRng::seed_from_u64(1);
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "astronomically unlikely to be identity");
    }

    #[test]
    fn mean_is_near_half() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.random::<f64>()).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }
}
