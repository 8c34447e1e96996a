//! # vlsi-prng — deterministic std-only pseudo-randomness
//!
//! Every stochastic component of the reproduction (the Figure 3 workload
//! generators, the random-datapath fuzzers, the scheduler job mixes, the
//! property-test runner) draws from this one generator so that the whole
//! workspace builds offline and every run is bit-reproducible from its
//! seed.
//!
//! The core is SplitMix64 (Steele, Lea & Flood, "Fast Splittable
//! Pseudorandom Number Generators", OOPSLA 2014): a 64-bit Weyl sequence
//! pushed through a finalizing mixer. It passes BigCrush, needs eight
//! bytes of state, and — crucially for the seeding discipline used across
//! this repo — every `u64` seed yields a full-period, well-mixed stream,
//! so `seed`, `seed + 1`, `seed ^ tag` are all independent-looking
//! streams.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// A SplitMix64 pseudo-random number generator.
///
/// ```
/// use vlsi_prng::Prng;
/// let mut a = Prng::seed_from_u64(42);
/// let mut b = Prng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prng {
    state: u64,
}

impl Prng {
    /// A generator seeded with `seed` (mirrors `SeedableRng::seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> Prng {
        Prng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        // SplitMix64: golden-gamma Weyl step + Stafford variant 13 mixer.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `range` (mirrors `Rng::gen_range`). Accepts
    /// half-open (`lo..hi`) and inclusive (`lo..=hi`) ranges over the
    /// integer types implementing [`UniformSample`].
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformSample,
        R: SampleRange<T>,
    {
        let (lo, hi) = range.bounds();
        T::sample(self, lo, hi)
    }

    /// Uniform draw below `bound` with rejection sampling (no modulo
    /// bias). `bound` must be nonzero.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Reject draws from the tail shorter than `bound`.
        let zone = u64::MAX - u64::MAX.wrapping_rem(bound);
        loop {
            let v = self.next_u64();
            if v < zone || zone == 0 {
                return v.wrapping_rem(bound);
            }
        }
    }

    /// A uniform float in `[0, 1)` (53 random mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of `slice`.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(0..slice.len())])
        }
    }

    /// An independent child generator (the "split" of SplitMix64): the
    /// child's seed is a fresh draw, so parent and child streams do not
    /// overlap in practice.
    pub fn split(&mut self) -> Prng {
        Prng::seed_from_u64(self.next_u64())
    }
}

/// Integer types [`Prng::gen_range`] can sample uniformly.
pub trait UniformSample: Copy + PartialOrd {
    /// A uniform draw from `[lo, hi]` (both inclusive).
    fn sample(rng: &mut Prng, lo: Self, hi: Self) -> Self;
}

macro_rules! uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample(rng: &mut Prng, lo: $t, hi: $t) -> $t {
                assert!(lo <= hi, "empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

macro_rules! uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformSample for $t {
            fn sample(rng: &mut Prng, lo: $t, hi: $t) -> $t {
                assert!(lo <= hi, "empty range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

uniform_unsigned!(u8, u16, u32, u64, usize);
uniform_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// Ranges [`Prng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// The `(lo, hi)` inclusive bounds of the range.
    fn bounds(&self) -> (T, T);
}

impl<T: UniformSample + Bounded> SampleRange<T> for Range<T> {
    fn bounds(&self) -> (T, T) {
        (self.start, self.end.prev())
    }
}

impl<T: UniformSample> SampleRange<T> for RangeInclusive<T> {
    fn bounds(&self) -> (T, T) {
        (*self.start(), *self.end())
    }
}

/// Helper for converting a half-open upper bound to an inclusive one.
pub trait Bounded {
    /// The predecessor value (`self - 1`).
    fn prev(self) -> Self;
}

macro_rules! bounded {
    ($($t:ty),*) => {$(
        impl Bounded for $t {
            fn prev(self) -> $t {
                self.checked_sub(1).expect("empty range")
            }
        }
    )*};
}

bounded!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = Prng::seed_from_u64(8);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs of SplitMix64 for seed 0 (from the public
        // domain implementation by Sebastiano Vigna).
        let mut r = Prng::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Prng::seed_from_u64(123);
        for _ in 0..10_000 {
            let x: i64 = r.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&x));
            let y: usize = r.gen_range(3usize..17);
            assert!((3..17).contains(&y));
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = Prng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[r.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values reachable: {seen:?}");
    }

    #[test]
    fn signed_full_range() {
        let mut r = Prng::seed_from_u64(9);
        // Degenerate single-value ranges.
        assert_eq!(r.gen_range(4i64..=4), 4);
        assert_eq!(r.gen_range(-3i64..-2), -3);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Prng::seed_from_u64(77);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn bool_probability_sane() {
        let mut r = Prng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }
}
