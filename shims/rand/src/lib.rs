//! Offline stand-in for the `rand` crate.
//!
//! The build container has no access to crates.io, so the workspace vendors
//! the *API subset it actually uses* — `SmallRng`, `SeedableRng`, and the
//! `Rng` extension methods — over a hand-rolled xoshiro256** generator.
//! Determinism is the whole point of this workspace, so the implementation
//! is fully seeded and has no `thread_rng`/`OsRng` entry points at all:
//! code that tries to reach OS entropy simply does not compile, so no lint
//! is needed to police it.

/// A source of random 64-bit words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Deterministic construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from `seed`; equal seeds give equal streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types [`Rng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`; callers guarantee `lo < hi`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// The next representable value above `self` (for inclusive ranges).
    fn successor(self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128;
                // Multiply-shift bounded sampling; bias is < 2^-64, far below
                // anything a simulation statistic can observe.
                let draw = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + draw) as $t
            }
            fn successor(self) -> Self {
                self.checked_add(1).expect("gen_range inclusive upper bound at type max")
            }
        }
    )*};
}
impl_sample_uniform!(u32, u64, usize);

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a value inside the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range on an empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range on an empty range");
        T::sample_half_open(rng, lo, hi.successor())
    }
}

/// Slices [`Rng::fill`] can populate.
pub trait Fill {
    /// Overwrites `self` with random data.
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        for chunk in self.chunks_mut(8) {
            let w = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

/// The `rand` extension-method surface the workspace uses.
pub trait Rng: RngCore {
    /// Draws a value of an inferred type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Uniform draw from a range (`a..b` or `a..=b`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// Fills a byte slice with random data.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.fill_from(self);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** — the same family the real `SmallRng` uses on 64-bit
    /// targets: fast, tiny state, excellent statistical quality, and (here)
    /// constructible *only* from an explicit seed.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into four non-zero words.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            SmallRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(5usize..=9);
            assert!((5..=9).contains(&w));
        }
    }

    #[test]
    fn gen_range_covers_extremes() {
        let mut r = SmallRng::seed_from_u64(4);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[r.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_overwrites_every_byte() {
        let mut r = SmallRng::seed_from_u64(5);
        let mut buf = [0u8; 37];
        r.fill(&mut buf[..]);
        // 37 zero bytes surviving a random fill is astronomically unlikely.
        assert!(buf.iter().any(|&b| b != 0));
    }
}
