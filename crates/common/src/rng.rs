//! Deterministic randomness helpers.
//!
//! Every stochastic choice in the workspace — workload key selection, PoW
//! "mining", network jitter — flows from a seeded [`StdRng`] so that an
//! experiment re-run with the same seed reproduces the same numbers bit for
//! bit (README, "The discrete-event engine": determinism per seed).
//!
//! The generator is implemented in-repo (xoshiro256++ seeded through
//! SplitMix64) because the workspace builds offline with no crates.io
//! dependencies. The [`Rng`] and [`SliceRandom`] traits expose the small API
//! surface the call sites need: `gen`, `gen_range`, `gen_bool`, `gen_ratio`
//! and `shuffle`.

/// The workspace-wide default seed used by examples and benches unless the
/// caller supplies one.
pub const DEFAULT_SEED: u64 = 0x51D7_2021;

/// A deterministic pseudo-random generator: xoshiro256++ (Blackman & Vigna),
/// seeded through SplitMix64. Not cryptographic — it drives simulations.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Construct a generator whose entire stream is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state; this is
        // the initialization the xoshiro authors recommend and guarantees a
        // non-zero state for every seed.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

impl Rng for StdRng {
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

/// Types that can be sampled uniformly from a generator via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one uniformly distributed value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize);

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range. Panics on an empty range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                // Lemire's multiply-shift maps next_u64 onto [0, span).
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range: empty range");
                if start == 0 && end == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = (end - start) as u64 + 1;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                start + hi as $t
            }
        }
    )*};
}
impl_sample_range_uint!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u: f64 = Standard::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

/// The generator interface used across the workspace. `next_u64` is the only
/// required method; everything else derives from it deterministically.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Draw a uniformly distributed value of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draw uniformly from a (half-open or inclusive) range.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        let u: f64 = self.gen();
        u < p
    }

    /// Bernoulli draw: `true` with probability `numerator / denominator`.
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool
    where
        Self: Sized,
    {
        assert!(denominator > 0, "gen_ratio: zero denominator");
        self.gen_range(0..denominator as u64) < numerator as u64
    }
}

/// In-place random reordering of slices (Fisher–Yates).
pub trait SliceRandom {
    /// Shuffle the slice uniformly at random.
    fn shuffle<R: Rng>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }
}

/// Construct a seeded RNG.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derive a child seed from a parent seed and a label, so that independent
/// components (each client, each node) get decorrelated but reproducible
/// streams.
pub fn derive_seed(parent: u64, label: &str) -> u64 {
    let h = crate::hash::Hash::of_parts(&[&parent.to_be_bytes(), label.as_bytes()]);
    h.prefix_u64()
}

/// Sample an exponentially distributed delay with the given mean, clamped to
/// at least 1 µs. Used for network jitter and client think times.
pub fn exp_delay_us<R: Rng>(rng: &mut R, mean_us: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let d = -mean_us * u.ln();
    d.clamp(1.0, 1e12) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        let va: Vec<u64> = (0..10).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        let va: u64 = a.gen();
        let vb: u64 = b.gen();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_seeds_are_stable_and_label_sensitive() {
        assert_eq!(derive_seed(7, "client-1"), derive_seed(7, "client-1"));
        assert_ne!(derive_seed(7, "client-1"), derive_seed(7, "client-2"));
        assert_ne!(derive_seed(7, "client-1"), derive_seed(8, "client-1"));
    }

    #[test]
    fn exp_delay_has_roughly_correct_mean() {
        let mut rng = seeded(3);
        let n = 20_000;
        let mean = 500.0;
        let total: u64 = (0..n).map(|_| exp_delay_us(&mut rng, mean)).sum();
        let observed = total as f64 / n as f64;
        assert!((observed - mean).abs() < mean * 0.1, "observed {observed}");
    }

    #[test]
    fn exp_delay_is_at_least_one_microsecond() {
        let mut rng = seeded(4);
        assert!((0..1000).all(|_| exp_delay_us(&mut rng, 0.001) >= 1));
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = seeded(5);
        for _ in 0..10_000 {
            let x: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y: usize = rng.gen_range(0..=3);
            assert!(y <= 3);
            let f: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = seeded(6);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.gen_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = seeded(7);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.1)));
    }

    #[test]
    fn gen_ratio_tracks_probability() {
        let mut rng = seeded(8);
        let hits = (0..100_000).filter(|_| rng.gen_ratio(1, 4)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn uniform_f64_is_in_unit_interval() {
        let mut rng = seeded(9);
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_deterministic() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..100).collect();
            v.shuffle(&mut seeded(seed));
            v
        };
        let a = shuffled(11);
        assert_eq!(a, shuffled(11));
        assert_ne!(a, shuffled(12));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }
}
