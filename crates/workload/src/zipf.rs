//! A Zipfian key chooser, implemented the way the YCSB reference
//! implementation does it (Gray et al.'s rejection-free method), so that
//! θ = 0 degenerates to uniform and θ = 1 produces the heavy skew the paper's
//! contention experiments use.

use dichotomy_common::rng::{self, Rng, StdRng};

/// Zipfian generator over `0..n`.
#[derive(Debug, Clone)]
pub struct ZipfianGenerator {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
    rng: StdRng,
}

impl ZipfianGenerator {
    /// Build a generator over `0..n` with skew `theta` (0 = uniform-ish,
    /// 0.99–1.0 = the classic YCSB hotspot).
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        let n = n.max(1);
        let theta = theta.clamp(0.0, 0.9999);
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfianGenerator {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
            rng: rng::seeded(rng::derive_seed(seed, "zipfian")),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // For large n an exact sum is O(n); cap the exact part and extend with
        // the integral approximation, which is accurate for the n (≤ 1M) and
        // θ values the experiments use.
        let exact = n.min(100_000);
        let mut sum = 0.0;
        for i in 1..=exact {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > exact {
            // ∫ x^-θ dx from `exact` to `n`.
            if (theta - 1.0).abs() < 1e-9 {
                sum += (n as f64 / exact as f64).ln();
            } else {
                sum += ((n as f64).powf(1.0 - theta) - (exact as f64).powf(1.0 - theta))
                    / (1.0 - theta);
            }
        }
        sum
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draw the next key index in `0..n`. Index 0 is the hottest key. (Not
    /// an `Iterator`: the stream is infinite and infallible.)
    #[expect(
        clippy::should_implement_trait,
        reason = "an infinite, infallible stream: `Iterator::next` would wrap every draw in `Some`"
    )]
    pub fn next(&mut self) -> u64 {
        if self.theta < 1e-6 {
            return self.rng.gen_range(0..self.n);
        }
        let u: f64 = self.rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.n as f64) * spread) as u64 % self.n
    }

    /// Keep the compiler honest about the precomputed constant (used by the
    /// statistics test below and by documentation examples).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frequencies(theta: f64, n: u64, draws: usize) -> Vec<u64> {
        let mut gen = ZipfianGenerator::new(n, theta, 7);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[gen.next() as usize] += 1;
        }
        counts
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let counts = frequencies(0.0, 100, 100_000);
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.5, "max {max} min {min}");
    }

    #[test]
    fn high_theta_concentrates_on_hot_keys() {
        let counts = frequencies(0.99, 10_000, 100_000);
        let hot: u64 = counts.iter().take(10).sum();
        let share = hot as f64 / 100_000.0;
        assert!(share > 0.25, "top-10 share {share}");
    }

    #[test]
    fn skew_increases_with_theta() {
        let share = |theta: f64| {
            let counts = frequencies(theta, 1_000, 50_000);
            *counts.iter().max().unwrap() as f64 / 50_000.0
        };
        let s0 = share(0.2);
        let s1 = share(0.6);
        let s2 = share(0.99);
        assert!(s1 > s0);
        assert!(s2 > s1);
    }

    #[test]
    fn draws_stay_in_range_and_are_deterministic() {
        let mut a = ZipfianGenerator::new(50, 0.8, 3);
        let mut b = ZipfianGenerator::new(50, 0.8, 3);
        for _ in 0..1000 {
            let x = a.next();
            assert!(x < 50);
            assert_eq!(x, b.next());
        }
        assert!(a.zeta2() > 0.0);
        assert!((a.theta() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn single_key_universe_always_returns_zero() {
        let mut g = ZipfianGenerator::new(1, 0.9, 1);
        assert!((0..100).all(|_| g.next() == 0));
    }
}
