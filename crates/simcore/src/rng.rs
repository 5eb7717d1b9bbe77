//! Seeded random number generation for the simulation.
//!
//! [`SimRng`] is a small facade over a deterministic PRNG (xoshiro-style,
//! implemented locally so that streams are stable across toolchains) plus
//! the distributions the experiments need: uniform, normal, exponential,
//! log-normal and Zipf. Sub-streams can be forked per component so that adding
//! randomness in one module does not perturb another.

/// SplitMix64, used to expand seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seedable random number generator with the distributions the
/// DejaVu experiments rely on.
///
/// # Example
///
/// ```
/// use dejavu_simcore::SimRng;
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.uniform01(), b.uniform01());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Forks an independent sub-stream identified by `stream`.
    ///
    /// Forks with different `stream` values are statistically independent and
    /// stable: forking does not advance the parent generator.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut sm = self.s[0] ^ self.s[3] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    fn next(&mut self) -> u64 {
        // xoshiro256++
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

    /// Uniform sample in `[0, 1)`.
    pub fn uniform01(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid uniform range"
        );
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer sample in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize requires n > 0");
        (self.uniform01() * n as f64) as usize % n
    }

    /// Standard normal sample (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.uniform01().max(f64::MIN_POSITIVE);
        let u2 = self.uniform01();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Exponential sample with the given rate (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        -self.uniform01().max(f64::MIN_POSITIVE).ln() / rate
    }

    /// Zipf-distributed rank in `[0, n)` with skew `s` (s = 0 is uniform).
    ///
    /// Uses inverse-CDF sampling over the precomputable harmonic weights; for
    /// the modest `n` used by the request-mix models a linear scan is fine.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf requires n > 0");
        assert!(s >= 0.0, "zipf skew must be non-negative");
        let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let target = self.uniform01() * norm;
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            if acc >= target {
                return k - 1;
            }
        }
        n - 1
    }

    /// Returns a uniformly chosen element of `items`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.uniform_usize(items.len())])
        }
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_usize(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let parent = SimRng::seed_from_u64(99);
        let mut f1 = parent.fork(1);
        let mut f1_again = parent.fork(1);
        let mut f2 = parent.fork(2);
        assert_eq!(f1.next(), f1_again.next());
        assert_ne!(f1.next(), f2.next());
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
            let u = rng.uniform01();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments_are_roughly_right() {
        let mut rng = SimRng::seed_from_u64(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::seed_from_u64(5);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = SimRng::seed_from_u64(6);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[rng.zipf(10, 1.2)] += 1;
        }
        assert!(counts[0] > counts[5]);
        assert!(counts[0] > counts[9]);
    }

    #[test]
    fn shuffle_and_choose() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(rng.choose(&v).is_some());
        let empty: Vec<u32> = vec![];
        assert!(rng.choose(&empty).is_none());
    }
}
