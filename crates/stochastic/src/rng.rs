//! Seeded, forkable random-number generation for reproducible simulations.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A reproducible random number generator used throughout the simulator.
///
/// `SimRng` wraps a [`StdRng`] seeded from a `u64`. Every Monte-Carlo trial
/// gets its own deterministic sub-stream via [`SimRng::fork`], so results are
/// reproducible regardless of thread scheduling.
///
/// # Examples
///
/// ```
/// use ltds_stochastic::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform01(), b.uniform01());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from an explicit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self { inner: StdRng::seed_from_u64(seed), seed }
    }

    /// Returns the seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent sub-stream for trial `index`.
    ///
    /// The derivation mixes the parent seed and the index through
    /// SplitMix64 so that neighbouring indices produce uncorrelated streams.
    pub fn fork(&self, index: u64) -> Self {
        let mixed = splitmix64(self.seed ^ splitmix64(index.wrapping_add(0x9E37_79B9_7F4A_7C15)));
        Self::seed_from(mixed)
    }

    /// Draws a uniform value in `[0, 1)`.
    #[inline(always)]
    pub fn uniform01(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Draws a uniform value strictly inside `(0, 1)`.
    ///
    /// Useful for inverse-CDF sampling where `ln(0)` must be avoided.
    pub fn open01(&mut self) -> f64 {
        loop {
            let u = self.inner.gen::<f64>();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Draws a uniform value in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo, "uniform_range requires hi >= lo");
        lo + (hi - lo) * self.uniform01()
    }

    /// Draws a uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "index requires a non-empty range");
        self.inner.gen_range(0..n)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform01() < p
    }

    /// Draws a standard normal deviate via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.open01();
        let u2 = self.uniform01();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Draws an exponential deviate with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0, "exponential mean must be positive");
        -mean * self.open01().ln()
    }

    /// Runs `draw` out of line on a copy of this stream and takes the
    /// copy's state back: the same draws in the same order, but a caller
    /// that keeps the stream in registers never has to give it an address.
    /// Hot loops route their rare or `ln`-priced draws through it (the
    /// ziggurat's slow layers, inverse-CDF exponentials).
    #[inline(always)]
    pub fn detached<T>(&mut self, draw: impl FnOnce(&mut SimRng) -> T) -> T {
        #[inline(never)]
        fn run<T>(mut rng: SimRng, draw: impl FnOnce(&mut SimRng) -> T) -> (T, SimRng) {
            let value = draw(&mut rng);
            (value, rng)
        }
        let (value, stream) = run(self.clone(), draw);
        *self = stream;
        value
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// SplitMix64 mixing function used to derive fork seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds should diverge");
    }

    #[test]
    fn fork_is_deterministic_and_distinct() {
        let root = SimRng::seed_from(99);
        let mut f1 = root.fork(0);
        let mut f1b = root.fork(0);
        let mut f2 = root.fork(1);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn uniform01_in_range() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let u = rng.uniform01();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn open01_never_zero() {
        let mut rng = SimRng::seed_from(4);
        for _ in 0..1000 {
            assert!(rng.open01() > 0.0);
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::seed_from(5);
        assert!(!(0..100).any(|_| rng.bernoulli(0.0)));
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::seed_from(6);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let avg = sum / n as f64;
        assert!((avg - mean).abs() < 0.15, "sample mean {avg} too far from {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::seed_from(8);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "normal variance {var}");
    }

    #[test]
    fn detached_draws_continue_the_stream() {
        let mut direct = SimRng::seed_from(11);
        let mut detached = SimRng::seed_from(11);
        for _ in 0..100 {
            let x = detached.detached(|rng| rng.exponential(3.0));
            assert_eq!(x.to_bits(), direct.exponential(3.0).to_bits());
            assert_eq!(detached.next_u64(), direct.next_u64());
        }
        assert_eq!(detached.seed(), direct.seed());
    }

    #[test]
    fn index_bounds() {
        let mut rng = SimRng::seed_from(9);
        for _ in 0..1000 {
            assert!(rng.index(7) < 7);
        }
    }
}
