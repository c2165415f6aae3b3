//! Seeded, forkable random-number generation for reproducible simulations.

/// A reproducible random number generator used throughout the simulator.
///
/// `SimRng` is xoshiro256++ (Blackman & Vigna) seeded from a `u64`. Every
/// Monte-Carlo trial gets its own deterministic sub-stream via
/// [`SimRng::fork`], so results are reproducible regardless of thread
/// scheduling. Every pinned digest, cache key and byte-identical stream in
/// the workspace depends on this exact stream; `tests::raw_stream_is_pinned`
/// holds its first values.
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
    s: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a generator from an explicit seed.
    pub fn seed_from(seed: u64) -> Self {
        // The state words are SplitMix64 outputs of four distinct inputs.
        // SplitMix64 is a bijection, so at most one word is zero and the
        // state is never xoshiro's all-zero fixed point.
        let word = |i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        Self { s: [word(0), word(1), word(2), word(3)], seed }
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

    /// Draws the next 64 raw bits: one xoshiro256++ step.
    #[inline(always)]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Draws a uniform value in `[0, 1)` from the top 53 bits of one raw
    /// draw.
    #[inline(always)]
    pub fn uniform01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a uniform value strictly inside `(0, 1)`.
    ///
    /// Useful for inverse-CDF sampling where `ln(0)` must be avoided.
    pub fn open01(&mut self) -> f64 {
        loop {
            let u = self.uniform01();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Draws a uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        let span = n as u64;
        // Rejection sampling: raw draws at or above the largest multiple
        // of `span` are redrawn, so `v % span` carries no modulo bias.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % span) as usize;
            }
        }
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

/// SplitMix64 mixing function, used to expand seeds and derive fork seeds.
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
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = rng.uniform01();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn open01_never_zero() {
        let mut rng = SimRng::seed_from(4);
        for _ in 0..1000 {
            assert!(rng.open01() > 0.0);
        }
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
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let i = rng.index(7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "every index must be reachable: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn index_rejects_an_empty_range() {
        SimRng::seed_from(9).index(0);
    }

    /// The raw stream every pin in the workspace rests on: xoshiro256++
    /// seeded by SplitMix64 expansion, the 53-bit uniform, the inverse-CDF
    /// exponential and the rejection-sampled index. If this fails, the
    /// generator changed, and every seed-pinned test and digest moves too.
    #[test]
    fn raw_stream_is_pinned() {
        let raw = |rng: &mut SimRng, n: usize| (0..n).map(|_| rng.next_u64()).collect::<Vec<_>>();
        assert_eq!(
            raw(&mut SimRng::seed_from(0), 4),
            [0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc, 0x02eebf8c3bbe5e1a]
        );
        assert_eq!(
            raw(&mut SimRng::seed_from(42), 4),
            [0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c, 0xb37d9f600cd835b8]
        );
        assert_eq!(
            raw(&mut SimRng::seed_from(u64::MAX), 4),
            [0x56ccf8ce948e27b2, 0xe68588432e5a5b90, 0xe3e9b5a48119ca8b, 0x460f19495532ae73]
        );
        let root = SimRng::seed_from(42);
        assert_eq!(raw(&mut root.fork(0), 2), [0x54f4989349c1983d, 0x69f3d838576d5bfb]);
        assert_eq!(raw(&mut root.fork(u64::MAX), 2), [0x5a0f1617dd90e3e4, 0xcf2d18991c0c63ae]);

        let mut rng = SimRng::seed_from(7);
        let uniforms: Vec<u64> = (0..4).map(|_| rng.uniform01().to_bits()).collect();
        assert_eq!(
            uniforms,
            [0x3fac583400555d20, 0x3fc607e46efd274c, 0x3fe6f66236761a8b, 0x3fdb5767da98c600]
        );
        let exponentials: Vec<u64> = (0..4).map(|_| rng.exponential(3.0).to_bits()).collect();
        assert_eq!(
            exponentials,
            [0x3fbc6de2af59e50a, 0x40025747a548045c, 0x3fef04507684b948, 0x400a9e9d09401e42]
        );
        let small: Vec<usize> = (0..8).map(|_| rng.index(7)).collect();
        assert_eq!(small, [4, 1, 0, 1, 5, 2, 4, 1]);
        // A span of 2^63 + 1 rejects about half of all raw draws; these
        // four take six, so the rejection loop runs twice.
        let wide: Vec<usize> = (0..4).map(|_| rng.index((1 << 63) + 1)).collect();
        assert_eq!(
            wide,
            [0x29ae2b86cc1365e5, 0x2f36ae4712c2aabe, 0x1c2503d28c43d52b, 0x6aa99e6b5e55f254]
        );
    }
}
