//! The memoryless fault-time laws the simulators draw from.
//!
//! All distributions are over non-negative times (hours in the rest of the
//! workspace, but the unit is irrelevant here): the exponential of the
//! paper's Equation 1, its truncation to a horizon, the competing-clock
//! race (nominal and importance-tilted), and the binomial count that thins
//! fleet-scale setup.

use crate::rng::SimRng;
use crate::ziggurat;
use serde::{Deserialize, Serialize};

/// How exponential deviates are drawn by the hot-path sampler
/// ([`FaultRace`], and through it [`BiasedFaultRace`]): the inverse-CDF
/// `-m·ln(U)` (one `ln` per draw, the pre-ziggurat random stream) or the
/// 256-layer ziggurat rejection sampler (no `ln` on ~98.9 % of draws).
///
/// Both draw from *exactly* the same distribution — the choice changes how
/// much raw randomness each draw consumes, and therefore the concrete
/// sample path of a seeded simulation. Configs carry the discipline
/// explicitly so pinned-digest tests can hold the old stream (`Scalar`)
/// while production defaults to the fast one, and the equivalence proptests
/// can demand statistical agreement between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum DrawDiscipline {
    /// Inverse-CDF sampling: `-m·ln(U)`, one `ln` and one uniform per draw.
    /// Reproduces the random stream every release before the ziggurat used.
    Scalar,
    /// Ziggurat rejection sampling (Marsaglia & Tsang 2000; the tables and
    /// their self-verifying construction are in the private `ziggurat`
    /// module): one raw `u64`, a table lookup and a compare on the fast
    /// path; the `ln` survives only in the rare tail branch.
    #[default]
    Ziggurat,
}

// Deserialization is written out by hand so configs predating the
// discipline stay loadable: the vendored derive hands *absent* struct
// fields through as `Null`, which maps to the default here instead of a
// hard parse error (a pre-ziggurat campaign spec should not stop parsing).
impl Deserialize for DrawDiscipline {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Null => Ok(Self::default()),
            serde::Value::Str(s) if s == "Scalar" => Ok(Self::Scalar),
            serde::Value::Str(s) if s == "Ziggurat" => Ok(Self::Ziggurat),
            _ => Err(serde::Error::custom("expected variant of DrawDiscipline")),
        }
    }
}

/// The memoryless exponential distribution used throughout the paper
/// (Equation 1: `P(t) = 1 - e^{-t/MTTF}`).
///
/// # Examples
///
/// ```
/// use ltds_stochastic::Exponential;
///
/// let d = Exponential::with_mean(1000.0);
/// assert!((d.mean() - 1000.0).abs() < 1e-12);
/// assert!((d.cdf(1000.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean (MTTF).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive and finite, got {mean}"
        );
        Self { mean }
    }

    /// The rate parameter `λ`.
    pub fn rate(&self) -> f64 {
        1.0 / self.mean
    }

    /// Draws a sample by inverse CDF, `-m·ln(U)`.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.exponential(self.mean)
    }

    /// The mean (MTTF).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Cumulative distribution function `P(X <= t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            1.0 - (-t / self.mean).exp()
        }
    }

    /// Conditions the distribution on `X <= bound`, resolving the bound's
    /// CDF mass once so repeated draws (e.g. a setup loop with a fixed
    /// horizon) pay one uniform and one `ln` each — the same
    /// resolve-at-construction philosophy as [`FaultRace`].
    pub fn truncated(&self, bound: f64) -> TruncatedExponential {
        assert!(bound > 0.0, "truncation bound must be positive");
        // P(X <= bound), computed as -expm1 for accuracy at small bounds.
        let p_bound = -(-bound / self.mean).exp_m1();
        TruncatedExponential { mean: self.mean, bound, p_bound }
    }

    /// Draws a sample conditioned on `X <= bound`; a convenience for
    /// one-off draws — loops with a fixed bound should resolve
    /// [`Exponential::truncated`] once instead.
    #[inline]
    pub fn sample_truncated(&self, rng: &mut SimRng, bound: f64) -> f64 {
        self.truncated(bound).sample(rng)
    }

    /// Mean of the distribution conditioned on `X <= bound`:
    /// `m - bound·e^{-bound/m} / (1 - e^{-bound/m})`.
    pub fn truncated_mean(&self, bound: f64) -> f64 {
        let t = self.truncated(bound);
        self.mean - bound * (-bound / self.mean).exp() / t.p_bound
    }
}

/// An exponential conditioned on `X <= bound`, produced by
/// [`Exponential::truncated`]; inverse-CDF sampling
/// `x = -m·ln(1 - U·(1 - e^{-bound/m}))` with the bound mass pre-resolved.
///
/// Used by setup paths that already know (via a thinned count draw) that
/// an event falls inside a horizon, so the out-of-horizon mass is never
/// sampled at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedExponential {
    mean: f64,
    bound: f64,
    p_bound: f64,
}

impl TruncatedExponential {
    /// Draws a sample in `(0, bound]`. The result is clamped to the bound
    /// against floating-point round-off, so callers may schedule it
    /// unconditionally.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let x = -self.mean * (-rng.open01() * self.p_bound).ln_1p();
        x.min(self.bound)
    }
}

/// A pre-resolved race between two competing exponential clocks — the
/// innermost draw of both simulators ("does the visible or the latent fault
/// arrive first, and when?").
///
/// Instead of sampling each clock and taking the minimum (two `ln` calls),
/// the race samples the minimum directly: for independent exponentials the
/// minimum is itself exponential at the combined rate, and the *identity*
/// of the winner is independent of the minimum, Bernoulli with probability
/// `rate_first / (rate_first + rate_second)`. One `ln` plus one uniform per
/// draw, from exactly the same joint distribution.
///
/// All derived parameters (combined mean, winner probability) are resolved
/// at construction, so per-draw work is branch-free. The minimum's delay is
/// drawn through the race's [`DrawDiscipline`] — the ziggurat by default,
/// the inverse CDF under [`DrawDiscipline::Scalar`] (same joint
/// distribution either way; only the raw-stream consumption differs).
///
/// # Examples
///
/// ```
/// use ltds_stochastic::{FaultRace, SimRng};
///
/// let race = FaultRace::new(1000.0, 5000.0);
/// let mut rng = SimRng::seed_from(7);
/// let (delay, first_won) = race.sample(&mut rng);
/// assert!(delay > 0.0);
/// let _ = first_won;
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRace {
    combined_mean: f64,
    p_first: f64,
    draw: DrawDiscipline,
}

impl FaultRace {
    /// Creates a race between clocks with the given means, drawing delays
    /// through the default discipline ([`DrawDiscipline::Ziggurat`]).
    ///
    /// # Panics
    ///
    /// Panics if either mean is not strictly positive and finite.
    pub fn new(mean_first: f64, mean_second: f64) -> Self {
        assert!(
            mean_first.is_finite() && mean_first > 0.0,
            "race mean must be positive and finite, got {mean_first}"
        );
        assert!(
            mean_second.is_finite() && mean_second > 0.0,
            "race mean must be positive and finite, got {mean_second}"
        );
        let rate = 1.0 / mean_first + 1.0 / mean_second;
        Self {
            combined_mean: 1.0 / rate,
            p_first: (1.0 / mean_first) / rate,
            draw: DrawDiscipline::default(),
        }
    }

    /// Selects the delay-draw discipline (simulators pass their config's).
    pub fn with_draw(mut self, draw: DrawDiscipline) -> Self {
        self.draw = draw;
        self
    }

    /// Mean of the winning (minimum) delay.
    pub fn combined_mean(&self) -> f64 {
        self.combined_mean
    }

    /// Probability that the first clock wins the race.
    pub fn p_first(&self) -> f64 {
        self.p_first
    }

    /// Draws `(delay, first_won)`: the time of the earlier fault and
    /// whether the first clock produced it.
    ///
    /// The Monte-Carlo trial loop draws through this and keeps its stream
    /// in registers, so the draw pipeline is forced inline and its cold
    /// draws (the ziggurat's slow layers, the scalar inverse CDF) run on a
    /// detached copy of the stream ([`SimRng::detached`]).
    #[inline(always)]
    pub fn sample(&self, rng: &mut SimRng) -> (f64, bool) {
        (self.sample_delay(rng), self.sample_winner(rng))
    }

    /// Draws only the winning delay. Because the minimum and its identity
    /// are independent, a caller that discards out-of-horizon faults can
    /// draw the delay first and spend the identity draw
    /// ([`FaultRace::sample_winner`]) only on faults it will schedule.
    #[inline(always)]
    pub fn sample_delay(&self, rng: &mut SimRng) -> f64 {
        match self.draw {
            DrawDiscipline::Scalar => {
                let mean = self.combined_mean;
                rng.detached(move |rng| rng.exponential(mean))
            }
            DrawDiscipline::Ziggurat => ziggurat::standard(rng) * self.combined_mean,
        }
    }

    /// Draws the winner's identity (`true` = first clock), independent of
    /// any delay drawn via [`FaultRace::sample_delay`].
    #[inline(always)]
    pub fn sample_winner(&self, rng: &mut SimRng) -> bool {
        rng.uniform01() < self.p_first
    }
}

/// A [`FaultRace`] sampled under an importance-sampling *tilt*: both clock
/// rates are inflated by `tilt`, so faults arrive `tilt`× sooner than under
/// the nominal measure, and every draw reports the log-likelihood-ratio
/// increment `ln(p_nominal(x) / p_tilted(x))` needed to reweight outcomes
/// back to the nominal measure.
///
/// Because both clocks tilt by the same factor, the winner identity keeps
/// its nominal law (`p_first` is invariant under a common rate scaling) and
/// contributes nothing to the log-LR; only the delay draw is biased. For an
/// exponential minimum with nominal combined mean `m` the increment is
/// exact:
///
/// ```text
/// llr(x) = ln( (1/m)·e^{-x/m} / (tilt/m)·e^{-x·tilt/m} )
///        = -ln(tilt) + (tilt - 1)·x/m
/// ```
///
/// With `tilt = 1` the race consumes the RNG exactly like the unbiased
/// [`FaultRace`] (same draws, same order) and every increment is `0.0`.
///
/// # Examples
///
/// ```
/// use ltds_stochastic::{BiasedFaultRace, SimRng};
///
/// let race = BiasedFaultRace::new(1000.0, 5000.0, 8.0);
/// let mut rng = SimRng::seed_from(7);
/// let (delay, _first_won, llr) = race.sample(&mut rng);
/// assert!(delay > 0.0);
/// // The weight exp(llr) reweights this draw back to the nominal measure.
/// assert!(llr.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasedFaultRace {
    /// The race resolved at the tilted (inflated) rates.
    race: FaultRace,
    tilt: f64,
    ln_tilt: f64,
    /// `(tilt - 1) / nominal combined mean` — the slope of the log-LR in
    /// the realised delay.
    llr_slope: f64,
}

impl BiasedFaultRace {
    /// Creates a tilted race between clocks with the given *nominal* means.
    ///
    /// # Panics
    ///
    /// Panics if either mean is not strictly positive and finite, or if
    /// `tilt` is not strictly positive and finite.
    pub fn new(mean_first: f64, mean_second: f64, tilt: f64) -> Self {
        assert!(
            tilt.is_finite() && tilt > 0.0,
            "importance tilt must be positive and finite, got {tilt}"
        );
        let nominal = FaultRace::new(mean_first, mean_second);
        let race = FaultRace::new(mean_first / tilt, mean_second / tilt);
        Self { race, tilt, ln_tilt: tilt.ln(), llr_slope: (tilt - 1.0) / nominal.combined_mean() }
    }

    /// Selects the delay-draw discipline (simulators pass their config's).
    pub fn with_draw(mut self, draw: DrawDiscipline) -> Self {
        self.race = self.race.with_draw(draw);
        self
    }

    /// The rate-inflation factor.
    pub fn tilt(&self) -> f64 {
        self.tilt
    }

    /// Mean of the winning delay under the *tilted* measure
    /// (`nominal combined mean / tilt`).
    pub fn tilted_mean(&self) -> f64 {
        self.race.combined_mean()
    }

    /// Probability that the first clock wins (identical under both
    /// measures).
    pub fn p_first(&self) -> f64 {
        self.race.p_first()
    }

    /// Log-likelihood-ratio increment of a realised delay `x`:
    /// `-ln(tilt) + (tilt - 1)·x / nominal_mean`. Exactly `0.0` when
    /// `tilt = 1`.
    #[inline(always)]
    pub fn llr_of(&self, delay: f64) -> f64 {
        self.llr_slope * delay - self.ln_tilt
    }

    /// Draws `(delay, first_won, llr_increment)` under the tilted measure.
    ///
    /// Summing the increments over every draw a trial makes and
    /// exponentiating yields the trial's importance weight under the
    /// nominal measure.
    #[inline(always)]
    pub fn sample(&self, rng: &mut SimRng) -> (f64, bool, f64) {
        let (delay, first_won) = self.race.sample(rng);
        (delay, first_won, self.llr_of(delay))
    }
}

/// The number of successes in `n` independent Bernoulli(`p`) trials.
///
/// Sampling is *exact* (no normal or Poisson approximation) via geometric
/// waiting times between successes: the gap to the next success is
/// `floor(ln U / ln(1-p))`, so a draw costs `O(n·min(p, 1-p))` expected
/// RNG consumption instead of `O(n)` — the key to thinning fleet-scale
/// setup, where `n` is the slot count and `p` the small per-slot
/// within-horizon probability ([Devroye 1986, ch. X.4]).
///
/// [`Binomial::positions`] exposes the same process as a cursor over the
/// *sorted success indices* in `0..n`: marginally the count of yielded
/// positions is `Binomial(n, p)` and, given the count, the positions are a
/// uniform random subset — the "draw the count binomially, then place the
/// events uniformly" factorisation, fused into one sorted pass.
///
/// # Examples
///
/// ```
/// use ltds_stochastic::{Binomial, SimRng};
///
/// let b = Binomial::new(100, 0.25);
/// let mut rng = SimRng::seed_from(1);
/// let k = b.sample(&mut rng);
/// assert!(k <= 100);
/// assert!((b.mean() - 25.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a binomial distribution over `n` trials at success
    /// probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "binomial p must lie in [0, 1], got {p}");
        Self { n, p }
    }

    /// Number of trials.
    pub fn trials(&self) -> u64 {
        self.n
    }

    /// Per-trial success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Analytic mean `n·p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Analytic variance `n·p·(1-p)`.
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// Draws the number of successes. Exact for every `(n, p)`; expected
    /// RNG consumption is `O(n·min(p, 1-p) + 1)` (the rarer outcome is
    /// counted, successes or failures, whichever is cheaper).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.p > 0.5 {
            // Count failures instead: Binomial(n, 1-p) mirrored.
            return self.n - Self::count_successes(self.n, 1.0 - self.p, rng);
        }
        Self::count_successes(self.n, self.p, rng)
    }

    /// Starts a cursor over the sorted success positions in `0..n`.
    pub fn positions(&self) -> BinomialPositions {
        // ln(1-p) via ln_1p so probabilities down to f64 granularity skip
        // correctly instead of collapsing to ln(1.0) == 0.
        BinomialPositions { ln_q: (-self.p).ln_1p(), n: self.n, next: 0, p: self.p }
    }

    /// Counts successes in `n` trials at probability `p <= 0.5`.
    fn count_successes(n: u64, p: f64, rng: &mut SimRng) -> u64 {
        let mut cursor = Binomial { n, p }.positions();
        let mut count = 0u64;
        while cursor.next(rng).is_some() {
            count += 1;
        }
        count
    }
}

/// Cursor over the sorted success positions of a [`Binomial`] process; see
/// [`Binomial::positions`].
#[derive(Debug, Clone)]
pub struct BinomialPositions {
    ln_q: f64,
    n: u64,
    next: u64,
    p: f64,
}

impl BinomialPositions {
    /// Yields the next success position (strictly increasing), or `None`
    /// once the remaining trials hold no further success. Takes the RNG
    /// explicitly so callers can interleave other draws per position.
    pub fn next(&mut self, rng: &mut SimRng) -> Option<u64> {
        if self.next >= self.n || self.p <= 0.0 {
            return None;
        }
        // Geometric gap: number of failures before the next success.
        let gap = if self.p >= 1.0 { 0.0 } else { (rng.open01().ln() / self.ln_q).floor() };
        // Compare in f64 before casting: a huge gap must saturate past n,
        // not wrap.
        if gap >= (self.n - self.next) as f64 {
            self.next = self.n;
            return None;
        }
        let position = self.next + gap as u64;
        self.next = position + 1;
        Some(position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_cdf_and_mean() {
        let d = Exponential::with_mean(100.0);
        assert!((d.mean() - 100.0).abs() < 1e-12);
        assert!((d.cdf(100.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert_eq!(d.cdf(0.0), 0.0);
        assert!((d.rate() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn exponential_sample_mean_close() {
        let d = Exponential::with_mean(42.0);
        let mut rng = SimRng::seed_from(1);
        let m = (0..40_000).map(|_| d.sample(&mut rng)).sum::<f64>() / 40_000.0;
        assert!((m - 42.0).abs() / 42.0 < 0.03, "mean {m}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        let _ = Exponential::with_mean(0.0);
    }

    #[test]
    fn truncated_exponential_stays_inside_the_bound() {
        let d = Exponential::with_mean(100.0);
        let mut rng = SimRng::seed_from(31);
        for _ in 0..20_000 {
            let x = d.sample_truncated(&mut rng, 40.0);
            assert!(x > 0.0 && x <= 40.0, "truncated sample {x} escaped (0, 40]");
        }
    }

    #[test]
    fn truncated_exponential_matches_conditional_mean() {
        // Moment check against the closed form
        // E[X | X <= b] = m - b·e^{-b/m} / (1 - e^{-b/m}).
        let d = Exponential::with_mean(100.0);
        let n = 60_000;
        for bound in [10.0, 100.0, 400.0] {
            let mut rng = SimRng::seed_from(32);
            let m: f64 =
                (0..n).map(|_| d.sample_truncated(&mut rng, bound)).sum::<f64>() / n as f64;
            let expected = d.truncated_mean(bound);
            assert!(
                (m - expected).abs() / expected < 0.03,
                "bound {bound}: sample mean {m} vs analytic {expected}"
            );
        }
    }

    #[test]
    fn truncated_exponential_with_loose_bound_matches_the_untruncated_mean() {
        // With bound >> mean the conditioning is negligible; the sampler
        // must degrade gracefully into the plain exponential.
        let d = Exponential::with_mean(5.0);
        let mut rng = SimRng::seed_from(33);
        let n = 40_000;
        let m: f64 = (0..n).map(|_| d.sample_truncated(&mut rng, 5_000.0)).sum::<f64>() / n as f64;
        assert!((m - 5.0).abs() / 5.0 < 0.03, "mean {m}");
        assert!((d.truncated_mean(5_000.0) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn binomial_moments_match_closed_forms() {
        // Moment checks against n·p and n·p·(1-p), spanning the direct
        // (p <= 0.5) and mirrored (p > 0.5) sampling regimes.
        for (n, p, seed) in [(500u64, 0.03, 41u64), (200, 0.4, 42), (300, 0.85, 43)] {
            let b = Binomial::new(n, p);
            let mut rng = SimRng::seed_from(seed);
            let trials = 20_000;
            let samples: Vec<f64> = (0..trials).map(|_| b.sample(&mut rng) as f64).collect();
            let mean = samples.iter().sum::<f64>() / trials as f64;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
            assert!(
                (mean - b.mean()).abs() / b.mean() < 0.02,
                "n={n} p={p}: mean {mean} vs {}",
                b.mean()
            );
            assert!(
                (var - b.variance()).abs() / b.variance() < 0.05,
                "n={n} p={p}: variance {var} vs {}",
                b.variance()
            );
        }
    }

    #[test]
    fn binomial_degenerate_probabilities() {
        let mut rng = SimRng::seed_from(44);
        assert_eq!(Binomial::new(100, 0.0).sample(&mut rng), 0);
        assert_eq!(Binomial::new(100, 1.0).sample(&mut rng), 100);
        assert_eq!(Binomial::new(0, 0.5).sample(&mut rng), 0);
        let mut cursor = Binomial::new(100, 0.0).positions();
        assert_eq!(cursor.next(&mut rng), None);
    }

    #[test]
    fn binomial_positions_are_sorted_uniform_hits() {
        // The cursor yields strictly increasing positions in range; the
        // count matches Binomial moments and every index is hit equally
        // often (uniformity of the implied subset).
        let n = 64u64;
        let p = 0.2;
        let b = Binomial::new(n, p);
        let mut rng = SimRng::seed_from(45);
        let rounds = 30_000;
        let mut counts = vec![0u64; n as usize];
        let mut total = 0u64;
        for _ in 0..rounds {
            let mut cursor = b.positions();
            let mut last: Option<u64> = None;
            while let Some(pos) = cursor.next(&mut rng) {
                assert!(pos < n);
                if let Some(prev) = last {
                    assert!(pos > prev, "positions must be strictly increasing");
                }
                last = Some(pos);
                counts[pos as usize] += 1;
                total += 1;
            }
        }
        let mean_count = total as f64 / rounds as f64;
        assert!((mean_count - b.mean()).abs() / b.mean() < 0.02, "mean hits {mean_count}");
        let per_slot = total as f64 / n as f64;
        for (slot, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - per_slot).abs() / per_slot < 0.08,
                "slot {slot} hit {c} times, expected ~{per_slot}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "binomial p")]
    fn binomial_rejects_bad_probability() {
        let _ = Binomial::new(10, 1.5);
    }

    /// Two-sided Kolmogorov–Smirnov statistic of `xs` against the unit
    /// exponential CDF.
    fn ks_vs_unit_exponential(xs: &mut [f64]) -> f64 {
        xs.sort_by(f64::total_cmp);
        let n = xs.len() as f64;
        let mut d = 0.0f64;
        for (i, &x) in xs.iter().enumerate() {
            let f = 1.0 - (-x).exp();
            d = d.max((f - i as f64 / n).abs()).max(((i + 1) as f64 / n - f).abs());
        }
        d
    }

    #[test]
    fn ziggurat_moments_match_the_exponential() {
        let n = 80_000;
        let mut rng = SimRng::seed_from(7);
        let xs: Vec<f64> = (0..n).map(|_| ziggurat::standard(&mut rng) * 42.0).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 42.0).abs() / 42.0 < 0.02, "mean {mean}");
        // Exponential variance is mean².
        assert!((var - 42.0 * 42.0).abs() / (42.0 * 42.0) < 0.05, "variance {var}");
    }

    #[test]
    fn ziggurat_body_passes_a_ks_test() {
        // Scalar path: the empirical CDF of 50k draws must stay within the
        // α ≈ 0.001 Kolmogorov band of the exponential CDF (deterministic
        // given the pinned seed, so this is a regression pin, not a flake).
        let n = 50_000usize;
        let mut rng = SimRng::seed_from(101);
        let mut xs: Vec<f64> = (0..n).map(|_| ziggurat::standard(&mut rng)).collect();
        let d = ks_vs_unit_exponential(&mut xs);
        assert!(d < 1.95 / (n as f64).sqrt(), "scalar KS statistic {d}");
    }

    #[test]
    fn ziggurat_tail_is_exact_beyond_r() {
        // Beyond R the law is exponential again: the exceedance fraction
        // must match e^{-R} and the exceedances themselves must be
        // unit-exponential (mean 1). 4M draws put ~1800 in the tail.
        let r = crate::ziggurat::R;
        let n = 4_000_000u64;
        let mut rng = SimRng::seed_from(103);
        let mut count = 0u64;
        let mut sum = 0.0f64;
        for _ in 0..n {
            let x = ziggurat::standard(&mut rng);
            if x > r {
                count += 1;
                sum += x - r;
            }
        }
        let expect = (-r).exp() * n as f64;
        assert!(
            (count as f64 - expect).abs() < 5.0 * expect.sqrt(),
            "tail count {count}, expected ~{expect:.0}"
        );
        let tail_mean = sum / count as f64;
        assert!((tail_mean - 1.0).abs() < 0.1, "tail exceedance mean {tail_mean}");
    }

    #[test]
    fn fault_race_disciplines_agree_statistically() {
        // Same joint distribution through either discipline: compare the
        // mean delay and winner frequency of the two streams.
        let scalar = FaultRace::new(1000.0, 5000.0).with_draw(DrawDiscipline::Scalar);
        let ziggurat = FaultRace::new(1000.0, 5000.0).with_draw(DrawDiscipline::Ziggurat);
        let n = 60_000;
        let summarize = |race: &FaultRace, seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            let out: Vec<(f64, bool)> = (0..n).map(|_| race.sample(&mut rng)).collect();
            let mean: f64 = out.iter().map(|&(d, _)| d).sum::<f64>() / n as f64;
            let first = out.iter().filter(|&&(_, f)| f).count() as f64 / n as f64;
            (mean, first)
        };
        let (m_s, f_s) = summarize(&scalar, 23);
        let (m_z, f_z) = summarize(&ziggurat, 24);
        assert!((m_s - m_z).abs() / m_s < 0.03, "mean delays diverged: {m_s} vs {m_z}");
        assert!((f_s - f_z).abs() < 0.01, "winner frequencies diverged: {f_s} vs {f_z}");
    }

    #[test]
    fn scalar_discipline_reproduces_the_inverse_cdf_stream() {
        // The Scalar discipline is the compatibility path: it must consume
        // the RNG exactly as the pre-ziggurat code did.
        let race = FaultRace::new(1000.0, 5000.0).with_draw(DrawDiscipline::Scalar);
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        for _ in 0..64 {
            let (delay, first) = race.sample(&mut a);
            let want = b.exponential(race.combined_mean());
            assert_eq!(delay.to_bits(), want.to_bits());
            assert_eq!(first, b.uniform01() < race.p_first());
        }
        assert_eq!(a.uniform01(), b.uniform01());
    }

    #[test]
    fn fault_race_parameters() {
        let race = FaultRace::new(1000.0, 5000.0);
        // Combined rate 1/1000 + 1/5000 = 6/5000.
        assert!((race.combined_mean() - 5000.0 / 6.0).abs() < 1e-9);
        assert!((race.p_first() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn fault_race_matches_explicit_two_clock_race() {
        // The direct draw must match min-of-two-exponentials in
        // distribution: compare the mean delay and the winner frequency.
        let (mv, ml) = (1000.0, 5000.0);
        let race = FaultRace::new(mv, ml);
        let n = 60_000;
        let mut rng = SimRng::seed_from(21);
        let out: Vec<(f64, bool)> = (0..n).map(|_| race.sample(&mut rng)).collect();
        let mean: f64 = out.iter().map(|&(d, _)| d).sum::<f64>() / n as f64;
        let first_frac = out.iter().filter(|&&(_, f)| f).count() as f64 / n as f64;

        let mut rng = SimRng::seed_from(22);
        let mut ref_mean = 0.0;
        let mut ref_first = 0u64;
        for _ in 0..n {
            let v = rng.exponential(mv);
            let l = rng.exponential(ml);
            ref_mean += v.min(l);
            ref_first += u64::from(v <= l);
        }
        ref_mean /= n as f64;
        let ref_first_frac = ref_first as f64 / n as f64;

        assert!((mean - ref_mean).abs() / ref_mean < 0.03, "{mean} vs {ref_mean}");
        assert!((first_frac - ref_first_frac).abs() < 0.01, "{first_frac} vs {ref_first_frac}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn fault_race_rejects_bad_means() {
        let _ = FaultRace::new(0.0, 10.0);
    }

    #[test]
    fn unit_tilt_reproduces_the_unbiased_race_bit_exactly() {
        // tilt = 1 is the compatibility case: identical draws in identical
        // order, zero log-LR on every one.
        for draw in [DrawDiscipline::Scalar, DrawDiscipline::Ziggurat] {
            let plain = FaultRace::new(1000.0, 5000.0).with_draw(draw);
            let biased = BiasedFaultRace::new(1000.0, 5000.0, 1.0).with_draw(draw);
            let mut a = SimRng::seed_from(77);
            let mut b = SimRng::seed_from(77);
            for i in 0..256 {
                let (d0, f0) = plain.sample(&mut a);
                let (d1, f1, llr) = biased.sample(&mut b);
                assert_eq!(d0.to_bits(), d1.to_bits(), "draw {i} delay diverged ({draw:?})");
                assert_eq!(f0, f1, "draw {i} winner diverged ({draw:?})");
                assert_eq!(llr, 0.0, "draw {i} log-LR must vanish at tilt 1");
            }
            assert_eq!(a.uniform01(), b.uniform01(), "RNG states diverged ({draw:?})");
        }
    }

    #[test]
    fn tilted_race_parameters() {
        let biased = BiasedFaultRace::new(1000.0, 5000.0, 4.0);
        let nominal = FaultRace::new(1000.0, 5000.0);
        assert_eq!(biased.tilt(), 4.0);
        // Combined mean shrinks by the tilt; the winner law is unchanged.
        assert!((biased.tilted_mean() - nominal.combined_mean() / 4.0).abs() < 1e-12);
        assert!((biased.p_first() - nominal.p_first()).abs() < 1e-15);
    }

    #[test]
    fn importance_weights_integrate_to_one_and_reweight_the_mean() {
        // E_tilted[e^llr] = 1 (the likelihood ratio integrates to unity) and
        // E_tilted[e^llr · x] = nominal mean: the textbook unbiasedness
        // identities, checked by Monte Carlo. Tilt stays below 2 so the
        // weight has finite variance under the tilted law (for tilt ≥ 2 the
        // second moment E[e^{2(tilt−1)λx}] diverges and the raw-mean check
        // would need astronomically many draws; rare-event estimators dodge
        // this because loss paths have short delays and hence small weights).
        let tilt = 1.6;
        let biased = BiasedFaultRace::new(1000.0, 5000.0, tilt);
        let nominal_mean = FaultRace::new(1000.0, 5000.0).combined_mean();
        let n = 400_000;
        let mut rng = SimRng::seed_from(91);
        let mut sum_w = 0.0;
        let mut sum_wx = 0.0;
        let mut sum_x = 0.0;
        for _ in 0..n {
            let (x, _, llr) = biased.sample(&mut rng);
            let w = llr.exp();
            sum_w += w;
            sum_wx += w * x;
            sum_x += x;
        }
        let mean_w = sum_w / n as f64;
        let mean_wx = sum_wx / n as f64;
        let mean_x = sum_x / n as f64;
        assert!((mean_w - 1.0).abs() < 0.02, "E[w] = {mean_w}, want 1");
        assert!(
            (mean_wx - nominal_mean).abs() / nominal_mean < 0.05,
            "E[w·x] = {mean_wx}, want {nominal_mean}"
        );
        // Sanity: the raw tilted draws really are tilt× faster.
        assert!(
            (mean_x - nominal_mean / tilt).abs() / (nominal_mean / tilt) < 0.02,
            "tilted mean {mean_x}, want {}",
            nominal_mean / tilt
        );
    }

    #[test]
    #[should_panic(expected = "tilt")]
    fn biased_race_rejects_bad_tilt() {
        let _ = BiasedFaultRace::new(1000.0, 5000.0, 0.0);
    }
}
