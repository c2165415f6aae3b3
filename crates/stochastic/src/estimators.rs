//! Streaming estimators used to summarise Monte-Carlo output.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use ltds_stochastic::StreamingStats;
///
/// let mut s = StreamingStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (infinity if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (negative infinity if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Normal-approximation confidence interval for the mean.
    pub fn confidence_interval(&self, confidence: f64) -> ConfidenceInterval {
        let z = z_for_confidence(confidence);
        let half = z * self.std_error();
        ConfidenceInterval {
            estimate: self.mean,
            lower: self.mean - half,
            upper: self.mean + half,
            confidence,
        }
    }
}

/// A symmetric confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean or proportion).
    pub estimate: f64,
    /// Lower bound of the interval.
    pub lower: f64,
    /// Upper bound of the interval.
    pub upper: f64,
    /// Confidence level, e.g. `0.95`.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Builds a symmetric normal-approximation interval from a point
    /// estimate and a standard error — the escape hatch for estimators
    /// (importance-sampled means, self-normalised ratios) whose standard
    /// error is computed outside [`StreamingStats`].
    pub fn around(estimate: f64, std_error: f64, confidence: f64) -> Self {
        let half = z_for_confidence(confidence) * std_error;
        Self { estimate, lower: estimate - half, upper: estimate + half, confidence }
    }

    /// Whether `value` lies within the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }

    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        0.5 * (self.upper - self.lower)
    }

    /// Relative half-width (half-width / |estimate|), infinity for zero estimates.
    pub fn relative_half_width(&self) -> f64 {
        if self.estimate == 0.0 {
            f64::INFINITY
        } else {
            self.half_width() / self.estimate.abs()
        }
    }
}

/// Estimate of a Bernoulli proportion (e.g. probability of data loss by a horizon).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProportionEstimate {
    successes: u64,
    trials: u64,
}

impl ProportionEstimate {
    /// Creates an empty estimate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one trial with the given outcome.
    pub fn push(&mut self, success: bool) {
        self.trials += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Records `successes` out of `trials` in one shot.
    pub fn record(&mut self, successes: u64, trials: u64) {
        assert!(successes <= trials, "successes cannot exceed trials");
        self.successes += successes;
        self.trials += trials;
    }

    /// Merges another estimate (parallel reduction).
    pub fn merge(&mut self, other: &ProportionEstimate) {
        self.successes += other.successes;
        self.trials += other.trials;
    }

    /// Number of successes recorded.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of trials recorded.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Point estimate of the proportion (0 if no trials).
    pub fn proportion(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Wilson score interval, which behaves well for proportions near 0 or 1.
    pub fn confidence_interval(&self, confidence: f64) -> ConfidenceInterval {
        let z = z_for_confidence(confidence);
        let n = self.trials as f64;
        if self.trials == 0 {
            return ConfidenceInterval { estimate: 0.0, lower: 0.0, upper: 1.0, confidence };
        }
        let p = self.proportion();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / denom;
        ConfidenceInterval {
            estimate: p,
            lower: (centre - half).max(0.0),
            upper: (centre + half).min(1.0),
            confidence,
        }
    }
}

/// Two-sided standard-normal quantile for the usual confidence levels.
///
/// Falls back to a rational approximation of the probit function for
/// non-standard levels.
fn z_for_confidence(confidence: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&confidence) && confidence > 0.0,
        "confidence must be in (0, 1), got {confidence}"
    );
    // Common levels, exact to published tables.
    if (confidence - 0.90).abs() < 1e-9 {
        return 1.644_853_6;
    }
    if (confidence - 0.95).abs() < 1e-9 {
        return 1.959_964_0;
    }
    if (confidence - 0.99).abs() < 1e-9 {
        return 2.575_829_3;
    }
    probit(0.5 + confidence / 2.0)
}

/// Acklam's rational approximation to the inverse normal CDF.
fn probit(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data = [3.0, 7.0, 7.0, 19.0, 24.0, 1.0, 0.5];
        let mut s = StreamingStats::new();
        for &x in &data {
            s.push(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), 0.5);
        assert_eq!(s.max(), 24.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let a_data = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b_data = [10.0, 20.0, 30.0];
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        let mut all = StreamingStats::new();
        for &x in &a_data {
            a.push(x);
            all.push(x);
        }
        for &x in &b_data {
            b.push(x);
            all.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = StreamingStats::new();
        a.push(5.0);
        a.push(7.0);
        let before = a;
        a.merge(&StreamingStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = StreamingStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn confidence_interval_narrows_with_n() {
        let mut small = StreamingStats::new();
        let mut large = StreamingStats::new();
        for i in 0..20 {
            small.push((i % 5) as f64);
        }
        for i in 0..2000 {
            large.push((i % 5) as f64);
        }
        let ci_s = small.confidence_interval(0.95);
        let ci_l = large.confidence_interval(0.95);
        assert!(ci_l.half_width() < ci_s.half_width());
        assert!(ci_s.contains(small.mean()));
    }

    #[test]
    fn z_values_match_tables() {
        assert!((z_for_confidence(0.95) - 1.96).abs() < 0.01);
        assert!((z_for_confidence(0.99) - 2.576).abs() < 0.01);
        assert!((z_for_confidence(0.90) - 1.645).abs() < 0.01);
        // Non-standard level goes through the probit path.
        assert!((z_for_confidence(0.80) - 1.2816).abs() < 0.01);
    }

    #[test]
    fn probit_symmetry() {
        assert!(probit(0.5).abs() < 1e-9);
        assert!((probit(0.975) - 1.959_964).abs() < 1e-4);
        assert!((probit(0.025) + 1.959_964).abs() < 1e-4);
        assert!((probit(0.999) - 3.0902).abs() < 1e-3);
    }

    #[test]
    fn proportion_estimate_basics() {
        let mut p = ProportionEstimate::new();
        for i in 0..100 {
            p.push(i % 4 == 0);
        }
        assert_eq!(p.trials(), 100);
        assert_eq!(p.successes(), 25);
        assert!((p.proportion() - 0.25).abs() < 1e-12);
        let ci = p.confidence_interval(0.95);
        assert!(ci.contains(0.25));
        assert!(ci.lower >= 0.0 && ci.upper <= 1.0);
    }

    #[test]
    fn proportion_extremes_stay_in_unit_interval() {
        let mut p = ProportionEstimate::new();
        p.record(0, 50);
        let ci0 = p.confidence_interval(0.95);
        assert!(ci0.lower >= 0.0);
        assert!(ci0.upper > 0.0, "Wilson upper bound should exceed 0 for 0/50");

        let mut q = ProportionEstimate::new();
        q.record(50, 50);
        let ci1 = q.confidence_interval(0.95);
        assert!(ci1.upper <= 1.0);
        assert!(ci1.lower < 1.0);
    }

    #[test]
    fn proportion_merge() {
        let mut a = ProportionEstimate::new();
        let mut b = ProportionEstimate::new();
        a.record(3, 10);
        b.record(7, 10);
        a.merge(&b);
        assert_eq!(a.trials(), 20);
        assert!((a.proportion() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn invalid_confidence_panics() {
        let s = StreamingStats::new();
        let _ = s.confidence_interval(1.5);
    }

    #[test]
    fn interval_around_matches_streaming_stats() {
        let mut s = StreamingStats::new();
        for x in [2.0, 4.0, 4.0, 6.0, 9.0, 11.0] {
            s.push(x);
        }
        let direct = s.confidence_interval(0.95);
        let rebuilt = ConfidenceInterval::around(s.mean(), s.std_error(), 0.95);
        assert!((direct.lower - rebuilt.lower).abs() < 1e-12);
        assert!((direct.upper - rebuilt.upper).abs() < 1e-12);
    }
}
