//! Window-of-vulnerability analysis: Equations 3–6 and Figure 2.
//!
//! After a first fault, the mirrored data is vulnerable until that fault has
//! been detected (latent faults only) and repaired. Equations 3–6 give the
//! probability that a second fault of each class strikes the surviving copy
//! within that window; correlation divides each probability's effective mean
//! time by `α`.

use crate::memoryless::probability_within_linearised;
use crate::params::ReliabilityParams;

/// The four conditional second-fault probabilities of Figure 2 / Eqs. 3–6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoubleFaultProbabilities {
    /// `P(V2 | V1)` — second visible fault within the window opened by a visible fault (Eq. 3).
    pub visible_after_visible: f64,
    /// `P(L2 | V1)` — second latent fault within the window opened by a visible fault (Eq. 4).
    pub latent_after_visible: f64,
    /// `P(V2 | L1)` — second visible fault within the window opened by a latent fault (Eq. 5).
    pub visible_after_latent: f64,
    /// `P(L2 | L1)` — second latent fault within the window opened by a latent fault (Eq. 6).
    pub latent_after_latent: f64,
}

impl DoubleFaultProbabilities {
    /// Computes all four probabilities including the correlation factor
    /// (each window is effectively lengthened by `1/α`), clamped so that the
    /// *combined* probability of a second fault after a given first fault
    /// never exceeds 1.
    pub fn from_params(params: &ReliabilityParams) -> Self {
        Self::compute(params, params.alpha())
    }

    /// Computes the four probabilities assuming independent replicas
    /// (`α = 1`), regardless of the correlation factor stored in `params`.
    ///
    /// This is the form the paper's own numerical scenarios use: correlation
    /// is then applied as a final multiplicative factor on the MTTDL
    /// ("correlation is a multiplicative factor and affects the reliability
    /// regardless of the type of fault", §5.4 implication 3).
    pub fn independent(params: &ReliabilityParams) -> Self {
        Self::compute(params, 1.0)
    }

    fn compute(params: &ReliabilityParams, alpha: f64) -> Self {
        let wov_v = params.wov_after_visible().get();
        let wov_l = params.wov_after_latent().get();
        let mv = params.mttf_visible().get();
        let ml = params.mttf_latent().get();

        let (vv, lv) = clamped_pair(wov_v, mv, ml, alpha);
        let (vl, ll) = clamped_pair(wov_l, mv, ml, alpha);

        Self {
            visible_after_visible: vv,
            latent_after_visible: lv,
            visible_after_latent: vl,
            latent_after_latent: ll,
        }
    }

    /// `P(V2 ∨ L2 | V1)` — probability of *any* second fault within the window
    /// opened by a visible first fault.
    pub fn any_after_visible(&self) -> f64 {
        (self.visible_after_visible + self.latent_after_visible).min(1.0)
    }

    /// `P(V2 ∨ L2 | L1)` — probability of *any* second fault within the window
    /// opened by a latent first fault.
    pub fn any_after_latent(&self) -> f64 {
        (self.visible_after_latent + self.latent_after_latent).min(1.0)
    }
}

/// Computes the pair of clamped second-fault probabilities for one window.
///
/// If the raw sum exceeds 1 the two components are scaled proportionally so
/// their sum is exactly 1, preserving the relative likelihood of the second
/// fault being visible vs latent (which depends only on the two rates).
fn clamped_pair(wov: f64, mv: f64, ml: f64, alpha: f64) -> (f64, f64) {
    if !wov.is_finite() {
        // Infinite window: a second fault is certain; split by relative rates.
        let rate_v = 1.0 / mv;
        let rate_l = 1.0 / ml;
        let total = rate_v + rate_l;
        return (rate_v / total, rate_l / total);
    }
    let p_v = probability_within_linearised(wov / alpha, mv);
    let p_l = probability_within_linearised(wov / alpha, ml);
    let sum = p_v + p_l;
    if sum <= 1.0 {
        (p_v, p_l)
    } else {
        (p_v / sum, p_l / sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::units::Hours;

    #[test]
    fn equations_3_to_6_raw_values() {
        // Independent faults, short windows: the probabilities are exactly
        // WOV / MTTF.
        let p = presets::cheetah_mirror_scrubbed();
        let probs = DoubleFaultProbabilities::from_params(&p);
        let mrv = p.repair_visible().get();
        let wov_l = p.wov_after_latent().get();
        assert!((probs.visible_after_visible - mrv / 1.4e6).abs() < 1e-15);
        assert!((probs.latent_after_visible - mrv / 2.8e5).abs() < 1e-15);
        assert!((probs.visible_after_latent - wov_l / 1.4e6).abs() < 1e-12);
        assert!((probs.latent_after_latent - wov_l / 2.8e5).abs() < 1e-12);
    }

    #[test]
    fn latent_window_dominates_visible_window() {
        // Equation 5/6 windows include MDL, so they must exceed Eq. 3/4.
        let p = presets::cheetah_mirror_scrubbed();
        let probs = DoubleFaultProbabilities::from_params(&p);
        assert!(probs.visible_after_latent > probs.visible_after_visible);
        assert!(probs.latent_after_latent > probs.latent_after_visible);
    }

    #[test]
    fn correlation_scales_probabilities() {
        let p = presets::cheetah_mirror_scrubbed();
        let correlated = p.with_alpha(0.1).unwrap();
        let base = DoubleFaultProbabilities::from_params(&p);
        let corr = DoubleFaultProbabilities::from_params(&correlated);
        assert!((corr.visible_after_visible / base.visible_after_visible - 10.0).abs() < 1e-9);
        assert!((corr.latent_after_latent / base.latent_after_latent - 10.0).abs() < 1e-9);
    }

    #[test]
    fn independent_ignores_alpha() {
        let p = presets::cheetah_mirror_scrubbed();
        let correlated = p.with_alpha(0.01).unwrap();
        let a = DoubleFaultProbabilities::independent(&p);
        let b = DoubleFaultProbabilities::independent(&correlated);
        assert_eq!(a, b);
        // And it matches from_params when alpha is already 1.
        assert_eq!(a, DoubleFaultProbabilities::from_params(&p));
    }

    #[test]
    fn unscrubbed_latent_window_saturates() {
        // §5.4 scenario 1: without scrubbing, P(V2 ∨ L2 | L1) ≈ 1.
        let p = presets::cheetah_mirror_no_scrub();
        let probs = DoubleFaultProbabilities::from_params(&p);
        assert!((probs.any_after_latent() - 1.0).abs() < 1e-12);
        // The visible-first window stays tiny.
        assert!(probs.any_after_visible() < 1e-5);
    }

    #[test]
    fn saturation_preserves_rate_ratio() {
        let p = presets::cheetah_mirror_no_scrub();
        let probs = DoubleFaultProbabilities::from_params(&p);
        // Latent faults are 5x as frequent as visible faults, so after
        // saturation the latent share should be 5/6.
        let ratio = probs.latent_after_latent / probs.visible_after_latent;
        assert!((ratio - 5.0).abs() < 1e-9, "ratio {ratio}");
        assert!((probs.latent_after_latent + probs.visible_after_latent - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_detection_time_reduces_to_raid_model() {
        // With MDL = 0 and MRL = MRV both windows are identical, so the
        // latent-first and visible-first probabilities coincide.
        let p = ReliabilityParams::builder()
            .mttf_visible(Hours::new(1.0e6))
            .mttf_latent(Hours::new(1.0e6))
            .repair_visible(Hours::new(1.0))
            .repair_latent(Hours::new(1.0))
            .detect_latent(Hours::ZERO)
            .alpha(1.0)
            .build()
            .unwrap();
        let probs = DoubleFaultProbabilities::from_params(&p);
        assert!((probs.visible_after_visible - probs.visible_after_latent).abs() < 1e-15);
        assert!((probs.latent_after_visible - probs.latent_after_latent).abs() < 1e-15);
    }
}
