//! Operating-regime approximations: Equations 9, 10 and 11 (§5.4).
//!
//! The closed form of Equation 8 simplifies in three regimes the paper works
//! through explicitly:
//!
//! * **visible-dominated** (`MV ≪ ML`): latent faults are negligible and the
//!   model collapses to the original RAID result `MTTDL ≈ α·MV²/MRV`
//!   (Equation 9);
//! * **latent-dominated** (`ML ≪ MV`): `MTTDL ≈ α·ML²/(MRL + MDL)`
//!   (Equation 10) — detection time matters as much as repair time;
//! * **long latent window** (`MV ≪ ML` but the window after a latent fault is
//!   so long that `P(V2 ∨ L2 | L1) ≈ 1`):
//!   `MTTDL ≈ α·MV²/(MRV + MV²/ML)` (Equation 11).

use crate::params::ReliabilityParams;
use crate::wov::DoubleFaultProbabilities;
use std::fmt;

/// Which of the paper's asymptotic regimes a parameter set falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatingRegime {
    /// Visible faults much more frequent than latent faults, short windows:
    /// Equation 9 applies.
    VisibleDominated,
    /// Latent faults much more frequent than visible faults, short windows:
    /// Equation 10 applies.
    LatentDominated,
    /// Visible faults dominate the *rates*, but the window after a latent
    /// fault is long enough that a single latent fault almost certainly
    /// becomes a double fault: Equation 11 applies.
    LongLatentWindow,
    /// None of the asymptotic simplifications is justified; use Equation 7/8.
    General,
}

impl fmt::Display for OperatingRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OperatingRegime::VisibleDominated => "visible-dominated (Eq. 9)",
            OperatingRegime::LatentDominated => "latent-dominated (Eq. 10)",
            OperatingRegime::LongLatentWindow => "long latent window (Eq. 11)",
            OperatingRegime::General => "general (Eq. 7/8)",
        };
        f.write_str(s)
    }
}

/// Factor by which one MTTF must exceed the other before we call the regime
/// "dominated" (the paper's `≪`).
const DOMINANCE_MARGIN: f64 = 4.0;

/// Saturation threshold for `P(V2 ∨ L2 | L1)` above which Equation 11's
/// assumption is considered to hold.
const SATURATION_THRESHOLD: f64 = 0.5;

/// Classifies a parameter set into the regime whose approximation best
/// applies.
pub fn classify(params: &ReliabilityParams) -> OperatingRegime {
    let mv = params.mttf_visible().get();
    let ml = params.mttf_latent().get();
    let probs = DoubleFaultProbabilities::from_params(params);
    let latent_window_saturated = probs.any_after_latent() >= SATURATION_THRESHOLD;

    if ml >= mv * DOMINANCE_MARGIN {
        // Latent faults are rare. If their window is still long, Eq. 11.
        if latent_window_saturated {
            OperatingRegime::LongLatentWindow
        } else {
            OperatingRegime::VisibleDominated
        }
    } else if mv >= ml * DOMINANCE_MARGIN {
        if latent_window_saturated {
            // Frequent latent faults with a saturated window: the exact form
            // is required (this is the paper's scenario 1).
            OperatingRegime::General
        } else {
            OperatingRegime::LatentDominated
        }
    } else {
        OperatingRegime::General
    }
}

/// Equation 9: `MTTDL ≈ α · MV² / MRV`.
///
/// The original RAID reliability result; valid when visible faults dominate
/// and all windows are short.
pub fn mttdl_visible_dominated(params: &ReliabilityParams) -> f64 {
    let mv = params.mttf_visible().get();
    params.alpha() * mv * mv / params.repair_visible().get()
}

/// Equation 10: `MTTDL ≈ α · ML² / (MRL + MDL)`.
///
/// Valid when latent faults dominate and windows are short. This is the
/// equation behind the paper's "scrub three times a year" example; note that
/// the detection time `MDL` enters on equal footing with the repair time.
pub fn mttdl_latent_dominated(params: &ReliabilityParams) -> f64 {
    let ml = params.mttf_latent().get();
    let wov = params.repair_latent().get() + params.detect_latent().get();
    if !wov.is_finite() {
        return 0.0;
    }
    params.alpha() * ml * ml / wov
}

/// Equation 11: `MTTDL ≈ α · MV² / (MRV + MV²/ML)`.
///
/// Valid when visible faults dominate the rates but latent faults are
/// "handled negligently" (long detection/repair window), so a single latent
/// fault is very likely to lead to loss.
pub fn mttdl_long_latent_window(params: &ReliabilityParams) -> f64 {
    let mv = params.mttf_visible().get();
    let ml = params.mttf_latent().get();
    params.alpha() * mv * mv / (params.repair_visible().get() + mv * mv / ml)
}

/// Evaluates the approximation appropriate to the detected regime. Falls back
/// to the exact Equation 7 in the general regime.
pub fn mttdl_auto(params: &ReliabilityParams) -> (OperatingRegime, f64) {
    let regime = classify(params);
    let value = match regime {
        OperatingRegime::VisibleDominated => mttdl_visible_dominated(params),
        OperatingRegime::LatentDominated => mttdl_latent_dominated(params),
        OperatingRegime::LongLatentWindow => mttdl_long_latent_window(params),
        OperatingRegime::General => crate::mttdl::mttdl_exact(params),
    };
    (regime, value)
}

/// Relative error of each approximation against the exact Equation 7, useful
/// for reporting how far outside its regime an approximation is being used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproximationErrors {
    /// Relative error of Equation 9.
    pub visible_dominated: f64,
    /// Relative error of Equation 10.
    pub latent_dominated: f64,
    /// Relative error of Equation 11.
    pub long_latent_window: f64,
}

/// Computes the relative error of each regime approximation against the exact
/// saturating Equation 7.
pub fn approximation_errors(params: &ReliabilityParams) -> ApproximationErrors {
    let exact = crate::mttdl::mttdl_exact(params);
    let rel = |approx: f64| {
        if exact == 0.0 {
            f64::INFINITY
        } else {
            (approx - exact).abs() / exact
        }
    };
    ApproximationErrors {
        visible_dominated: rel(mttdl_visible_dominated(params)),
        latent_dominated: rel(mttdl_latent_dominated(params)),
        long_latent_window: rel(mttdl_long_latent_window(params)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::units::{hours_to_years, Hours};

    #[test]
    fn equation10_reproduces_paper_scenario_two() {
        // §5.4: scrubbing 3x/year gives MTTDL = 6128.7 years.
        let params = presets::cheetah_mirror_scrubbed();
        let years = hours_to_years(mttdl_latent_dominated(&params));
        assert!((years - 6128.7).abs() / 6128.7 < 0.001, "got {years}");
    }

    #[test]
    fn equation10_with_alpha_reproduces_scenario_three() {
        // §5.4: with α = 0.1, MTTDL = 612.9 years.
        let params = presets::cheetah_mirror_scrubbed_correlated();
        let years = hours_to_years(mttdl_latent_dominated(&params));
        assert!((years - 612.9).abs() / 612.9 < 0.001, "got {years}");
    }

    #[test]
    fn equation11_reproduces_paper_scenario_four() {
        // §5.4: ML = 1.4e7, α = 0.1 gives MTTDL = 159.8 years.
        let params = presets::cheetah_mirror_negligent_latent();
        let years = hours_to_years(mttdl_long_latent_window(&params));
        assert!((years - 159.8).abs() / 159.8 < 0.001, "got {years}");
    }

    #[test]
    fn equation9_matches_classic_raid() {
        let params = presets::raid_like(1.4e6, 1.0 / 3.0);
        let expected = 1.4e6_f64.powi(2) / (1.0 / 3.0);
        assert!((mttdl_visible_dominated(&params) - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn classification_of_paper_scenarios() {
        assert_eq!(classify(&presets::cheetah_mirror_scrubbed()), OperatingRegime::LatentDominated);
        assert_eq!(classify(&presets::cheetah_mirror_no_scrub()), OperatingRegime::General);
        assert_eq!(
            classify(&presets::cheetah_mirror_negligent_latent()),
            OperatingRegime::LongLatentWindow
        );
        assert_eq!(classify(&presets::raid_like(1.0e6, 1.0)), OperatingRegime::VisibleDominated);
    }

    #[test]
    fn auto_uses_regime_equation() {
        let (regime, value) = mttdl_auto(&presets::cheetah_mirror_scrubbed());
        assert_eq!(regime, OperatingRegime::LatentDominated);
        assert!((value - mttdl_latent_dominated(&presets::cheetah_mirror_scrubbed())).abs() < 1e-9);

        let (regime, value) = mttdl_auto(&presets::cheetah_mirror_no_scrub());
        assert_eq!(regime, OperatingRegime::General);
        assert!(
            (value - crate::mttdl::mttdl_exact(&presets::cheetah_mirror_no_scrub())).abs() < 1e-9
        );
    }

    #[test]
    fn approximations_agree_with_exact_in_their_regimes() {
        // Latent-dominated regime: Eq. 10 within ~25% of exact (it drops the
        // visible-first term, which the paper accepts).
        let errs = approximation_errors(&presets::cheetah_mirror_scrubbed());
        assert!(errs.latent_dominated < 0.25, "{errs:?}");
        // Visible-dominated regime: Eq. 9 essentially exact.
        let errs = approximation_errors(&presets::raid_like(1.0e6, 1.0));
        assert!(errs.visible_dominated < 1e-3, "{errs:?}");
        // Long-latent-window regime: Eq. 11 close to exact.
        let errs = approximation_errors(&presets::cheetah_mirror_negligent_latent());
        assert!(errs.long_latent_window < 0.25, "{errs:?}");
    }

    #[test]
    fn equation10_with_infinite_window_is_zero() {
        let params = presets::cheetah_mirror_no_scrub();
        assert_eq!(mttdl_latent_dominated(&params), 0.0);
    }

    #[test]
    fn display_labels_mention_equations() {
        assert!(OperatingRegime::VisibleDominated.to_string().contains("Eq. 9"));
        assert!(OperatingRegime::LatentDominated.to_string().contains("Eq. 10"));
        assert!(OperatingRegime::LongLatentWindow.to_string().contains("Eq. 11"));
        assert!(OperatingRegime::General.to_string().contains("Eq. 7"));
    }

    #[test]
    fn mv_ml_quadratic_dependence() {
        // Implication 1 of §5.4: MTTDL varies quadratically with the minimum
        // of MV and ML. Doubling ML in the latent-dominated regime should
        // roughly quadruple MTTDL.
        let base = presets::cheetah_mirror_scrubbed();
        let doubled = base.with_mttf_latent(Hours::new(5.6e5)).unwrap();
        let ratio = mttdl_latent_dominated(&doubled) / mttdl_latent_dominated(&base);
        assert!((ratio - 4.0).abs() < 1e-9);
    }
}
