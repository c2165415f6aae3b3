//! Mean time to data loss for mirrored data: Equations 7 and 8.
//!
//! A *double fault* — a second fault striking the surviving copy while the
//! first is still unrepaired — destroys mirrored data. Equation 7 sums the
//! double-fault rate over both first-fault classes; Equation 8 is the closed
//! form obtained by substituting the linearised window probabilities.
//!
//! Three evaluation modes are provided:
//!
//! * [`mttdl_exact`] — Equation 7 evaluated the way the paper evaluates its
//!   own scenarios: independent window probabilities, clamped at 1
//!   (`P(V2 ∨ L2 | L1) ≈ 1` when the system never scrubs), with the
//!   correlation factor `α` applied as a final multiplicative factor on the
//!   MTTDL (§5.4, implication 3). This reproduces all four §5.4 numbers.
//! * [`mttdl_closed_form`] — the algebraic Equation 8, valid only when all
//!   windows of vulnerability are short relative to the MTTFs.
//! * [`mttdl_physical`] — a physically-consistent variant in which the
//!   `1/α`-accelerated second-fault probabilities themselves are clamped
//!   at 1. It agrees with [`mttdl_exact`] whenever the windows are short,
//!   and is less pessimistic when a window saturates (a probability cannot
//!   exceed 1 no matter how correlated the faults are). The discrete-event
//!   simulator matches this variant.

use crate::params::ReliabilityParams;
use crate::wov::DoubleFaultProbabilities;

/// Equation 7 with saturation, evaluated as in the paper: the double-fault
/// rate under independence is
/// `P(any second | V1) / MV + P(any second | L1) / ML` (each conditional
/// probability clamped to 1), and the result is multiplied by `α`.
///
/// Returns the mean time to data loss in hours.
///
/// # Examples
///
/// ```
/// use ltds_core::{mttdl, presets, units};
///
/// // §5.4 scenario 1 (no scrubbing): the paper reports 32.0 years.
/// let years = units::hours_to_years(mttdl::mttdl_exact(&presets::cheetah_mirror_no_scrub()));
/// assert!((years - 32.0).abs() < 0.1);
/// ```
pub fn mttdl_exact(params: &ReliabilityParams) -> f64 {
    let probs = DoubleFaultProbabilities::independent(params);
    let rate = probs.any_after_visible() / params.mttf_visible().get()
        + probs.any_after_latent() / params.mttf_latent().get();
    params.alpha() / rate
}

/// Physically-consistent variant of Equation 7: the correlation factor
/// accelerates the second-fault processes (`WOV/α`), but each conditional
/// probability is still clamped at 1.
///
/// Identical to [`mttdl_exact`] when windows are short; strictly larger when
/// a window saturates under correlation.
pub fn mttdl_physical(params: &ReliabilityParams) -> f64 {
    let probs = DoubleFaultProbabilities::from_params(params);
    let rate = probs.any_after_visible() / params.mttf_visible().get()
        + probs.any_after_latent() / params.mttf_latent().get();
    1.0 / rate
}

/// Equation 8, the closed form for mirrored data:
///
/// ```text
///             α · ML² · MV²
/// MTTDL = ─────────────────────────────────────────────
///          (MV + ML)(MRV·ML + (MRL + MDL)·MV)
/// ```
///
/// Only meaningful when the windows of vulnerability are short relative to
/// the MTTFs (`params.windows_are_short`); outside that regime prefer
/// [`mttdl_exact`]. An infinite `MDL` yields an MTTDL of zero hours, which is
/// the (degenerate) limit of the formula.
pub fn mttdl_closed_form(params: &ReliabilityParams) -> f64 {
    let mv = params.mttf_visible().get();
    let ml = params.mttf_latent().get();
    let mrv = params.repair_visible().get();
    let mrl = params.repair_latent().get();
    let mdl = params.detect_latent().get();
    let alpha = params.alpha();

    if !mdl.is_finite() {
        return 0.0;
    }
    let numerator = alpha * ml * ml * mv * mv;
    let denominator = (mv + ml) * (mrv * ml + (mrl + mdl) * mv);
    if denominator == 0.0 {
        return f64::INFINITY;
    }
    numerator / denominator
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{hours_to_years, Hours};
    use crate::{presets, scrubbing};

    #[test]
    fn scenario_one_no_scrubbing_is_32_years() {
        // §5.4: "we achieve an MTTDL = 32.0 years".
        let params = presets::cheetah_mirror_no_scrub();
        let years = hours_to_years(mttdl_exact(&params));
        assert!((years - 32.0).abs() < 0.1, "got {years} years");
    }

    #[test]
    fn scenario_four_negligent_latent_is_160_years() {
        // §5.4: ML = 1.4e7, alpha = 0.1 gives MTTDL = 159.8 years.
        let params = presets::cheetah_mirror_negligent_latent();
        let years = hours_to_years(mttdl_exact(&params));
        assert!((years - 159.8).abs() / 159.8 < 0.01, "got {years} years");
    }

    #[test]
    fn closed_form_matches_exact_when_windows_short() {
        // §5.4 scenario 2 parameters satisfy the closed-form preconditions,
        // so Eq. 7 (unsaturated) and Eq. 8 must agree closely.
        let params = presets::cheetah_mirror_scrubbed();
        assert!(params.windows_are_short(10.0));
        let exact = mttdl_exact(&params);
        let closed = mttdl_closed_form(&params);
        assert!((exact - closed).abs() / closed < 1e-6, "exact {exact} vs closed {closed}");
    }

    #[test]
    fn physical_matches_exact_for_short_windows() {
        let params = presets::cheetah_mirror_scrubbed_correlated();
        let exact = mttdl_exact(&params);
        let physical = mttdl_physical(&params);
        assert!((exact - physical).abs() / exact < 1e-9);
    }

    #[test]
    fn physical_is_less_pessimistic_when_saturated() {
        // With an already-saturated window, correlation cannot make the
        // second fault "more certain than certain"; the paper's convention
        // still divides by alpha. The physical variant is therefore larger.
        let params = presets::cheetah_mirror_negligent_latent();
        assert!(mttdl_physical(&params) > mttdl_exact(&params) * 5.0);
    }

    #[test]
    fn closed_form_equation8_hand_computed() {
        // Hand-evaluate Equation 8 for scenario 2 and compare.
        let params = presets::cheetah_mirror_scrubbed();
        let mv: f64 = 1.4e6;
        let ml: f64 = 2.8e5;
        let mrv = 1.0 / 3.0;
        let wov = 1460.0 + 1.0 / 3.0;
        let expected = (ml * ml * mv * mv) / ((mv + ml) * (mrv * ml + wov * mv));
        let got = mttdl_closed_form(&params);
        assert!((got - expected).abs() / expected < 1e-12);
        // Roughly 5100 years; the paper's 6128.7 figure uses the Eq. 10
        // approximation which drops the visible-first term.
        let years = hours_to_years(got);
        assert!((years - 5107.0).abs() < 15.0, "got {years} years");
    }

    #[test]
    fn alpha_scales_mttdl_linearly() {
        let base = presets::cheetah_mirror_scrubbed();
        let correlated = base.with_alpha(0.1).unwrap();
        let ratio_closed = mttdl_closed_form(&correlated) / mttdl_closed_form(&base);
        assert!((ratio_closed - 0.1).abs() < 1e-12);
        let ratio_exact = mttdl_exact(&correlated) / mttdl_exact(&base);
        assert!((ratio_exact - 0.1).abs() < 1e-12);
    }

    #[test]
    fn infinite_mdl_degenerates_closed_form() {
        let params = presets::cheetah_mirror_no_scrub();
        assert_eq!(mttdl_closed_form(&params), 0.0);
        // The exact form stays sensible.
        assert!(mttdl_exact(&params).is_finite());
    }

    #[test]
    fn better_detection_improves_mttdl() {
        let no_scrub = presets::cheetah_mirror_no_scrub();
        let scrubbed = presets::cheetah_mirror_scrubbed();
        let weekly = no_scrub.with_detect_latent(scrubbing::mdl_for_scrub_rate(52.0)).unwrap();
        let m_none = mttdl_exact(&no_scrub);
        let m_3x = mttdl_exact(&scrubbed);
        let m_52x = mttdl_exact(&weekly);
        assert!(m_3x > m_none * 10.0, "scrubbing should help by orders of magnitude");
        assert!(m_52x > m_3x, "more frequent scrubbing should help further");
    }

    #[test]
    fn raid_like_collapses_to_classic_formula() {
        // With negligible latent faults, Eq. 8 reduces to MV²/MRV (Eq. 9).
        let params = presets::raid_like(1.0e6, 10.0);
        let closed = mttdl_closed_form(&params);
        let classic = 1.0e6_f64.powi(2) / 10.0;
        assert!((closed - classic).abs() / classic < 1e-3, "closed {closed} classic {classic}");
    }

    #[test]
    fn longer_repair_reduces_mttdl() {
        let fast = presets::cheetah_mirror_scrubbed();
        let slow = fast.with_repair_times(Hours::new(24.0), Hours::new(24.0)).unwrap();
        assert!(mttdl_exact(&slow) < mttdl_exact(&fast));
    }
}
