//! Parameter presets used by the paper's worked examples (§5.4, §6.1).
//!
//! All presets describe *mirrored* data (two replicas) built from Seagate
//! Cheetah 15K.4 enterprise drives, as in §5.4 of the paper:
//!
//! * `MV = 1.4 × 10⁶` hours (datasheet MTTF);
//! * `ML = 2.8 × 10⁵` hours — following Schwarz et al., latent faults are
//!   assumed five times as frequent as visible faults;
//! * `MRV = MRL = 20` minutes (the paper's stated repair time for a 146 GB
//!   drive at 300 MB/s);
//! * scrubbing three times a year gives `MDL = 1460` hours (half the
//!   scrubbing interval).

use crate::params::ReliabilityParams;
use crate::units::Hours;

/// The paper's Cheetah drive MTTF for visible faults: `1.4e6` hours.
pub const CHEETAH_MTTF_VISIBLE_HOURS: f64 = 1.4e6;

/// Latent-fault MTTF assuming latent faults are 5× as frequent as visible
/// ones (Schwarz et al.): `2.8e5` hours.
pub const CHEETAH_MTTF_LATENT_HOURS: f64 = 2.8e5;

/// The paper's stated repair time for the Cheetah: 20 minutes.
pub const CHEETAH_REPAIR_MINUTES: f64 = 20.0;

/// Mean detection time when scrubbing 3×/year: half of the 2920-hour
/// scrubbing period, i.e. 1460 hours.
pub const SCRUB_3X_PER_YEAR_MDL_HOURS: f64 = 1460.0;

/// The "negligent" latent MTTF of §5.4's fourth scenario: `1.4e7` hours.
pub const NEGLIGENT_MTTF_LATENT_HOURS: f64 = 1.4e7;

/// The correlated-fault factor suggested by Chen et al. and used in §5.4:
/// `α = 0.1`.
pub const CHEN_ALPHA: f64 = 0.1;

/// §5.4 scenario 1: mirrored Cheetahs, **no scrubbing** (latent faults are
/// never proactively detected), independent faults.
///
/// The paper evaluates this with the saturated form of Equation 7 and obtains
/// `MTTDL = 32.0 years` (79.0 % probability of loss in 50 years).
pub fn cheetah_mirror_no_scrub() -> ReliabilityParams {
    ReliabilityParams::builder()
        .mttf_visible(Hours::new(CHEETAH_MTTF_VISIBLE_HOURS))
        .mttf_latent(Hours::new(CHEETAH_MTTF_LATENT_HOURS))
        .repair_visible(Hours::from_minutes(CHEETAH_REPAIR_MINUTES))
        .repair_latent(Hours::from_minutes(CHEETAH_REPAIR_MINUTES))
        .detect_latent(Hours::infinite())
        .alpha(1.0)
        .build()
        .expect("paper preset is valid")
}

/// §5.4 scenario 2: mirrored Cheetahs scrubbed 3×/year, independent faults.
///
/// `MDL = 1460` hours; the paper applies Equation 10 and obtains
/// `MTTDL = 6128.7 years` (0.8 % in 50 years).
pub fn cheetah_mirror_scrubbed() -> ReliabilityParams {
    ReliabilityParams::builder()
        .mttf_visible(Hours::new(CHEETAH_MTTF_VISIBLE_HOURS))
        .mttf_latent(Hours::new(CHEETAH_MTTF_LATENT_HOURS))
        .repair_visible(Hours::from_minutes(CHEETAH_REPAIR_MINUTES))
        .repair_latent(Hours::from_minutes(CHEETAH_REPAIR_MINUTES))
        .detect_latent(Hours::new(SCRUB_3X_PER_YEAR_MDL_HOURS))
        .alpha(1.0)
        .build()
        .expect("paper preset is valid")
}

/// §5.4 scenario 3: as [`cheetah_mirror_scrubbed`] but with correlated faults
/// (`α = 0.1`, the value suggested by Chen et al.).
///
/// The paper obtains `MTTDL = 612.9 years` (7.8 % in 50 years).
pub fn cheetah_mirror_scrubbed_correlated() -> ReliabilityParams {
    cheetah_mirror_scrubbed().with_alpha(CHEN_ALPHA).expect("paper preset is valid")
}

/// §5.4 scenario 4: latent faults are rare (`ML = 1.4e7` h — ten times `MV`)
/// but the system is "negligent about handling latent faults" (no scrubbing),
/// with correlated faults `α = 0.1`.
///
/// The paper applies Equation 11 and obtains `MTTDL = 159.8 years`
/// (26.8 % in 50 years).
pub fn cheetah_mirror_negligent_latent() -> ReliabilityParams {
    ReliabilityParams::builder()
        .mttf_visible(Hours::new(CHEETAH_MTTF_VISIBLE_HOURS))
        .mttf_latent(Hours::new(NEGLIGENT_MTTF_LATENT_HOURS))
        .repair_visible(Hours::from_minutes(CHEETAH_REPAIR_MINUTES))
        .repair_latent(Hours::from_minutes(CHEETAH_REPAIR_MINUTES))
        .detect_latent(Hours::infinite())
        .alpha(CHEN_ALPHA)
        .build()
        .expect("paper preset is valid")
}

/// A classic RAID-style parameter set with no latent faults to speak of
/// (`ML` enormous, `MDL = 0`), useful for checking that the model collapses
/// to `MTTDL ≈ α·MV²/MRV` (Equation 9).
pub fn raid_like(mv_hours: f64, mrv_hours: f64) -> ReliabilityParams {
    ReliabilityParams::builder()
        .mttf_visible(Hours::new(mv_hours))
        // Latent faults essentially never happen, but the value must stay
        // finite for the algebra.
        .mttf_latent(Hours::new(mv_hours * 1.0e6))
        .repair_visible(Hours::new(mrv_hours))
        .repair_latent(Hours::new(mrv_hours))
        .detect_latent(Hours::ZERO)
        .alpha(1.0)
        .build()
        .expect("raid-like preset is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_parameters_match_paper() {
        let p = cheetah_mirror_scrubbed();
        assert_eq!(p.mttf_visible().get(), 1.4e6);
        assert_eq!(p.mttf_latent().get(), 2.8e5);
        assert!((p.repair_visible().get() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.detect_latent().get(), 1460.0);
        assert_eq!(p.alpha(), 1.0);
    }

    #[test]
    fn latent_is_five_times_visible_rate() {
        let p = cheetah_mirror_no_scrub();
        assert!((p.mttf_visible().get() / p.mttf_latent().get() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn no_scrub_has_infinite_detection() {
        assert!(!cheetah_mirror_no_scrub().detect_latent().is_finite());
        assert!(!cheetah_mirror_negligent_latent().detect_latent().is_finite());
    }

    #[test]
    fn correlated_preset_uses_chen_alpha() {
        assert_eq!(cheetah_mirror_scrubbed_correlated().alpha(), 0.1);
        assert_eq!(cheetah_mirror_negligent_latent().alpha(), 0.1);
    }

    #[test]
    fn raid_like_has_negligible_latent_contribution() {
        let p = raid_like(1.0e6, 1.0);
        assert!(p.mttf_latent().get() > 1.0e11);
        assert_eq!(p.detect_latent(), Hours::ZERO);
    }
}
