//! Mission-time reliability: turning an MTTDL into a probability of loss.
//!
//! The paper reports each scenario both as an MTTDL and as a probability of
//! data loss over a 50-year mission, obtained by plugging the MTTDL into the
//! exponential distribution (Equation 1): `P(loss by T) = 1 - e^{-T/MTTDL}`.

use crate::units::years_to_hours;

/// Probability of losing the data within `mission_hours`, given an MTTDL in
/// hours (Equation 1 applied to the data-loss process).
///
/// # Examples
///
/// ```
/// // §5.4 scenario 1: MTTDL = 32 years gives a 79% chance of loss in 50 years.
/// let mttdl = ltds_core::units::years_to_hours(32.0);
/// let mission = ltds_core::units::years_to_hours(50.0);
/// let p = ltds_core::mission::probability_of_loss(mttdl, mission);
/// assert!((p - 0.79).abs() < 0.005);
/// ```
pub fn probability_of_loss(mttdl_hours: f64, mission_hours: f64) -> f64 {
    assert!(mttdl_hours > 0.0, "MTTDL must be positive");
    assert!(mission_hours >= 0.0, "mission duration must be non-negative");
    1.0 - (-mission_hours / mttdl_hours).exp()
}

/// Convenience wrapper: probability of loss over a mission expressed in years.
pub fn probability_of_loss_years(mttdl_hours: f64, mission_years: f64) -> f64 {
    probability_of_loss(mttdl_hours, years_to_hours(mission_years))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's four §5.4 scenarios as (MTTDL years, expected loss % in 50 years).
    const PAPER_SCENARIOS: [(f64, f64); 4] =
        [(32.0, 79.0), (6128.7, 0.8), (612.9, 7.8), (159.8, 26.8)];

    #[test]
    fn paper_loss_probabilities() {
        for (mttdl_years, expected_pct) in PAPER_SCENARIOS {
            let p = probability_of_loss_years(years_to_hours(mttdl_years), 50.0) * 100.0;
            assert!(
                (p - expected_pct).abs() < 0.1,
                "MTTDL {mttdl_years} years: got {p:.2}%, paper says {expected_pct}%"
            );
        }
    }

    #[test]
    fn zero_mission_has_no_loss() {
        assert_eq!(probability_of_loss(1000.0, 0.0), 0.0);
    }

    #[test]
    fn monotonicity_in_mttdl() {
        let mission = years_to_hours(50.0);
        let p_good = probability_of_loss(years_to_hours(10_000.0), mission);
        let p_bad = probability_of_loss(years_to_hours(10.0), mission);
        assert!(p_good < p_bad);
    }
}
