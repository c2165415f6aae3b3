//! The memoryless (exponential) fault-occurrence model of §5.2.
//!
//! Equation 1 of the paper: the probability that a fault occurs within time
//! `t` is `P(t) = 1 - e^{-t/MTTF}`, and Equation 2 is the small-`t`
//! linearisation `P(t) ≈ t / MTTF` used to derive the closed forms.

use crate::error::ModelError;

/// Probability that a memoryless fault with the given mean time occurs within
/// `t` (Equation 1).
///
/// # Examples
///
/// ```
/// let p = ltds_core::memoryless::probability_within(1000.0, 1000.0);
/// assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
/// ```
pub fn probability_within(t: f64, mttf: f64) -> f64 {
    assert!(mttf > 0.0, "MTTF must be positive");
    if t <= 0.0 {
        return 0.0;
    }
    1.0 - (-t / mttf).exp()
}

/// The linearised probability `t / MTTF` of Equation 2, clamped to `[0, 1]`.
///
/// The clamp mirrors the paper's own treatment: when the window of
/// vulnerability is not small relative to the MTTF, "the combined
/// `P(V2 ∨ L2 | L1)` approaches 1" (§5.3).
pub fn probability_within_linearised(t: f64, mttf: f64) -> f64 {
    assert!(mttf > 0.0, "MTTF must be positive");
    if t <= 0.0 {
        return 0.0;
    }
    (t / mttf).min(1.0)
}

/// Converts a probability of failure over a service life into the equivalent
/// exponential MTTF (hours). This is how the §6.1 "7% over 5 years" datasheet
/// figures map onto `MV`.
pub fn service_life_probability_to_mttf(
    probability: f64,
    service_life_hours: f64,
) -> Result<f64, ModelError> {
    if !(0.0..1.0).contains(&probability) || probability <= 0.0 {
        return Err(ModelError::InvalidProbability {
            parameter: "service-life fault probability",
            value: probability,
        });
    }
    if service_life_hours <= 0.0 {
        return Err(ModelError::InvalidMeanTime {
            parameter: "service life",
            value: service_life_hours,
        });
    }
    // P = 1 - exp(-T / MTTF)  =>  MTTF = -T / ln(1 - P).
    Ok(-service_life_hours / (1.0 - probability).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::years_to_hours;

    #[test]
    fn equation_one_basics() {
        assert_eq!(probability_within(0.0, 100.0), 0.0);
        assert_eq!(probability_within(-5.0, 100.0), 0.0);
        assert!((probability_within(f64::INFINITY, 100.0) - 1.0).abs() < 1e-12);
        // Monotone increasing in t.
        assert!(probability_within(10.0, 100.0) < probability_within(20.0, 100.0));
    }

    #[test]
    fn linearisation_clamps_to_one() {
        assert_eq!(probability_within_linearised(1.0e9, 1.0), 1.0);
        assert!(probability_within(1.0e9, 1.0) <= 1.0);
    }

    #[test]
    fn service_life_probability_roundtrip() {
        // 7% over 5 years (the Barracuda datasheet figure).
        let mttf = service_life_probability_to_mttf(0.07, years_to_hours(5.0)).unwrap();
        let p_back = probability_within(years_to_hours(5.0), mttf);
        assert!((p_back - 0.07).abs() < 1e-12);
        // The MTTF implied by 7%/5yr is roughly 6.9e5 hours.
        assert!((mttf - 6.03e5).abs() / 6.03e5 < 0.02, "mttf {mttf}");
    }

    #[test]
    fn service_life_probability_rejects_bad_input() {
        assert!(service_life_probability_to_mttf(0.0, 100.0).is_err());
        assert!(service_life_probability_to_mttf(1.0, 100.0).is_err());
        assert!(service_life_probability_to_mttf(1.5, 100.0).is_err());
        assert!(service_life_probability_to_mttf(0.5, 0.0).is_err());
    }
}
