//! The correlation factor `α` and ways to estimate it (§5.3, §5.4, §6.5).
//!
//! The paper models correlated faults with a single multiplicative factor
//! `α ≤ 1` that shortens the mean time to a *second* fault once a first
//! fault is outstanding. `α = 1` means fully independent replicas;
//! `α = 0.1` is the value Chen et al. suggest for conventional systems; and
//! the paper derives a plausible lower bound `α ≥ 10·MRV/MV` (about
//! `2 × 10⁻⁶` for the Cheetah example), giving a range of at least five
//! orders of magnitude.

use crate::error::ModelError;
use crate::params::ReliabilityParams;

/// The paper's heuristic lower bound on `α`: the correlated mean time to a
/// second visible fault should still be at least `margin` times the recovery
/// time, i.e. `α·MV ≥ margin·MRV`, hence `α ≥ margin·MRV / MV`.
///
/// The paper uses `margin = 10` and obtains `α ≥ 2×10⁻⁶` for the Cheetah.
pub fn alpha_lower_bound(params: &ReliabilityParams, margin: f64) -> f64 {
    assert!(margin > 0.0, "margin must be positive");
    (margin * params.repair_visible().get() / params.mttf_visible().get()).min(1.0)
}

/// Number of decimal orders of magnitude spanned by the plausible `α` range
/// `[lower_bound, 1]`.
pub fn alpha_range_orders_of_magnitude(params: &ReliabilityParams, margin: f64) -> f64 {
    let lower = alpha_lower_bound(params, margin);
    -lower.log10()
}

/// Maps an *independence score* in `[0, 1]` — a crude summary of how diverse
/// two replicas are in hardware, software, geography, administration and
/// organization (§6.5) — onto a correlation factor.
///
/// The mapping is logarithmic: a score of 1 (perfectly diverse) gives
/// `α = 1`; a score of 0 (identical everything) gives `alpha_floor`.
/// Intermediate scores interpolate in log-space, reflecting the paper's
/// observation that `α` plausibly spans many orders of magnitude.
pub fn alpha_from_independence_score(score: f64, alpha_floor: f64) -> Result<f64, ModelError> {
    if !(0.0..=1.0).contains(&score) || !score.is_finite() {
        return Err(ModelError::InvalidProbability {
            parameter: "independence score",
            value: score,
        });
    }
    if !(alpha_floor > 0.0 && alpha_floor <= 1.0) {
        return Err(ModelError::InvalidCorrelation { alpha: alpha_floor });
    }
    // log10(alpha) interpolates between log10(floor) and 0.
    Ok(10f64.powf(alpha_floor.log10() * (1.0 - score)))
}

/// Effective correlation factor when several *independent* correlation
/// sources act together (e.g. shared power, same administrator, same
/// software).
///
/// Each source `i` contributes a factor `α_i`; the combined factor is their
/// product, floored at `1e-12` to keep the model well-defined.
pub fn combine_alphas<I: IntoIterator<Item = f64>>(alphas: I) -> Result<f64, ModelError> {
    let mut combined = 1.0f64;
    for a in alphas {
        if !(a > 0.0 && a <= 1.0 && a.is_finite()) {
            return Err(ModelError::InvalidCorrelation { alpha: a });
        }
        combined *= a;
    }
    Ok(combined.max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn paper_lower_bound_is_two_e_minus_six() {
        // §5.4: "1 ≥ α ≥ 2×10⁻⁶, which gives a range of at least 5 orders of
        // magnitude".
        let params = presets::cheetah_mirror_scrubbed();
        let lower = alpha_lower_bound(&params, 10.0);
        assert!((lower - 2.38e-6).abs() / 2.38e-6 < 0.01, "lower {lower}");
        let orders = alpha_range_orders_of_magnitude(&params, 10.0);
        assert!(orders >= 5.0, "range spans {orders} orders of magnitude");
    }

    #[test]
    fn lower_bound_clamps_at_one() {
        // A system whose repair time approaches its MTTF cannot have a bound
        // above 1.
        let params = crate::ReliabilityParams::builder()
            .mttf_visible(crate::Hours::new(10.0))
            .mttf_latent(crate::Hours::new(10.0))
            .repair_visible(crate::Hours::new(5.0))
            .build()
            .unwrap();
        assert_eq!(alpha_lower_bound(&params, 10.0), 1.0);
    }

    #[test]
    fn independence_score_mapping_endpoints() {
        let floor = 1e-4;
        assert!((alpha_from_independence_score(1.0, floor).unwrap() - 1.0).abs() < 1e-12);
        assert!((alpha_from_independence_score(0.0, floor).unwrap() - floor).abs() < 1e-12);
        // Halfway in log space.
        let half = alpha_from_independence_score(0.5, floor).unwrap();
        assert!((half - 1e-2).abs() / 1e-2 < 1e-9);
    }

    #[test]
    fn independence_score_mapping_is_monotone() {
        let floor = 1e-5;
        let mut prev = 0.0;
        for i in 0..=10 {
            let score = i as f64 / 10.0;
            let a = alpha_from_independence_score(score, floor).unwrap();
            assert!(a >= prev);
            prev = a;
        }
    }

    #[test]
    fn independence_score_rejects_bad_input() {
        assert!(alpha_from_independence_score(-0.1, 0.01).is_err());
        assert!(alpha_from_independence_score(1.1, 0.01).is_err());
        assert!(alpha_from_independence_score(0.5, 0.0).is_err());
        assert!(alpha_from_independence_score(0.5, 2.0).is_err());
    }

    #[test]
    fn combining_sources_multiplies() {
        let combined = combine_alphas([0.5, 0.5, 0.1]).unwrap();
        assert!((combined - 0.025).abs() < 1e-12);
        assert_eq!(combine_alphas(std::iter::empty()).unwrap(), 1.0);
        assert!(combine_alphas([0.5, 0.0]).is_err());
        // The floor keeps extreme products usable.
        let tiny = combine_alphas(std::iter::repeat_n(1e-3, 10)).unwrap();
        assert_eq!(tiny, 1e-12);
    }
}
