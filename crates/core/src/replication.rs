//! Higher degrees of replication and the effect of correlation: Equation 12 (§5.5).
//!
//! For `r` replicas, the paper estimates the mean time to data loss as the
//! mean time to a first fault times the probability that the remaining
//! `r − 1` copies all fail inside the (overlapping) windows of vulnerability:
//!
//! ```text
//! MTTDL = MV · (α·MV / MRV)^(r−1) = α^(r−1) · MV^r / MRV^(r−1)
//! ```
//!
//! The headline observation is that replication and independence multiply:
//! adding replicas raises MTTDL geometrically, but a small `α` (heavily
//! correlated replicas) *lowers* it geometrically by the same power, so
//! "replication without increasing independence does not help much".

use crate::error::ModelError;
use crate::params::ReliabilityParams;
use crate::units::Hours;

/// Equation 12: MTTDL (hours) of `r` replicas with visible-fault MTTF `mv`,
/// repair time `mrv` and correlation factor `alpha`.
///
/// The paper's derivation assumes latent faults have been made negligible
/// (`MDL ≈ 0`) and latent/visible rates and repairs are similar, so only `MV`
/// and `MRV` appear.
///
/// # Errors
///
/// Returns an error if `replicas == 0`, any time is non-positive, or
/// `alpha` is outside `(0, 1]`.
pub fn mttdl_replicated(
    mv: Hours,
    mrv: Hours,
    replicas: usize,
    alpha: f64,
) -> Result<f64, ModelError> {
    if replicas == 0 {
        return Err(ModelError::InvalidReplication { replicas });
    }
    if !mv.is_valid() || !mv.is_finite() || mv.get() <= 0.0 {
        return Err(ModelError::InvalidMeanTime { parameter: "MV", value: mv.get() });
    }
    if !mrv.is_valid() || !mrv.is_finite() || mrv.get() <= 0.0 {
        return Err(ModelError::InvalidMeanTime { parameter: "MRV", value: mrv.get() });
    }
    if !(alpha > 0.0 && alpha <= 1.0) {
        return Err(ModelError::InvalidCorrelation { alpha });
    }
    let mv = mv.get();
    let mrv = mrv.get();
    let r = replicas as f64;
    // MV * (alpha * MV / MRV)^(r-1), computed in log space to avoid overflow
    // for large r.
    let log = mv.ln() + (r - 1.0) * (alpha * mv / mrv).ln();
    Ok(log.exp())
}

/// Equation 12 applied to a [`ReliabilityParams`] set, taking `MV`, `MRV` and
/// `α` from the parameter set (latent handling is assumed to be instantaneous,
/// as in the paper's derivation).
pub fn mttdl_replicated_from_params(
    params: &ReliabilityParams,
    replicas: usize,
) -> Result<f64, ModelError> {
    mttdl_replicated(params.mttf_visible(), params.repair_visible(), replicas, params.alpha())
}

/// The factor by which MTTDL grows when going from `r` to `r + 1` replicas:
/// `α·MV/MRV`.
///
/// When this factor is close to 1 — i.e. when correlation is strong enough
/// that `α ≈ MRV/MV` — additional replicas buy essentially nothing.
pub fn per_replica_gain(mv: Hours, mrv: Hours, alpha: f64) -> Result<f64, ModelError> {
    if !(alpha > 0.0 && alpha <= 1.0) {
        return Err(ModelError::InvalidCorrelation { alpha });
    }
    if mv.get() <= 0.0 || mrv.get() <= 0.0 {
        return Err(ModelError::InvalidMeanTime {
            parameter: if mv.get() <= 0.0 { "MV" } else { "MRV" },
            value: if mv.get() <= 0.0 { mv.get() } else { mrv.get() },
        });
    }
    Ok(alpha * mv.get() / mrv.get())
}

/// The number of replicas needed to reach a target MTTDL, or `None` if the
/// per-replica gain is ≤ 1 (additional replicas do not help).
pub fn replicas_for_target(
    mv: Hours,
    mrv: Hours,
    alpha: f64,
    target_mttdl: Hours,
) -> Result<Option<usize>, ModelError> {
    let gain = per_replica_gain(mv, mrv, alpha)?;
    if target_mttdl.get() <= mv.get() {
        return Ok(Some(1));
    }
    if gain <= 1.0 {
        return Ok(None);
    }
    // Solve MV * gain^(r-1) >= target for the smallest integer r.
    let extra = ((target_mttdl.get() / mv.get()).ln() / gain.ln()).ceil();
    Ok(Some(1 + extra.max(0.0) as usize))
}

/// The correlation factor `α` required for `r` replicas to reach a target
/// MTTDL — the "how independent do my replicas have to be?" question of §6.5.
///
/// Returns `None` when even fully independent replicas (`α = 1`) cannot reach
/// the target at this replication factor.
pub fn required_alpha(
    mv: Hours,
    mrv: Hours,
    replicas: usize,
    target_mttdl: Hours,
) -> Result<Option<f64>, ModelError> {
    if replicas == 0 {
        return Err(ModelError::InvalidReplication { replicas });
    }
    if replicas == 1 {
        // A single copy's MTTDL is just MV; alpha plays no role.
        return Ok(if mv.get() >= target_mttdl.get() { Some(1.0) } else { None });
    }
    let best = mttdl_replicated(mv, mrv, replicas, 1.0)?;
    if best < target_mttdl.get() {
        return Ok(None);
    }
    // target = MV * (alpha MV/MRV)^(r-1)  =>  alpha = (target/MV)^(1/(r-1)) * MRV/MV.
    let r = replicas as f64;
    let alpha = (target_mttdl.get() / mv.get()).powf(1.0 / (r - 1.0)) * mrv.get() / mv.get();
    Ok(Some(alpha.min(1.0)))
}

/// A single row of the §5.5 replication-vs-correlation series
/// (used by the E7 experiment and the replication-planning example).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationPoint {
    /// Number of replicas.
    pub replicas: usize,
    /// Correlation factor.
    pub alpha: f64,
    /// Mean time to data loss in hours.
    pub mttdl_hours: f64,
}

/// Generates the full replication × correlation grid of Equation 12.
pub fn replication_grid(
    mv: Hours,
    mrv: Hours,
    replica_counts: &[usize],
    alphas: &[f64],
) -> Result<Vec<ReplicationPoint>, ModelError> {
    let mut out = Vec::with_capacity(replica_counts.len() * alphas.len());
    for &alpha in alphas {
        for &r in replica_counts {
            out.push(ReplicationPoint {
                replicas: r,
                alpha,
                mttdl_hours: mttdl_replicated(mv, mrv, r, alpha)?,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::units::hours_to_years;

    fn cheetah_mv() -> Hours {
        Hours::new(1.4e6)
    }

    fn cheetah_mrv() -> Hours {
        Hours::from_minutes(20.0)
    }

    #[test]
    fn single_replica_is_just_mv() {
        let m = mttdl_replicated(cheetah_mv(), cheetah_mrv(), 1, 0.5).unwrap();
        assert!((m - 1.4e6).abs() < 1e-6);
    }

    #[test]
    fn mirrored_matches_equation_nine() {
        // r = 2 must reduce to Equation 9: alpha * MV^2 / MRV.
        let m = mttdl_replicated(cheetah_mv(), cheetah_mrv(), 2, 1.0).unwrap();
        let eq9 = 1.4e6_f64.powi(2) / (1.0 / 3.0);
        assert!((m - eq9).abs() / eq9 < 1e-12);
        // And agrees with the visible-dominated regime of the core model.
        let raid = presets::raid_like(1.4e6, 1.0 / 3.0);
        let core = crate::regimes::mttdl_visible_dominated(&raid);
        assert!((m - core).abs() / core < 1e-12);
    }

    #[test]
    fn replication_gain_is_geometric() {
        let m2 = mttdl_replicated(cheetah_mv(), cheetah_mrv(), 2, 1.0).unwrap();
        let m3 = mttdl_replicated(cheetah_mv(), cheetah_mrv(), 3, 1.0).unwrap();
        let m4 = mttdl_replicated(cheetah_mv(), cheetah_mrv(), 4, 1.0).unwrap();
        let gain = per_replica_gain(cheetah_mv(), cheetah_mrv(), 1.0).unwrap();
        assert!((m3 / m2 - gain).abs() / gain < 1e-9);
        assert!((m4 / m3 - gain).abs() / gain < 1e-9);
        // For the Cheetah, one extra replica is worth a factor of 4.2 million.
        assert!((gain - 4.2e6).abs() / 4.2e6 < 1e-9);
    }

    #[test]
    fn correlation_offsets_replication() {
        // §5.5: "a high degree of correlated errors would geometrically
        // decrease MTTDL, offsetting much or all of the gains".
        // With alpha = MRV/MV the per-replica gain is exactly 1: extra
        // replicas buy nothing.
        let alpha = cheetah_mrv().get() / cheetah_mv().get();
        let m2 = mttdl_replicated(cheetah_mv(), cheetah_mrv(), 2, alpha).unwrap();
        let m5 = mttdl_replicated(cheetah_mv(), cheetah_mrv(), 5, alpha).unwrap();
        assert!((m2 - 1.4e6).abs() / 1.4e6 < 1e-9);
        assert!((m5 - 1.4e6).abs() / 1.4e6 < 1e-9);
        assert!(
            (per_replica_gain(cheetah_mv(), cheetah_mrv(), alpha).unwrap() - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn three_correlated_replicas_versus_two_independent() {
        // Independence can beat raw replication: two independent replicas
        // outlast three replicas that share fate at alpha = 1e-5.
        let two_independent = mttdl_replicated(cheetah_mv(), cheetah_mrv(), 2, 1.0).unwrap();
        let three_correlated = mttdl_replicated(cheetah_mv(), cheetah_mrv(), 3, 1e-5).unwrap();
        assert!(two_independent > three_correlated);
    }

    #[test]
    fn large_replica_counts_do_not_overflow() {
        let m = mttdl_replicated(cheetah_mv(), cheetah_mrv(), 40, 1.0).unwrap();
        assert!(m.is_finite() && m > 0.0);
        assert!(hours_to_years(m) > 1e100, "astronomically reliable, got {m}");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(mttdl_replicated(cheetah_mv(), cheetah_mrv(), 0, 1.0).is_err());
        assert!(mttdl_replicated(Hours::new(0.0), cheetah_mrv(), 2, 1.0).is_err());
        assert!(mttdl_replicated(cheetah_mv(), Hours::new(0.0), 2, 1.0).is_err());
        assert!(mttdl_replicated(cheetah_mv(), cheetah_mrv(), 2, 0.0).is_err());
        assert!(mttdl_replicated(cheetah_mv(), cheetah_mrv(), 2, 1.5).is_err());
        assert!(per_replica_gain(cheetah_mv(), cheetah_mrv(), 2.0).is_err());
    }

    #[test]
    fn from_params_uses_mv_mrv_alpha() {
        let p = presets::cheetah_mirror_scrubbed_correlated();
        let direct = mttdl_replicated(p.mttf_visible(), p.repair_visible(), 3, p.alpha()).unwrap();
        let via = mttdl_replicated_from_params(&p, 3).unwrap();
        assert_eq!(direct, via);
    }

    #[test]
    fn replicas_for_target_behaviour() {
        let target = Hours::from_years(1.0e6);
        let needed =
            replicas_for_target(cheetah_mv(), cheetah_mrv(), 1.0, target).unwrap().unwrap();
        // Verify minimality: needed replicas reach the target, one fewer does not.
        assert!(
            mttdl_replicated(cheetah_mv(), cheetah_mrv(), needed, 1.0).unwrap() >= target.get()
        );
        assert!(
            mttdl_replicated(cheetah_mv(), cheetah_mrv(), needed - 1, 1.0).unwrap() < target.get()
        );
        // With per-replica gain <= 1, no number of replicas reaches the target.
        let hopeless = replicas_for_target(cheetah_mv(), cheetah_mrv(), 2.0e-7, target).unwrap();
        assert!(hopeless.is_none());
        // A trivial target needs a single replica.
        let trivial =
            replicas_for_target(cheetah_mv(), cheetah_mrv(), 1.0, Hours::new(1000.0)).unwrap();
        assert_eq!(trivial, Some(1));
    }

    #[test]
    fn required_alpha_inverts_equation12() {
        let target = Hours::from_years(1.0e5);
        let alpha = required_alpha(cheetah_mv(), cheetah_mrv(), 3, target).unwrap().unwrap();
        let achieved = mttdl_replicated(cheetah_mv(), cheetah_mrv(), 3, alpha).unwrap();
        assert!((achieved - target.get()).abs() / target.get() < 1e-9);
        // Unreachable targets return None.
        let unreachable =
            required_alpha(cheetah_mv(), Hours::new(1.0e5), 2, Hours::new(1.0e300)).unwrap();
        assert!(unreachable.is_none());
        // Single replica: alpha is irrelevant; reachable only if MV >= target.
        assert_eq!(
            required_alpha(cheetah_mv(), cheetah_mrv(), 1, Hours::new(1.0e6)).unwrap(),
            Some(1.0)
        );
        assert_eq!(
            required_alpha(cheetah_mv(), cheetah_mrv(), 1, Hours::new(1.0e8)).unwrap(),
            None
        );
    }

    #[test]
    fn grid_covers_all_combinations() {
        let grid = replication_grid(cheetah_mv(), cheetah_mrv(), &[1, 2, 3, 4], &[1.0, 0.1, 0.01])
            .unwrap();
        assert_eq!(grid.len(), 12);
        // MTTDL should be monotone in r for fixed alpha...
        for alpha in [1.0, 0.1, 0.01] {
            let series: Vec<f64> =
                grid.iter().filter(|p| p.alpha == alpha).map(|p| p.mttdl_hours).collect();
            assert!(series.windows(2).all(|w| w[1] >= w[0]));
        }
        // ...and monotone in alpha for fixed r > 1.
        let r3: Vec<f64> = grid.iter().filter(|p| p.replicas == 3).map(|p| p.mttdl_hours).collect();
        assert!(r3[0] > r3[1] && r3[1] > r3[2]);
    }
}
