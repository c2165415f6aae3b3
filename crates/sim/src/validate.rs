//! Side-by-side comparison of the simulator against the analytic model.
//!
//! Experiment E9 uses this module. Two conventions have to be reconciled:
//!
//! * **The paper's counting convention.** Equation 7 takes the first-fault
//!   rate to be `1/MV` (resp. `1/ML`) rather than the pair-level `2/MV`, and
//!   Equation 12 likewise ignores which of the `r` replicas fails first and
//!   how the deterministic repair windows overlap. The simulator models a
//!   physical system in which *every* replica generates faults and each
//!   repair window shrinks the overlap available to the next fault; working
//!   through that geometry gives a physical MTTDL smaller than the paper's
//!   closed form by a factor of `r` (2 for mirrored data, 3 for triplicated,
//!   and so on).
//! * **Saturated windows.** When latent faults are never detected, the
//!   closed forms stop being meaningful (the paper itself switches to
//!   `P(V2 ∨ L2 | L1) ≈ 1`). The physically honest prediction for a mirrored
//!   pair is then "time of the first latent fault plus the wait for the next
//!   fault on the surviving copy", which is what
//!   [`saturated_mirrored_prediction`] computes.
//!
//! The validation report carries both the paper-convention value and the
//! physical prediction; agreement is asserted against the physical one.

use crate::config::{DetectionModel, SimConfig};
use crate::monte_carlo::{MonteCarlo, MttdlEstimate};
use ltds_core::mttdl;

/// Outcome of one validation point.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Configuration that was simulated.
    pub config: SimConfig,
    /// Simulated estimate.
    pub simulated_mttdl_hours: f64,
    /// Half-width of the simulated 95 % confidence interval.
    pub simulated_ci_half_width: f64,
    /// Prediction for the physical system (paper algebra with the `r`
    /// counting correction, or the saturated-window expression).
    pub physical_mttdl_hours: f64,
    /// The paper-convention value (Equation 8 / Equation 12 as printed).
    pub paper_mttdl_hours: f64,
    /// `simulated / physical`.
    pub ratio: f64,
    /// Number of Monte-Carlo trials behind the estimate.
    pub trials: u64,
}

impl ValidationReport {
    /// Whether the physical prediction lies within `tolerance` (relative) of
    /// the simulated value.
    pub fn agrees_within(&self, tolerance: f64) -> bool {
        (self.ratio - 1.0).abs() <= tolerance
    }
}

/// Physical MTTDL prediction for a mirrored pair whose latent faults are
/// never detected: the first latent fault (rate `2/ML` across the pair)
/// leaves one copy permanently bad; data is lost at the next fault of either
/// class on the surviving copy.
pub fn saturated_mirrored_prediction(mv: f64, ml: f64) -> f64 {
    assert!(mv > 0.0 && ml > 0.0, "MTTFs must be positive");
    let first_latent = ml / 2.0;
    let next_fault = 1.0 / (1.0 / mv + 1.0 / ml);
    first_latent + next_fault
}

/// The physical prediction for a configuration, together with the
/// paper-convention value.
pub fn analytic_predictions(config: &SimConfig) -> (f64, f64) {
    let params = config.to_params().expect("simulation config maps to valid parameters");
    let never_detected = matches!(config.detection, DetectionModel::Never);
    if config.replicas == 2 && config.min_intact == 1 {
        if never_detected {
            let physical =
                saturated_mirrored_prediction(config.mttf_visible_hours, config.mttf_latent_hours);
            let paper = mttdl::mttdl_exact(&params);
            (physical, paper)
        } else {
            let paper = mttdl::mttdl_closed_form(&params);
            (paper / 2.0, paper)
        }
    } else {
        let paper = ltds_core::replication::mttdl_replicated_from_params(&params, config.replicas)
            .expect("replica count validated by config");
        (paper / config.replicas as f64, paper)
    }
}

/// Runs the simulator for a configuration and compares it against the
/// analytic model.
pub fn validate_against_model(config: SimConfig, trials: u64, seed: u64) -> ValidationReport {
    let estimate: MttdlEstimate = MonteCarlo::new(config).trials(trials).seed(seed).run();
    let (physical, paper) = analytic_predictions(&config);
    let simulated = estimate.mttdl_hours.estimate;
    ValidationReport {
        config,
        simulated_mttdl_hours: simulated,
        simulated_ci_half_width: estimate.mttdl_hours.half_width(),
        physical_mttdl_hours: physical,
        paper_mttdl_hours: paper,
        ratio: simulated / physical,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulator_matches_closed_form_in_valid_regime() {
        // Mirrored pair, scrubbed often enough that windows are short
        // relative to the MTTFs, independent faults.
        let config =
            SimConfig::mirrored_disks(10_000.0, 10_000.0, 2.0, 2.0, Some(40.0), 1.0).unwrap();
        let report = validate_against_model(config, 4000, 11);
        assert!(
            report.agrees_within(0.10),
            "simulated {} vs physical {} (ratio {})",
            report.simulated_mttdl_hours,
            report.physical_mttdl_hours,
            report.ratio
        );
        // The paper-convention value is exactly 2x the physical prediction here.
        assert!((report.paper_mttdl_hours / report.physical_mttdl_hours - 2.0).abs() < 1e-9);
    }

    #[test]
    fn simulator_matches_saturated_prediction_without_scrubbing() {
        // No detection at all: the latent window saturates; the physical
        // prediction is "first latent fault + next fault on the survivor".
        let config = SimConfig::mirrored_disks(10_000.0, 2_000.0, 2.0, 2.0, None, 1.0).unwrap();
        let report = validate_against_model(config, 4000, 13);
        assert!(
            report.agrees_within(0.10),
            "simulated {} vs physical {} (ratio {})",
            report.simulated_mttdl_hours,
            report.physical_mttdl_hours,
            report.ratio
        );
    }

    #[test]
    fn simulator_matches_equation12_for_three_replicas() {
        // Three replicas, latent faults negligible (huge ML), quick repair:
        // Equation 12 divided by the replica-count correction should match
        // the simulation.
        let config = SimConfig::new(
            3,
            1,
            1_000.0,
            1.0e9,
            20.0,
            20.0,
            DetectionModel::PeriodicScrub { period_hours: 50.0 },
            1.0,
        )
        .unwrap();
        let report = validate_against_model(config, 1500, 17);
        assert!(
            report.agrees_within(0.15),
            "simulated {} vs physical {} (ratio {})",
            report.simulated_mttdl_hours,
            report.physical_mttdl_hours,
            report.ratio
        );
    }

    #[test]
    fn saturated_prediction_formula() {
        // ML << MV: prediction is ML/2 + ~ML = 1.5 ML.
        let p = saturated_mirrored_prediction(1.0e9, 1000.0);
        assert!((p - 1500.0).abs() / 1500.0 < 0.01);
        // Symmetric case: ML/2 + 1/(2/M) = M.
        let q = saturated_mirrored_prediction(2000.0, 2000.0);
        assert!((q - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn report_tolerance_check() {
        let report = ValidationReport {
            config: SimConfig::mirrored_disks(1.0e3, 1.0e3, 1.0, 1.0, None, 1.0).unwrap(),
            simulated_mttdl_hours: 105.0,
            simulated_ci_half_width: 3.0,
            physical_mttdl_hours: 100.0,
            paper_mttdl_hours: 200.0,
            ratio: 1.05,
            trials: 100,
        };
        assert!(report.agrees_within(0.10));
        assert!(!report.agrees_within(0.01));
    }
}
