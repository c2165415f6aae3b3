//! The reliability-improvement strategies of §6 and their relative impact.
//!
//! §6 lists seven levers: raise `MV`, raise `ML`, cut `MDL`, cut `MRL`, cut
//! `MRV`, add replicas, and raise `α` by making replicas more independent.
//! This module makes those levers executable: each [`Strategy`] can be
//! applied to a parameter set with a given magnitude, and
//! [`sensitivity_analysis`] ranks the levers by how much a given relative
//! improvement in each parameter would improve the MTTDL.

use crate::error::ModelError;
use crate::mttdl::mttdl_exact;
use crate::params::ReliabilityParams;
use std::fmt;

/// The seven improvement levers enumerated in §6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Increase `MV`, e.g. use media less subject to catastrophic loss.
    IncreaseMttfVisible,
    /// Increase `ML`, e.g. media less subject to corruption, formats less
    /// subject to obsolescence.
    IncreaseMttfLatent,
    /// Reduce `MDL`, e.g. audit/scrub the data more frequently.
    ReduceDetectionTime,
    /// Reduce `MRL`, e.g. repair latent faults automatically instead of
    /// alerting an operator.
    ReduceLatentRepairTime,
    /// Reduce `MRV`, e.g. hot spares so recovery starts immediately.
    ReduceVisibleRepairTime,
    /// Increase the number of replicas (handled by [`crate::replication`]).
    IncreaseReplication,
    /// Increase `α` by increasing the independence of the replicas.
    IncreaseIndependence,
}

impl Strategy {
    /// All strategies, in the order §6 lists them.
    pub const ALL: [Strategy; 7] = [
        Strategy::IncreaseMttfVisible,
        Strategy::IncreaseMttfLatent,
        Strategy::ReduceDetectionTime,
        Strategy::ReduceLatentRepairTime,
        Strategy::ReduceVisibleRepairTime,
        Strategy::IncreaseReplication,
        Strategy::IncreaseIndependence,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::IncreaseMttfVisible => "increase MV",
            Strategy::IncreaseMttfLatent => "increase ML",
            Strategy::ReduceDetectionTime => "reduce MDL",
            Strategy::ReduceLatentRepairTime => "reduce MRL",
            Strategy::ReduceVisibleRepairTime => "reduce MRV",
            Strategy::IncreaseReplication => "increase replication",
            Strategy::IncreaseIndependence => "increase independence",
        }
    }

    /// Example implementation technique from §6.
    pub fn example_technique(self) -> &'static str {
        match self {
            Strategy::IncreaseMttfVisible => {
                "use storage media less subject to catastrophic data loss such as head crashes"
            }
            Strategy::IncreaseMttfLatent => {
                "use media less subject to corruption, or formats less subject to obsolescence"
            }
            Strategy::ReduceDetectionTime => "audit the data more frequently, as in RAID scrubbing",
            Strategy::ReduceLatentRepairTime => {
                "repair latent faults automatically rather than alerting an operator"
            }
            Strategy::ReduceVisibleRepairTime => {
                "provide hot spare drives so recovery starts immediately"
            }
            Strategy::IncreaseReplication => {
                "add enough replicas to survive more simultaneous faults"
            }
            Strategy::IncreaseIndependence => {
                "diversify hardware, software, geography, administration and organization"
            }
        }
    }

    /// Applies the strategy to a parameter set.
    ///
    /// `factor > 1` is the improvement factor: MTTFs and `α` are multiplied
    /// by it (capped at `α = 1`), repair/detection times are divided by it.
    /// `IncreaseReplication` does not change the mirrored-data parameters and
    /// returns them unchanged (model it with [`crate::replication`]).
    pub fn apply(
        self,
        params: &ReliabilityParams,
        factor: f64,
    ) -> Result<ReliabilityParams, ModelError> {
        if !(factor.is_finite() && factor >= 1.0) {
            return Err(ModelError::InvalidProbability {
                parameter: "improvement factor (must be >= 1)",
                value: factor,
            });
        }
        match self {
            Strategy::IncreaseMttfVisible => {
                params.with_mttf_visible(params.mttf_visible() * factor)
            }
            Strategy::IncreaseMttfLatent => params.with_mttf_latent(params.mttf_latent() * factor),
            Strategy::ReduceDetectionTime => {
                let mdl = params.detect_latent();
                let new = if mdl.is_finite() { mdl / factor } else { mdl };
                params.with_detect_latent(new)
            }
            Strategy::ReduceLatentRepairTime => {
                params.with_repair_times(params.repair_visible(), params.repair_latent() / factor)
            }
            Strategy::ReduceVisibleRepairTime => {
                params.with_repair_times(params.repair_visible() / factor, params.repair_latent())
            }
            Strategy::IncreaseReplication => Ok(*params),
            Strategy::IncreaseIndependence => params.with_alpha((params.alpha() * factor).min(1.0)),
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The MTTDL impact of applying one strategy at one improvement factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyImpact {
    /// Which lever was pulled.
    pub strategy: Strategy,
    /// The improvement factor applied to the underlying parameter.
    pub factor: f64,
    /// MTTDL before, in hours.
    pub mttdl_before_hours: f64,
    /// MTTDL after, in hours.
    pub mttdl_after_hours: f64,
}

impl StrategyImpact {
    /// The multiplicative MTTDL gain (`after / before`).
    pub fn gain(&self) -> f64 {
        self.mttdl_after_hours / self.mttdl_before_hours
    }
}

/// Evaluates every strategy at the same improvement factor against the exact
/// model, returning impacts sorted by decreasing gain.
///
/// `IncreaseReplication` is evaluated with Equation 12 going from 2 to 3
/// replicas and therefore usually dwarfs the others; callers who want only
/// parameter-level levers can filter it out.
pub fn sensitivity_analysis(
    params: &ReliabilityParams,
    factor: f64,
) -> Result<Vec<StrategyImpact>, ModelError> {
    let before = mttdl_exact(params);
    let mut out = Vec::with_capacity(Strategy::ALL.len());
    for strategy in Strategy::ALL {
        let after = match strategy {
            Strategy::IncreaseReplication => {
                // Going from mirrored (r = 2) to r = 3 with Equation 12.
                crate::replication::mttdl_replicated_from_params(params, 3)?
            }
            _ => mttdl_exact(&strategy.apply(params, factor)?),
        };
        out.push(StrategyImpact {
            strategy,
            factor,
            mttdl_before_hours: before,
            mttdl_after_hours: after,
        });
    }
    out.sort_by(|a, b| b.gain().partial_cmp(&a.gain()).expect("gains are finite"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn names_and_techniques_are_nonempty() {
        for s in Strategy::ALL {
            assert!(!s.name().is_empty());
            assert!(!s.example_technique().is_empty());
            assert!(!format!("{s}").is_empty());
        }
    }

    #[test]
    fn apply_moves_parameters_in_the_right_direction() {
        let p = presets::cheetah_mirror_scrubbed_correlated();
        let f = 2.0;
        assert!(
            Strategy::IncreaseMttfVisible.apply(&p, f).unwrap().mttf_visible() > p.mttf_visible()
        );
        assert!(Strategy::IncreaseMttfLatent.apply(&p, f).unwrap().mttf_latent() > p.mttf_latent());
        assert!(
            Strategy::ReduceDetectionTime.apply(&p, f).unwrap().detect_latent() < p.detect_latent()
        );
        assert!(
            Strategy::ReduceLatentRepairTime.apply(&p, f).unwrap().repair_latent()
                < p.repair_latent()
        );
        assert!(
            Strategy::ReduceVisibleRepairTime.apply(&p, f).unwrap().repair_visible()
                < p.repair_visible()
        );
        assert!(Strategy::IncreaseIndependence.apply(&p, f).unwrap().alpha() > p.alpha());
        assert_eq!(Strategy::IncreaseReplication.apply(&p, f).unwrap(), p);
    }

    #[test]
    fn alpha_caps_at_one() {
        let p = presets::cheetah_mirror_scrubbed_correlated();
        let improved = Strategy::IncreaseIndependence.apply(&p, 100.0).unwrap();
        assert_eq!(improved.alpha(), 1.0);
    }

    #[test]
    fn infinite_mdl_stays_infinite_under_reduction() {
        // "Scrub twice as often" is meaningless if you never scrub at all.
        let p = presets::cheetah_mirror_no_scrub();
        let after = Strategy::ReduceDetectionTime.apply(&p, 2.0).unwrap();
        assert!(!after.detect_latent().is_finite());
    }

    #[test]
    fn rejects_factor_below_one() {
        let p = presets::cheetah_mirror_scrubbed();
        assert!(Strategy::IncreaseMttfVisible.apply(&p, 0.5).is_err());
        assert!(sensitivity_analysis(&p, 0.9).is_err());
    }

    #[test]
    fn every_strategy_helps_or_is_neutral() {
        let p = presets::cheetah_mirror_scrubbed_correlated();
        for impact in sensitivity_analysis(&p, 2.0).unwrap() {
            assert!(
                impact.gain() >= 1.0 - 1e-12,
                "{:?} made things worse: gain {}",
                impact.strategy,
                impact.gain()
            );
        }
    }

    #[test]
    fn detection_matters_more_than_visible_repair_when_latent_dominates() {
        // §5.4 implication 2: when latent faults are frequent, reducing MDL
        // is the big lever; reducing MRV barely matters.
        let p = presets::cheetah_mirror_scrubbed();
        let impacts = sensitivity_analysis(&p, 10.0).unwrap();
        let gain_of = |s: Strategy| impacts.iter().find(|i| i.strategy == s).unwrap().gain();
        assert!(gain_of(Strategy::ReduceDetectionTime) > 5.0);
        assert!(gain_of(Strategy::ReduceVisibleRepairTime) < 1.1);
        assert!(
            gain_of(Strategy::ReduceDetectionTime) > gain_of(Strategy::ReduceVisibleRepairTime)
        );
        // Increasing ML (quadratic lever) beats increasing MV here.
        assert!(gain_of(Strategy::IncreaseMttfLatent) > gain_of(Strategy::IncreaseMttfVisible));
    }

    #[test]
    fn independence_gain_matches_alpha_ratio() {
        let p = presets::cheetah_mirror_scrubbed_correlated();
        let impacts = sensitivity_analysis(&p, 5.0).unwrap();
        let ind = impacts.iter().find(|i| i.strategy == Strategy::IncreaseIndependence).unwrap();
        // alpha goes from 0.1 to 0.5, so MTTDL gains exactly 5x.
        assert!((ind.gain() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn sensitivity_is_sorted_by_gain() {
        let impacts = sensitivity_analysis(&presets::cheetah_mirror_scrubbed(), 3.0).unwrap();
        assert!(impacts.windows(2).all(|w| w[0].gain() >= w[1].gain()));
        assert_eq!(impacts.len(), Strategy::ALL.len());
    }
}
