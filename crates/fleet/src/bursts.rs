//! Hierarchical correlated failure bursts.
//!
//! The per-group simulator compresses all correlation into the single `α`
//! factor. At fleet scale correlation has *structure*: a site flood takes
//! out every drive in the site at once, a rack power fault takes out a
//! rack, a bad firmware push corrupts a batch of drives. This module
//! generates those events as an explicit timeline, shared by every shard so
//! that cross-group correlation is identical regardless of how the fleet is
//! partitioned for parallel execution.
//!
//! Site, rack and node bursts produce *visible* faults (outage or
//! destruction — someone notices); drive bursts produce *latent* faults
//! (silent corruption found only by scrubbing), following the paper's §3
//! taxonomy.

use crate::topology::FleetTopology;
use ltds_core::fault::FaultClass;
use ltds_core::units::Hours;
use ltds_stochastic::SimRng;
use serde::{Deserialize, Serialize};

/// The hierarchy level a burst wipes out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultDomain {
    /// One whole site (disaster: flood, fire, decommissioning error).
    Site,
    /// One rack (shared power feed, top-of-rack switch, cooling).
    Rack,
    /// One node (controller, kernel panic with media damage).
    Node,
    /// One drive (firmware bug, head crash — corruption is silent).
    Drive,
}

impl FaultDomain {
    /// Fault class a burst at this level produces on affected replicas.
    pub fn fault_class(self) -> FaultClass {
        match self {
            FaultDomain::Site | FaultDomain::Rack | FaultDomain::Node => FaultClass::Visible,
            FaultDomain::Drive => FaultClass::Latent,
        }
    }
}

/// Mean times between bursts at each hierarchy level, fleet-wide.
///
/// `None` disables the level. Each burst picks one uniformly random victim
/// instance at its level and faults every replica stored inside it.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BurstProfile {
    /// Mean hours between site-level disasters, anywhere in the fleet.
    pub site_mtbf_hours: Option<f64>,
    /// Mean hours between rack-level bursts, anywhere in the fleet.
    pub rack_mtbf_hours: Option<f64>,
    /// Mean hours between node-level bursts, anywhere in the fleet.
    pub node_mtbf_hours: Option<f64>,
    /// Mean hours between drive-level corruption bursts, anywhere in the fleet.
    pub drive_mtbf_hours: Option<f64>,
}

impl BurstProfile {
    /// No correlated bursts (replica groups fail independently).
    pub fn none() -> Self {
        Self::default()
    }

    /// The e15 disaster scenario: a site loss roughly once per decade, rack
    /// and node trouble at datacenter-plausible rates, and an annual bad
    /// firmware push corrupting one drive.
    pub fn disaster_scenario() -> Self {
        Self {
            site_mtbf_hours: Some(Hours::from_years(10.0).get()),
            rack_mtbf_hours: Some(Hours::from_years(1.0).get()),
            node_mtbf_hours: Some(Hours::from_years(0.25).get()),
            drive_mtbf_hours: Some(Hours::from_years(1.0).get()),
        }
    }

    /// Whether any level is enabled.
    pub fn is_active(&self) -> bool {
        self.site_mtbf_hours.is_some()
            || self.rack_mtbf_hours.is_some()
            || self.node_mtbf_hours.is_some()
            || self.drive_mtbf_hours.is_some()
    }

    /// Validates the configured rates.
    pub fn validate(&self) -> Result<(), ltds_core::error::ModelError> {
        for (name, v) in [
            ("site burst MTBF", self.site_mtbf_hours),
            ("rack burst MTBF", self.rack_mtbf_hours),
            ("node burst MTBF", self.node_mtbf_hours),
            ("drive burst MTBF", self.drive_mtbf_hours),
        ] {
            if let Some(v) = v {
                if !(v.is_finite() && v > 0.0) {
                    return Err(ltds_core::error::ModelError::InvalidMeanTime {
                        parameter: name,
                        value: v,
                    });
                }
            }
        }
        Ok(())
    }

    /// Generates the burst timeline over `[0, horizon_hours)`, sorted by
    /// time (ties broken by level then victim index, so the order is
    /// deterministic).
    ///
    /// The timeline is generated once from its own RNG stream and handed to
    /// every shard, which is what makes cross-shard correlation independent
    /// of the worker-thread count.
    pub fn timeline(
        &self,
        topology: &FleetTopology,
        horizon_hours: f64,
        rng: &mut SimRng,
    ) -> Vec<Burst> {
        assert!(horizon_hours >= 0.0, "horizon must be non-negative");
        let mut out = Vec::new();
        let levels = [
            (FaultDomain::Site, self.site_mtbf_hours, topology.sites),
            (FaultDomain::Rack, self.rack_mtbf_hours, topology.total_racks()),
            (FaultDomain::Node, self.node_mtbf_hours, topology.total_nodes()),
            (FaultDomain::Drive, self.drive_mtbf_hours, topology.total_drives()),
        ];
        for (domain, mtbf, instances) in levels {
            let Some(mtbf) = mtbf else { continue };
            let mut t = rng.exponential(mtbf);
            while t < horizon_hours {
                out.push(Burst { time_hours: t, domain, victim: rng.index(instances) });
                t += rng.exponential(mtbf);
            }
        }
        out.sort_by(|a, b| {
            a.time_hours
                .total_cmp(&b.time_hours)
                .then(a.domain.cmp(&b.domain))
                .then(a.victim.cmp(&b.victim))
        });
        out
    }
}

/// One correlated failure burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// When the burst strikes, in hours.
    pub time_hours: f64,
    /// Hierarchy level wiped out.
    pub domain: FaultDomain,
    /// Victim instance index at that level (site/rack/node/drive id).
    pub victim: usize,
}

impl Burst {
    /// Drive range affected by this burst.
    pub fn affected_drives(&self, topology: &FleetTopology) -> std::ops::Range<usize> {
        match self.domain {
            FaultDomain::Site => topology.site_drives(self.victim),
            FaultDomain::Rack => topology.rack_drives(self.victim),
            FaultDomain::Node => topology.node_drives(self.victim),
            FaultDomain::Drive => self.victim..self.victim + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FleetTopology {
        FleetTopology::new(3, 2, 2, 4).unwrap()
    }

    #[test]
    fn empty_profile_generates_nothing() {
        let mut rng = SimRng::seed_from(1);
        let t = BurstProfile::none().timeline(&topo(), 1.0e6, &mut rng);
        assert!(t.is_empty());
        assert!(!BurstProfile::none().is_active());
    }

    #[test]
    fn timeline_is_sorted_and_reproducible() {
        let profile = BurstProfile::disaster_scenario();
        let a = profile.timeline(&topo(), 1.0e6, &mut SimRng::seed_from(7));
        let b = profile.timeline(&topo(), 1.0e6, &mut SimRng::seed_from(7));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].time_hours <= w[1].time_hours));
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let profile = BurstProfile { site_mtbf_hours: Some(10_000.0), ..BurstProfile::none() };
        let horizon = 1.0e7;
        let t = profile.timeline(&topo(), horizon, &mut SimRng::seed_from(3));
        let expected = horizon / 10_000.0;
        assert!(
            (t.len() as f64 - expected).abs() < 4.0 * expected.sqrt(),
            "{} bursts vs expected {expected}",
            t.len()
        );
        assert!(t.iter().all(|b| b.domain == FaultDomain::Site && b.victim < 3));
    }

    #[test]
    fn affected_drives_match_domains() {
        let t = topo();
        let site = Burst { time_hours: 0.0, domain: FaultDomain::Site, victim: 1 };
        assert_eq!(site.affected_drives(&t), 16..32);
        let rack = Burst { time_hours: 0.0, domain: FaultDomain::Rack, victim: 1 };
        assert_eq!(rack.affected_drives(&t), 8..16);
        let node = Burst { time_hours: 0.0, domain: FaultDomain::Node, victim: 2 };
        assert_eq!(node.affected_drives(&t), 8..12);
        let drive = Burst { time_hours: 0.0, domain: FaultDomain::Drive, victim: 5 };
        assert_eq!(drive.affected_drives(&t), 5..6);
    }

    #[test]
    fn burst_classes_follow_the_taxonomy() {
        assert_eq!(FaultDomain::Site.fault_class(), FaultClass::Visible);
        assert_eq!(FaultDomain::Rack.fault_class(), FaultClass::Visible);
        assert_eq!(FaultDomain::Node.fault_class(), FaultClass::Visible);
        assert_eq!(FaultDomain::Drive.fault_class(), FaultClass::Latent);
    }
}
