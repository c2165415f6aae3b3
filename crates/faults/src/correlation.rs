//! Correlation structure: shared components and site-level disasters (§4.2).
//!
//! The abstract model compresses all correlation into a single factor `α`.
//! Real systems correlate through *identifiable shared fate*: replicas that
//! share a power feed, a SCSI controller, an administrator, a software stack
//! or a building. This module lets a deployment describe those shared
//! components explicitly, generate the correlated fault events they imply,
//! and estimate the equivalent `α` for the closed-form model.

use crate::event::FaultEvent;
use ltds_core::fault::FaultClass;
use ltds_core::threats::ThreatCategory;
use ltds_core::units::Hours;
use ltds_stochastic::{Exponential, SimRng};
use serde::{Deserialize, Serialize};

/// A component whose failure simultaneously affects every replica that
/// depends on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedComponent {
    /// Human-readable name, e.g. `"shared power feed"`.
    pub name: String,
    /// Replicas affected when this component fails.
    pub members: Vec<usize>,
    /// Mean time between failures of the component, in hours.
    pub mttf_hours: f64,
    /// Threat category the failure is attributed to.
    pub threat: ThreatCategory,
    /// Fault class the failure produces at each member replica.
    pub class: FaultClass,
}

impl SharedComponent {
    /// Creates a shared component, validating its parameters.
    pub fn new(
        name: impl Into<String>,
        members: Vec<usize>,
        mttf: Hours,
        threat: ThreatCategory,
        class: FaultClass,
    ) -> Self {
        assert!(!members.is_empty(), "a shared component must affect at least one replica");
        assert!(mttf.is_valid() && mttf.is_finite() && mttf.get() > 0.0, "MTTF must be positive");
        Self { name: name.into(), members, mttf_hours: mttf.get(), threat, class }
    }
}

/// A collection of shared components describing how replicas share fate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CorrelationStructure {
    components: Vec<SharedComponent>,
}

impl CorrelationStructure {
    /// A structure with no shared components (fully independent replicas).
    pub fn independent() -> Self {
        Self::default()
    }

    /// The Talagala-style machine-room structure: all replicas share power
    /// and cooling in one room, with the given event rates.
    pub fn single_machine_room(replicas: usize) -> Self {
        let all: Vec<usize> = (0..replicas).collect();
        let mut s = Self::default();
        s.add(SharedComponent::new(
            "shared power distribution",
            all.clone(),
            Hours::from_years(2.0),
            ThreatCategory::ComponentFault,
            FaultClass::Visible,
        ));
        s.add(SharedComponent::new(
            "shared cooling / vibration environment",
            all.clone(),
            Hours::from_years(5.0),
            ThreatCategory::MediaFault,
            FaultClass::Latent,
        ));
        s.add(SharedComponent::new(
            "single administrative domain",
            all,
            Hours::from_years(10.0),
            ThreatCategory::HumanError,
            FaultClass::Visible,
        ));
        s
    }

    /// Adds a shared component.
    pub fn add(&mut self, component: SharedComponent) {
        self.components.push(component);
    }

    /// The configured components.
    pub fn components(&self) -> &[SharedComponent] {
        &self.components
    }

    /// Whether any two replicas share any component.
    pub fn has_shared_fate(&self) -> bool {
        self.components.iter().any(|c| c.members.len() > 1)
    }

    /// Generates the correlated fault events implied by the shared
    /// components, up to `horizon_hours`: each component failure produces one
    /// simultaneous fault at every member replica.
    pub fn correlated_events(&self, horizon_hours: f64, rng: &mut SimRng) -> Vec<FaultEvent> {
        assert!(horizon_hours >= 0.0, "horizon must be non-negative");
        let mut out = Vec::new();
        for c in &self.components {
            let dist = Exponential::with_mean(c.mttf_hours);
            let mut t = dist.sample(rng);
            while t < horizon_hours {
                for &replica in &c.members {
                    out.push(FaultEvent::new(t, replica, c.class, c.threat));
                }
                t += dist.sample(rng);
            }
        }
        crate::event::sort_events(&mut out);
        out
    }

    /// Estimates the equivalent correlation factor `α` for a pair of
    /// replicas, given the independent per-replica fault rate.
    ///
    /// The estimate compares the rate of *simultaneous* (shared-component)
    /// faults hitting both replicas with the rate at which independent faults
    /// would land in each other's repair window: if shared faults are much
    /// more frequent than coincidental overlaps, the effective `α` is small.
    /// Concretely, a shared-fault rate `λ_s` against an independent
    /// double-fault rate `λ_d = WOV / (MTTF²)` gives
    /// `α ≈ λ_d / (λ_d + λ_s · MTTF⁻¹·WOV⁻¹ ... )`; we use the simpler ratio
    /// `α ≈ independent_rate / (independent_rate + shared_rate)` of the two
    /// *pair-destroying* processes, clamped to `(0, 1]`.
    pub fn estimate_alpha(
        &self,
        replica_a: usize,
        replica_b: usize,
        independent_mttf: Hours,
        repair_time: Hours,
    ) -> f64 {
        assert!(independent_mttf.get() > 0.0 && repair_time.get() >= 0.0, "invalid parameters");
        // Rate at which independent faults on A and B overlap within a repair
        // window (the classic mirrored double-fault rate).
        let mttf = independent_mttf.get();
        let independent_pair_rate = repair_time.get() / (mttf * mttf);
        // Rate of shared-component failures hitting both replicas at once.
        let shared_rate: f64 = self
            .components
            .iter()
            .filter(|c| c.members.contains(&replica_a) && c.members.contains(&replica_b))
            .map(|c| 1.0 / c.mttf_hours)
            .sum();
        if shared_rate == 0.0 {
            return 1.0;
        }
        (independent_pair_rate / (independent_pair_rate + shared_rate)).clamp(1e-12, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_structure_has_no_shared_fate() {
        let s = CorrelationStructure::independent();
        assert!(!s.has_shared_fate());
        assert!(s.components().is_empty());
        let mut rng = SimRng::seed_from(1);
        assert!(s.correlated_events(1.0e6, &mut rng).is_empty());
        assert_eq!(s.estimate_alpha(0, 1, Hours::new(1.4e6), Hours::new(0.33)), 1.0);
    }

    #[test]
    fn machine_room_structure_correlates_everything() {
        let s = CorrelationStructure::single_machine_room(4);
        assert!(s.has_shared_fate());
        assert_eq!(s.components().len(), 3);
        for c in s.components() {
            assert_eq!(c.members.len(), 4);
        }
    }

    #[test]
    fn correlated_events_hit_all_members_simultaneously() {
        let s = CorrelationStructure::single_machine_room(3);
        let mut rng = SimRng::seed_from(5);
        let events = s.correlated_events(50.0 * 8760.0, &mut rng);
        assert!(!events.is_empty());
        // Every timestamp must appear exactly 3 times (one per member).
        let mut by_time: std::collections::BTreeMap<u64, usize> = Default::default();
        for e in &events {
            *by_time.entry(e.time_hours.to_bits()).or_default() += 1;
        }
        assert!(by_time.values().all(|&n| n == 3), "correlated events must be simultaneous");
    }

    #[test]
    fn estimated_alpha_is_small_for_shared_fate() {
        // Cheetah-like independent faults but everything in one machine room:
        // shared failures utterly dominate coincidental overlap, so alpha is
        // tiny -- the quantitative version of "replication without
        // independence does not help much".
        let s = CorrelationStructure::single_machine_room(2);
        let alpha = s.estimate_alpha(0, 1, Hours::new(1.4e6), Hours::from_minutes(20.0));
        assert!(alpha < 1e-5, "alpha {alpha}");
        assert!(alpha >= 1e-12);
    }

    #[test]
    fn alpha_is_one_for_disjoint_replicas() {
        // Replicas in different rooms share nothing.
        let mut s = CorrelationStructure::independent();
        s.add(SharedComponent::new(
            "room A power",
            vec![0, 1],
            Hours::from_years(2.0),
            ThreatCategory::ComponentFault,
            FaultClass::Visible,
        ));
        s.add(SharedComponent::new(
            "room B power",
            vec![2, 3],
            Hours::from_years(2.0),
            ThreatCategory::ComponentFault,
            FaultClass::Visible,
        ));
        assert_eq!(s.estimate_alpha(0, 2, Hours::new(1.4e6), Hours::from_minutes(20.0)), 1.0);
        assert!(s.estimate_alpha(0, 1, Hours::new(1.4e6), Hours::from_minutes(20.0)) < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_membership_rejected() {
        let _ = SharedComponent::new(
            "nothing",
            vec![],
            Hours::new(1.0),
            ThreatCategory::ComponentFault,
            FaultClass::Visible,
        );
    }

    #[test]
    fn events_are_reproducible() {
        let s = CorrelationStructure::single_machine_room(2);
        let a = s.correlated_events(1.0e6, &mut SimRng::seed_from(9));
        let b = s.correlated_events(1.0e6, &mut SimRng::seed_from(9));
        assert_eq!(a, b);
    }
}
