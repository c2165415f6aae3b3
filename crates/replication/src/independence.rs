//! Mapping concrete diversity to the correlation factor `α` (§6.5).
//!
//! §6.5 enumerates the dimensions along which replicas should differ:
//! hardware, software, geographic location, administration, third-party
//! components and hosting organization. A [`DiversityProfile`] scores a
//! deployment along each dimension; the combined score maps onto an `α`
//! through [`ltds_core::correlation::alpha_from_independence_score`], and the
//! per-dimension structure lets tools point at the weakest link.

use ltds_core::correlation::alpha_from_independence_score;
use ltds_core::error::ModelError;
use std::collections::BTreeMap;

/// The independence dimensions of §6.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiversityDimension {
    /// Different drive vendors, batches, ages ("rolling procurement").
    Hardware,
    /// Different operating systems, storage stacks, application software.
    Software,
    /// Different buildings, cities, seismic/flood zones.
    GeographicLocation,
    /// Different administrators; no single person can touch every replica.
    Administration,
    /// No shared third-party dependencies (license servers, DNS, CAs).
    ThirdPartyComponents,
    /// Different hosting organizations with independent funding.
    Organization,
}

impl DiversityDimension {
    /// All dimensions in presentation order.
    pub const ALL: [DiversityDimension; 6] = [
        DiversityDimension::Hardware,
        DiversityDimension::Software,
        DiversityDimension::GeographicLocation,
        DiversityDimension::Administration,
        DiversityDimension::ThirdPartyComponents,
        DiversityDimension::Organization,
    ];

    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            DiversityDimension::Hardware => "hardware",
            DiversityDimension::Software => "software",
            DiversityDimension::GeographicLocation => "geographic location",
            DiversityDimension::Administration => "administration",
            DiversityDimension::ThirdPartyComponents => "third-party components",
            DiversityDimension::Organization => "organization",
        }
    }

    /// Default weight of the dimension in the combined independence score.
    ///
    /// The weights reflect the paper's emphasis: administration and software
    /// correlate faults fastest (a single admin mistake or a worm reaches
    /// every replica at once), geography protects against the rarest but most
    /// total events.
    pub fn default_weight(self) -> f64 {
        match self {
            DiversityDimension::Hardware => 0.15,
            DiversityDimension::Software => 0.20,
            DiversityDimension::GeographicLocation => 0.15,
            DiversityDimension::Administration => 0.25,
            DiversityDimension::ThirdPartyComponents => 0.10,
            DiversityDimension::Organization => 0.15,
        }
    }
}

/// Per-dimension diversity scores for a deployment, each in `[0, 1]`
/// (0 = identical across replicas, 1 = fully diverse).
#[derive(Debug, Clone, PartialEq)]
pub struct DiversityProfile {
    scores: BTreeMap<DiversityDimension, f64>,
}

impl DiversityProfile {
    /// Default `α` for a zero-diversity deployment (everything shared):
    /// consistent with the `α` lower-bound discussion in §5.4.
    pub const DEFAULT_ALPHA_FLOOR: f64 = 1.0e-5;

    /// Creates a profile with all dimensions scored 0 (worst case).
    pub fn all_shared() -> Self {
        let scores = DiversityDimension::ALL.iter().map(|&d| (d, 0.0)).collect();
        Self { scores }
    }

    /// The British Library-style deployment of §6.5: every replica in a
    /// different location with separate administrators, planned hardware and
    /// software diversity over time, but inevitably some shared third-party
    /// context.
    pub fn british_library_style() -> Self {
        let mut p = Self::all_shared();
        p.set(DiversityDimension::GeographicLocation, 1.0).expect("valid score");
        p.set(DiversityDimension::Administration, 1.0).expect("valid score");
        p.set(DiversityDimension::Hardware, 0.7).expect("valid score");
        p.set(DiversityDimension::Software, 0.7).expect("valid score");
        p.set(DiversityDimension::ThirdPartyComponents, 0.5).expect("valid score");
        p.set(DiversityDimension::Organization, 0.0).expect("valid score");
        p
    }

    /// A typical single-machine-room RAID deployment: same room, same admin,
    /// same software, drives from one batch.
    pub fn single_machine_room() -> Self {
        let mut p = Self::all_shared();
        p.set(DiversityDimension::Hardware, 0.1).expect("valid score");
        p
    }

    /// Sets the score for a dimension.
    pub fn set(&mut self, dimension: DiversityDimension, score: f64) -> Result<(), ModelError> {
        if !(0.0..=1.0).contains(&score) || !score.is_finite() {
            return Err(ModelError::InvalidProbability {
                parameter: "diversity score",
                value: score,
            });
        }
        self.scores.insert(dimension, score);
        Ok(())
    }

    /// The score for a dimension (0 if never set).
    pub fn get(&self, dimension: DiversityDimension) -> f64 {
        self.scores.get(&dimension).copied().unwrap_or(0.0)
    }

    /// Weighted independence score in `[0, 1]`.
    pub fn independence_score(&self) -> f64 {
        let mut total_weight = 0.0;
        let mut weighted = 0.0;
        for d in DiversityDimension::ALL {
            let w = d.default_weight();
            total_weight += w;
            weighted += w * self.get(d);
        }
        weighted / total_weight
    }

    /// The correlation factor implied by the profile.
    pub fn alpha(&self) -> f64 {
        alpha_from_independence_score(self.independence_score(), Self::DEFAULT_ALPHA_FLOOR)
            .expect("scores and floor are validated on entry")
    }

    /// The dimension whose improvement would raise the independence score the
    /// most (lowest weighted score), i.e. the weakest link.
    pub fn weakest_dimension(&self) -> DiversityDimension {
        *DiversityDimension::ALL
            .iter()
            .min_by(|a, b| {
                let ka = self.get(**a) * a.default_weight() + (1.0 - a.default_weight());
                let kb = self.get(**b) * b.default_weight() + (1.0 - b.default_weight());
                // Compare by potential gain = weight * (1 - score).
                let ga = a.default_weight() * (1.0 - self.get(**a));
                let gb = b.default_weight() * (1.0 - self.get(**b));
                gb.partial_cmp(&ga).expect("finite").then(ka.partial_cmp(&kb).expect("finite"))
            })
            .expect("dimension list is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        let total: f64 = DiversityDimension::ALL.iter().map(|d| d.default_weight()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for d in DiversityDimension::ALL {
            assert!(!d.name().is_empty());
        }
    }

    #[test]
    fn extreme_profiles_map_to_extreme_alphas() {
        let shared = DiversityProfile::all_shared();
        let mut diverse = DiversityProfile::all_shared();
        for d in DiversityDimension::ALL {
            diverse.set(d, 1.0).unwrap();
        }
        assert_eq!(shared.independence_score(), 0.0);
        assert_eq!(diverse.independence_score(), 1.0);
        assert!((shared.alpha() - DiversityProfile::DEFAULT_ALPHA_FLOOR).abs() < 1e-12);
        assert!((diverse.alpha() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn british_library_beats_machine_room() {
        let bl = DiversityProfile::british_library_style();
        let room = DiversityProfile::single_machine_room();
        assert!(bl.independence_score() > room.independence_score());
        assert!(bl.alpha() > room.alpha() * 100.0, "{} vs {}", bl.alpha(), room.alpha());
    }

    #[test]
    fn alpha_is_monotone_in_each_dimension() {
        for d in DiversityDimension::ALL {
            let mut low = DiversityProfile::all_shared();
            let mut high = DiversityProfile::all_shared();
            low.set(d, 0.2).unwrap();
            high.set(d, 0.9).unwrap();
            assert!(high.alpha() > low.alpha(), "{d:?}");
        }
    }

    #[test]
    fn invalid_scores_and_floors_rejected() {
        let mut p = DiversityProfile::all_shared();
        assert!(p.set(DiversityDimension::Hardware, -0.1).is_err());
        assert!(p.set(DiversityDimension::Hardware, 1.5).is_err());
    }

    #[test]
    fn weakest_dimension_is_the_biggest_gap() {
        // Machine-room deployment: administration has the largest weight and
        // a zero score, so it is the weakest link.
        let room = DiversityProfile::single_machine_room();
        assert_eq!(room.weakest_dimension(), DiversityDimension::Administration);
        // Once administration and software are fixed, something else surfaces.
        let mut improved = room.clone();
        improved.set(DiversityDimension::Administration, 1.0).unwrap();
        improved.set(DiversityDimension::Software, 1.0).unwrap();
        assert_ne!(improved.weakest_dimension(), DiversityDimension::Administration);
        assert_ne!(improved.weakest_dimension(), DiversityDimension::Software);
    }

    #[test]
    fn unset_dimension_defaults_to_zero() {
        let mut p = DiversityProfile::all_shared();
        for d in DiversityDimension::ALL {
            p.set(d, 1.0).unwrap();
        }
        assert_eq!(p.get(DiversityDimension::Software), 1.0);
        let q = DiversityProfile::all_shared();
        assert_eq!(q.get(DiversityDimension::Software), 0.0);
    }
}
