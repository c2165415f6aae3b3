//! Fault injectors: turn rates or schedules into concrete event streams.
//!
//! Both the discrete-event simulator and the archive substrate consume
//! [`FaultEvent`] streams. A [`RandomInjector`] draws memoryless faults from
//! a [`ThreatProfile`]; a [`ScheduledInjector`] replays a fixed script
//! (useful for tests and for modelling planned events such as "the funding
//! stops in year 12").

use crate::event::{sort_events, FaultEvent};
use crate::profile::ThreatProfile;
use ltds_core::fault::FaultClass;
use ltds_core::threats::ThreatCategory;
use ltds_stochastic::{Exponential, SimRng};

/// Something that can produce the fault events affecting `replicas` replicas
/// up to a time horizon.
pub trait FaultInjector {
    /// Generates all fault events strictly before `horizon_hours`, in time
    /// order.
    fn events(&self, replicas: usize, horizon_hours: f64, rng: &mut SimRng) -> Vec<FaultEvent>;
}

/// Replays a fixed list of events (clipped to the horizon and replica count).
#[derive(Debug, Clone, Default)]
pub struct ScheduledInjector {
    script: Vec<FaultEvent>,
}

impl ScheduledInjector {
    /// Creates an injector from a script of events.
    pub fn new(mut script: Vec<FaultEvent>) -> Self {
        sort_events(&mut script);
        Self { script }
    }

    /// Adds one event to the script.
    pub fn push(&mut self, event: FaultEvent) {
        self.script.push(event);
        sort_events(&mut self.script);
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.script.len()
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.script.is_empty()
    }
}

impl FaultInjector for ScheduledInjector {
    fn events(&self, replicas: usize, horizon_hours: f64, _rng: &mut SimRng) -> Vec<FaultEvent> {
        self.script
            .iter()
            .filter(|e| e.time_hours < horizon_hours && e.replica < replicas)
            .copied()
            .collect()
    }
}

/// Draws memoryless faults for every (threat, class) rate in a
/// [`ThreatProfile`], independently for each replica.
#[derive(Debug, Clone)]
pub struct RandomInjector {
    profile: ThreatProfile,
}

impl RandomInjector {
    /// Creates an injector from a threat profile.
    pub fn new(profile: ThreatProfile) -> Self {
        Self { profile }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &ThreatProfile {
        &self.profile
    }

    fn events_for(
        &self,
        replica: usize,
        threat: ThreatCategory,
        class: FaultClass,
        horizon: f64,
        rng: &mut SimRng,
        out: &mut Vec<FaultEvent>,
    ) {
        let Some(mttf) = self.profile.get(threat, class) else {
            return;
        };
        let dist = Exponential::with_mean(mttf.get());
        let mut t = dist.sample(rng);
        while t < horizon {
            out.push(FaultEvent::new(t, replica, class, threat));
            t += dist.sample(rng);
        }
    }
}

impl FaultInjector for RandomInjector {
    fn events(&self, replicas: usize, horizon_hours: f64, rng: &mut SimRng) -> Vec<FaultEvent> {
        assert!(horizon_hours >= 0.0, "horizon must be non-negative");
        let mut out = Vec::new();
        for replica in 0..replicas {
            for threat in ThreatCategory::ALL {
                for class in FaultClass::ALL {
                    self.events_for(replica, threat, class, horizon_hours, rng, &mut out);
                }
            }
        }
        sort_events(&mut out);
        out
    }
}

/// Combines several injectors (e.g. random media faults plus a scripted
/// disaster) into one stream.
pub struct CompositeInjector {
    parts: Vec<Box<dyn FaultInjector + Send + Sync>>,
}

impl CompositeInjector {
    /// Creates a composite from its parts.
    pub fn new(parts: Vec<Box<dyn FaultInjector + Send + Sync>>) -> Self {
        Self { parts }
    }
}

impl FaultInjector for CompositeInjector {
    fn events(&self, replicas: usize, horizon_hours: f64, rng: &mut SimRng) -> Vec<FaultEvent> {
        let mut out = Vec::new();
        for p in &self.parts {
            out.extend(p.events(replicas, horizon_hours, rng));
        }
        sort_events(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltds_core::units::{Hours, HOURS_PER_YEAR};

    #[test]
    fn scheduled_injector_clips_to_horizon_and_replicas() {
        let inj = ScheduledInjector::new(vec![
            FaultEvent::new(10.0, 0, FaultClass::Visible, ThreatCategory::MediaFault),
            FaultEvent::new(20.0, 1, FaultClass::Latent, ThreatCategory::Attack),
            FaultEvent::new(30.0, 5, FaultClass::Visible, ThreatCategory::MediaFault),
            FaultEvent::new(99.0, 0, FaultClass::Visible, ThreatCategory::MediaFault),
        ]);
        assert_eq!(inj.len(), 4);
        let mut rng = SimRng::seed_from(1);
        let events = inj.events(2, 50.0, &mut rng);
        assert_eq!(events.len(), 2);
        assert!(events.windows(2).all(|w| w[0].time_hours <= w[1].time_hours));
    }

    #[test]
    fn scheduled_injector_push_keeps_order() {
        let mut inj = ScheduledInjector::default();
        assert!(inj.is_empty());
        inj.push(FaultEvent::new(5.0, 0, FaultClass::Visible, ThreatCategory::MediaFault));
        inj.push(FaultEvent::new(1.0, 0, FaultClass::Visible, ThreatCategory::MediaFault));
        let mut rng = SimRng::seed_from(1);
        let events = inj.events(1, 100.0, &mut rng);
        assert_eq!(events[0].time_hours, 1.0);
    }

    #[test]
    fn random_injector_rate_is_roughly_right() {
        // Visible media faults every 1000 hours, one replica, horizon 1e6
        // hours => about 1000 events.
        let mut profile = ThreatProfile::new();
        profile.set(ThreatCategory::MediaFault, FaultClass::Visible, Hours::new(1000.0));
        let inj = RandomInjector::new(profile);
        let mut rng = SimRng::seed_from(7);
        let events = inj.events(1, 1.0e6, &mut rng);
        let n = events.len() as f64;
        assert!((n - 1000.0).abs() < 120.0, "got {n} events");
        assert!(events.iter().all(|e| e.class == FaultClass::Visible));
        assert!(events.iter().all(|e| e.replica == 0));
        assert!(events.windows(2).all(|w| w[0].time_hours <= w[1].time_hours));
    }

    #[test]
    fn random_injector_covers_all_replicas() {
        let inj = RandomInjector::new(ThreatProfile::media_only_cheetah());
        let mut rng = SimRng::seed_from(11);
        // Long horizon so every replica sees faults with overwhelming probability.
        let events = inj.events(3, 100.0 * HOURS_PER_YEAR * 100.0, &mut rng);
        for r in 0..3 {
            assert!(events.iter().any(|e| e.replica == r), "replica {r} saw no faults");
        }
        // The latent:visible ratio should be roughly 5:1 (2.8e5 vs 1.4e6 MTTF).
        let latent = events.iter().filter(|e| !e.is_visible()).count() as f64;
        let visible = events.iter().filter(|e| e.is_visible()).count() as f64;
        assert!((latent / visible - 5.0).abs() < 0.6, "ratio {}", latent / visible);
    }

    #[test]
    fn random_injector_is_reproducible() {
        let inj = RandomInjector::new(ThreatProfile::media_only_cheetah());
        let a = inj.events(2, 1.0e7, &mut SimRng::seed_from(42));
        let b = inj.events(2, 1.0e7, &mut SimRng::seed_from(42));
        assert_eq!(a, b);
    }

    #[test]
    fn composite_merges_streams() {
        let scripted = ScheduledInjector::new(vec![FaultEvent::new(
            5.0,
            0,
            FaultClass::Visible,
            ThreatCategory::LargeScaleDisaster,
        )]);
        let mut profile = ThreatProfile::new();
        profile.set(ThreatCategory::MediaFault, FaultClass::Latent, Hours::new(10.0));
        let random = RandomInjector::new(profile);
        let composite = CompositeInjector::new(vec![Box::new(scripted), Box::new(random)]);
        let mut rng = SimRng::seed_from(3);
        let events = composite.events(1, 100.0, &mut rng);
        assert!(events.iter().any(|e| e.threat == ThreatCategory::LargeScaleDisaster));
        assert!(events.iter().any(|e| e.threat == ThreatCategory::MediaFault));
        assert!(events.windows(2).all(|w| w[0].time_hours <= w[1].time_hours));
    }
}
