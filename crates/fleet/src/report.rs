//! Fleet simulation results.

use ltds_core::fault::FaultClass;
use ltds_sim::config::RedundancyPolicy;
use ltds_stochastic::{ConfidenceInterval, StreamingStats};
use serde::{Deserialize, Serialize, Value};

/// Per-policy-band tallies of a mixed-policy fleet: one entry per
/// [`FleetConfig::group_policies`] band, in band order. Uniform fleets
/// (empty `group_policies`) carry no tallies — their reports serialize
/// byte-identically to the pre-policy schema.
///
/// The byte counters expose the repair-traffic asymmetry between the
/// policies: replicated repair writes whole objects and reads nothing
/// (the source copy streams from its own site without a pipeline charge),
/// while an erasure-coded rebuild reads `k` fragments through the source
/// sites' pipelines and writes one.
///
/// [`FleetConfig::group_policies`]: crate::config::FleetConfig
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyTally {
    /// The band's redundancy policy.
    pub policy: RedundancyPolicy,
    /// Groups governed by this band (summed over shards on merge).
    pub groups: u64,
    /// Data-loss events in this band's groups.
    pub losses: u64,
    /// Fault events in this band's groups.
    pub faults: u64,
    /// Repairs completed in this band's groups.
    pub repairs: u64,
    /// Bytes read from surviving fragments by erasure rebuilds
    /// (always 0.0 for replicated bands).
    pub read_bytes: f64,
    /// Bytes written onto repaired slots (whole objects for replicated
    /// bands, single fragments for erasure-coded ones).
    pub write_bytes: f64,
}

impl PolicyTally {
    /// An empty tally for one policy band.
    pub fn new(policy: RedundancyPolicy) -> Self {
        Self {
            policy,
            groups: 0,
            losses: 0,
            faults: 0,
            repairs: 0,
            read_bytes: 0.0,
            write_bytes: 0.0,
        }
    }

    /// Adds another shard's tally for the same band.
    fn add(&mut self, other: &PolicyTally) {
        debug_assert_eq!(self.policy, other.policy);
        self.groups += other.groups;
        self.losses += other.losses;
        self.faults += other.faults;
        self.repairs += other.repairs;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
    }
}

/// Raw per-shard tallies, merged deterministically (in shard order) into a
/// [`FleetReport`].
#[derive(Debug, Clone, Default)]
pub struct ShardOutcome {
    /// Completed group lifetimes (renewal intervals ending in data loss).
    pub loss_intervals: StreamingStats,
    /// Data-loss events.
    pub losses: u64,
    /// Fault events processed (including burst-induced faults).
    pub faults: u64,
    /// Repairs completed.
    pub repairs: u64,
    /// Total events popped from the queue (including stale ones).
    pub events: u64,
    /// Faults injected by correlated bursts.
    pub burst_faults: u64,
    /// Queueing delay of repair jobs (empty when bandwidth is unlimited).
    pub repair_wait: StreamingStats,
    /// Losses whose final fault was visible.
    pub fatal_visible: u64,
    /// Losses whose final fault was latent.
    pub fatal_latent: u64,
    /// Per-policy-band tallies (empty for uniform fleets).
    pub policy_totals: Vec<PolicyTally>,
}

// Serialization is by hand so uniform fleets (empty `policy_totals`) keep
// the exact pre-policy JSON shape: the pinned FleetReport digests in
// `tests/fleet_properties.rs` hash canonical JSON, and an always-present
// field — even an empty array — would invalidate every one of them.
impl Serialize for ShardOutcome {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("loss_intervals".to_string(), self.loss_intervals.to_value()),
            ("losses".to_string(), self.losses.to_value()),
            ("faults".to_string(), self.faults.to_value()),
            ("repairs".to_string(), self.repairs.to_value()),
            ("events".to_string(), self.events.to_value()),
            ("burst_faults".to_string(), self.burst_faults.to_value()),
            ("repair_wait".to_string(), self.repair_wait.to_value()),
            ("fatal_visible".to_string(), self.fatal_visible.to_value()),
            ("fatal_latent".to_string(), self.fatal_latent.to_value()),
        ];
        if !self.policy_totals.is_empty() {
            fields.push(("policy_totals".to_string(), self.policy_totals.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for ShardOutcome {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(value: &Value, key: &str) -> Result<T, serde::Error> {
            T::from_value(value.get(key).unwrap_or(&Value::Null))
                .map_err(|e| serde::Error::custom(format!("ShardOutcome.{key}: {e}")))
        }
        // Pre-policy records have no `policy_totals` key: absent reads as
        // the empty tally list, so old streams and cache segments stay
        // loadable.
        let policy_totals = match value.get("policy_totals") {
            None | Some(Value::Null) => Vec::new(),
            Some(v) => Vec::<PolicyTally>::from_value(v)?,
        };
        Ok(Self {
            loss_intervals: field(value, "loss_intervals")?,
            losses: field(value, "losses")?,
            faults: field(value, "faults")?,
            repairs: field(value, "repairs")?,
            events: field(value, "events")?,
            burst_faults: field(value, "burst_faults")?,
            repair_wait: field(value, "repair_wait")?,
            fatal_visible: field(value, "fatal_visible")?,
            fatal_latent: field(value, "fatal_latent")?,
            policy_totals,
        })
    }
}

impl ShardOutcome {
    /// Records one data loss.
    pub fn record_loss(&mut self, interval_hours: f64, fatal: FaultClass) {
        self.losses += 1;
        self.loss_intervals.push(interval_hours);
        match fatal {
            FaultClass::Visible => self.fatal_visible += 1,
            FaultClass::Latent => self.fatal_latent += 1,
        }
    }

    /// Merges another shard's outcome into this one.
    pub fn merge(&mut self, other: &ShardOutcome) {
        self.loss_intervals.merge(&other.loss_intervals);
        self.losses += other.losses;
        self.faults += other.faults;
        self.repairs += other.repairs;
        self.events += other.events;
        self.burst_faults += other.burst_faults;
        self.repair_wait.merge(&other.repair_wait);
        self.fatal_visible += other.fatal_visible;
        self.fatal_latent += other.fatal_latent;
        if self.policy_totals.is_empty() {
            self.policy_totals = other.policy_totals.clone();
        } else if !other.policy_totals.is_empty() {
            assert_eq!(
                self.policy_totals.len(),
                other.policy_totals.len(),
                "shard outcomes under merge must share one policy-band layout"
            );
            for (mine, theirs) in self.policy_totals.iter_mut().zip(&other.policy_totals) {
                mine.add(theirs);
            }
        }
    }
}

/// Result of one fleet simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Replica groups simulated.
    pub groups: usize,
    /// Drives in the fleet.
    pub drives: usize,
    /// Simulated horizon per group, in hours.
    pub horizon_hours: f64,
    /// Bursts that struck within the horizon.
    pub bursts_struck: u64,
    /// Merged tallies.
    pub totals: ShardOutcome,
}

impl FleetReport {
    /// Total group-hours of exposure simulated (groups renew immediately
    /// after a loss, so every group is exposed for the whole horizon).
    pub fn exposure_group_hours(&self) -> f64 {
        self.groups as f64 * self.horizon_hours
    }

    /// Renewal-rate MTTDL estimate: exposure divided by observed losses.
    /// Infinite when nothing was lost. Includes censored lifetimes in the
    /// denominator's exposure, so it is the less biased point estimate when
    /// the horizon is short relative to the MTTDL.
    pub fn mttdl_exposure_hours(&self) -> f64 {
        if self.totals.losses == 0 {
            f64::INFINITY
        } else {
            self.exposure_group_hours() / self.totals.losses as f64
        }
    }

    /// Mean completed group lifetime with a 95 % confidence interval —
    /// directly comparable with `ltds_sim::MttdlEstimate::mttdl_hours`.
    /// Slightly optimistic when the horizon censors long lifetimes; prefer
    /// [`FleetReport::mttdl_exposure_hours`] for short horizons.
    pub fn mttdl_interval(&self) -> ConfidenceInterval {
        self.totals.loss_intervals.confidence_interval(0.95)
    }

    /// Probability that a given group loses data within `mission_hours`,
    /// under the exponential renewal approximation.
    pub fn loss_probability_by(&self, mission_hours: f64) -> f64 {
        let mttdl = self.mttdl_exposure_hours();
        if mttdl.is_infinite() {
            0.0
        } else {
            1.0 - (-mission_hours / mttdl).exp()
        }
    }

    /// Fraction of losses attributable to a final latent fault.
    pub fn latent_loss_fraction(&self) -> f64 {
        if self.totals.losses == 0 {
            0.0
        } else {
            self.totals.fatal_latent as f64 / self.totals.losses as f64
        }
    }

    /// Mean repair queueing delay in hours (0 with unlimited bandwidth).
    pub fn mean_repair_wait_hours(&self) -> f64 {
        if self.totals.repair_wait.count() == 0 {
            0.0
        } else {
            self.totals.repair_wait.mean()
        }
    }

    /// Events processed per simulated group-year — the kernel's work rate.
    pub fn events_per_group_year(&self) -> f64 {
        self.totals.events as f64 / (self.exposure_group_hours() / ltds_core::units::HOURS_PER_YEAR)
    }

    /// Per-policy-band tallies of a mixed-policy fleet, in band order.
    /// Empty for uniform fleets (no `group_policies` configured).
    pub fn policy_breakdown(&self) -> &[PolicyTally] {
        &self.totals.policy_totals
    }

    /// Exposure-based MTTDL of one policy band (infinite when the band
    /// lost nothing). Band group counts already sum over shards, so the
    /// band's exposure is `groups × horizon`.
    pub fn band_mttdl_exposure_hours(&self, band: usize) -> f64 {
        let tally = &self.totals.policy_totals[band];
        if tally.losses == 0 {
            f64::INFINITY
        } else {
            tally.groups as f64 * self.horizon_hours / tally.losses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> ShardOutcome {
        let mut o = ShardOutcome::default();
        o.record_loss(100.0, FaultClass::Visible);
        o.record_loss(300.0, FaultClass::Latent);
        o.faults = 10;
        o.repairs = 4;
        o.events = 20;
        o
    }

    #[test]
    fn merge_accumulates() {
        let mut a = outcome();
        let b = outcome();
        a.merge(&b);
        assert_eq!(a.losses, 4);
        assert_eq!(a.faults, 20);
        assert_eq!(a.fatal_visible, 2);
        assert_eq!(a.fatal_latent, 2);
        assert_eq!(a.loss_intervals.count(), 4);
        assert!((a.loss_intervals.mean() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn report_estimators() {
        let report = FleetReport {
            groups: 10,
            drives: 20,
            horizon_hours: 1000.0,
            bursts_struck: 0,
            totals: outcome(),
        };
        assert_eq!(report.exposure_group_hours(), 10_000.0);
        assert_eq!(report.mttdl_exposure_hours(), 5_000.0);
        assert!((report.mttdl_interval().estimate - 200.0).abs() < 1e-12);
        let p = report.loss_probability_by(5_000.0);
        assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert_eq!(report.latent_loss_fraction(), 0.5);
        assert_eq!(report.mean_repair_wait_hours(), 0.0);
        assert!(report.events_per_group_year() > 0.0);
    }

    #[test]
    fn no_losses_means_infinite_mttdl() {
        let report = FleetReport {
            groups: 5,
            drives: 10,
            horizon_hours: 100.0,
            bursts_struck: 0,
            totals: ShardOutcome::default(),
        };
        assert!(report.mttdl_exposure_hours().is_infinite());
        assert_eq!(report.loss_probability_by(1e6), 0.0);
        assert_eq!(report.latent_loss_fraction(), 0.0);
    }

    #[test]
    fn uniform_outcome_serialization_has_no_policy_field() {
        // Digest stability: a uniform fleet's outcome must serialize to the
        // exact pre-policy schema — no `policy_totals` key at all.
        let json = serde_json::to_string(&outcome()).unwrap();
        assert!(!json.contains("policy_totals"));
        let back: ShardOutcome = serde_json::from_str(&json).unwrap();
        assert!(back.policy_totals.is_empty());
        assert_eq!(back.losses, 2);
    }

    #[test]
    fn policy_tallies_roundtrip_and_merge_bandwise() {
        let mut a = outcome();
        a.policy_totals = vec![
            PolicyTally {
                groups: 3,
                losses: 1,
                faults: 5,
                repairs: 2,
                read_bytes: 0.0,
                write_bytes: 6e9,
                ..PolicyTally::new(RedundancyPolicy::Replicated { n: 3 })
            },
            PolicyTally {
                groups: 2,
                losses: 1,
                faults: 5,
                repairs: 3,
                read_bytes: 9e9,
                write_bytes: 4.5e9,
                ..PolicyTally::new(RedundancyPolicy::ErasureCoded { k: 2, n: 6 })
            },
        ];
        let json = serde_json::to_string(&a).unwrap();
        assert!(json.contains("policy_totals"));
        let back: ShardOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.policy_totals, a.policy_totals);

        // Merging an empty-tally outcome adopts the other side's bands;
        // merging same-layout outcomes adds bandwise.
        let mut merged = ShardOutcome::default();
        merged.merge(&a);
        merged.merge(&back);
        assert_eq!(merged.policy_totals[0].groups, 6);
        assert_eq!(merged.policy_totals[1].losses, 2);
        assert!((merged.policy_totals[1].read_bytes - 1.8e10).abs() < 1.0);
        assert_eq!(merged.policy_totals[1].policy, RedundancyPolicy::ErasureCoded { k: 2, n: 6 });
    }

    #[test]
    fn report_serializes() {
        let report = FleetReport {
            groups: 10,
            drives: 20,
            horizon_hours: 1000.0,
            bursts_struck: 3,
            totals: outcome(),
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("bursts_struck"));
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.totals.losses, report.totals.losses);
        assert_eq!(back.groups, report.groups);
    }
}
