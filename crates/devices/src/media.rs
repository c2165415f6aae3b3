//! Online vs offline media: the access and handling model behind §6.2–§6.4.
//!
//! The paper argues that on-line replicas (disks) have two decisive
//! advantages over off-line replicas (tape in a vault): auditing them is
//! cheap because no retrieval/mounting/human handling is needed, and the
//! audit itself is far less likely to damage the media or introduce
//! correlated faults. This module quantifies those differences so the model
//! and the simulator can compare the two.

use ltds_core::units::Hours;

/// Broad category of a replica's medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// Always spinning / always reachable: a disk in a server.
    OnlineDisk,
    /// Requires retrieval and mounting: tape or optical media in a vault.
    OfflineVault,
}

/// Parameters describing what it takes to access (and therefore audit or
/// repair from) a replica on a given kind of medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaAccessModel {
    /// Kind of medium.
    pub kind: MediaKind,
    /// Time to make the medium readable (retrieve from vault, mount, load).
    pub access_latency: Hours,
    /// Time to return the medium to storage afterwards.
    pub return_latency: Hours,
    /// Probability that one access damages the medium or loses it
    /// (error-prone human handling, reader-induced wear).
    pub handling_fault_probability: f64,
    /// Incremental monetary cost of one access (courier, operator time).
    pub access_cost_usd: f64,
}

impl MediaAccessModel {
    /// An online disk: no access latency, no handling risk, no per-access cost.
    pub fn online_disk() -> Self {
        Self {
            kind: MediaKind::OnlineDisk,
            access_latency: Hours::ZERO,
            return_latency: Hours::ZERO,
            handling_fault_probability: 0.0,
            access_cost_usd: 0.0,
        }
    }

    /// Offline tape in secure off-site storage: retrieval takes about a day,
    /// return another day, each round trip carries a material handling risk
    /// and a courier/operator cost.
    pub fn offsite_tape_vault() -> Self {
        Self {
            kind: MediaKind::OfflineVault,
            access_latency: Hours::new(24.0),
            return_latency: Hours::new(24.0),
            handling_fault_probability: 0.005,
            access_cost_usd: 50.0,
        }
    }

    /// Total wall-clock overhead added to one audit or repair operation.
    pub fn round_trip_overhead(&self) -> Hours {
        self.access_latency + self.return_latency
    }

    /// Effective time to audit one replica of `capacity_bytes` at
    /// `read_bytes_per_sec`, including access overhead.
    pub fn audit_time(&self, capacity_bytes: f64, read_bytes_per_sec: f64) -> Hours {
        assert!(capacity_bytes >= 0.0 && read_bytes_per_sec > 0.0, "invalid audit parameters");
        self.round_trip_overhead() + Hours::from_seconds(capacity_bytes / read_bytes_per_sec)
    }

    /// Effective time to repair (re-copy) a replica of `capacity_bytes` from
    /// this medium at `read_bytes_per_sec`, including access overhead.
    pub fn repair_time(&self, capacity_bytes: f64, read_bytes_per_sec: f64) -> Hours {
        // Repair reads the whole replica once, same shape as an audit.
        self.audit_time(capacity_bytes, read_bytes_per_sec)
    }

    /// Probability that a year of auditing at `audits_per_year` damages the
    /// medium at least once through handling.
    pub fn annual_handling_risk(&self, audits_per_year: f64) -> f64 {
        assert!(audits_per_year >= 0.0, "audit rate must be non-negative");
        1.0 - (1.0 - self.handling_fault_probability).powf(audits_per_year)
    }

    /// Monetary cost of a year of auditing at `audits_per_year`.
    pub fn annual_audit_cost(&self, audits_per_year: f64) -> f64 {
        assert!(audits_per_year >= 0.0, "audit rate must be non-negative");
        self.access_cost_usd * audits_per_year
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_disk_has_no_overhead() {
        let d = MediaAccessModel::online_disk();
        assert_eq!(d.round_trip_overhead(), Hours::ZERO);
        assert_eq!(d.annual_handling_risk(52.0), 0.0);
        assert_eq!(d.annual_audit_cost(52.0), 0.0);
        // Audit time is pure transfer time.
        let audit = d.audit_time(146.0e9, 96.0e6);
        assert!((audit.get() - 146.0e9 / 96.0e6 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn offline_audit_is_dominated_by_handling() {
        let tape = MediaAccessModel::offsite_tape_vault();
        let disk = MediaAccessModel::online_disk();
        let capacity = 400.0e9;
        let rate = 80.0e6;
        let tape_audit = tape.audit_time(capacity, rate);
        let disk_audit = disk.audit_time(capacity, rate);
        assert!(tape_audit.get() > disk_audit.get() + 47.9, "48h of round-trip overhead");
        // Repair from tape is just as slow.
        assert_eq!(tape.repair_time(capacity, rate), tape_audit);
    }

    #[test]
    fn handling_risk_accumulates_with_audit_rate() {
        let tape = MediaAccessModel::offsite_tape_vault();
        let quarterly = tape.annual_handling_risk(4.0);
        let weekly = tape.annual_handling_risk(52.0);
        assert!(weekly > quarterly);
        assert!((quarterly - (1.0 - 0.995f64.powi(4))).abs() < 1e-12);
        // Auditing an offline copy weekly is already a >20% annual damage risk:
        // the audit process itself becomes a significant cause of faults (§6.2).
        assert!(weekly > 0.2);
    }

    #[test]
    fn audit_cost_scales_linearly() {
        let tape = MediaAccessModel::offsite_tape_vault();
        assert_eq!(tape.annual_audit_cost(0.0), 0.0);
        assert!((tape.annual_audit_cost(12.0) - 600.0).abs() < 1e-9);
    }
}
