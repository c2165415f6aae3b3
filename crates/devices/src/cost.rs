//! Acquisition and total-cost-of-ownership model (§3 "Economic faults",
//! §4.3, §6.1).
//!
//! The paper's economic argument has two parts: (1) the enterprise-drive
//! premium buys little reliability, so consumer drives plus replication win;
//! and (2) preservation has *ongoing* costs — power, cooling, administration,
//! space, periodic hardware renewal — that budgets must sustain indefinitely.
//! This module provides a deliberately simple cost model that captures both.

use crate::drive::DriveSpec;

/// Recurring per-drive operating costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingCosts {
    /// Electricity and cooling per drive per year (USD).
    pub power_per_drive_year: f64,
    /// System administration per drive per year (USD).
    pub admin_per_drive_year: f64,
    /// Rack/floor space per drive per year (USD).
    pub space_per_drive_year: f64,
    /// How often the hardware must be replaced (years); renewal repurchases
    /// the drives at their original price.
    pub renewal_interval_years: f64,
}

impl OperatingCosts {
    /// A typical small-archive cost point for always-on disks.
    pub fn online_disk_defaults() -> Self {
        Self {
            power_per_drive_year: 25.0,
            admin_per_drive_year: 50.0,
            space_per_drive_year: 10.0,
            renewal_interval_years: 5.0,
        }
    }

    /// Total recurring cost per drive per year, excluding renewal.
    pub fn recurring_per_drive_year(&self) -> f64 {
        self.power_per_drive_year + self.admin_per_drive_year + self.space_per_drive_year
    }
}

/// A replicated-collection cost plan: how many copies, on what drive, under
/// what operating-cost assumptions.
#[derive(Debug, Clone, PartialEq)]
pub struct CostPlan {
    /// Collection size in bytes (one logical copy).
    pub collection_bytes: f64,
    /// Number of full replicas kept.
    pub replicas: usize,
    /// Drive model used for every replica.
    pub drive: DriveSpec,
    /// Operating-cost assumptions.
    pub operating: OperatingCosts,
}

impl CostPlan {
    /// Number of drives needed to hold one replica of the collection.
    pub fn drives_per_replica(&self) -> usize {
        assert!(self.collection_bytes >= 0.0, "collection size must be non-negative");
        (self.collection_bytes / self.drive.capacity_bytes).ceil().max(0.0) as usize
    }

    /// Total number of drives across all replicas.
    pub fn total_drives(&self) -> usize {
        self.drives_per_replica() * self.replicas
    }

    /// Up-front hardware acquisition cost.
    pub fn acquisition_cost(&self) -> f64 {
        self.total_drives() as f64 * self.drive.price_usd
    }

    /// Total cost of ownership over `years`, including periodic hardware
    /// renewal (the initial purchase counts as the first renewal).
    pub fn total_cost_of_ownership(&self, years: f64) -> f64 {
        assert!(years >= 0.0, "horizon must be non-negative");
        let drives = self.total_drives() as f64;
        let recurring = drives * self.operating.recurring_per_drive_year() * years;
        let purchases = if years == 0.0 {
            1.0
        } else {
            (years / self.operating.renewal_interval_years).ceil().max(1.0)
        };
        let hardware = purchases * self.acquisition_cost();
        hardware + recurring
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{barracuda_st3200822a, cheetah_15k4};

    fn plan(replicas: usize, drive: DriveSpec) -> CostPlan {
        CostPlan {
            collection_bytes: 1.0e12, // 1 TB collection
            replicas,
            drive,
            operating: OperatingCosts::online_disk_defaults(),
        }
    }

    #[test]
    fn drives_per_replica_rounds_up() {
        let p = plan(2, barracuda_st3200822a());
        // 1 TB on 200 GB drives = 5 drives per replica.
        assert_eq!(p.drives_per_replica(), 5);
        assert_eq!(p.total_drives(), 10);
        let q = plan(1, cheetah_15k4());
        // 1 TB on 146 GB drives = 7 drives (rounded up from 6.85).
        assert_eq!(q.drives_per_replica(), 7);
    }

    #[test]
    fn four_consumer_replicas_cost_less_than_one_enterprise_replica() {
        // The §6.1 punchline: the 14x per-byte premium means several extra
        // consumer replicas are cheaper than a single enterprise copy.
        let consumer4 = plan(4, barracuda_st3200822a());
        let enterprise1 = plan(1, cheetah_15k4());
        assert!(consumer4.acquisition_cost() < enterprise1.acquisition_cost());
    }

    #[test]
    fn tco_includes_renewal_cycles() {
        let p = plan(2, barracuda_st3200822a());
        let ten_years = p.total_cost_of_ownership(10.0);
        let five_years = p.total_cost_of_ownership(5.0);
        // Ten years includes two hardware purchases and twice the recurring
        // cost, so it must be at least double the five-year figure minus one
        // purchase.
        assert!(ten_years > five_years);
        let recurring_per_year = 10.0 * p.operating.recurring_per_drive_year();
        assert!(
            (ten_years - (2.0 * p.acquisition_cost() + 10.0 * recurring_per_year)).abs() < 1e-6
        );
    }

    #[test]
    fn zero_horizon_still_requires_initial_purchase() {
        let p = plan(3, barracuda_st3200822a());
        assert!((p.total_cost_of_ownership(0.0) - p.acquisition_cost()).abs() < 1e-9);
    }

    #[test]
    fn operating_defaults_are_sane() {
        let disk = OperatingCosts::online_disk_defaults();
        assert!(disk.recurring_per_drive_year() > 0.0);
    }
}
