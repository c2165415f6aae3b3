//! Scrub scheduling policies and their analytic effect on `MDL`.

use ltds_core::scrubbing;
use ltds_core::units::Hours;
use serde::{Deserialize, Serialize};

/// A scrub scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScrubPolicy {
    /// Never audit proactively; latent faults are found only when a user
    /// access happens to touch them. `mean_access_interval` is the mean time
    /// between accesses to a given data item (§4.1: "the average data item is
    /// accessed infrequently").
    OnAccessOnly {
        /// Mean time between user accesses to any given item.
        mean_access_interval: Hours,
    },
    /// Read and verify every replica on a fixed period (RAID-style scrubbing).
    Periodic {
        /// Number of complete scrub passes per year.
        passes_per_year: f64,
    },
    /// Piggy-back verification on other disk activity (Schwarz et al.'s
    /// opportunistic scrubbing): achieves a period determined by how often
    /// legitimate activity powers the relevant components, with negligible
    /// dedicated bandwidth.
    Opportunistic {
        /// Effective complete passes per year achieved by piggy-backing.
        effective_passes_per_year: f64,
    },
    /// Scrub continuously at a fixed fraction of the device's read bandwidth,
    /// cycling through the data (staggered / rolling scrub).
    BandwidthLimited {
        /// Fraction of the read bandwidth devoted to scrubbing, in `(0, 1]`.
        bandwidth_fraction: f64,
    },
}

/// A scrub policy bound to a concrete replica (capacity + bandwidth), able to
/// report its detection latency and cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScrubStrategy {
    /// The scheduling policy.
    pub policy: ScrubPolicy,
    /// Replica capacity in bytes.
    pub capacity_bytes: f64,
    /// Sustained read bandwidth in bytes per second.
    pub read_bytes_per_sec: f64,
}

impl ScrubStrategy {
    /// Creates a strategy, validating the replica description.
    pub fn new(policy: ScrubPolicy, capacity_bytes: f64, read_bytes_per_sec: f64) -> Self {
        assert!(capacity_bytes > 0.0, "capacity must be positive");
        assert!(read_bytes_per_sec > 0.0, "bandwidth must be positive");
        if let ScrubPolicy::Periodic { passes_per_year }
        | ScrubPolicy::Opportunistic { effective_passes_per_year: passes_per_year } = policy
        {
            assert!(passes_per_year >= 0.0, "scrub rate must be non-negative");
        }
        if let ScrubPolicy::BandwidthLimited { bandwidth_fraction } = policy {
            assert!(
                bandwidth_fraction > 0.0 && bandwidth_fraction <= 1.0,
                "bandwidth fraction must be in (0, 1]"
            );
        }
        Self { policy, capacity_bytes, read_bytes_per_sec }
    }

    /// Effective complete scrub passes per year delivered by the policy.
    pub fn passes_per_year(&self) -> f64 {
        match self.policy {
            ScrubPolicy::OnAccessOnly { .. } => 0.0,
            ScrubPolicy::Periodic { passes_per_year } => passes_per_year,
            ScrubPolicy::Opportunistic { effective_passes_per_year } => effective_passes_per_year,
            ScrubPolicy::BandwidthLimited { bandwidth_fraction } => scrubbing::max_scrub_rate(
                self.capacity_bytes,
                self.read_bytes_per_sec * 3600.0,
                bandwidth_fraction,
            ),
        }
    }

    /// Mean time to detect a latent fault under this strategy (§6.2: half the
    /// audit interval for periodic policies, the access interval for
    /// on-access detection).
    pub fn mean_detection_latency(&self) -> Hours {
        match self.policy {
            ScrubPolicy::OnAccessOnly { mean_access_interval } => {
                scrubbing::mdl_for_on_access_detection(mean_access_interval)
            }
            _ => scrubbing::mdl_for_scrub_rate(self.passes_per_year()),
        }
    }

    /// Fraction of the replica's read bandwidth consumed by auditing.
    pub fn bandwidth_fraction(&self) -> f64 {
        match self.policy {
            ScrubPolicy::OnAccessOnly { .. } => 0.0,
            // Opportunistic scrubbing reuses reads that were happening anyway.
            ScrubPolicy::Opportunistic { .. } => 0.0,
            ScrubPolicy::BandwidthLimited { bandwidth_fraction } => bandwidth_fraction,
            ScrubPolicy::Periodic { passes_per_year } => scrubbing::scrub_bandwidth_fraction(
                self.capacity_bytes,
                self.read_bytes_per_sec * 3600.0,
                passes_per_year,
            ),
        }
    }

    /// Applies this strategy's detection latency to a core-model parameter
    /// set, returning the updated parameters.
    pub fn apply_to(
        &self,
        params: &ltds_core::ReliabilityParams,
    ) -> Result<ltds_core::ReliabilityParams, ltds_core::ModelError> {
        params.with_detect_latent(self.mean_detection_latency())
    }
}

/// Sweeps scrub frequency and reports the resulting MDL and MTTDL, the series
/// behind experiment E11.
pub fn frequency_sweep(
    base: &ltds_core::ReliabilityParams,
    capacity_bytes: f64,
    read_bytes_per_sec: f64,
    passes_per_year: &[f64],
) -> Vec<(f64, Hours, f64)> {
    passes_per_year
        .iter()
        .map(|&rate| {
            let strategy = ScrubStrategy::new(
                ScrubPolicy::Periodic { passes_per_year: rate },
                capacity_bytes,
                read_bytes_per_sec,
            );
            let params = strategy.apply_to(base).expect("sweep parameters are valid");
            let mttdl = ltds_core::mttdl::mttdl_exact(&params);
            (rate, strategy.mean_detection_latency(), mttdl)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltds_core::presets;

    const CHEETAH_CAPACITY: f64 = 146.0e9;
    const CHEETAH_BW: f64 = 96.0e6;

    fn strategy(policy: ScrubPolicy) -> ScrubStrategy {
        ScrubStrategy::new(policy, CHEETAH_CAPACITY, CHEETAH_BW)
    }

    #[test]
    fn periodic_three_per_year_matches_paper_mdl() {
        let s = strategy(ScrubPolicy::Periodic { passes_per_year: 3.0 });
        assert!((s.mean_detection_latency().get() - 1460.0).abs() < 1.0);
        assert_eq!(s.passes_per_year(), 3.0);
        assert!(s.bandwidth_fraction() < 2e-4, "3 passes/year is cheap");
    }

    #[test]
    fn on_access_only_is_effectively_unscrubbed() {
        // An item accessed on average once a decade has a 10-year MDL.
        let s =
            strategy(ScrubPolicy::OnAccessOnly { mean_access_interval: Hours::from_years(10.0) });
        assert_eq!(s.passes_per_year(), 0.0);
        assert!((s.mean_detection_latency().as_years() - 10.0).abs() < 1e-9);
        assert_eq!(s.bandwidth_fraction(), 0.0);
    }

    #[test]
    fn opportunistic_gets_detection_without_bandwidth() {
        let s = strategy(ScrubPolicy::Opportunistic { effective_passes_per_year: 6.0 });
        assert!((s.mean_detection_latency().get() - 730.0).abs() < 1.0);
        assert_eq!(s.bandwidth_fraction(), 0.0);
    }

    #[test]
    fn bandwidth_limited_converts_fraction_to_rate() {
        let s = strategy(ScrubPolicy::BandwidthLimited { bandwidth_fraction: 0.01 });
        // 1% of 96 MB/s sustained over a year scans a 146 GB disk about 207 times.
        let rate = s.passes_per_year();
        assert!((rate - 207.0).abs() < 5.0, "rate {rate}");
        assert!((s.bandwidth_fraction() - 0.01).abs() < 1e-12);
        assert!(s.mean_detection_latency().get() < 25.0);
    }

    #[test]
    fn apply_to_reproduces_scenario_two() {
        let base = presets::cheetah_mirror_no_scrub();
        let s = strategy(ScrubPolicy::Periodic { passes_per_year: 3.0 });
        let params = s.apply_to(&base).unwrap();
        let years =
            ltds_core::units::hours_to_years(ltds_core::regimes::mttdl_latent_dominated(&params));
        assert!((years - 6128.7).abs() / 6128.7 < 0.001);
    }

    #[test]
    fn frequency_sweep_is_monotone_with_diminishing_returns() {
        let base = presets::cheetah_mirror_no_scrub();
        let rates = [0.25, 1.0, 3.0, 12.0, 52.0];
        let sweep = frequency_sweep(&base, CHEETAH_CAPACITY, CHEETAH_BW, &rates);
        assert_eq!(sweep.len(), rates.len());
        // MTTDL increases with scrub rate...
        assert!(sweep.windows(2).all(|w| w[1].2 > w[0].2));
        // ...but the mission-level payoff shows diminishing returns: the drop
        // in 50-year loss probability from 0.25 -> 1 pass/yr dwarfs the drop
        // from 12 -> 52 passes/yr.
        let p_loss = |mttdl: f64| ltds_core::mission::probability_of_loss_years(mttdl, 50.0);
        let drop_low = p_loss(sweep[0].2) - p_loss(sweep[1].2);
        let drop_high = p_loss(sweep[3].2) - p_loss(sweep[4].2);
        assert!(drop_low > 10.0 * drop_high, "drops {drop_low} vs {drop_high}");
        // MDL halves as the rate quadruples from 3 to 12.
        assert!((sweep[2].1.get() / sweep[3].1.get() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bandwidth fraction")]
    fn invalid_bandwidth_fraction_panics() {
        let _ = strategy(ScrubPolicy::BandwidthLimited { bandwidth_fraction: 1.5 });
    }
}
