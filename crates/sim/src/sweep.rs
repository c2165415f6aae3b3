//! Sweep grid points: the record every campaign sweep streams, and the
//! request each point's cache identity is digested from.
//!
//! Sweeps themselves run as campaigns: a [`crate::campaign::SweepSpec`]
//! names a base configuration, a [`crate::campaign::SweepAxis`] and a trial
//! budget, and [`crate::campaign::CampaignDriver`] simulates (or answers
//! from a [`crate::cache::SweepCache`]) one [`SweepPoint`] per grid value,
//! so refining a grid simulates only the points it has not seen.

use crate::config::SimConfig;
use crate::monte_carlo::MttdlEstimate;
use serde::{Deserialize, Serialize};

/// One point of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Value of the swept parameter.
    pub x: f64,
    /// Simulated MTTDL in hours.
    pub mttdl_hours: f64,
    /// Half-width of the 95 % confidence interval in hours.
    pub ci_half_width: f64,
    /// Fraction of trials (leaf paths) censored at the time cap — the
    /// first thing to inspect when a rare-config point looks noisy.
    pub censoring_fraction: f64,
    /// Effective sample size of the loss observations
    /// ([`MttdlEstimate::effective_sample_size`]).
    pub effective_sample_size: f64,
    /// Variance-reduction factor vs vanilla, when an accelerated strategy
    /// produced this point ([`MttdlEstimate::variance_ratio_vs_vanilla`]).
    pub variance_ratio_vs_vanilla: Option<f64>,
}

// Manual impl so stream records written before the rare-event fields
// existed still parse: absent fields arrive as `Null` and map to their
// pre-acceleration meaning (no censoring report, loss count as ESS).
impl Deserialize for SweepPoint {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| value.get(name).unwrap_or(&serde::Value::Null);
        let optional = |name: &str| match field(name) {
            serde::Value::Null => Ok(None),
            v => f64::from_value(v).map(Some),
        };
        Ok(Self {
            x: f64::from_value(field("x"))?,
            mttdl_hours: f64::from_value(field("mttdl_hours"))?,
            ci_half_width: f64::from_value(field("ci_half_width"))?,
            censoring_fraction: optional("censoring_fraction")?.unwrap_or(0.0),
            effective_sample_size: optional("effective_sample_size")?.unwrap_or(0.0),
            variance_ratio_vs_vanilla: optional("variance_ratio_vs_vanilla")?,
        })
    }
}

impl SweepPoint {
    /// Projects a Monte-Carlo estimate onto one grid point.
    pub fn from_estimate(x: f64, est: &MttdlEstimate) -> Self {
        Self {
            x,
            mttdl_hours: est.mttdl_hours.estimate,
            ci_half_width: est.mttdl_hours.half_width(),
            censoring_fraction: est.censoring_fraction(),
            effective_sample_size: est.effective_sample_size,
            variance_ratio_vs_vanilla: est.variance_ratio_vs_vanilla,
        }
    }
}

/// Everything that determines a grid point's estimate, digested together
/// into the point's cache identity. Estimates do not depend on the worker
/// count, so every request digests `threads: Some(1)`: the encoding that
/// persisted point caches are keyed by, whatever thread count wrote them.
#[derive(Serialize)]
pub(crate) struct PointRequest {
    config: SimConfig,
    trials: u64,
    threads: Option<usize>,
}

impl PointRequest {
    /// The request for `trials` trials of `config`.
    pub(crate) fn new(config: SimConfig, trials: u64) -> Self {
        Self { config, trials, threads: Some(1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SweepCache;
    use crate::campaign::{
        Campaign, CampaignDriver, CampaignError, MemorySink, SweepAxis, SweepCampaign, SweepSpec,
    };
    use crate::config::RareEventStrategy;

    fn base() -> SimConfig {
        SimConfig::mirrored_disks(2000.0, 2000.0, 5.0, 5.0, Some(100.0), 1.0).unwrap()
    }

    /// Runs `axis` over `base` as a one-sweep campaign on two threads,
    /// answering points from `cache` when one is given, and decodes its
    /// points.
    fn run_sweep(
        base: SimConfig,
        axis: SweepAxis,
        trials: u64,
        seed: u64,
        cache: Option<&SweepCache<MttdlEstimate>>,
    ) -> Result<Vec<SweepPoint>, CampaignError> {
        let campaign: SweepCampaign = Campaign {
            name: "sweep".to_string(),
            sweeps: vec![SweepSpec { name: "sweep".to_string(), base, axis, trials, seed }],
            scenarios: Vec::new(),
        };
        let mut driver = CampaignDriver::new(&campaign).threads(2);
        if let Some(cache) = cache {
            driver = driver.point_cache(cache);
        }
        let mut sink = MemorySink::new();
        driver.run(&mut sink)?;
        Ok(sink.records().iter().map(|r| SweepPoint::from_value(&r.payload).unwrap()).collect())
    }

    fn sweep(base: SimConfig, axis: SweepAxis, trials: u64, seed: u64) -> Vec<SweepPoint> {
        run_sweep(base, axis, trials, seed, None).unwrap()
    }

    #[test]
    fn scrub_sweep_shows_scrubbing_helps() {
        let periods_hours = vec![20.0, 500.0, f64::INFINITY];
        let points = sweep(base(), SweepAxis::ScrubPeriod { periods_hours }, 800, 1);
        assert_eq!(points.len(), 3);
        assert!(points[0].mttdl_hours > points[1].mttdl_hours);
        assert!(points[1].mttdl_hours > points[2].mttdl_hours);
        assert!(points.iter().all(|p| p.ci_half_width > 0.0));
    }

    #[test]
    fn replication_sweep_is_monotone() {
        let axis = SweepAxis::Replication { replica_counts: vec![1, 2, 3], alpha: 1.0 };
        let points = sweep(base(), axis, 600, 2);
        assert_eq!(points.len(), 3);
        assert!(points[1].mttdl_hours > points[0].mttdl_hours);
        assert!(points[2].mttdl_hours > points[1].mttdl_hours);
    }

    #[test]
    fn alpha_sweep_shows_correlation_hurting() {
        let points = sweep(base(), SweepAxis::Alpha { alphas: vec![1.0, 0.05] }, 800, 3);
        assert!(points[0].mttdl_hours > points[1].mttdl_hours * 2.0);
    }

    #[test]
    fn invalid_sweep_input_errors() {
        for axis in [
            SweepAxis::Replication { replica_counts: vec![0], alpha: 1.0 },
            SweepAxis::Alpha { alphas: vec![0.0] },
        ] {
            let err = run_sweep(base(), axis, 10, 1, None);
            assert!(matches!(err, Err(CampaignError::Model(_))));
        }
    }

    #[test]
    fn cached_sweep_is_bit_identical_and_superset_reuses_points() {
        let scrub = |periods: &[f64]| SweepAxis::ScrubPeriod { periods_hours: periods.to_vec() };
        let grid = [30.0, 100.0, 400.0];
        let superset = [30.0, 100.0, 400.0, 1_000.0];
        let cold = sweep(base(), scrub(&superset), 300, 11);

        let cache = SweepCache::new();
        let first = run_sweep(base(), scrub(&grid), 300, 11, Some(&cache)).unwrap();
        assert_eq!(cache.len(), grid.len());
        assert_eq!(cache.misses(), grid.len() as u64);
        let warm = run_sweep(base(), scrub(&superset), 300, 11, Some(&cache)).unwrap();
        // Every original point was answered from the cache; only the new
        // axis extension was simulated.
        assert_eq!(cache.hits(), grid.len() as u64);
        assert_eq!(cache.len(), superset.len());
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.mttdl_hours.to_bits(), w.mttdl_hours.to_bits());
            assert_eq!(c.ci_half_width.to_bits(), w.ci_half_width.to_bits());
        }
        for (f, w) in first.iter().zip(&warm) {
            assert_eq!(f.mttdl_hours.to_bits(), w.mttdl_hours.to_bits());
        }
    }

    #[test]
    fn sweep_point_roundtrips_through_json() {
        let point = SweepPoint {
            x: 730.0,
            mttdl_hours: 1.25e7,
            ci_half_width: 3.5e5,
            censoring_fraction: 0.999,
            effective_sample_size: 412.5,
            variance_ratio_vs_vanilla: Some(37.0),
        };
        let json = serde_json::to_string(&point).unwrap();
        let back: SweepPoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.x.to_bits(), point.x.to_bits());
        assert_eq!(back.mttdl_hours.to_bits(), point.mttdl_hours.to_bits());
        assert_eq!(back.ci_half_width.to_bits(), point.ci_half_width.to_bits());
        assert_eq!(back.censoring_fraction.to_bits(), point.censoring_fraction.to_bits());
        assert_eq!(back.effective_sample_size.to_bits(), point.effective_sample_size.to_bits());
        assert_eq!(back.variance_ratio_vs_vanilla, Some(37.0));
    }

    #[test]
    fn pre_rare_event_sweep_point_json_still_parses() {
        // Stream records written before the rare-event fields existed.
        let legacy = r#"{"x":730.0,"mttdl_hours":1.25e7,"ci_half_width":3.5e5}"#;
        let back: SweepPoint = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.x, 730.0);
        assert_eq!(back.censoring_fraction, 0.0);
        assert_eq!(back.effective_sample_size, 0.0);
        assert_eq!(back.variance_ratio_vs_vanilla, None);
    }

    #[test]
    fn sweeps_thread_the_strategy_through_rebuilt_configs() {
        // An accelerated base must produce accelerated grid points: with
        // the strategy dropped, this rare config censors everything and the
        // MTTDL estimate collapses to zero.
        let rare = SimConfig::mirrored_disks(2.0e5, 2.0e5, 5.0, 5.0, Some(1000.0), 1.0)
            .unwrap()
            .with_max_hours(5000.0)
            .with_strategy(RareEventStrategy::ImportanceSampling { tilt: 30.0 });
        let points =
            sweep(rare, SweepAxis::ScrubPeriod { periods_hours: vec![500.0, 2000.0] }, 400, 5);
        assert!(
            points.iter().all(|p| p.mttdl_hours > 0.0),
            "accelerated sweep saw no losses: {points:?}"
        );
        // The tilt is what makes losses reachable: the accelerated paths
        // must censor *less* than the (hopeless) vanilla dynamics would.
        assert!(points.iter().all(|p| p.censoring_fraction < 1.0));
        assert!(points.iter().all(|p| p.effective_sample_size > 0.0));
    }
}
