//! Parameter sweeps: regenerate the figure-style series of the paper by
//! simulation.
//!
//! [`SweepDriver`] is the configurable entry point: it fixes the trial
//! budget, base seed and (optionally) an explicit worker-thread count for
//! every grid point, and can memoise grid points through a
//! [`SweepCache`] so that refining a grid — or re-running a sweep with one
//! axis extended — simulates only the points it has not seen. The free
//! functions are thin wrappers with the original signatures.

use crate::cache::{CacheKey, ConfigDigest, SweepCache};
use crate::config::SimConfig;
use crate::monte_carlo::{MonteCarlo, MttdlEstimate};
use ltds_core::error::ModelError;
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

/// Drives a family of Monte-Carlo runs over a parameter grid.
#[derive(Debug, Clone, Copy)]
pub struct SweepDriver<'a> {
    base: &'a SimConfig,
    trials: u64,
    seed: u64,
    threads: Option<usize>,
    cache: Option<&'a SweepCache<MttdlEstimate>>,
}

/// Everything that determines a grid point's estimate, digested together
/// into the point's cache identity. Estimates do not depend on the worker
/// count, so every request digests `threads: Some(1)` — the encoding
/// campaign points and earlier single-threaded sweeps were cached under —
/// and a campaign and a `SweepDriver` sweep at any thread count address the
/// same cache entries.
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

impl<'a> SweepDriver<'a> {
    /// Creates a driver over a base configuration, with the default worker
    /// count (all available cores, resolved once per process).
    pub fn new(base: &'a SimConfig, trials: u64, seed: u64) -> Self {
        Self { base, trials, seed, threads: None, cache: None }
    }

    /// Overrides the worker-thread count for every grid point. Changes
    /// wall-clock time only — estimates are bit-identical for any count.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread is required");
        self.threads = Some(threads);
        self
    }

    /// Memoises grid points through `cache`: a point whose
    /// `(config, trials)` digest and derived seed are already
    /// cached is returned bit-identically instead of re-simulated, so a
    /// superset grid costs only its new points. Sweeps sharing a cache may
    /// run concurrently (the cache is thread-safe).
    pub fn cache(mut self, cache: &'a SweepCache<MttdlEstimate>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Runs one grid point: point `i` gets the derived seed `seed + i`.
    fn estimate(&self, config: SimConfig, i: usize) -> MttdlEstimate {
        let seed = self.seed.wrapping_add(i as u64);
        let key = self.cache.map(|cache| {
            let digest = PointRequest::new(config, self.trials).config_digest();
            let key = CacheKey { digest, seed, shard: 0 };
            (cache, key)
        });
        if let Some((cache, key)) = key {
            if let Some(estimate) = cache.get(&key) {
                return estimate;
            }
        }
        let mut mc = MonteCarlo::new(config).trials(self.trials).seed(seed);
        if let Some(threads) = self.threads {
            mc = mc.threads(threads);
        }
        let estimate = mc.run();
        if let Some((cache, key)) = key {
            cache.insert(key, estimate.clone());
        }
        estimate
    }

    fn point(x: f64, est: &MttdlEstimate) -> SweepPoint {
        SweepPoint::from_estimate(x, est)
    }

    /// Sweeps the scrub period (hours) for a mirrored pair and reports the
    /// simulated MTTDL at each point. A period of `f64::INFINITY` means
    /// "never scrub".
    pub fn scrub_period(&self, periods_hours: &[f64]) -> Result<Vec<SweepPoint>, ModelError> {
        let base = self.base;
        let mut out = Vec::with_capacity(periods_hours.len());
        for (i, &period) in periods_hours.iter().enumerate() {
            let scrub = if period.is_finite() { Some(period) } else { None };
            let config = SimConfig::mirrored_disks(
                base.mttf_visible_hours,
                base.mttf_latent_hours,
                base.repair_visible_hours,
                base.repair_latent_hours,
                scrub,
                base.alpha,
            )?
            .with_max_hours(base.max_hours)
            .with_draw(base.draw)
            .with_strategy(base.strategy);
            out.push(Self::point(period, &self.estimate(config, i)));
        }
        Ok(out)
    }

    /// Sweeps the replica count at a fixed correlation factor.
    pub fn replication(
        &self,
        replica_counts: &[usize],
        alpha: f64,
    ) -> Result<Vec<SweepPoint>, ModelError> {
        let base = self.base;
        let mut out = Vec::with_capacity(replica_counts.len());
        for (i, &r) in replica_counts.iter().enumerate() {
            let config = SimConfig::new(
                r,
                1,
                base.mttf_visible_hours,
                base.mttf_latent_hours,
                base.repair_visible_hours,
                base.repair_latent_hours,
                base.detection,
                alpha,
            )?
            .with_max_hours(base.max_hours)
            .with_draw(base.draw)
            .with_strategy(base.strategy);
            out.push(Self::point(r as f64, &self.estimate(config, i)));
        }
        Ok(out)
    }

    /// Sweeps the correlation factor for a fixed configuration.
    pub fn alpha(&self, alphas: &[f64]) -> Result<Vec<SweepPoint>, ModelError> {
        let base = self.base;
        let mut out = Vec::with_capacity(alphas.len());
        for (i, &alpha) in alphas.iter().enumerate() {
            let config = SimConfig::new(
                base.replicas,
                base.min_intact,
                base.mttf_visible_hours,
                base.mttf_latent_hours,
                base.repair_visible_hours,
                base.repair_latent_hours,
                base.detection,
                alpha,
            )?
            .with_max_hours(base.max_hours)
            .with_draw(base.draw)
            .with_strategy(base.strategy);
            out.push(Self::point(alpha, &self.estimate(config, i)));
        }
        Ok(out)
    }

    /// Sweeps the redundancy policy at otherwise fixed fault/repair
    /// parameters. Each point's `x` is the policy's storage overhead
    /// (`fragments / min_fragments`), putting `Replicated { n: 3 }` and
    /// `ErasureCoded { k: 2, n: 6 }` on the same comparable axis.
    pub fn policy(
        &self,
        policies: &[crate::config::RedundancyPolicy],
    ) -> Result<Vec<SweepPoint>, ModelError> {
        let mut out = Vec::with_capacity(policies.len());
        for (i, &p) in policies.iter().enumerate() {
            p.validate()?;
            let config = self.base.with_policy(p);
            out.push(Self::point(p.storage_overhead(), &self.estimate(config, i)));
        }
        Ok(out)
    }
}

/// Sweeps the scrub period (hours) for a mirrored pair. See
/// [`SweepDriver::scrub_period`].
pub fn scrub_period_sweep(
    base: &SimConfig,
    periods_hours: &[f64],
    trials: u64,
    seed: u64,
) -> Result<Vec<SweepPoint>, ModelError> {
    SweepDriver::new(base, trials, seed).scrub_period(periods_hours)
}

/// Sweeps the replica count at a fixed correlation factor. See
/// [`SweepDriver::replication`].
pub fn replication_sweep(
    base: &SimConfig,
    replica_counts: &[usize],
    alpha: f64,
    trials: u64,
    seed: u64,
) -> Result<Vec<SweepPoint>, ModelError> {
    SweepDriver::new(base, trials, seed).replication(replica_counts, alpha)
}

/// Sweeps the correlation factor for a fixed configuration. See
/// [`SweepDriver::alpha`].
pub fn alpha_sweep(
    base: &SimConfig,
    alphas: &[f64],
    trials: u64,
    seed: u64,
) -> Result<Vec<SweepPoint>, ModelError> {
    SweepDriver::new(base, trials, seed).alpha(alphas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RareEventStrategy;

    fn base() -> SimConfig {
        SimConfig::mirrored_disks(2000.0, 2000.0, 5.0, 5.0, Some(100.0), 1.0).unwrap()
    }

    #[test]
    fn scrub_sweep_shows_scrubbing_helps() {
        let points = scrub_period_sweep(&base(), &[20.0, 500.0, f64::INFINITY], 800, 1).unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[0].mttdl_hours > points[1].mttdl_hours);
        assert!(points[1].mttdl_hours > points[2].mttdl_hours);
        assert!(points.iter().all(|p| p.ci_half_width > 0.0));
    }

    #[test]
    fn replication_sweep_is_monotone() {
        let points = replication_sweep(&base(), &[1, 2, 3], 1.0, 600, 2).unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[1].mttdl_hours > points[0].mttdl_hours);
        assert!(points[2].mttdl_hours > points[1].mttdl_hours);
    }

    #[test]
    fn alpha_sweep_shows_correlation_hurting() {
        let points = alpha_sweep(&base(), &[1.0, 0.05], 800, 3).unwrap();
        assert!(points[0].mttdl_hours > points[1].mttdl_hours * 2.0);
    }

    #[test]
    fn thread_override_does_not_change_results() {
        let b = base();
        let grid = [50.0, 500.0];
        let default = SweepDriver::new(&b, 400, 7).scrub_period(&grid).unwrap();
        for threads in [1, 2, 3, 8] {
            let forced = SweepDriver::new(&b, 400, 7).threads(threads).scrub_period(&grid).unwrap();
            for (d, f) in default.iter().zip(&forced) {
                for (x, y) in [
                    (d.mttdl_hours, f.mttdl_hours),
                    (d.ci_half_width, f.ci_half_width),
                    (d.censoring_fraction, f.censoring_fraction),
                    (d.effective_sample_size, f.effective_sample_size),
                ] {
                    assert_eq!(x.to_bits(), y.to_bits(), "{threads} threads at x = {}", d.x);
                }
            }
        }
    }

    #[test]
    fn invalid_sweep_input_errors() {
        assert!(replication_sweep(&base(), &[0], 1.0, 10, 1).is_err());
        assert!(alpha_sweep(&base(), &[0.0], 10, 1).is_err());
    }

    #[test]
    fn cached_sweep_is_bit_identical_and_superset_reuses_points() {
        let b = base();
        let grid = [30.0, 100.0, 400.0];
        let superset = [30.0, 100.0, 400.0, 1_000.0];
        let cold = SweepDriver::new(&b, 300, 11).threads(2).scrub_period(&superset).unwrap();

        let cache = crate::cache::SweepCache::new();
        let driver = SweepDriver::new(&b, 300, 11).threads(2).cache(&cache);
        let first = driver.scrub_period(&grid).unwrap();
        assert_eq!(cache.len(), grid.len());
        assert_eq!(cache.misses(), grid.len() as u64);
        let warm = driver.scrub_period(&superset).unwrap();
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
    fn cache_keys_trials_and_seed_but_not_threads() {
        let b = base();
        let cache = crate::cache::SweepCache::new();
        let grid = [50.0];
        SweepDriver::new(&b, 200, 1).threads(1).cache(&cache).scrub_period(&grid).unwrap();
        SweepDriver::new(&b, 300, 1).threads(1).cache(&cache).scrub_period(&grid).unwrap();
        SweepDriver::new(&b, 200, 9).threads(1).cache(&cache).scrub_period(&grid).unwrap();
        assert_eq!(cache.len(), 3, "trials and seed must key separately");
        assert_eq!(cache.hits(), 0);
        SweepDriver::new(&b, 200, 1).threads(2).cache(&cache).scrub_period(&grid).unwrap();
        assert_eq!(cache.len(), 3, "the thread count must not key separately");
        assert_eq!(cache.hits(), 1);
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
            SweepDriver::new(&rare, 400, 5).threads(1).scrub_period(&[500.0, 2000.0]).unwrap();
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
