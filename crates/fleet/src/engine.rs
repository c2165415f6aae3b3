//! The fleet simulation driver: sharded, parallel, bit-reproducible.
//!
//! Groups are dealt round-robin across a *fixed* number of logical shards
//! (`FleetConfig::shards`); each shard owns a deterministic RNG sub-stream
//! (`SimRng::fork(shard)`, the same discipline `ltds_sim::MonteCarlo` uses
//! for trials) and is simulated independently against the shared burst
//! timeline. Worker threads merely pick up shards; results are merged in
//! shard order, so the report is bit-identical for any thread count.
//!
//! Because each shard's outcome is a pure function of
//! `(config, seed, shard)`, [`FleetSim::run_cached`] can memoise shards in
//! a content-addressed [`ShardCache`]: re-running a configuration (e.g.
//! while refining a sweep grid that revisits it) simulates only the shards
//! the cache has not seen, and the merge still walks shard order — so a
//! cache-warm report is bit-identical to a cold one regardless of which
//! shards came from where.

use crate::bursts::Burst;
use crate::config::FleetConfig;
use crate::kernel::{KernelScratch, ShardKernel};
use crate::placement::PlacementIndex;
use crate::report::{FleetReport, ShardOutcome};
use ltds_core::error::ModelError;
use ltds_sim::cache::{CacheKey, ConfigDigest, SweepCache};
use ltds_stochastic::{parallel_ranges, SimRng};
use ltds_telemetry::{
    RunTrace, ShardParams, ShardTelemetry, TelemetryConfig, TraceMeta, TRACE_SCHEMA,
};

/// A content-addressed cache of per-shard fleet outcomes, keyed by
/// `(FleetConfig digest, seed, shard)`. See [`FleetSim::run_cached`].
pub type ShardCache = SweepCache<ShardOutcome>;

/// RNG sub-stream index reserved for the burst timeline (group shards use
/// `0..shards`, which never collides with this). Shared with
/// `crate::campaign`, whose per-shard work units must reproduce the
/// engine's draws exactly.
pub(crate) const BURST_STREAM: u64 = u64::MAX;

/// Builder/driver for a fleet simulation run.
#[derive(Debug, Clone, Copy)]
pub struct FleetSim {
    config: FleetConfig,
    seed: u64,
    threads: usize,
    /// Telemetry knobs for [`FleetSim::run_traced`]. Carried by the driver
    /// (like `seed` and `threads`), *not* by `FleetConfig`: configs are
    /// digest inputs and cache keys, and observability must not change
    /// them.
    telemetry: TelemetryConfig,
}

impl FleetSim {
    /// Creates a driver with seed 0 and one worker per available core (the
    /// core count is resolved once per process and cached).
    pub fn new(config: FleetConfig) -> Self {
        Self {
            config,
            seed: 0,
            threads: ltds_stochastic::available_threads(),
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of worker threads. Changes wall-clock time only —
    /// never results.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread is required");
        self.threads = threads;
        self
    }

    /// Sets the telemetry knobs used by [`FleetSim::run_traced`] (sampling
    /// cadence, post-mortem ring capacity). Has no effect on [`FleetSim::run`],
    /// which always compiles probes out.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs the simulation.
    pub fn run(&self) -> Result<FleetReport, ModelError> {
        self.run_impl(None)
    }

    /// Runs the simulation through a shard cache: shards whose
    /// `(config digest, seed, shard)` key is already cached are merged
    /// from the cache, only the missing shards are simulated (and
    /// inserted), and the merge walks shard order regardless of
    /// provenance — so the report is bit-identical to [`FleetSim::run`].
    ///
    /// When every shard hits, the run also skips building the placement
    /// index, leaving only the (cheap) burst-timeline draw and the merge.
    pub fn run_cached(&self, cache: &ShardCache) -> Result<FleetReport, ModelError> {
        self.run_impl(Some(cache))
    }

    /// Runs the simulation with telemetry enabled, returning the report
    /// *and* the run's [`RunTrace`] (metric time series, loss post-mortems,
    /// per-shard summaries — see [`FleetSim::telemetry`] for the knobs).
    ///
    /// The probes are behaviour-free — statically dispatched, no RNG — so
    /// the report is bit-identical to [`FleetSim::run`], and per-shard
    /// sinks are merged in shard order, so the trace (and its JSONL
    /// export) is byte-identical for any thread count.
    pub fn run_traced(&self) -> Result<(FleetReport, RunTrace), ModelError> {
        self.config.validate()?;
        let master = SimRng::seed_from(self.seed);
        let mut burst_rng = master.fork(BURST_STREAM);
        let bursts: Vec<Burst> = self.config.bursts.timeline(
            &self.config.topology,
            self.config.horizon_hours,
            &mut burst_rng,
        );

        let shards = self.config.shards;
        let index = PlacementIndex::build(&self.config, !bursts.is_empty());
        let kernel = ShardKernel::new(&self.config, &bursts, &index);
        // The scrub-progress gauge tracks drive 0's tour as the fleet's
        // representative phase.
        let scrub = self.config.detection_for_drive(0);

        let per_worker = parallel_ranges(shards, self.threads, |range| {
            let mut scratch = KernelScratch::new();
            range
                .map(|shard| {
                    let rng = master.fork(shard as u64);
                    let params = ShardParams {
                        shard: shard as u32,
                        shards: shards as u32,
                        groups: kernel.groups_in_shard(shard),
                        // The telemetry grid is strided by the widest
                        // policy; the kernel renumbers variable-width
                        // slots onto it (identity for uniform fleets).
                        replicas: self.config.slot_stride(),
                        sites: self.config.topology.sites,
                        horizon_hours: self.config.horizon_hours,
                        scrub,
                    };
                    let mut sink = ShardTelemetry::new(params, self.telemetry);
                    let outcome = kernel.run_probed(shard, rng, &mut scratch, &mut sink);
                    (outcome, sink.finish())
                })
                .collect::<Vec<_>>()
        });

        // Merge strictly in shard order, exactly like the untraced path:
        // the ranges come back in order, so flattening them walks shards
        // `0..shards`.
        let mut totals = ShardOutcome::default();
        let mut shard_traces = Vec::with_capacity(shards);
        for (outcome, trace) in per_worker.into_iter().flatten() {
            totals.merge(&outcome);
            shard_traces.push(trace);
        }

        let report = FleetReport {
            groups: self.config.groups,
            drives: self.config.topology.total_drives(),
            horizon_hours: self.config.horizon_hours,
            bursts_struck: bursts.len() as u64,
            totals,
        };
        let trace = RunTrace {
            meta: TraceMeta {
                schema: TRACE_SCHEMA.to_string(),
                seed: self.seed,
                shards: shards as u32,
                groups: self.config.groups as u64,
                horizon_hours: self.config.horizon_hours,
                sample_period_hours: self.telemetry.sample_period_hours,
                ring_capacity: self.telemetry.ring_capacity as u64,
            },
            shards: shard_traces,
        };
        Ok((report, trace))
    }

    fn run_impl(&self, cache: Option<&ShardCache>) -> Result<FleetReport, ModelError> {
        self.config.validate()?;
        let master = SimRng::seed_from(self.seed);

        // The burst timeline is generated once, from its own reserved
        // sub-stream, and shared by every shard: cross-group correlation is
        // identical no matter how the fleet is partitioned or threaded.
        // (Always regenerated, even on a fully cached run — it is a handful
        // of draws and `bursts_struck` must stay bit-identical.)
        let mut burst_rng = master.fork(BURST_STREAM);
        let bursts: Vec<Burst> = self.config.bursts.timeline(
            &self.config.topology,
            self.config.horizon_hours,
            &mut burst_rng,
        );

        let shards = self.config.shards;
        let cached = cache.map(|cache| (cache, self.config.config_digest()));
        let mut outcomes: Vec<Option<ShardOutcome>> = vec![None; shards];
        let mut missing: Vec<usize> = Vec::new();
        match cached {
            Some((cache, digest)) => {
                for (shard, slot) in outcomes.iter_mut().enumerate() {
                    let key = CacheKey { digest, seed: self.seed, shard: shard as u32 };
                    match cache.get(&key) {
                        Some(outcome) => *slot = Some(outcome),
                        None => missing.push(shard),
                    }
                }
            }
            None => missing.extend(0..shards),
        }

        if !missing.is_empty() {
            // Placement is resolved once and shared read-only by every
            // shard: slot → drive, per-drive site/detection, and (when
            // bursts are active) the drive → slots CSR the burst path
            // walks.
            let index = PlacementIndex::build(&self.config, !bursts.is_empty());
            let kernel = ShardKernel::new(&self.config, &bursts, &index);
            // Deal missing shards to workers in contiguous chunks.
            let per_worker = parallel_ranges(missing.len(), self.threads, |range| {
                // One scratch per worker: per-shard setup reuses the same
                // buffers instead of reallocating.
                let mut scratch = KernelScratch::new();
                missing[range]
                    .iter()
                    .map(|&shard| {
                        let rng = master.fork(shard as u64);
                        (shard, kernel.run_with(shard, rng, &mut scratch))
                    })
                    .collect::<Vec<(usize, ShardOutcome)>>()
            });

            for (shard, outcome) in per_worker.into_iter().flatten() {
                if let Some((cache, digest)) = cached {
                    let key = CacheKey { digest, seed: self.seed, shard: shard as u32 };
                    cache.insert(key, outcome.clone());
                }
                outcomes[shard] = Some(outcome);
            }
        }

        // Merge strictly in shard order, wherever each outcome came from.
        let mut totals = ShardOutcome::default();
        for outcome in &outcomes {
            totals.merge(outcome.as_ref().expect("every shard was simulated or cached"));
        }

        Ok(FleetReport {
            groups: self.config.groups,
            drives: self.config.topology.total_drives(),
            horizon_hours: self.config.horizon_hours,
            bursts_struck: bursts.len() as u64,
            totals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bursts::BurstProfile;
    use crate::config::RepairBandwidth;
    use crate::topology::FleetTopology;
    use ltds_sim::config::SimConfig;

    fn fragile_fleet(groups: usize) -> FleetConfig {
        let topo = FleetTopology::new(2, 2, 2, 8).unwrap();
        let group =
            SimConfig::mirrored_disks(1000.0, 5000.0, 10.0, 10.0, Some(100.0), 1.0).unwrap();
        FleetConfig::new(topo, groups, group).unwrap().with_horizon_hours(20_000.0).with_shards(8)
    }

    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let config = fragile_fleet(60);
        let one = FleetSim::new(config).seed(7).threads(1).run().unwrap();
        let four = FleetSim::new(config).seed(7).threads(4).run().unwrap();
        let many = FleetSim::new(config).seed(7).threads(13).run().unwrap();
        assert_eq!(one.totals.losses, four.totals.losses);
        assert_eq!(one.totals.faults, four.totals.faults);
        assert_eq!(one.totals.events, four.totals.events);
        assert_eq!(
            one.totals.loss_intervals.mean().to_bits(),
            four.totals.loss_intervals.mean().to_bits(),
            "merged statistics must be bit-identical"
        );
        assert_eq!(
            one.totals.loss_intervals.mean().to_bits(),
            many.totals.loss_intervals.mean().to_bits()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let config = fragile_fleet(60);
        let a = FleetSim::new(config).seed(1).run().unwrap();
        let b = FleetSim::new(config).seed(2).run().unwrap();
        assert_ne!(a.totals.loss_intervals.mean(), b.totals.loss_intervals.mean());
    }

    #[test]
    fn bursts_and_bandwidth_pressure_hurt_reliability() {
        let calm = fragile_fleet(100);
        let stressed = calm
            .with_bursts(BurstProfile::disaster_scenario())
            .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(5e8), 1e10);
        let calm_report = FleetSim::new(calm).seed(3).run().unwrap();
        let stressed_report = FleetSim::new(stressed).seed(3).run().unwrap();
        assert!(stressed_report.bursts_struck > 0);
        assert!(stressed_report.totals.burst_faults > 0);
        assert!(
            stressed_report.totals.losses > calm_report.totals.losses,
            "bursts + tight bandwidth must cost losses: {} vs {}",
            stressed_report.totals.losses,
            calm_report.totals.losses
        );
        assert!(stressed_report.mean_repair_wait_hours() >= 0.0);
    }

    #[test]
    fn report_shape_is_sane() {
        let report = FleetSim::new(fragile_fleet(60)).seed(5).run().unwrap();
        assert_eq!(report.groups, 60);
        assert_eq!(report.drives, 64);
        assert!(report.totals.losses > 0, "fragile groups over 20k hours must lose data");
        assert!(report.mttdl_exposure_hours().is_finite());
        assert!(report.mttdl_interval().estimate > 0.0);
        assert!(report.events_per_group_year() > 0.0);
        let p = report.loss_probability_by(report.mttdl_exposure_hours());
        assert!((p - 0.632).abs() < 0.01);
    }

    #[test]
    fn invalid_config_is_rejected_at_run() {
        let mut config = fragile_fleet(60);
        config.horizon_hours = -1.0;
        assert!(FleetSim::new(config).run().is_err());
        assert!(FleetSim::new(config).run_cached(&ShardCache::new()).is_err());
        assert!(FleetSim::new(config).run_traced().is_err());
    }

    #[test]
    fn traced_run_matches_untraced_report_and_trace_totals_reconcile() {
        let config = fragile_fleet(60)
            .with_bursts(BurstProfile::disaster_scenario())
            .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e9), 5e9);
        let plain = FleetSim::new(config).seed(7).run().unwrap();
        let telemetry = TelemetryConfig::default().sample_period_hours(1000.0);
        let (report, trace) =
            FleetSim::new(config).seed(7).telemetry(telemetry).run_traced().unwrap();
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "probes must be behaviour-free: traced report == untraced report"
        );
        let summary = trace.summary();
        assert_eq!(summary.losses, plain.totals.losses);
        assert_eq!(summary.faults, plain.totals.faults);
        assert_eq!(summary.repairs, plain.totals.repairs);
        assert_eq!(summary.burst_faults, plain.totals.burst_faults);
        assert_eq!(summary.fatal_visible, plain.totals.fatal_visible);
        assert_eq!(summary.fatal_latent, plain.totals.fatal_latent);
        assert_eq!(summary.postmortems, plain.totals.losses, "one post-mortem per loss");
        assert!(summary.samples > 0);
    }

    #[test]
    fn trace_export_is_byte_identical_across_thread_counts() {
        let config = fragile_fleet(60)
            .with_bursts(BurstProfile::disaster_scenario())
            .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e9), 5e9);
        let telemetry = TelemetryConfig::default().sample_period_hours(2000.0);
        let (_, one) =
            FleetSim::new(config).seed(5).threads(1).telemetry(telemetry).run_traced().unwrap();
        let jsonl = one.to_jsonl();
        for threads in [2, 8] {
            let (_, t) = FleetSim::new(config)
                .seed(5)
                .threads(threads)
                .telemetry(telemetry)
                .run_traced()
                .unwrap();
            assert_eq!(t.to_jsonl(), jsonl, "{threads} threads must export identical bytes");
        }
    }

    #[test]
    fn cached_run_is_bit_identical_to_cold_and_reuses_every_shard() {
        let config = fragile_fleet(60)
            .with_bursts(BurstProfile::disaster_scenario())
            .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e9), 5e9);
        let cold = FleetSim::new(config).seed(7).run().unwrap();

        let cache = ShardCache::new();
        let warm_miss = FleetSim::new(config).seed(7).run_cached(&cache).unwrap();
        assert_eq!(cache.len(), config.shards);
        assert_eq!(cache.misses(), config.shards as u64);
        assert_eq!(cache.hits(), 0);

        let warm_hit = FleetSim::new(config).seed(7).run_cached(&cache).unwrap();
        assert_eq!(cache.hits(), config.shards as u64, "second run must reuse every shard");

        for report in [&warm_miss, &warm_hit] {
            assert_eq!(
                serde_json::to_string(report).unwrap(),
                serde_json::to_string(&cold).unwrap(),
                "cache-warm report must be bit-identical to the cold run"
            );
        }
    }

    #[test]
    fn cache_does_not_leak_across_configs_or_seeds() {
        let a = fragile_fleet(60);
        let b = fragile_fleet(61);
        let cache = ShardCache::new();
        let report_a = FleetSim::new(a).seed(7).run_cached(&cache).unwrap();
        assert_eq!(cache.len(), a.shards);

        // A different config (or seed) shares nothing, so the reports
        // match their cold equivalents exactly.
        let report_b = FleetSim::new(b).seed(7).run_cached(&cache).unwrap();
        assert_eq!(cache.len(), a.shards + b.shards);
        let report_a2 = FleetSim::new(a).seed(8).run_cached(&cache).unwrap();
        assert_eq!(cache.len(), a.shards * 2 + b.shards);

        let cold_b = FleetSim::new(b).seed(7).run().unwrap();
        let cold_a2 = FleetSim::new(a).seed(8).run().unwrap();
        assert_eq!(
            serde_json::to_string(&report_b).unwrap(),
            serde_json::to_string(&cold_b).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&report_a2).unwrap(),
            serde_json::to_string(&cold_a2).unwrap()
        );
        assert_ne!(
            serde_json::to_string(&report_a).unwrap(),
            serde_json::to_string(&report_b).unwrap()
        );
    }

    #[test]
    fn partially_warm_cache_simulates_only_the_missing_shards() {
        let config = fragile_fleet(60);
        let full = ShardCache::new();
        let cold = FleetSim::new(config).seed(3).run_cached(&full).unwrap();

        // Seed a fresh cache with only half the shards, then run: the
        // merge must still be bit-identical, with exactly the seeded
        // shards hitting.
        let half = ShardCache::new();
        let digest = config.config_digest();
        for shard in 0..config.shards / 2 {
            let key = CacheKey { digest, seed: 3, shard: shard as u32 };
            let outcome = full.get(&key).expect("full cache holds every shard");
            half.insert(key, outcome);
        }
        half.reset_counters();
        let mixed = FleetSim::new(config).seed(3).run_cached(&half).unwrap();
        assert_eq!(half.hits(), (config.shards / 2) as u64);
        assert_eq!(half.misses(), (config.shards - config.shards / 2) as u64);
        assert_eq!(
            serde_json::to_string(&mixed).unwrap(),
            serde_json::to_string(&cold).unwrap(),
            "mixed-provenance merge must be bit-identical"
        );
    }
}
