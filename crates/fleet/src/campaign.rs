//! Fleet-scale scenarios for the campaign driver.
//!
//! `ltds_sim::campaign` executes work units it can neither name nor build:
//! the [`Scenario`] trait is its only view of fleet-scale work. This module
//! is the fleet side of that contract — the "support code" that turns a
//! [`FleetConfig`] into individually shippable per-shard work units:
//!
//! * [`FleetScenario`] — the serde-round-trippable spec (name + fleet
//!   config + seed) that rides inside a [`Campaign`];
//! * [`PreparedFleet`] — the validated, ready-to-run form: the burst
//!   timeline and placement index are built lazily *once* and shared
//!   read-only by every worker that pulls one of this scenario's shards,
//!   so shard units stay cheap no matter which threads execute them.
//!
//! A shard unit's [`CacheKey`] is exactly the key
//! [`crate::FleetSim::run_cached`] uses — `(FleetConfig digest, seed,
//! shard)` — so a campaign and a direct engine run share cache entries in
//! both directions, and [`PreparedFleet::report`] folds the streamed
//! outcomes back into the same bit-identical [`FleetReport`].

use crate::bursts::Burst;
use crate::config::FleetConfig;
use crate::engine::BURST_STREAM;
use crate::kernel::{KernelScratch, ShardKernel};
use crate::placement::PlacementIndex;
use crate::report::{FleetReport, ShardOutcome};
use ltds_core::error::ModelError;
use ltds_sim::cache::{CacheKey, ConfigDigest};
use ltds_sim::campaign::{
    Campaign, PreparedScenario, RecordKind, ReportSink, Scenario, StreamRecord,
};
use ltds_stochastic::SimRng;
use ltds_telemetry::{ShardParams, ShardTelemetry, TelemetryConfig};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A campaign whose scenarios are fleet simulations.
pub type FleetCampaign = Campaign<FleetScenario>;

/// One named fleet scenario of a campaign: a full [`FleetConfig`] run at a
/// fixed master seed, executed shard-by-shard across the worker pool.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetScenario {
    /// Name of the scenario, carried on every streamed record.
    pub name: String,
    /// The fleet being simulated.
    pub fleet: FleetConfig,
    /// Master seed of the run.
    pub seed: u64,
}

/// Shared per-scenario context, built lazily by whichever worker touches
/// the scenario first and reused by every other shard unit.
struct FleetContext {
    bursts: Vec<Burst>,
    index: PlacementIndex,
}

/// The executable form of a [`FleetScenario`]: a validated config plus the
/// lazily built burst timeline and placement index.
pub struct PreparedFleet {
    config: FleetConfig,
    seed: u64,
    digest: u64,
    context: OnceLock<FleetContext>,
}

impl PreparedFleet {
    fn context(&self) -> &FleetContext {
        self.context.get_or_init(|| {
            let master = SimRng::seed_from(self.seed);
            let mut burst_rng = master.fork(BURST_STREAM);
            let bursts = self.config.bursts.timeline(
                &self.config.topology,
                self.config.horizon_hours,
                &mut burst_rng,
            );
            let index = PlacementIndex::build(&self.config, !bursts.is_empty());
            FleetContext { bursts, index }
        })
    }

    /// Folds per-shard outcomes (in shard order, as streamed by the
    /// campaign driver) back into the report [`crate::FleetSim::run`]
    /// would have produced — bit-identical, since the merge walks the same
    /// order.
    pub fn report(&self, outcomes: &[ShardOutcome]) -> FleetReport {
        assert_eq!(
            outcomes.len(),
            self.config.shards,
            "a report needs every shard of the scenario"
        );
        let mut totals = ShardOutcome::default();
        for outcome in outcomes {
            totals.merge(outcome);
        }
        FleetReport {
            groups: self.config.groups,
            drives: self.config.topology.total_drives(),
            horizon_hours: self.config.horizon_hours,
            bursts_struck: self.context().bursts.len() as u64,
            totals,
        }
    }
}

impl Scenario for FleetScenario {
    type Outcome = ShardOutcome;
    type Prepared = PreparedFleet;

    fn name(&self) -> &str {
        &self.name
    }

    fn prepare(&self) -> Result<PreparedFleet, ModelError> {
        self.fleet.validate()?;
        Ok(PreparedFleet {
            config: self.fleet,
            seed: self.seed,
            digest: self.fleet.config_digest(),
            context: OnceLock::new(),
        })
    }
}

/// A [`ReportSink`] adapter that tees every record to an inner sink while
/// collecting the fleet-shard outcomes per scenario, so a campaign run can
/// be folded into merged per-scenario [`FleetReport`]s afterwards (via
/// [`FleetReportCollector::reports`]) without re-reading — or re-deriving —
/// anything from the streamed JSONL.
///
/// Records arrive in unit order (the campaign driver's contract), so each
/// scenario's outcomes accumulate already sorted by shard.
pub struct FleetReportCollector<'a> {
    inner: &'a mut dyn ReportSink,
    by_task: BTreeMap<String, Vec<ShardOutcome>>,
}

impl<'a> FleetReportCollector<'a> {
    /// Wraps an inner sink.
    pub fn new(inner: &'a mut dyn ReportSink) -> Self {
        Self { inner, by_task: BTreeMap::new() }
    }

    /// Folds the collected shard outcomes into one merged [`FleetReport`]
    /// per scenario of `campaign`, in spec order — each bit-identical to
    /// what [`crate::FleetSim::run`] would report for that scenario.
    /// Scenarios whose shards were not all streamed (a truncated run) are
    /// skipped with a warning on stderr.
    pub fn reports(
        &self,
        campaign: &FleetCampaign,
    ) -> Result<Vec<(String, FleetReport)>, ModelError> {
        let mut out = Vec::new();
        for scenario in &campaign.scenarios {
            let outcomes = match self.by_task.get(&scenario.name) {
                Some(outcomes) => outcomes,
                None => {
                    eprintln!("fleet-reports: scenario `{}` streamed no shards", scenario.name);
                    continue;
                }
            };
            if outcomes.len() != scenario.fleet.shards {
                eprintln!(
                    "fleet-reports: scenario `{}` streamed {} of {} shards; skipping",
                    scenario.name,
                    outcomes.len(),
                    scenario.fleet.shards
                );
                continue;
            }
            let prepared = scenario.prepare()?;
            out.push((scenario.name.clone(), prepared.report(outcomes)));
        }
        Ok(out)
    }
}

impl ReportSink for FleetReportCollector<'_> {
    fn record(&mut self, record: &StreamRecord) -> std::io::Result<()> {
        if record.kind == RecordKind::FleetShard {
            match ShardOutcome::from_value(&record.payload) {
                Ok(outcome) => self.by_task.entry(record.task.clone()).or_default().push(outcome),
                // Never silent: a payload that stops parsing (schema
                // drift) would otherwise surface only as a misleading
                // "streamed N of M shards" warning at report time.
                Err(e) => eprintln!(
                    "fleet-reports: cannot parse shard {} of `{}`: {e}",
                    record.unit, record.task
                ),
            }
        }
        self.inner.record(record)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl PreparedScenario for PreparedFleet {
    type Outcome = ShardOutcome;

    fn shards(&self) -> u32 {
        self.config.shards as u32
    }

    fn key(&self, shard: u32) -> CacheKey {
        // The exact key `FleetSim::run_cached` uses, so campaigns and
        // direct engine runs share cache entries.
        CacheKey { digest: self.digest, seed: self.seed, shard }
    }

    fn run_shard(&self, shard: u32) -> ShardOutcome {
        let context = self.context();
        let kernel = ShardKernel::new(&self.config, &context.bursts, &context.index);
        let rng = SimRng::seed_from(self.seed).fork(u64::from(shard));
        let mut scratch = KernelScratch::new();
        kernel.run_with(shard as usize, rng, &mut scratch)
    }

    fn run_shard_traced(&self, shard: u32, telemetry: TelemetryConfig) -> (ShardOutcome, Value) {
        let context = self.context();
        let kernel = ShardKernel::new(&self.config, &context.bursts, &context.index);
        let rng = SimRng::seed_from(self.seed).fork(u64::from(shard));
        let mut scratch = KernelScratch::new();
        let mut sink = ShardTelemetry::new(
            ShardParams {
                shard,
                shards: self.config.shards as u32,
                groups: kernel.groups_in_shard(shard as usize),
                // Same stride the engine's traced path uses: the widest
                // policy, identical to `group.replicas` for uniform fleets.
                replicas: self.config.slot_stride(),
                sites: self.config.topology.sites,
                horizon_hours: self.config.horizon_hours,
                scrub: self.config.detection_for_drive(0),
            },
            telemetry,
        );
        let outcome = kernel.run_probed(shard as usize, rng, &mut scratch, &mut sink);
        (outcome, sink.finish().to_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bursts::BurstProfile;
    use crate::config::RepairBandwidth;
    use crate::engine::{FleetSim, ShardCache};
    use crate::topology::FleetTopology;
    use ltds_sim::campaign::{CampaignDriver, MemorySink, RecordKind};
    use ltds_sim::config::SimConfig;

    fn scenario() -> FleetScenario {
        let topology = FleetTopology::new(2, 2, 2, 8).unwrap();
        let group =
            SimConfig::mirrored_disks(1000.0, 5000.0, 10.0, 10.0, Some(100.0), 1.0).unwrap();
        let fleet = FleetConfig::new(topology, 60, group)
            .unwrap()
            .with_horizon_hours(20_000.0)
            .with_shards(8)
            .with_bursts(BurstProfile::disaster_scenario())
            .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e9), 5e9);
        FleetScenario { name: "disaster".to_string(), fleet, seed: 7 }
    }

    fn campaign() -> FleetCampaign {
        Campaign { name: "fleet-test".to_string(), sweeps: Vec::new(), scenarios: vec![scenario()] }
    }

    #[test]
    fn campaign_shards_reproduce_the_engine_bit_for_bit() {
        let scenario = scenario();
        let engine = FleetSim::new(scenario.fleet).seed(scenario.seed).run().unwrap();

        let mut sink = MemorySink::new();
        let summary = CampaignDriver::new(&campaign()).threads(4).run(&mut sink).unwrap();
        assert_eq!(summary.units_total, scenario.fleet.shards);

        let outcomes: Vec<ShardOutcome> = sink
            .records()
            .iter()
            .map(|record| {
                assert_eq!(record.kind, RecordKind::FleetShard);
                assert_eq!(record.task, "disaster");
                ShardOutcome::from_value(&record.payload).unwrap()
            })
            .collect();
        let report = scenario.prepare().unwrap().report(&outcomes);
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&engine).unwrap(),
            "campaign shards merged in order must equal the engine's report"
        );
    }

    #[test]
    fn campaign_and_engine_share_cache_entries_both_ways() {
        let scenario = scenario();
        let cache = ShardCache::new();

        // Warm through the engine, consume through the campaign.
        FleetSim::new(scenario.fleet).seed(scenario.seed).run_cached(&cache).unwrap();
        cache.reset_counters();
        let campaign = campaign();
        let driver = CampaignDriver::new(&campaign).threads(2).shard_cache(&cache);
        let summary = driver.run(&mut MemorySink::new()).unwrap();
        assert_eq!(summary.cache_hits as usize, scenario.fleet.shards);
        assert_eq!(summary.cache_misses, 0);

        // Warm through the campaign, consume through the engine.
        let fresh = ShardCache::new();
        CampaignDriver::new(&campaign)
            .threads(2)
            .shard_cache(&fresh)
            .run(&mut MemorySink::new())
            .unwrap();
        fresh.reset_counters();
        let report = FleetSim::new(scenario.fleet).seed(scenario.seed).run_cached(&fresh).unwrap();
        assert_eq!(fresh.hits() as usize, scenario.fleet.shards);
        let cold = FleetSim::new(scenario.fleet).seed(scenario.seed).run().unwrap();
        assert_eq!(serde_json::to_string(&report).unwrap(), serde_json::to_string(&cold).unwrap());
    }

    #[test]
    fn report_collector_tees_and_merges_bit_identically_to_the_engine() {
        let scenario = scenario();
        let engine = FleetSim::new(scenario.fleet).seed(scenario.seed).run().unwrap();
        let campaign = campaign();

        let mut inner = MemorySink::new();
        let mut collector = FleetReportCollector::new(&mut inner);
        CampaignDriver::new(&campaign).threads(3).run(&mut collector).unwrap();
        let reports = collector.reports(&campaign).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].0, "disaster");
        assert_eq!(
            serde_json::to_string(&reports[0].1).unwrap(),
            serde_json::to_string(&engine).unwrap(),
            "collected shards merged in order must equal the engine's report"
        );
        // The tee is transparent: the inner sink saw the full stream.
        let mut plain = MemorySink::new();
        CampaignDriver::new(&campaign).threads(3).run(&mut plain).unwrap();
        assert_eq!(inner.to_jsonl(), plain.to_jsonl());
    }

    #[test]
    fn report_collector_skips_incomplete_scenarios() {
        let campaign = campaign();
        let mut inner = MemorySink::new();
        let mut collector = FleetReportCollector::new(&mut inner);
        // Kill the campaign after half the shards: no merged report.
        CampaignDriver::new(&campaign).threads(2).max_units(4).run(&mut collector).unwrap();
        assert!(collector.reports(&campaign).unwrap().is_empty());
    }

    #[test]
    fn telemetry_campaign_streams_traces_for_computed_shards_only() {
        let scenario = scenario();
        let campaign = campaign();
        let telemetry = TelemetryConfig::default().sample_period_hours(5000.0);

        let mut cold = MemorySink::new();
        CampaignDriver::new(&campaign).threads(3).telemetry(telemetry).run(&mut cold).unwrap();
        let traces = cold.records().iter().filter(|r| r.kind == RecordKind::ShardTrace).count();
        assert_eq!(traces, scenario.fleet.shards, "one trace per simulated shard");

        // Each trace rides directly behind its shard's result under the
        // same unit and key, and reconciles with that outcome.
        for (i, record) in cold.records().iter().enumerate() {
            if record.kind != RecordKind::ShardTrace {
                continue;
            }
            let prev = &cold.records()[i - 1];
            assert_eq!(prev.kind, RecordKind::FleetShard);
            assert_eq!(prev.unit, record.unit);
            assert_eq!(prev.key, record.key);
            let outcome = ShardOutcome::from_value(&prev.payload).unwrap();
            let trace = ltds_telemetry::ShardTrace::from_value(&record.payload).unwrap();
            assert_eq!(trace.summary.losses, outcome.losses);
            assert_eq!(trace.summary.faults, outcome.faults);
            assert_eq!(trace.summary.repairs, outcome.repairs);
            assert_eq!(trace.losses.len() as u64, outcome.losses, "one post-mortem per loss");
            assert!(!trace.samples.is_empty());
        }

        // The traced stream stays byte-identical across thread counts.
        for threads in [1usize, 8] {
            let mut sink = MemorySink::new();
            CampaignDriver::new(&campaign)
                .threads(threads)
                .telemetry(telemetry)
                .run(&mut sink)
                .unwrap();
            assert_eq!(sink.to_jsonl(), cold.to_jsonl(), "{threads} threads diverged");
        }

        // Cache hits were computed elsewhere: a warm rerun streams results
        // only, no traces.
        let cache = ShardCache::new();
        let driver = CampaignDriver::new(&campaign).shard_cache(&cache).telemetry(telemetry);
        driver.run(&mut MemorySink::new()).unwrap();
        let mut warm = MemorySink::new();
        let summary = driver.run(&mut warm).unwrap();
        assert_eq!(summary.cache_misses, 0);
        assert!(warm.records().iter().all(|r| r.kind != RecordKind::ShardTrace));
    }

    #[test]
    fn invalid_fleet_specs_fail_at_prepare() {
        let mut bad = scenario();
        bad.fleet.horizon_hours = -1.0;
        assert!(bad.prepare().is_err());
        let campaign =
            Campaign { name: "bad".to_string(), sweeps: Vec::new(), scenarios: vec![bad] };
        assert!(CampaignDriver::new(&campaign).run(&mut MemorySink::new()).is_err());
    }

    #[test]
    fn fleet_campaign_spec_roundtrips_through_json() {
        let campaign = campaign();
        let json = serde_json::to_string_pretty(&campaign).unwrap();
        let back: FleetCampaign = serde_json::from_str(&json).unwrap();
        assert_eq!(back.scenarios[0].name, "disaster");
        assert_eq!(
            back.scenarios[0].fleet.config_digest(),
            campaign.scenarios[0].fleet.config_digest(),
            "the spec must survive JSON with its content digest intact"
        );
    }
}
