//! Fleet-scale scenarios for the campaign driver.
//!
//! `ltds_sim::campaign` executes work units it can neither name nor build:
//! the [`Scenario`] trait is its only view of fleet-scale work. This module
//! is the fleet side of that contract:
//!
//! * [`FleetScenario`] — the serde-round-trippable spec (name + fleet
//!   config + seed) that rides inside a [`Campaign`];
//! * [`PreparedFleet`] — the validated, ready-to-run form, and the only
//!   code that draws the burst timeline, builds the placement index, runs
//!   a shard and folds a report ([`crate::FleetSim`] runs through it too);
//! * [`fleet_reports`] — folds a streamed campaign back into one merged
//!   [`FleetReport`] per scenario.
//!
//! A shard unit's [`CacheKey`] is exactly the key
//! [`crate::FleetSim::run_cached`] uses — `(FleetConfig digest, seed,
//! shard)` — so a campaign and a direct engine run share cache entries in
//! both directions and fold to the same bit-identical [`FleetReport`].

use crate::bursts::Burst;
use crate::config::FleetConfig;
use crate::kernel::{KernelScratch, ShardKernel};
use crate::placement::PlacementIndex;
use crate::report::{FleetReport, ShardOutcome};
use ltds_core::error::ModelError;
use ltds_sim::cache::{CacheKey, ConfigDigest};
use ltds_sim::campaign::{Campaign, PreparedScenario, RecordKind, Scenario, StreamRecord};
use ltds_stochastic::SimRng;
use ltds_telemetry::{ShardParams, ShardTelemetry, ShardTrace, TelemetryConfig};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// RNG sub-stream index reserved for the burst timeline (group shards use
/// `0..shards`, which never collides with this).
const BURST_STREAM: u64 = u64::MAX;

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

/// The executable form of a fleet run at one master seed: a validated
/// config plus the burst timeline and the placement index. Each is built
/// lazily by the first shard that needs it, so [`PreparedFleet::report`]
/// (which needs only the timeline) never builds the index.
pub struct PreparedFleet {
    config: FleetConfig,
    seed: u64,
    digest: u64,
    bursts: OnceLock<Vec<Burst>>,
    index: OnceLock<PlacementIndex>,
}

impl PreparedFleet {
    /// Validates `config` for a run at master seed `seed`.
    pub(crate) fn new(config: FleetConfig, seed: u64) -> Result<Self, ModelError> {
        config.validate()?;
        Ok(Self {
            config,
            seed,
            digest: config.config_digest(),
            bursts: OnceLock::new(),
            index: OnceLock::new(),
        })
    }

    /// The burst timeline, drawn from its own reserved sub-stream and
    /// shared by every shard: cross-group correlation is identical no
    /// matter how the fleet is partitioned, threaded or cached.
    fn bursts(&self) -> &[Burst] {
        self.bursts.get_or_init(|| {
            let mut rng = SimRng::seed_from(self.seed).fork(BURST_STREAM);
            self.config.bursts.timeline(&self.config.topology, self.config.horizon_hours, &mut rng)
        })
    }

    /// The shard kernel over the shared timeline and placement index
    /// (slot → drive, per-drive site/detection and, when bursts are
    /// active, the drive → slots CSR the burst path walks).
    fn kernel(&self) -> ShardKernel<'_> {
        let bursts = self.bursts();
        let index =
            self.index.get_or_init(|| PlacementIndex::build(&self.config, !bursts.is_empty()));
        ShardKernel::new(&self.config, bursts, index)
    }

    /// Simulates `shard` on its own RNG sub-stream, reusing `scratch` (one
    /// per worker) for the per-slot state.
    pub(crate) fn simulate(&self, shard: u32, scratch: &mut KernelScratch) -> ShardOutcome {
        let rng = SimRng::seed_from(self.seed).fork(u64::from(shard));
        self.kernel().run_with(shard as usize, rng, scratch)
    }

    /// [`PreparedFleet::simulate`] with telemetry probes: the same outcome
    /// bits, plus the shard's trace.
    pub(crate) fn simulate_traced(
        &self,
        shard: u32,
        telemetry: TelemetryConfig,
        scratch: &mut KernelScratch,
    ) -> (ShardOutcome, ShardTrace) {
        let kernel = self.kernel();
        let params = ShardParams {
            shard,
            shards: self.config.shards as u32,
            groups: kernel.groups_in_shard(shard as usize),
            // The telemetry grid is strided by the widest policy; the
            // kernel renumbers variable-width slots onto it (identity for
            // uniform fleets).
            replicas: self.config.slot_stride(),
            sites: self.config.topology.sites,
            horizon_hours: self.config.horizon_hours,
            // The scrub-progress gauge tracks drive 0's tour as the
            // fleet's representative phase.
            scrub: self.config.detection_for_drive(0),
        };
        let mut sink = ShardTelemetry::new(params, telemetry);
        let rng = SimRng::seed_from(self.seed).fork(u64::from(shard));
        let outcome = kernel.run_probed(shard as usize, rng, scratch, &mut sink);
        (outcome, sink.finish())
    }

    /// Folds per-shard outcomes (in shard order, as streamed by the
    /// campaign driver) into the run's report — bit-identical however the
    /// shards were threaded, cached or streamed, since the merge always
    /// walks shard order.
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
            bursts_struck: self.bursts().len() as u64,
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
        PreparedFleet::new(self.fleet, self.seed)
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
        self.simulate(shard, &mut KernelScratch::new())
    }

    fn run_shard_traced(&self, shard: u32, telemetry: TelemetryConfig) -> (ShardOutcome, Value) {
        let (outcome, trace) = self.simulate_traced(shard, telemetry, &mut KernelScratch::new());
        (outcome, trace.to_value())
    }
}

/// Folds a campaign stream's fleet-shard records into one merged
/// [`FleetReport`] per scenario of `campaign`, in spec order — each
/// bit-identical to what [`crate::FleetSim::run`] reports for that
/// scenario. Records arrive in unit order (the campaign driver's
/// contract), so each scenario's outcomes are already sorted by shard;
/// other record kinds are ignored. A scenario whose shards were not all
/// streamed (a truncated run) is skipped with a warning on stderr, and so
/// is a shard payload that does not parse.
pub fn fleet_reports(
    campaign: &FleetCampaign,
    records: &[StreamRecord],
) -> Result<Vec<(String, FleetReport)>, ModelError> {
    let mut by_task: BTreeMap<&str, Vec<ShardOutcome>> = BTreeMap::new();
    for record in records.iter().filter(|record| record.kind == RecordKind::FleetShard) {
        match ShardOutcome::from_value(&record.payload) {
            Ok(outcome) => by_task.entry(&record.task).or_default().push(outcome),
            // Never silent: a payload that stops parsing (schema drift)
            // would otherwise surface only as a misleading "streamed N of
            // M shards" warning below.
            Err(e) => eprintln!(
                "fleet-reports: cannot parse shard {} of `{}`: {e}",
                record.unit, record.task
            ),
        }
    }
    let mut out = Vec::new();
    for scenario in &campaign.scenarios {
        let Some(outcomes) = by_task.get(scenario.name.as_str()) else {
            eprintln!("fleet-reports: scenario `{}` streamed no shards", scenario.name);
            continue;
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
        out.push((scenario.name.clone(), scenario.prepare()?.report(outcomes)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bursts::BurstProfile;
    use crate::config::RepairBandwidth;
    use crate::engine::{FleetSim, ShardCache};
    use crate::topology::FleetTopology;
    use ltds_sim::campaign::{CampaignDriver, MemorySink};
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
    fn report_draws_the_timeline_but_never_builds_the_index() {
        let scenario = scenario();
        let prepared = scenario.prepare().unwrap();
        let report = prepared.report(&vec![ShardOutcome::default(); scenario.fleet.shards]);
        assert!(report.bursts_struck > 0, "the disaster scenario strikes bursts");
        assert!(prepared.index.get().is_none(), "a report must not build the placement index");
        prepared.run_shard(0);
        assert!(prepared.index.get().is_some());
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

        let mut sink = MemorySink::new();
        CampaignDriver::new(&campaign).threads(3).run(&mut sink).unwrap();
        // Fold the stream as `--fleet-reports` does: read back from JSONL.
        let records: Vec<StreamRecord> =
            sink.to_jsonl().lines().map(|line| serde_json::from_str(line).unwrap()).collect();
        let reports = fleet_reports(&campaign, &records).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].0, "disaster");
        assert_eq!(
            serde_json::to_string(&reports[0].1).unwrap(),
            serde_json::to_string(&engine).unwrap(),
            "folded shards must equal the engine's report"
        );
        // What is folded does not depend on the driver's thread count.
        let mut plain = MemorySink::new();
        CampaignDriver::new(&campaign).threads(1).run(&mut plain).unwrap();
        assert_eq!(sink.to_jsonl(), plain.to_jsonl());
    }

    #[test]
    fn report_collector_skips_incomplete_scenarios() {
        let campaign = campaign();
        let mut sink = MemorySink::new();
        // Kill the campaign after half the shards: no merged report.
        CampaignDriver::new(&campaign).threads(2).max_units(4).run(&mut sink).unwrap();
        assert_eq!(sink.records().len(), 4);
        assert!(fleet_reports(&campaign, sink.records()).unwrap().is_empty());
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
        // The traces ride beside the shard results without changing the fold.
        let engine = FleetSim::new(scenario.fleet).seed(scenario.seed).run().unwrap();
        let reports = fleet_reports(&campaign, cold.records()).unwrap();
        assert_eq!(
            serde_json::to_string(&reports[0].1).unwrap(),
            serde_json::to_string(&engine).unwrap()
        );

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
