//! Integration test of the fault-tolerant campaign service: the
//! deterministic chaos harness driving fleet scenarios — the streamed
//! report and the merged fleet reports derived from it must be
//! byte-identical to the in-process driver's. `tests/campaign_tcp.rs`
//! drives the same service over real sockets.

use ltds::fleet::{fleet_reports, FleetCampaign, FleetConfig, FleetScenario, FleetTopology};
use ltds::sim::campaign::{Campaign, CampaignDriver, MemorySink, SweepAxis, SweepSpec};
use ltds::sim::config::SimConfig;
use ltds::sim::service::{ChaosScript, ServiceConfig, ServiceHarness};

/// A small mixed campaign (sweep points plus fleet shards), fast enough to
/// run several times per test.
fn small_campaign(seed: u64) -> FleetCampaign {
    let group = SimConfig::mirrored_disks(1_000.0, 5_000.0, 10.0, 10.0, Some(100.0), 1.0)
        .expect("valid group");
    let topology = FleetTopology::new(2, 2, 1, 4).expect("valid topology");
    let fleet = FleetConfig::new(topology, 12, group)
        .expect("valid fleet")
        .with_horizon_hours(8_000.0)
        .with_shards(3);
    Campaign {
        name: "service-e2e".to_string(),
        sweeps: vec![SweepSpec {
            name: "scrub".to_string(),
            base: group,
            axis: SweepAxis::ScrubPeriod { periods_hours: vec![40.0, 400.0, f64::INFINITY] },
            trials: 80,
            seed,
        }],
        scenarios: vec![FleetScenario { name: "fleet".to_string(), fleet, seed }],
    }
}

fn driver_reference(campaign: &FleetCampaign) -> String {
    let mut sink = MemorySink::new();
    CampaignDriver::new(campaign).threads(1).run(&mut sink).unwrap();
    sink.to_jsonl()
}

/// The merged fleet reports of a streamed run, as JSON text per scenario.
fn merged_reports(campaign: &FleetCampaign, sink: &MemorySink) -> Vec<(String, String)> {
    fleet_reports(campaign, sink.records())
        .unwrap()
        .into_iter()
        .map(|(name, report)| (name, serde_json::to_string(&report).unwrap()))
        .collect()
}

#[test]
fn fleet_reports_merge_identically_under_worker_crashes() {
    let campaign = small_campaign(31);

    // Reference: merged per-scenario reports from a clean driver run.
    let mut reference_sink = MemorySink::new();
    CampaignDriver::new(&campaign).threads(2).run(&mut reference_sink).unwrap();
    let reference = merged_reports(&campaign, &reference_sink);
    assert!(!reference.is_empty());

    // Chaos: workers crash on two units (once each) and respawn; the
    // re-issued leases must leave the merged reports bit-identical.
    let mut sink = MemorySink::new();
    let summary = ServiceHarness::new(&campaign, 3)
        .chaos(
            0,
            ChaosScript { kill_on_units: vec![1, 4], kill_budget: 2, ..ChaosScript::default() },
        )
        .config(ServiceConfig { fallback_ticks: None, ..ServiceConfig::default() })
        .run(&mut sink)
        .unwrap();
    let chaotic = merged_reports(&campaign, &sink);

    assert_eq!(chaotic, reference, "crash recovery changed a merged fleet report");
    assert_eq!(summary.units_done, summary.units_total);
    assert_eq!(sink.to_jsonl(), driver_reference(&campaign));
}

#[test]
fn fallback_runs_fleet_shards_as_workers_do() {
    // No worker ever registers: the fallback must run every sweep point and
    // fleet shard in-process, and stream what the driver streams.
    let campaign = small_campaign(37);
    let mut reference_sink = MemorySink::new();
    CampaignDriver::new(&campaign).threads(2).run(&mut reference_sink).unwrap();

    let mut sink = MemorySink::new();
    let summary = ServiceHarness::new(&campaign, 0).run(&mut sink).unwrap();
    assert_eq!(sink.to_jsonl(), reference_sink.to_jsonl());
    assert_eq!(merged_reports(&campaign, &sink), merged_reports(&campaign, &reference_sink));
    assert_eq!(summary.workers_seen, 0);
    assert_eq!(summary.degraded_units, summary.units_total);
}
