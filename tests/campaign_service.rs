//! Integration test of the fault-tolerant campaign service: the
//! deterministic chaos harness driving fleet scenarios — the streamed
//! report and the merged fleet reports derived from it must be
//! byte-identical to the in-process driver's. `tests/campaign_tcp.rs`
//! drives the same service over real sockets.

use ltds::fleet::{FleetCampaign, FleetConfig, FleetReportCollector, FleetScenario, FleetTopology};
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

#[test]
fn fleet_reports_merge_identically_under_worker_crashes() {
    let campaign = small_campaign(31);

    // Reference: merged per-scenario reports from a clean driver run.
    let mut reference_sink = MemorySink::new();
    let mut collector = FleetReportCollector::new(&mut reference_sink);
    CampaignDriver::new(&campaign).threads(2).run(&mut collector).unwrap();
    let reference: Vec<(String, String)> = collector
        .reports(&campaign)
        .unwrap()
        .into_iter()
        .map(|(name, report)| (name, serde_json::to_string(&report).unwrap()))
        .collect();
    assert!(!reference.is_empty());

    // Chaos: workers crash on two units (once each) and respawn; the
    // re-issued leases must leave the merged reports bit-identical.
    let mut sink = MemorySink::new();
    let mut collector = FleetReportCollector::new(&mut sink);
    let summary = ServiceHarness::new(&campaign, 3)
        .chaos(
            0,
            ChaosScript { kill_on_units: vec![1, 4], kill_budget: 2, ..ChaosScript::default() },
        )
        .config(ServiceConfig { fallback_ticks: None, ..ServiceConfig::default() })
        .run(&mut collector)
        .unwrap();
    let chaotic: Vec<(String, String)> = collector
        .reports(&campaign)
        .unwrap()
        .into_iter()
        .map(|(name, report)| (name, serde_json::to_string(&report).unwrap()))
        .collect();

    assert_eq!(chaotic, reference, "crash recovery changed a merged fleet report");
    assert_eq!(summary.units_done, summary.units_total);
    assert_eq!(sink.to_jsonl(), driver_reference(&campaign));
}
