//! Canonical workloads, shared by the experiments, the campaign and trace
//! binaries and the repository benchmark (`perfbench/`), so that "the
//! fleet-year benchmark" always means the same configuration everywhere
//! numbers are reported.

use ltds_fleet::{
    BurstProfile, FleetCampaign, FleetConfig, FleetScenario, FleetTopology, RedundancyPolicy,
    RepairBandwidth,
};
use ltds_sim::campaign::{Campaign, SweepAxis, SweepSpec};
use ltds_sim::config::{DetectionModel, RareEventStrategy, SimConfig};

/// One year of an enterprise-grade 1 000-drive fleet (5 sites × 5 racks ×
/// 5 nodes × 8 drives) carrying `groups` triplicated groups under the
/// disaster burst profile and a wide (non-binding) repair pipeline.
pub fn fleet_year(groups: usize) -> FleetConfig {
    let topology = FleetTopology::new(5, 5, 5, 8).expect("valid topology");
    let group = SimConfig::new(
        3,
        1,
        1.4e6,
        2.8e5,
        12.0,
        12.0,
        DetectionModel::PeriodicScrub { period_hours: 2_920.0 },
        1.0,
    )
    .expect("valid group");
    FleetConfig::new(topology, groups, group)
        .expect("valid fleet")
        .with_horizon_hours(ltds_core::units::HOURS_PER_YEAR)
        .with_bursts(BurstProfile::disaster_scenario())
        .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e12), 1e12)
}

/// Master seed of the E15 disaster runs (and of `ltds-trace gen e15`), so
/// traces generated by the CLI describe exactly the fleet the experiment
/// reports on.
pub const E15_SEED: u64 = 15;

/// One year of the E15 disaster fleet: 120 drives across three sites
/// carrying 2 000 `replicas`-way groups, hit by site-level disasters
/// (~2 expected in the horizon) plus steady rack/node/drive trouble, with
/// every restoration queueing through `bandwidth`. Shared by the E15
/// experiment and the `ltds-trace` binary.
pub fn disaster_fleet(replicas: usize, bandwidth: RepairBandwidth) -> FleetConfig {
    let topology = FleetTopology::new(3, 2, 2, 10).expect("valid topology");
    let group = SimConfig::new(
        replicas,
        1,
        50_000.0,
        50_000.0,
        24.0,
        24.0,
        DetectionModel::PeriodicScrub { period_hours: 730.0 },
        1.0,
    )
    .expect("valid group");
    let bursts = BurstProfile {
        site_mtbf_hours: Some(ltds_core::units::HOURS_PER_YEAR / 2.0),
        rack_mtbf_hours: Some(1_000.0),
        node_mtbf_hours: Some(500.0),
        drive_mtbf_hours: Some(300.0),
    };
    FleetConfig::new(topology, 2_000, group)
        .expect("valid fleet")
        .with_horizon_hours(ltds_core::units::HOURS_PER_YEAR)
        .with_bursts(bursts)
        .with_repair_bandwidth(bandwidth, 2.0e10)
}

/// Master seed of the E16 policy-tradeoff runs.
pub const E16_SEED: u64 = 16;

/// One year of the E16 policy fleet: the E15 disaster topology and burst
/// mix with a constrained repair pipeline, carrying 2 000 groups under
/// `policy`. `Replicated { n: 3 }` and `ErasureCoded { k: 2, n: 6 }` both
/// store 3.0× the user bytes, so comparing them here isolates the policy
/// from the storage budget.
pub fn e16_policy_fleet(policy: RedundancyPolicy) -> FleetConfig {
    disaster_fleet(3, RepairBandwidth::PerSiteBytesPerHour(2.0e10)).with_policy(policy)
}

/// The hybrid E16 arm: the same fleet with the first 1 000 groups
/// triplicated and the next 1 000 erasure-coded 2-of-6 — one engine run,
/// per-policy tallies split by band.
pub fn e16_hybrid_fleet() -> FleetConfig {
    disaster_fleet(3, RepairBandwidth::PerSiteBytesPerHour(2.0e10))
        .with_group_policies(&[
            (1_000, RedundancyPolicy::Replicated { n: 3 }),
            (1_000, RedundancyPolicy::ErasureCoded { k: 2, n: 6 }),
        ])
        .expect("valid hybrid fleet")
}

/// The erasure-coded twin of [`fleet_year`]: identical topology, group
/// count and slot width (2-of-3 coding occupies three slots exactly as
/// triplication does), but running through the banded kernel path with
/// fragment-fan-in rebuilds. Comparing the two therefore measures the
/// policy machinery's overhead, not a bigger fleet.
pub fn fleet_year_ec(groups: usize) -> FleetConfig {
    fleet_year(groups).with_policy(RedundancyPolicy::ErasureCoded { k: 2, n: 3 })
}

/// A small fleet with absurdly fragile drives: almost all time is spent in
/// the event loop, so this measures raw kernel (queue) throughput rather
/// than the setup path.
pub fn event_dense_fleet() -> FleetConfig {
    let topology = FleetTopology::new(2, 2, 2, 8).expect("valid topology");
    let group =
        SimConfig::mirrored_disks(200.0, 1_000.0, 2.0, 2.0, Some(50.0), 1.0).expect("valid group");
    FleetConfig::new(topology, 2_000, group).expect("valid fleet").with_horizon_hours(8_766.0)
}

/// A single-shard fleet whose event-queue occupancy (~12k concurrent
/// events) crosses the adaptive scheduler's calendar-migration threshold:
/// this is the large-occupancy regime where the calendar queue's amortised
/// O(1) scheduling beats the heap's O(log n) sift paths.
pub fn event_dense_single_shard() -> FleetConfig {
    let topology = FleetTopology::new(2, 2, 2, 8).expect("valid topology");
    let group = SimConfig::mirrored_disks(2_000.0, 8_000.0, 5.0, 5.0, Some(400.0), 1.0)
        .expect("valid group");
    FleetConfig::new(topology, 6_000, group)
        .expect("valid fleet")
        .with_horizon_hours(8_766.0)
        .with_shards(1)
}

/// A mid-density sharded fleet (5 000 fragile groups over the default 64
/// shards): per-shard queues sit right around the heap → calendar
/// migration threshold, so this measures the adaptive scheduler's
/// crossover regime that neither `event_dense_2k` (small heaps) nor
/// `dense_1shard` (one huge calendar) covers.
pub fn event_dense_fleet_5k() -> FleetConfig {
    let topology = FleetTopology::new(2, 2, 2, 8).expect("valid topology");
    let group =
        SimConfig::mirrored_disks(300.0, 1_500.0, 3.0, 3.0, Some(80.0), 1.0).expect("valid group");
    FleetConfig::new(topology, 5_000, group).expect("valid fleet").with_horizon_hours(8_766.0)
}

/// The canonical per-group Monte-Carlo configuration: a fragile scrubbed
/// mirror whose trials finish in microseconds, so a 10k-trial run measures
/// the per-trial hot path rather than any single enormous trial.
pub fn mc_group() -> SimConfig {
    SimConfig::mirrored_disks(1_000.0, 5_000.0, 10.0, 10.0, Some(100.0), 1.0).expect("valid config")
}

/// Canonical importance tilt for the rare-event workloads: strong enough
/// that the pinned rare config loses data in a healthy fraction of tilted
/// trials, mild enough that the likelihood-ratio weights stay tame (loss
/// paths span a few thousand hours against a ~233k-hour nominal combined
/// mean, so per-draw log-weights stay well under 2).
pub const RARE_TILT: f64 = 30.0;

/// The pinned rare-event configuration: the paper's scrubbed Cheetah
/// mirror (§5.4 — closed-form MTTDL ≈ 5 100 years) over a one-year
/// mission. P\[loss\] ≈ 2×10⁻⁴, so vanilla Monte Carlo censors ≥ 99.9 % of
/// trials — the regime the accelerated strategies exist for.
pub fn mc_rare_group() -> SimConfig {
    SimConfig::mirrored_disks(1.4e6, 2.8e5, 0.33, 0.33, Some(2_920.0), 1.0)
        .expect("valid config")
        .with_max_hours(ltds_core::units::HOURS_PER_YEAR)
}

/// Trial budget of each point in the canonical scrub-period sweep — small
/// enough that a grid runs in tens of milliseconds, large enough that the
/// per-point Monte-Carlo cost dwarfs cache bookkeeping.
pub const SWEEP_TRIALS: u64 = 600;

/// Master seed of the canonical sweep workloads.
pub const SWEEP_SEED: u64 = 1;

/// The canonical 12-point scrub-period grid (hours, log-spaced 20 → 2000).
pub fn sweep_grid() -> Vec<f64> {
    let lo = 20.0f64;
    let hi = 2_000.0f64;
    (0..12).map(|i| lo * (hi / lo).powf(i as f64 / 11.0)).collect()
}

/// The canonical demo campaign: three named sweeps over the canonical
/// Monte-Carlo group (the scrub-period grid, a replication sweep under
/// correlation, an α sweep) plus one fleet scenario — a 16-shard year of
/// the 10k-group enterprise fleet. Used by the `campaign` binary's
/// `--builtin demo` spec, the repository benchmark and the CI persistence
/// job, so "the demo campaign" is the same work everywhere it is reported.
pub fn demo_campaign() -> FleetCampaign {
    Campaign {
        name: "demo".to_string(),
        sweeps: vec![
            SweepSpec {
                name: "scrub_period".to_string(),
                base: mc_group(),
                axis: SweepAxis::ScrubPeriod { periods_hours: sweep_grid() },
                trials: SWEEP_TRIALS,
                seed: SWEEP_SEED,
            },
            SweepSpec {
                name: "replication".to_string(),
                base: mc_group(),
                axis: SweepAxis::Replication { replica_counts: vec![1, 2, 3, 4], alpha: 0.5 },
                trials: SWEEP_TRIALS,
                seed: 2,
            },
            SweepSpec {
                name: "alpha".to_string(),
                base: mc_group(),
                axis: SweepAxis::Alpha { alphas: vec![1.0, 0.5, 0.1, 0.05] },
                trials: SWEEP_TRIALS,
                seed: 3,
            },
        ],
        scenarios: vec![FleetScenario {
            name: "fleet_year_10k".to_string(),
            fleet: fleet_year(10_000).with_shards(16),
            seed: 1,
        }],
    }
}

/// The rare-event demo campaign: two sweeps over the pinned rare config
/// (scrub period and correlation) under the strategy passed in. The
/// `campaign` binary exposes the importance-sampled variant as
/// `--spec demo-rare` and the vanilla twin as `--spec demo-rare-vanilla`;
/// CI runs both against one shared cache directory to prove entries from
/// different estimators never answer for each other.
pub fn demo_rare_campaign(strategy: RareEventStrategy) -> FleetCampaign {
    let base = mc_rare_group().with_strategy(strategy);
    let name = match strategy {
        RareEventStrategy::Vanilla => "demo-rare-vanilla",
        _ => "demo-rare",
    };
    Campaign {
        name: name.to_string(),
        sweeps: vec![
            SweepSpec {
                name: "scrub_period".to_string(),
                base,
                axis: SweepAxis::ScrubPeriod { periods_hours: vec![1_460.0, 2_920.0, 5_840.0] },
                trials: SWEEP_TRIALS,
                seed: SWEEP_SEED,
            },
            SweepSpec {
                name: "alpha".to_string(),
                base,
                axis: SweepAxis::Alpha { alphas: vec![1.0, 0.5, 0.2] },
                trials: SWEEP_TRIALS,
                seed: 2,
            },
        ],
        scenarios: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltds_fleet::FleetSim;
    use ltds_sim::monte_carlo::MonteCarlo;

    #[test]
    fn canonical_workloads_are_valid() {
        assert!(fleet_year(100).validate().is_ok());
        assert!(event_dense_fleet().validate().is_ok());
        assert_eq!(fleet_year(100).topology.total_drives(), 1_000);
        assert_eq!(mc_group().replicas, 2);
    }

    #[test]
    fn demo_campaign_is_valid_and_roundtrips() {
        let campaign = demo_campaign();
        assert_eq!(campaign.sweeps.len(), 3);
        assert_eq!(campaign.scenarios.len(), 1);
        assert!(campaign.scenarios[0].fleet.validate().is_ok());
        let json = serde_json::to_string(&campaign).unwrap();
        let back: FleetCampaign = serde_json::from_str(&json).unwrap();
        assert_eq!(back.sweeps[0].name, "scrub_period");
        assert_eq!(back.scenarios[0].fleet.shards, 16);
    }

    #[test]
    fn erasure_coded_year_simulates_at_most_1_3x_the_replicated_events() {
        // Same fleet, same seed, only the policy differs: the banded path
        // must not multiply the events the kernel handles (40 320 coded vs
        // 40 316 replicated). Per-event cost is timed by the repository
        // benchmark's `fleet` workload, which runs both designs.
        let events = |config| FleetSim::new(config).seed(1).run().unwrap().totals.events;
        let replicated = events(fleet_year(100_000));
        let coded = events(fleet_year_ec(100_000));
        assert!(
            coded as f64 <= 1.3 * replicated as f64,
            "EC year simulated {coded} events vs {replicated} replicated"
        );
    }

    #[test]
    fn rare_workload_is_genuinely_rare_for_vanilla_and_common_when_tilted() {
        let vanilla = MonteCarlo::new(mc_rare_group()).trials(4_000).seed(1).run();
        assert!(
            vanilla.censoring_fraction() > 0.999,
            "the rare config must censor >99.9% of vanilla trials, got {}",
            vanilla.censoring_fraction()
        );
        let tilted_config = mc_rare_group()
            .with_strategy(RareEventStrategy::ImportanceSampling { tilt: RARE_TILT });
        let tilted = MonteCarlo::new(tilted_config).trials(4_000).seed(1).run();
        assert!(
            tilted.completed_trials > 100,
            "the canonical tilt should surface hundreds of losses, got {}",
            tilted.completed_trials
        );
        assert!(tilted.effective_sample_size > 50.0);
        assert!(
            tilted.variance_ratio_vs_vanilla.unwrap_or(0.0) > 10.0,
            "variance ratio {:?} must clear the 10x floor",
            tilted.variance_ratio_vs_vanilla
        );
    }

    #[test]
    fn rare_demo_campaigns_differ_only_in_strategy() {
        let is = demo_rare_campaign(RareEventStrategy::ImportanceSampling { tilt: RARE_TILT });
        let vanilla = demo_rare_campaign(RareEventStrategy::Vanilla);
        assert_eq!(is.sweeps.len(), vanilla.sweeps.len());
        for (a, b) in is.sweeps.iter().zip(&vanilla.sweeps) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.trials, b.trials);
            assert_ne!(a.base.strategy, b.base.strategy);
        }
        let json = serde_json::to_string(&is).unwrap();
        let back: FleetCampaign = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.sweeps[0].base.strategy,
            RareEventStrategy::ImportanceSampling { tilt: RARE_TILT }
        );
    }
}
