//! Property-based tests for the content-addressed sweep cache: cache-warm
//! runs must be bit-identical to cold runs at every thread count, and
//! extending a grid axis must reuse (and count) everything already
//! simulated — including across an on-disk save/load boundary.

mod common;

use common::TempDir;
use ltds::fleet::{FleetConfig, FleetSim, FleetTopology, ShardCache};
use ltds::sim::cache::{ConfigDigest, SweepCache};
use ltds::sim::campaign::{
    Campaign, CampaignDriver, MemorySink, SweepAxis, SweepCampaign, SweepSpec,
};
use ltds::sim::config::SimConfig;
use proptest::prelude::*;

fn mirrored(mv: f64, ml: f64, scrub: f64, alpha: f64) -> SimConfig {
    SimConfig::mirrored_disks(mv, ml, 10.0, 10.0, Some(scrub), alpha)
        .expect("generated group is valid")
}

/// Small fragile fleets, as in `fleet_properties.rs`, so losses happen fast.
fn arb_fleet() -> impl Strategy<Value = FleetConfig> {
    (
        2usize..4,           // sites
        1usize..3,           // racks per site
        2usize..5,           // drives per node
        10usize..60,         // groups
        1usize..9,           // shards
        500.0..2_000.0f64,   // MV
        2_000.0..8_000.0f64, // ML
    )
        .prop_map(|(sites, racks, drives, groups, shards, mv, ml)| {
            let topology =
                FleetTopology::new(sites, racks, 1, drives).expect("generated topology is valid");
            FleetConfig::new(topology, groups, mirrored(mv, ml, 100.0, 1.0))
                .expect("generated fleet is valid")
                .with_horizon_hours(12_000.0)
                .with_shards(shards)
        })
}

proptest! {
    /// Refining a sweep: a one-sweep campaign over the superset grid, run
    /// against a cache warmed by the base grid, streams the same bytes as
    /// the cold superset run at 1, 2 and 8 threads; every base-grid point
    /// hits and only the extension simulates.
    #[test]
    fn warm_sweep_is_bit_identical_to_cold_across_thread_counts(
        seed in 0u64..1_000,
        base_len in 2usize..5,
        extra in 1usize..4,
    ) {
        let superset: Vec<f64> =
            (0..base_len + extra).map(|i| 50.0 + 75.0 * i as f64).collect();
        let scrub_sweep = |periods_hours: &[f64]| -> SweepCampaign {
            Campaign {
                name: "refine".to_string(),
                sweeps: vec![SweepSpec {
                    name: "scrub".to_string(),
                    base: mirrored(2_000.0, 2_000.0, 100.0, 1.0),
                    axis: SweepAxis::ScrubPeriod { periods_hours: periods_hours.to_vec() },
                    trials: 120,
                    seed,
                }],
                scenarios: Vec::new(),
            }
        };
        let (grid, refined) = (scrub_sweep(&superset[..base_len]), scrub_sweep(&superset));

        for threads in [1usize, 2, 8] {
            let mut cold = MemorySink::new();
            CampaignDriver::new(&refined).threads(threads).run(&mut cold).unwrap();

            let cache = SweepCache::new();
            let warm_up = CampaignDriver::new(&grid).threads(threads).point_cache(&cache);
            prop_assert_eq!(warm_up.run(&mut MemorySink::new()).unwrap().cache_misses, base_len as u64);
            let mut warm = MemorySink::new();
            let summary = CampaignDriver::new(&refined)
                .threads(threads)
                .point_cache(&cache)
                .run(&mut warm)
                .unwrap();
            prop_assert_eq!(summary.cache_hits, base_len as u64);
            prop_assert_eq!(summary.cache_misses, extra as u64);
            prop_assert_eq!(warm.to_jsonl(), cold.to_jsonl());
        }
    }

    /// A fleet run through a warmed shard cache is bit-identical to the
    /// cold run at every thread count, and reuses (cache-hit-counts) every
    /// shard already simulated.
    #[test]
    fn warm_fleet_run_is_bit_identical_across_thread_counts(
        config in arb_fleet(),
        seed in 0u64..1_000,
    ) {
        let cold = FleetSim::new(config).seed(seed).threads(1).run().unwrap();
        let cold_json = serde_json::to_string(&cold).unwrap();

        let cache = ShardCache::new();
        for threads in [1usize, 2, 8] {
            let warm =
                FleetSim::new(config).seed(seed).threads(threads).run_cached(&cache).unwrap();
            prop_assert_eq!(
                serde_json::to_string(&warm).unwrap(),
                cold_json.clone(),
                "thread count {} diverged from the cold report",
                threads
            );
        }
        // First pass filled the cache; the two warm reruns hit every shard.
        prop_assert_eq!(cache.len(), config.shards);
        prop_assert_eq!(cache.hits(), 2 * config.shards as u64);
        prop_assert_eq!(cache.misses(), config.shards as u64);
    }

    /// The PR 3 warm==cold property, extended across a save/load boundary:
    /// a shard cache persisted to disk and loaded by a "new process" must
    /// reproduce the cold report bit-identically at every thread count,
    /// hitting every shard.
    #[test]
    fn persisted_shard_cache_is_bit_identical_across_a_process_boundary(
        config in arb_fleet(),
        seed in 0u64..1_000,
    ) {
        let cold = FleetSim::new(config).seed(seed).threads(1).run().unwrap();
        let cold_json = serde_json::to_string(&cold).unwrap();

        // Fill via write-through (the incremental persistence path).
        let dir = TempDir::new("sweep");
        let cache = ShardCache::new();
        cache.write_through(dir.path()).unwrap();
        FleetSim::new(config).seed(seed).run_cached(&cache).unwrap();

        // A full snapshot must load back just the same as the appends.
        let snapshot = TempDir::new("sweep-snap");
        assert_eq!(cache.persist_dir(snapshot.path()).unwrap(), config.shards);

        for source in [&dir, &snapshot] {
            for threads in [1usize, 2, 8] {
                let reloaded = ShardCache::new();
                let stats = reloaded.load_dir(source.path()).unwrap();
                prop_assert_eq!(stats.loaded, config.shards);
                prop_assert_eq!(stats.skipped, 0);
                let warm = FleetSim::new(config)
                    .seed(seed)
                    .threads(threads)
                    .run_cached(&reloaded)
                    .unwrap();
                prop_assert_eq!(reloaded.hits() as usize, config.shards);
                prop_assert_eq!(reloaded.misses(), 0);
                prop_assert_eq!(
                    serde_json::to_string(&warm).unwrap(),
                    cold_json.clone(),
                    "reloaded cache diverged at {} threads",
                    threads
                );
            }
        }
    }

    /// Growing the fleet (a config change) shares nothing; re-running any
    /// config already seen reuses all of its shards, keyed by content.
    #[test]
    fn distinct_configs_key_disjoint_shard_sets(config in arb_fleet(), seed in 0u64..1_000) {
        let grown = config.with_horizon_hours(config.horizon_hours + 1_000.0);
        prop_assert_ne!(config.config_digest(), grown.config_digest());

        let cache = ShardCache::new();
        FleetSim::new(config).seed(seed).run_cached(&cache).unwrap();
        FleetSim::new(grown).seed(seed).run_cached(&cache).unwrap();
        prop_assert_eq!(cache.len(), 2 * config.shards, "no cross-config sharing");
        prop_assert_eq!(cache.hits(), 0);

        FleetSim::new(config).seed(seed).run_cached(&cache).unwrap();
        prop_assert_eq!(cache.hits(), config.shards as u64);
    }
}
