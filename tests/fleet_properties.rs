//! Property-based tests over the fleet simulation kernel and its
//! schedulers.

use ltds::fleet::queue::{BinaryHeapQueue, EventKind, EventQueue};
use ltds::fleet::{
    BurstProfile, ConfigDigest, FleetConfig, FleetSim, FleetTopology, RedundancyPolicy,
    RepairBandwidth,
};
use ltds::sim::config::SimConfig;
use ltds::stochastic::DrawDiscipline;
use proptest::prelude::*;

/// Strategy producing small, fragile fleets that lose data within a short
/// horizon (so the properties see real losses without long runtimes).
fn arb_fleet() -> impl Strategy<Value = FleetConfig> {
    (
        2usize..5,           // sites
        1usize..3,           // racks per site
        1usize..3,           // nodes per rack
        2usize..6,           // drives per node
        10usize..80,         // groups
        1usize..9,           // shards
        500.0..2_000.0f64,   // MV
        2_000.0..8_000.0f64, // ML
        0.1..1.0f64,         // alpha
    )
        .prop_map(|(sites, racks, nodes, drives, groups, shards, mv, ml, alpha)| {
            let topology = FleetTopology::new(sites, racks, nodes, drives)
                .expect("generated topology is valid");
            let group = SimConfig::mirrored_disks(mv, ml, 10.0, 10.0, Some(100.0), alpha)
                .expect("generated group is valid");
            FleetConfig::new(topology, groups, group)
                .expect("generated fleet is valid")
                .with_horizon_hours(15_000.0)
                .with_shards(shards)
        })
}

/// One random scheduler operation: `(time_quarters, op, slot)`.
///
/// * `op == 0` → pop (compare across schedulers);
/// * `op == 1` → bump the slot's token (staleness: pending events of the
///   slot become stale and must be *skipped* identically by both sides);
/// * otherwise → push a `Fault { slot }` at `time_quarters / 4.0` hours
///   carrying the slot's current token. The coarse quarter-hour grid
///   forces plenty of exact time ties, which only the insertion-sequence
///   tie-break can order.
type QueueOp = (u32, u8, u8);

const OP_SLOTS: usize = 8;

/// Drives the same op sequence through the calendar-backed [`EventQueue`]
/// and the reference [`BinaryHeapQueue`], checking that every pop —
/// including the final drain, and the kernel-style stale-token filter —
/// yields the identical event sequence.
fn assert_schedulers_equivalent(ops: &[QueueOp]) -> Result<(), TestCaseError> {
    let mut calendar = EventQueue::calendar_backed();
    let mut heap = BinaryHeapQueue::new();
    let mut tokens = [0u32; OP_SLOTS];
    let mut fired_calendar: Vec<(u64, u64)> = Vec::new();
    let mut fired_heap: Vec<(u64, u64)> = Vec::new();

    // The kernel's lazy-invalidation filter: an event fires only if the
    // slot's token still matches the one captured at scheduling.
    let fire = |event: &ltds::fleet::queue::Event, tokens: &[u32; OP_SLOTS]| match event.kind {
        EventKind::Fault { slot } => {
            if tokens[slot as usize] == event.token {
                Some((event.time.to_bits(), event.seq()))
            } else {
                None
            }
        }
        _ => unreachable!("only Fault events are scheduled"),
    };

    for &(time_quarters, op, slot) in ops {
        let slot = slot as usize % OP_SLOTS;
        match op {
            0 => {
                let a = calendar.pop();
                let b = heap.pop();
                match (&a, &b) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.time.to_bits(), b.time.to_bits());
                        prop_assert_eq!(a.seq(), b.seq());
                        prop_assert_eq!(a.token, b.token);
                        prop_assert_eq!(a.kind, b.kind);
                    }
                    _ => prop_assert!(false, "one scheduler drained before the other"),
                }
                if let (Some(a), Some(b)) = (a, b) {
                    fired_calendar.extend(fire(&a, &tokens));
                    fired_heap.extend(fire(&b, &tokens));
                }
            }
            1 => tokens[slot] = tokens[slot].wrapping_add(1),
            _ => {
                let time = f64::from(time_quarters % 400) / 4.0;
                let kind = EventKind::Fault { slot: slot as u32 };
                calendar.push(time, tokens[slot], kind);
                heap.push(time, tokens[slot], kind);
            }
        }
    }

    prop_assert_eq!(calendar.len(), heap.len());
    loop {
        match (calendar.pop(), heap.pop()) {
            (None, None) => break,
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.time.to_bits(), b.time.to_bits());
                prop_assert_eq!(a.seq(), b.seq());
                fired_calendar.extend(fire(&a, &tokens));
                fired_heap.extend(fire(&b, &tokens));
            }
            _ => prop_assert!(false, "one scheduler drained before the other"),
        }
    }
    prop_assert_eq!(fired_calendar, fired_heap);
    Ok(())
}

/// The workspace-standard FNV-1a, for pinning report digests.
use ltds::core::hash::fnv1a;

proptest! {
    #[test]
    fn calendar_queue_matches_binary_heap_reference(
        ops in proptest::collection::vec((0u32..1600, 0u8..6, 0u8..8), 1..600),
    ) {
        assert_schedulers_equivalent(&ops)?;
    }

    #[test]
    fn results_are_bit_identical_across_thread_counts(config in arb_fleet(), seed in 0u64..1_000) {
        let one = FleetSim::new(config).seed(seed).threads(1).run().unwrap();
        let many = FleetSim::new(config).seed(seed).threads(5).run().unwrap();
        prop_assert_eq!(one.totals.losses, many.totals.losses);
        prop_assert_eq!(one.totals.faults, many.totals.faults);
        prop_assert_eq!(one.totals.repairs, many.totals.repairs);
        prop_assert_eq!(one.totals.events, many.totals.events);
        prop_assert_eq!(
            one.totals.loss_intervals.mean().to_bits(),
            many.totals.loss_intervals.mean().to_bits()
        );
        prop_assert_eq!(
            one.totals.repair_wait.count(),
            many.totals.repair_wait.count()
        );
    }

    #[test]
    fn bursty_configs_are_also_thread_count_invariant(config in arb_fleet(), seed in 0u64..1_000) {
        let config = config
            .with_bursts(BurstProfile::disaster_scenario())
            .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e9), 5e9);
        let one = FleetSim::new(config).seed(seed).threads(1).run().unwrap();
        let many = FleetSim::new(config).seed(seed).threads(4).run().unwrap();
        prop_assert_eq!(one.totals.losses, many.totals.losses);
        prop_assert_eq!(one.totals.burst_faults, many.totals.burst_faults);
        prop_assert_eq!(one.totals.events, many.totals.events);
        prop_assert_eq!(
            one.totals.repair_wait.mean().to_bits(),
            many.totals.repair_wait.mean().to_bits()
        );
    }

    #[test]
    fn tighter_repair_bandwidth_never_increases_fleet_mttdl(
        seed in 0u64..1_000,
        rate in 5e8..5e9f64,
    ) {
        // A fixed, burst-heavy fleet where bandwidth genuinely binds: the
        // same seed run at rate R and R/8 must show at least as many losses
        // in the tighter configuration (allowing a small slack for sample-
        // path divergence after the first queueing difference).
        let topology = FleetTopology::new(3, 2, 2, 6).unwrap();
        let group = SimConfig::mirrored_disks(20_000.0, 20_000.0, 12.0, 12.0, Some(365.0), 1.0)
            .unwrap();
        let base = FleetConfig::new(topology, 400, group)
            .unwrap()
            .with_horizon_hours(8_766.0)
            .with_bursts(BurstProfile {
                site_mtbf_hours: Some(4_000.0),
                rack_mtbf_hours: Some(1_000.0),
                node_mtbf_hours: None,
                drive_mtbf_hours: None,
            });
        let loose = base.with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(rate), 1e10);
        let tight =
            base.with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(rate / 8.0), 1e10);
        let loose_report = FleetSim::new(loose).seed(seed).run().unwrap();
        let tight_report = FleetSim::new(tight).seed(seed).run().unwrap();
        // Equivalent to MTTDL_tight <= MTTDL_loose (same exposure), with
        // slack: less bandwidth must never *help* beyond path noise.
        prop_assert!(
            tight_report.totals.losses + 2 >= loose_report.totals.losses,
            "tight bandwidth lost {} groups, loose lost {}",
            tight_report.totals.losses,
            loose_report.totals.losses
        );
    }

    /// The two draw disciplines consume the RNG differently but sample the
    /// same joint event distribution, so fleet aggregates must agree
    /// statistically: same exposure, loss counts within Poisson noise of
    /// each other, fault counts within a few percent.
    #[test]
    fn draw_disciplines_agree_statistically_on_fleet_aggregates(seed in 0u64..500) {
        let topology = FleetTopology::new(2, 2, 2, 6).unwrap();
        let group = SimConfig::mirrored_disks(900.0, 4_000.0, 10.0, 10.0, Some(100.0), 0.7)
            .unwrap();
        let base = FleetConfig::new(topology, 150, group)
            .unwrap()
            .with_horizon_hours(20_000.0)
            .with_shards(8);
        let mut scalar_cfg = base;
        scalar_cfg.group = group.with_draw(DrawDiscipline::Scalar);
        let mut ziggurat_cfg = base;
        ziggurat_cfg.group = group.with_draw(DrawDiscipline::Ziggurat);
        let scalar = FleetSim::new(scalar_cfg).seed(seed).run().unwrap();
        let ziggurat = FleetSim::new(ziggurat_cfg).seed(seed + 1).run().unwrap();
        // Loss counts are sums of many i.i.d. renewals: compare with a
        // generous gate of several standard deviations (√n Poisson noise).
        let (a, b) = (scalar.totals.losses as f64, ziggurat.totals.losses as f64);
        prop_assert!(a > 50.0 && b > 50.0, "fleet too quiet to compare: {a} vs {b}");
        let sigma = (a + b).sqrt();
        prop_assert!(
            (a - b).abs() < 6.0 * sigma,
            "loss counts diverged beyond noise: {a} vs {b} (6σ = {:.1})",
            6.0 * sigma
        );
        let (fa, fb) = (scalar.totals.faults as f64, ziggurat.totals.faults as f64);
        prop_assert!(
            (fa - fb).abs() / fa < 0.1,
            "fault counts diverged: {fa} vs {fb}"
        );
        let (ma, mb) = (scalar.mttdl_exposure_hours(), ziggurat.mttdl_exposure_hours());
        prop_assert!(
            (ma - mb).abs() / ma < 0.25,
            "MTTDL estimates diverged: {ma} vs {mb}"
        );
    }

    /// `ErasureCoded { k: 1, n }` is replication by another name: every
    /// fragment is a full copy (`min_fragments = 1`), and the group dies
    /// only when all `n` are gone — exactly `Replicated { n }`. With free
    /// repair bandwidth the two configs must produce identical aggregates;
    /// the only observable difference is the repair *fan-in*: the coded
    /// fleet reads a surviving fragment per rebuild, the replicated fleet
    /// reads nothing.
    #[test]
    fn ec_with_k1_degenerates_to_replication(seed in 0u64..500, n in 2usize..5) {
        let topology = FleetTopology::new(3, 2, 2, 6).unwrap();
        let group = SimConfig::mirrored_disks(800.0, 4_000.0, 10.0, 10.0, Some(100.0), 1.0)
            .unwrap();
        let base = FleetConfig::new(topology, 60, group)
            .unwrap()
            .with_horizon_hours(12_000.0)
            .with_shards(3)
            .with_repair_bandwidth(RepairBandwidth::Unlimited, 1e9);
        let replicated = base.with_policy(RedundancyPolicy::Replicated { n });
        let coded = base.with_policy(RedundancyPolicy::ErasureCoded { k: 1, n });
        let a = FleetSim::new(replicated).seed(seed).run().unwrap();
        let b = FleetSim::new(coded).seed(seed).run().unwrap();
        prop_assert_eq!(a.totals.losses, b.totals.losses);
        prop_assert_eq!(a.totals.faults, b.totals.faults);
        prop_assert_eq!(a.totals.repairs, b.totals.repairs);
        prop_assert_eq!(a.totals.events, b.totals.events);
        prop_assert_eq!(
            a.totals.loss_intervals.mean().to_bits(),
            b.totals.loss_intervals.mean().to_bits()
        );
        // Identical dynamics, different accounting: only the coded fleet
        // reads fragments to rebuild.
        prop_assert!(a.policy_breakdown().is_empty());
        let coded_band = b.policy_breakdown()[0];
        prop_assert_eq!(coded_band.repairs, b.totals.repairs);
        if b.totals.repairs > 0 {
            prop_assert!(coded_band.read_bytes > 0.0);
        }
    }

    /// At fixed stripe width `n`, raising `k` stores less redundancy
    /// (`n - k` tolerable faults instead of `n - 1`), so losses must not
    /// systematically decrease in `k`. Sample paths diverge after the
    /// first renewal, so the comparison carries the same small slack the
    /// bandwidth-monotonicity properties use.
    #[test]
    fn losses_are_monotone_in_k_at_fixed_width(seed in 0u64..500) {
        let topology = FleetTopology::new(3, 2, 2, 6).unwrap();
        let group = SimConfig::mirrored_disks(1_200.0, 5_000.0, 10.0, 10.0, Some(100.0), 1.0)
            .unwrap();
        let base = FleetConfig::new(topology, 60, group)
            .unwrap()
            .with_horizon_hours(12_000.0)
            .with_shards(3)
            .with_repair_bandwidth(RepairBandwidth::Unlimited, 1e9);
        let strong = FleetSim::new(base.with_policy(RedundancyPolicy::ErasureCoded { k: 2, n: 5 }))
            .seed(seed)
            .run()
            .unwrap();
        let weak = FleetSim::new(base.with_policy(RedundancyPolicy::ErasureCoded { k: 4, n: 5 }))
            .seed(seed)
            .run()
            .unwrap();
        prop_assert!(
            weak.totals.losses + 2 >= strong.totals.losses,
            "k=4 lost {} groups, k=2 lost {}",
            weak.totals.losses,
            strong.totals.losses
        );
    }

    /// Mixed-policy fleets must keep the engine's core guarantee: reports
    /// are bit-identical for a given seed across 1/2/8 worker threads —
    /// including the per-band policy tallies, which merge shard-by-shard.
    #[test]
    fn mixed_policy_fleets_are_thread_count_invariant(
        seed in 0u64..500,
        replicated_groups in 10usize..40,
        coded_groups in 10usize..40,
    ) {
        let topology = FleetTopology::new(3, 2, 2, 6).unwrap();
        let group = SimConfig::mirrored_disks(900.0, 4_000.0, 10.0, 10.0, Some(100.0), 1.0)
            .unwrap();
        let config = FleetConfig::new(topology, replicated_groups + coded_groups, group)
            .unwrap()
            .with_horizon_hours(10_000.0)
            .with_shards(4)
            .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e9), 5e9)
            .with_group_policies(&[
                (replicated_groups, RedundancyPolicy::Replicated { n: 3 }),
                (coded_groups, RedundancyPolicy::ErasureCoded { k: 2, n: 5 }),
            ])
            .unwrap();
        let reference = FleetSim::new(config).seed(seed).threads(1).run().unwrap();
        let reference_json = serde_json::to_string(&reference).expect("report serializes");
        for threads in [2usize, 8] {
            let report = FleetSim::new(config).seed(seed).threads(threads).run().unwrap();
            let json = serde_json::to_string(&report).expect("report serializes");
            prop_assert_eq!(&json, &reference_json, "threads = {} changed the report", threads);
        }
    }

    #[test]
    fn unlimited_bandwidth_is_the_best_case(seed in 0u64..200) {
        let topology = FleetTopology::new(3, 2, 2, 6).unwrap();
        let group = SimConfig::mirrored_disks(20_000.0, 20_000.0, 12.0, 12.0, Some(365.0), 1.0)
            .unwrap();
        let base = FleetConfig::new(topology, 300, group)
            .unwrap()
            .with_horizon_hours(8_766.0)
            .with_bursts(BurstProfile {
                site_mtbf_hours: Some(4_000.0),
                rack_mtbf_hours: Some(1_500.0),
                node_mtbf_hours: None,
                drive_mtbf_hours: None,
            });
        let unlimited = FleetSim::new(base).seed(seed).run().unwrap();
        let constrained = FleetSim::new(
            base.with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(2e8), 1e10),
        )
        .seed(seed)
        .run()
        .unwrap();
        prop_assert!(
            constrained.totals.losses + 2 >= unlimited.totals.losses,
            "constrained lost {} groups, unlimited lost {}",
            constrained.totals.losses,
            unlimited.totals.losses
        );
        prop_assert!(constrained.mean_repair_wait_hours() >= 0.0);
        prop_assert_eq!(unlimited.mean_repair_wait_hours(), 0.0);
    }
}

/// Scheduler determinism: the full `FleetReport` for a fixed seed must be
/// byte-identical across 1/2/8 worker threads *and* match a pinned digest,
/// so any future change to the scheduler, the RNG discipline, or the merge
/// order is caught — not just thread-count variance.
///
/// The digests are tied to the vendored RNG (xoshiro256++) and the
/// config's `DrawDiscipline`; re-pin them (with a CHANGES.md note) if
/// either deliberately changes.
#[test]
fn scheduler_determinism_digest_is_pinned() {
    // PR 5 introduced the ziggurat draw discipline (the default): fault
    // delays now consume one raw u64 (plus rare rejection retries) instead
    // of one uniform + ln, so the Ziggurat sample paths differ from the
    // PR 3/PR 4 stream and their digests are pinned fresh here. The Scalar
    // discipline preserves the pre-ziggurat stream exactly — its pins are
    // the unchanged PR 3 values, which is the regression guard proving the
    // PR 5 kernel refactors (packed scheduler entries, lazy placement
    // tables, generation-stamped scratch) changed no observable behaviour.
    for (draw, pin_sharded, pin_single) in [
        (DrawDiscipline::Scalar, 0x76bf_e96c_7935_c597_u64, 0x3d84_89ee_6da5_fb8f_u64),
        (DrawDiscipline::Ziggurat, 0xf71e_d9bd_1762_cfd7, 0xd49c_4744_c941_77e7),
    ] {
        // A mid-size fleet exercising bursts, bandwidth queueing and
        // multiple shards; shard queues stay on the heap backend.
        let topology = FleetTopology::new(3, 2, 2, 6).unwrap();
        let group = SimConfig::mirrored_disks(1_500.0, 6_000.0, 10.0, 10.0, Some(150.0), 0.5)
            .unwrap()
            .with_draw(draw);
        let sharded = FleetConfig::new(topology, 300, group)
            .unwrap()
            .with_horizon_hours(10_000.0)
            .with_shards(6)
            .with_bursts(BurstProfile::disaster_scenario())
            .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e9), 5e9);
        // A single-shard fleet whose queue occupancy (~12k events) is deep
        // into calendar territory, pinning the calendar-backed path too.
        let topology = FleetTopology::new(2, 2, 2, 8).unwrap();
        let dense = SimConfig::mirrored_disks(2_000.0, 8_000.0, 5.0, 5.0, Some(400.0), 1.0)
            .unwrap()
            .with_draw(draw);
        let single = FleetConfig::new(topology, 6_000, dense)
            .unwrap()
            .with_horizon_hours(8_766.0)
            .with_shards(1);

        for (config, pinned) in [(sharded, pin_sharded), (single, pin_single)] {
            let mut digests = Vec::new();
            for threads in [1usize, 2, 8] {
                let report = FleetSim::new(config).seed(42).threads(threads).run().unwrap();
                let json = serde_json::to_string(&report).expect("report serializes");
                digests.push(fnv1a(json.as_bytes()));
            }
            assert_eq!(digests[0], digests[1], "thread count changed the report");
            assert_eq!(digests[0], digests[2], "thread count changed the report");
            assert_eq!(
                digests[0], pinned,
                "pinned digest mismatch under {draw:?}: got {:#018x} — the scheduler/RNG \
                 behaviour changed",
                digests[0]
            );
        }
    }
}

/// Cache-compatibility guard for the redundancy-policy refactor: the
/// [`ConfigDigest`] of every replicated-only `FleetConfig` must be exactly
/// what it was before policies existed, or every shard cache on disk
/// silently invalidates. The pins below were captured on the
/// pre-policy tree for the same two fleets the report-digest test runs;
/// `with_policy(Replicated { n })` must keep hitting them, and an
/// erasure-coded policy must *miss* them (a new policy is a new config).
#[test]
fn replicated_config_digests_are_pinned_across_the_policy_refactor() {
    for (draw, pin_sharded, pin_single) in [
        (DrawDiscipline::Scalar, 0x1315_62ca_3a94_156d_u64, 0xa219_6ec3_ff32_b1ec_u64),
        (DrawDiscipline::Ziggurat, 0xb31f_7de9_3e38_a5a0, 0x0490_3723_1a6b_e3d1),
    ] {
        let topology = FleetTopology::new(3, 2, 2, 6).unwrap();
        let group = SimConfig::mirrored_disks(1_500.0, 6_000.0, 10.0, 10.0, Some(150.0), 0.5)
            .unwrap()
            .with_draw(draw);
        let sharded = FleetConfig::new(topology, 300, group)
            .unwrap()
            .with_horizon_hours(10_000.0)
            .with_shards(6)
            .with_bursts(BurstProfile::disaster_scenario())
            .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e9), 5e9);
        let topology = FleetTopology::new(2, 2, 2, 8).unwrap();
        let dense = SimConfig::mirrored_disks(2_000.0, 8_000.0, 5.0, 5.0, Some(400.0), 1.0)
            .unwrap()
            .with_draw(draw);
        let single = FleetConfig::new(topology, 6_000, dense)
            .unwrap()
            .with_horizon_hours(8_766.0)
            .with_shards(1);

        for (config, pinned) in [(sharded, pin_sharded), (single, pin_single)] {
            assert_eq!(
                config.config_digest(),
                pinned,
                "replicated config digest drifted under {draw:?}: got {:#018x} — on-disk \
                 caches for pre-policy configs would invalidate",
                config.config_digest()
            );
            // The explicit-policy shim is digest-transparent...
            let n = config.group.replicas;
            assert_eq!(
                config.with_policy(RedundancyPolicy::Replicated { n }).config_digest(),
                pinned,
                "with_policy(Replicated) changed the digest under {draw:?}"
            );
            // ...and a genuinely different policy is a genuinely new config.
            assert_ne!(
                config.with_policy(RedundancyPolicy::ErasureCoded { k: 2, n: 4 }).config_digest(),
                pinned,
                "an erasure-coded config must not collide with the replicated pin"
            );
        }
    }
}

/// Schema-versioning guard: fleet configs written before the policy
/// refactor carry no `group_policies` field, and must (a) still not emit
/// one while uniform — byte-identical round-trip — and (b) deserialize
/// with an empty band table. Mixed-policy configs round-trip through the
/// new field.
#[test]
fn legacy_fleet_config_json_round_trips_without_a_policy_field() {
    let topology = FleetTopology::new(3, 2, 2, 6).unwrap();
    let group = SimConfig::mirrored_disks(1_500.0, 6_000.0, 10.0, 10.0, Some(150.0), 0.5).unwrap();
    let uniform = FleetConfig::new(topology, 120, group)
        .unwrap()
        .with_horizon_hours(10_000.0)
        .with_shards(6)
        .with_repair_bandwidth(RepairBandwidth::PerSiteBytesPerHour(1e9), 5e9);

    // (a) A uniform config's JSON is exactly the pre-policy schema.
    let legacy_json = serde_json::to_string(&uniform).expect("config serializes");
    assert!(
        !legacy_json.contains("group_policies"),
        "uniform configs must serialize on the legacy schema: {legacy_json}"
    );

    // (b) Pre-policy JSON deserializes as replicated-only (empty bands)
    // and re-serializes byte-identically.
    let parsed: FleetConfig = serde_json::from_str(&legacy_json).expect("legacy JSON parses");
    assert!(parsed.group_policies.is_empty());
    assert_eq!(parsed.policy_of_group(0), RedundancyPolicy::Replicated { n: 2 });
    assert_eq!(serde_json::to_string(&parsed).expect("config serializes"), legacy_json);
    assert_eq!(parsed.config_digest(), uniform.config_digest());

    // Mixed-policy configs round-trip through the new field.
    let hybrid = uniform
        .with_group_policies(&[
            (70, RedundancyPolicy::Replicated { n: 3 }),
            (50, RedundancyPolicy::ErasureCoded { k: 2, n: 5 }),
        ])
        .unwrap();
    let hybrid_json = serde_json::to_string(&hybrid).expect("config serializes");
    assert!(hybrid_json.contains("group_policies"));
    let parsed: FleetConfig = serde_json::from_str(&hybrid_json).expect("hybrid JSON parses");
    assert_eq!(parsed.policy_of_group(0), RedundancyPolicy::Replicated { n: 3 });
    assert_eq!(parsed.policy_of_group(100), RedundancyPolicy::ErasureCoded { k: 2, n: 5 });
    assert_eq!(serde_json::to_string(&parsed).expect("config serializes"), hybrid_json);
}
