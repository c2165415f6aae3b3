//! `perfsmoke` — times the canonical workloads and records the results.
//!
//! Workloads (see `ltds_bench::workloads`):
//!
//! * `fleet_year_100k` / `fleet_year_10k` — one simulated year of the
//!   1 000-drive enterprise fleet at 100k / 10k replica groups (the 100k
//!   variant is setup-dominated, so it tracks the thinned initial draw);
//! * `fleet_year_ec_100k` — the same 100k-group fleet-year under 2-of-3
//!   erasure coding: identical slot count and placement, but every group
//!   runs through the banded kernel path with fragment-fan-in rebuilds.
//!   `--check` pins it within [`EC_KERNEL_MAX_RATIO`] of `fleet_year_100k`
//!   so the policy machinery stays a table lookup, not a tax;
//! * `e16_hybrid` — the E16 mixed-policy disaster fleet (1 000 triplicated
//!   plus 1 000 erasure-coded 2-of-6 groups, constrained repair bandwidth)
//!   for one year — the worst case for the banded path: two widths,
//!   per-band tallies, and EC fan-in through saturated pipes;
//! * `event_dense_2k` — the event-dense small fleet (raw kernel throughput);
//! * `dense_5k` — the mid-density sharded fleet whose per-shard queues sit
//!   at the heap → calendar crossover;
//! * `dense_1shard_traced` — `dense_1shard` through `run_traced()`, with
//!   telemetry on; its ratio to `dense_1shard` (the telemetry overhead) is
//!   printed, not gated;
//! * `mc_10k_trials` — 10 000 Monte-Carlo trials of the canonical group;
//! * `mc_ziggurat` — 10 000 trials of the correlated (draw-dominated)
//!   group pinned to the ziggurat discipline;
//! * `e15_sweep` — the E15 fleet-disaster experiment end to end;
//! * `sweep_16_cold` — the refined 16-point scrub-period grid, simulated
//!   from scratch;
//! * `sweep_refine` — the same 16-point grid re-run against a cache warmed
//!   by the canonical 12-point grid (the "refine a sweep" workload: only
//!   the four new points simulate). The warm points are verified
//!   bit-identical to the cold run before timing;
//! * `campaign_cold` — the canonical demo campaign (three sweeps + a
//!   16-shard fleet year) end to end with empty caches;
//! * `campaign_resume` — the same campaign restarted from caches persisted
//!   to disk by the cold run: every work unit loads from the segment files
//!   and hits, modelling a killed campaign resumed in a new process. The
//!   resumed stream is verified byte-identical to the cold one before
//!   timing, and the timed path includes the `load_dir` cost;
//! * `campaign_service` — the same campaign dispatched through the
//!   fault-tolerant service's deterministic in-process harness (two
//!   simulated workers, no chaos): every unit crosses the lease / registry
//!   / reorder machinery. The streamed report is verified byte-identical
//!   to the driver's before timing, and `--check` pins the service's
//!   overhead to a bounded multiple of `campaign_cold` so the coordination
//!   layer stays plumbing, not compute;
//! * `campaign_tcp` — the same campaign again, dispatched through the
//!   multi-tenant TCP server over real loopback sockets (server, two
//!   workers and the subscriber as in-process threads): every unit crosses
//!   the wire protocol — framing, checksums, heartbeats, cursored delta
//!   streaming — on top of the service machinery. The stream is verified
//!   byte-identical to the driver's before timing, and `--check` pins the
//!   socket layer to a bounded multiple of `campaign_service` so real
//!   transport stays cheap relative to coordination;
//! * `mc_rare_vanilla` / `mc_rare_is` — the pinned rare-loss mirror pair
//!   (a scrubbed two-way mirror whose one-year loss probability is ~2e-4,
//!   so vanilla runs censor >99.9 % of trials). Each workload doubles its
//!   Monte-Carlo trial count until the 95 % CI on the one-year loss
//!   probability is at most [`RARE_CI_TARGET`] half-wide, so the recorded
//!   wall time is *time to target CI width* and `work_items` is the trial
//!   count of the rung that reached it. `--check` requires the
//!   importance-sampled ladder to get there with >= 10x fewer trials than
//!   vanilla and its measured variance ratio to clear the same floor.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ltds-bench --bin perfsmoke -- \
//!     [--out BENCH_PR10.json] [--baseline OLD.json] [--repeat 3] [--check]
//! ```
//!
//! The report embeds its own provenance — thread count, `rustc -V`, and an
//! FNV-1a hash of the workload-name set — so BENCH_*.json files from
//! different PRs are comparable without out-of-band notes.
//!
//! Each workload runs `--repeat` times and the best wall time is kept (the
//! workloads are deterministic, so the minimum is the cleanest estimate of
//! the true cost). `--baseline` embeds a previously recorded file under a
//! `"baseline"` key so a single artifact carries the perf trajectory; when
//! a baseline is present, every shared workload also records
//! `ratio_vs_baseline` (current / baseline wall time, > 1 = regressed) and
//! a one-line-per-workload regression table prints after the runs — so a
//! quiet regression against the embedded baseline is visible in both the
//! JSON and the console, not just discoverable by diffing files.
//! `--check` exits non-zero on order-of-magnitude regressions: generous
//! absolute ceilings on the setup-dominated 100k-group fleet-year, the
//! cold sweep and the dense event-loop workloads, plus a *relative*
//! tripwire — `sweep_refine` must cost less than half of `sweep_16_cold`,
//! or the cache has stopped reusing shards.

use ltds_bench::workloads;
use ltds_fleet::FleetSim;
use ltds_sim::cache::SweepCache;
use ltds_sim::campaign::{CampaignDriver, MemorySink};
use ltds_sim::monte_carlo::MonteCarlo;
use ltds_sim::net::{
    run_tcp_worker, serve_tcp, submit_tcp, BackoffPolicy, TcpServerConfig, TcpSubmitConfig,
    TcpWorkerConfig,
};
use ltds_sim::service::ServiceHarness;
use ltds_sim::sweep::SweepDriver;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Ceiling for `--check` on the 100k-group fleet-year, in milliseconds.
/// Normal runs are three orders of magnitude below this; only a
/// catastrophic regression (or a pathologically slow machine) trips it.
const FLEET_YEAR_CEILING_MS: f64 = 10_000.0;

/// Absolute ceiling for `--check` on the cold 16-point sweep, in
/// milliseconds — the same "catastrophe only" philosophy.
const SWEEP_COLD_CEILING_MS: f64 = 20_000.0;

/// Ceilings for `--check` on the dense event-loop workloads, in
/// milliseconds. These became the hot paths once setup was thinned
/// (PR 3/PR 5), so they get their own catastrophe tripwires: normal runs
/// are three orders of magnitude below.
const EVENT_DENSE_CEILING_MS: f64 = 30_000.0;
const DENSE_1SHARD_CEILING_MS: f64 = 20_000.0;

/// `--check` requires `fleet_year_ec_100k` (the erasure-coded twin of
/// `fleet_year_100k`: same topology, group count and slot width, but every
/// group routed through the banded kernel path) to stay within this factor
/// of `fleet_year_100k`. The banded path adds three `u16` table lookups per
/// touched slot; anything past noise means the policy machinery grew a
/// per-event cost.
const EC_KERNEL_MAX_RATIO: f64 = 1.3;

/// `--check` requires `sweep_refine` to cost less than this fraction of
/// `sweep_16_cold`. With 12 of 16 points cached the expected ratio is
/// ~0.25; 0.5 leaves room for noise while still failing hard if cache
/// reuse breaks.
const SWEEP_REFINE_MAX_RATIO: f64 = 0.5;

/// `--check` requires `campaign_resume` to cost less than this fraction of
/// `campaign_cold`. A resume answers *every* unit from the persisted cache
/// (expected ratio well under 0.1 even with the segment reload included),
/// so 0.5 only trips when on-disk reuse actually breaks — a
/// machine-independent tripwire like `sweep_refine`.
const CAMPAIGN_RESUME_MAX_RATIO: f64 = 0.5;

/// `--check` ceiling on `campaign_service` as a multiple of
/// `campaign_cold`. The harness runs the same units single-threaded plus
/// the full lease/registry/reorder machinery, so anything much above 1.0
/// means coordination stopped being plumbing and started being compute.
const CAMPAIGN_SERVICE_MAX_RATIO: f64 = 1.5;

/// `--check` ceiling on `campaign_tcp` as a multiple of
/// `campaign_service`. The TCP run is the service again plus real loopback
/// sockets, checksum framing and delta streaming — with two genuinely
/// parallel workers against the harness's simulated pair, so the expected
/// ratio is near (or below) 1.0 and anything past this means the wire
/// protocol grew a per-unit cost.
const CAMPAIGN_TCP_MAX_RATIO: f64 = 1.5;

/// Target 95 % CI half-width on P[loss by one year] for the rare-event
/// ladder pair: both estimators double their trial count until the
/// interval is this tight, so their wall times are directly comparable
/// "time to target CI width" figures.
const RARE_CI_TARGET: f64 = 2.0e-4;

/// Safety cap on the rare ladders — reaching it means the workload is
/// mis-tuned (the target is unreachable), not that the machine is slow.
const RARE_LADDER_CAP: u64 = 4_000_000;

/// `--check` floor for rare-event acceleration: the vanilla ladder must
/// need at least this many times more trials than the importance-sampled
/// one to reach [`RARE_CI_TARGET`], and the IS run's measured
/// `variance_ratio_vs_vanilla` must clear the same bar.
const RARE_TRIALS_MIN_RATIO: f64 = 10.0;

#[derive(Debug, Serialize, Deserialize)]
struct WorkloadResult {
    name: String,
    /// Best wall time over the repeats, in milliseconds.
    wall_ms: f64,
    /// Events processed per run (fleet workloads) or trials (MC), if
    /// meaningful for a throughput figure.
    work_items: u64,
    /// `work_items / wall`, in items per second.
    items_per_sec: f64,
    /// `wall_ms / baseline wall_ms` for the same workload in the embedded
    /// baseline (> 1 = slower than the baseline). Absent without a
    /// baseline or for workloads the baseline did not measure.
    ratio_vs_baseline: Option<f64>,
}

#[derive(Debug, Serialize, Deserialize)]
struct PerfReport {
    schema: String,
    repeats: u32,
    threads: usize,
    /// `rustc -V` of the compiler that produced this binary's toolchain,
    /// when it can be queried. `Option` so reports recorded before this
    /// field existed (BENCH_PR5 and earlier) still parse as baselines.
    rustc: Option<String>,
    /// FNV-1a hash (hex) of the ordered workload-name list, so trajectory
    /// comparisons can tell "this workload got slower" apart from "the
    /// workload set changed". `Option` for pre-existing baselines.
    workload_set_hash: Option<String>,
    workloads: Vec<WorkloadResult>,
    /// A previously recorded report (e.g. the PR 1 binary-heap kernel),
    /// embedded via `--baseline` so one artifact carries the trajectory.
    baseline: Option<Box<PerfReport>>,
}

/// Times `run` (which returns a work-item count) `repeats` times, keeping
/// the best wall time.
fn time_workload(name: &str, repeats: u32, mut run: impl FnMut() -> u64) -> WorkloadResult {
    let mut best_ms = f64::INFINITY;
    let mut work_items = 0u64;
    for _ in 0..repeats {
        let start = Instant::now();
        work_items = run();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms < best_ms {
            best_ms = ms;
        }
    }
    let items_per_sec = work_items as f64 / (best_ms / 1e3);
    eprintln!("{name:>18}: {best_ms:9.2} ms  ({work_items} items, {items_per_sec:.0}/s)");
    WorkloadResult {
        name: name.to_string(),
        wall_ms: best_ms,
        work_items,
        items_per_sec,
        ratio_vs_baseline: None,
    }
}

/// Runs the rare-workload Monte-Carlo ladder: doubles the trial count
/// (same seed per rung) until the 95 % CI on P[loss by the horizon] is at
/// most [`RARE_CI_TARGET`] half-wide with at least one observed loss,
/// returning the rung that reached it and its estimate. Timing the whole
/// ladder measures the cost a practitioner actually pays to get a usable
/// tail estimate, including the rungs that came up too loose.
fn rare_ladder(config: &ltds_sim::SimConfig, start: u64) -> (u64, ltds_sim::MttdlEstimate) {
    let horizon = config.max_hours;
    let mut trials = start;
    loop {
        let est = MonteCarlo::new(*config).trials(trials).seed(1).run();
        let ci = est.loss_probability_by(horizon);
        if ci.estimate > 0.0 && ci.half_width() <= RARE_CI_TARGET {
            return (trials, est);
        }
        assert!(trials <= RARE_LADDER_CAP, "rare ladder exceeded {RARE_LADDER_CAP} trials");
        trials *= 2;
    }
}

fn main() {
    let mut out_path = String::from("BENCH_PR10.json");
    let mut baseline_path: Option<String> = None;
    let mut repeats = 3u32;
    let mut check = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            "--baseline" => {
                i += 1;
                baseline_path = Some(args.get(i).expect("--baseline needs a path").clone());
            }
            "--repeat" => {
                i += 1;
                repeats = args.get(i).expect("--repeat needs a count").parse().expect("a number");
            }
            "--check" => check = true,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("perfsmoke: {repeats} repeats, {threads} thread(s)");

    let mut results = vec![
        time_workload("fleet_year_100k", repeats, || {
            workloads::run_fleet_year(100_000).totals.events
        }),
        time_workload("fleet_year_10k", repeats, || {
            workloads::run_fleet_year(10_000).totals.events
        }),
        time_workload("fleet_year_ec_100k", repeats, || {
            workloads::run_fleet_year_ec(100_000).totals.events
        }),
        time_workload("e16_hybrid", repeats, || {
            FleetSim::new(workloads::e16_hybrid_fleet())
                .seed(workloads::E16_SEED)
                .run()
                .expect("fleet run succeeds")
                .totals
                .events
        }),
        time_workload("event_dense_2k", repeats, || {
            FleetSim::new(workloads::event_dense_fleet())
                .seed(1)
                .run()
                .expect("fleet run succeeds")
                .totals
                .events
        }),
        time_workload("dense_5k", repeats, || {
            FleetSim::new(workloads::event_dense_fleet_5k())
                .seed(1)
                .run()
                .expect("fleet run succeeds")
                .totals
                .events
        }),
        time_workload("dense_1shard", repeats, || {
            FleetSim::new(workloads::event_dense_single_shard())
                .seed(1)
                .run()
                .expect("fleet run succeeds")
                .totals
                .events
        }),
        time_workload("dense_1shard_traced", repeats, || {
            FleetSim::new(workloads::event_dense_single_shard())
                .seed(1)
                .run_traced()
                .expect("fleet run succeeds")
                .0
                .totals
                .events
        }),
        time_workload("mc_10k_trials", repeats, || {
            let est = MonteCarlo::new(workloads::mc_group()).trials(10_000).seed(1).run();
            est.completed_trials + est.censored_trials
        }),
        time_workload("mc_ziggurat", repeats, || {
            let est = MonteCarlo::new(workloads::mc_ziggurat_group()).trials(10_000).seed(1).run();
            est.completed_trials + est.censored_trials
        }),
        time_workload("e15_sweep", repeats, || {
            let result = ltds_bench::experiments::e15_fleet_disaster::run();
            result.rows.len() as u64
        }),
    ];
    // The telemetry overhead is reported, not gated: it is a property of
    // the traced path, not a regression tripwire.
    let wall = |name: &str| results.iter().find(|w| w.name == name).expect("measured").wall_ms;
    eprintln!(
        "telemetry overhead: dense_1shard_traced is {:.2}x dense_1shard",
        wall("dense_1shard_traced") / wall("dense_1shard")
    );

    // Sweep-refinement pair: the refined 16-point grid cold, then the same
    // grid against a cache warmed with the canonical 12-point grid. The
    // driver pins one worker thread so the numbers are comparable across
    // hosts.
    let sweep_base = workloads::mc_group();
    let grid = workloads::sweep_grid();
    let refined = workloads::sweep_grid_refined();
    let driver =
        SweepDriver::new(&sweep_base, workloads::SWEEP_TRIALS, workloads::SWEEP_SEED).threads(1);
    let cold_points = driver.scrub_period(&refined).expect("cold sweep succeeds");
    results.push(time_workload("sweep_16_cold", repeats, || {
        driver.scrub_period(&refined).expect("cold sweep succeeds").len() as u64
    }));
    let warm = SweepCache::new();
    driver.cache(&warm).scrub_period(&grid).expect("warm-up sweep succeeds");
    // The refine path must reproduce the cold points bit-for-bit (cached
    // points are returned, new points simulated) before it is worth timing.
    // Verified against a throwaway snapshot so `warm` itself keeps exactly
    // the 12 canonical points for the timed runs below.
    let verify = warm.clone();
    let refined_points =
        driver.cache(&verify).scrub_period(&refined).expect("refine sweep succeeds");
    assert_eq!(cold_points.len(), refined_points.len());
    for (cold, warm_point) in cold_points.iter().zip(&refined_points) {
        assert_eq!(
            cold.mttdl_hours.to_bits(),
            warm_point.mttdl_hours.to_bits(),
            "cache-warm sweep diverged from the cold run at x = {}",
            cold.x
        );
    }
    results.push(time_workload("sweep_refine", repeats, || {
        // Each repeat refines from a fresh snapshot of the 12-point-warm
        // cache, so every timed run does the same work: 12 hits + 4 cold
        // points.
        let cache = warm.clone();
        driver.cache(&cache).scrub_period(&refined).expect("refine sweep succeeds").len() as u64
    }));

    // Campaign pair: the demo campaign cold, then resumed from caches
    // persisted by a cold run — the "kill the process, restart from disk"
    // workload. One worker thread for cross-host comparability.
    let campaign = workloads::demo_campaign();
    let run_campaign = |points: &SweepCache<ltds_sim::MttdlEstimate>,
                        shards: &ltds_fleet::ShardCache| {
        let mut sink = MemorySink::new();
        let summary = CampaignDriver::new(&campaign)
            .threads(1)
            .point_cache(points)
            .shard_cache(shards)
            .run(&mut sink)
            .expect("demo campaign runs");
        (sink.to_jsonl(), summary)
    };
    let cache_dir = std::env::temp_dir().join(format!("ltds-perfsmoke-{}", std::process::id()));
    let (cold_stream, _) = {
        let points = SweepCache::new();
        let shards = ltds_fleet::ShardCache::new();
        let result = run_campaign(&points, &shards);
        points.persist_dir(cache_dir.join("points")).expect("persist points");
        shards.persist_dir(cache_dir.join("shards")).expect("persist shards");
        result
    };
    // The resume must reproduce the cold stream byte-for-byte — with every
    // unit answered from the persisted caches — before it is worth timing.
    {
        let points = SweepCache::new();
        let shards = ltds_fleet::ShardCache::new();
        points.load_dir(cache_dir.join("points")).expect("load points");
        shards.load_dir(cache_dir.join("shards")).expect("load shards");
        let (resumed_stream, summary) = run_campaign(&points, &shards);
        assert_eq!(resumed_stream, cold_stream, "resumed campaign stream diverged from cold");
        assert_eq!(summary.cache_misses, 0, "a full resume must hit every unit");
    }
    results.push(time_workload("campaign_cold", repeats, || {
        let points = SweepCache::new();
        let shards = ltds_fleet::ShardCache::new();
        run_campaign(&points, &shards).1.units_run as u64
    }));
    results.push(time_workload("campaign_resume", repeats, || {
        // Each repeat pays the full save/load boundary: fresh caches,
        // reloaded from the segment files, then the whole campaign.
        let points = SweepCache::new();
        let shards = ltds_fleet::ShardCache::new();
        points.load_dir(cache_dir.join("points")).expect("load points");
        shards.load_dir(cache_dir.join("shards")).expect("load shards");
        run_campaign(&points, &shards).1.units_run as u64
    }));
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Campaign service: the same campaign, every unit crossing the
    // fault-tolerant service's lease machinery via the deterministic
    // in-process harness (two simulated workers, no chaos). The stream
    // must match the driver's byte-for-byte before it is worth timing.
    {
        let mut sink = MemorySink::new();
        let summary =
            ServiceHarness::new(&campaign, 2).run(&mut sink).expect("service harness runs");
        assert_eq!(summary.units_done, summary.units_total);
        assert_eq!(sink.to_jsonl(), cold_stream, "service stream diverged from the driver");
    }
    results.push(time_workload("campaign_service", repeats, || {
        let mut sink = MemorySink::new();
        ServiceHarness::new(&campaign, 2).run(&mut sink).expect("service harness runs").units_done
    }));

    // Campaign over TCP: the same campaign once more, with every frame
    // crossing real loopback sockets — server, two workers and the
    // subscriber as threads of this process. The cost measured is the wire
    // protocol (framing, checksums, heartbeats, cursored delta streaming)
    // on top of the service machinery.
    let spec: serde::Value =
        serde_json::value_from_str(&serde_json::to_string(&campaign).expect("campaign serializes"))
            .expect("campaign spec parses");
    let tcp_round = std::sync::atomic::AtomicU64::new(0);
    let run_campaign_tcp = || {
        let round = tcp_round.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let addr_path = std::env::temp_dir()
            .join(format!("ltds-perfsmoke-addr-{}-{round}", std::process::id()));
        let _ = std::fs::remove_file(&addr_path);
        let result = std::thread::scope(|scope| {
            // A short (but non-zero) poll pause: a spinning server would
            // starve the worker threads on a single-core host, and this is
            // a timed workload. Tick-denominated windows scale to the 50µs
            // tick so worker compute can never look like silence.
            let config = TcpServerConfig {
                addr_file: Some(addr_path.clone()),
                poll: std::time::Duration::from_micros(50),
                idle_polls: 4_000_000,
                service: ltds_sim::service::ServiceConfig {
                    lease_ticks: 200_000,
                    reissue_ticks: 4_000_000,
                    fallback_ticks: None,
                    ..ltds_sim::service::ServiceConfig::default()
                },
                ..TcpServerConfig::default()
            };
            let server =
                scope.spawn(move || serve_tcp::<ltds_fleet::FleetScenario>(&config, None, None));
            let addr = {
                let mut found = None;
                for _ in 0..20_000 {
                    if let Ok(text) = std::fs::read_to_string(&addr_path) {
                        let trimmed = text.trim();
                        if !trimmed.is_empty() {
                            found = Some(trimmed.to_string());
                            break;
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                found.expect("server published its address")
            };
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let config = TcpWorkerConfig {
                        addr: addr.clone(),
                        name: format!("w{w}"),
                        incarnation: 0,
                        poll: std::time::Duration::from_millis(1),
                        max_polls: 1_000_000,
                        reconnect: BackoffPolicy::default(),
                    };
                    scope.spawn(move || run_tcp_worker::<ltds_fleet::FleetScenario>(&config))
                })
                .collect();
            let submit = TcpSubmitConfig {
                addr,
                cursor: 0,
                poll: std::time::Duration::from_millis(1),
                max_polls: 1_000_000,
                reconnect: BackoffPolicy::default(),
            };
            let mut out: Vec<u8> = Vec::new();
            let summary = submit_tcp(&submit, &spec, &mut out).expect("tcp campaign runs");
            server.join().unwrap().expect("tcp server exits cleanly");
            for worker in workers {
                worker.join().unwrap().expect("tcp worker exits cleanly");
            }
            (out, summary)
        });
        let _ = std::fs::remove_file(&addr_path);
        result
    };
    // The TCP stream must match the driver's byte-for-byte before it is
    // worth timing.
    {
        let (out, summary) = run_campaign_tcp();
        assert_eq!(
            String::from_utf8(out).expect("stream is UTF-8"),
            cold_stream,
            "TCP campaign stream diverged from the driver"
        );
        assert_eq!(summary.units_done, summary.units_total);
    }
    results.push(time_workload("campaign_tcp", repeats, || run_campaign_tcp().1.units_done));

    // Rare-event pair: time-to-target-CI-width on the pinned rare mirror
    // workload, vanilla vs importance-sampled. Both ladders start at the
    // same rung so the final trial counts compare like for like.
    let rare_vanilla = workloads::mc_rare_group();
    let rare_is = workloads::mc_rare_is_group();
    let mut rare_is_estimate: Option<ltds_sim::MttdlEstimate> = None;
    results.push(time_workload("mc_rare_vanilla", repeats, || rare_ladder(&rare_vanilla, 250).0));
    results.push(time_workload("mc_rare_is", repeats, || {
        let (trials, est) = rare_ladder(&rare_is, 250);
        rare_is_estimate = Some(est);
        trials
    }));
    let rare_variance_ratio = rare_is_estimate.and_then(|est| est.variance_ratio_vs_vanilla);

    let baseline = baseline_path.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let report: PerfReport = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
        Box::new(report)
    });

    // Resolve each workload against the embedded baseline and print the
    // regression table: a quiet slide against the baseline must be visible
    // in the run output, not just discoverable by diffing JSON files.
    if let Some(baseline) = &baseline {
        eprintln!("\n{:>18}  {:>10}  {:>10}  {:>7}", "vs baseline", "now", "base", "ratio");
        for result in results.iter_mut() {
            let Some(base) = baseline.workloads.iter().find(|w| w.name == result.name) else {
                continue;
            };
            let ratio = result.wall_ms / base.wall_ms;
            result.ratio_vs_baseline = Some(ratio);
            let flag = if ratio > 1.1 {
                "  <-- REGRESSED"
            } else if ratio < 1.0 / 1.5 {
                "  (>=1.5x faster)"
            } else {
                ""
            };
            eprintln!(
                "{:>18}  {:>8.2}ms  {:>8.2}ms  {:>6.2}x{flag}",
                result.name, result.wall_ms, base.wall_ms, ratio
            );
        }
        eprintln!();
    }

    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let workload_names = results.iter().map(|w| w.name.as_str()).collect::<Vec<_>>().join("\n");
    let workload_set_hash =
        Some(format!("{:016x}", ltds_core::hash::fnv1a(workload_names.as_bytes())));

    let report = PerfReport {
        schema: "ltds-perfsmoke/1".to_string(),
        repeats,
        threads,
        rustc,
        workload_set_hash,
        workloads: results,
        baseline,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write perf report");
    eprintln!("wrote {out_path}");

    if check {
        let measured = |name: &str| {
            report
                .workloads
                .iter()
                .find(|w| w.name == name)
                .unwrap_or_else(|| panic!("{name} was measured"))
        };
        let mut failed = false;
        let mut ceiling = |name: &str, ceiling_ms: f64| {
            let wall = measured(name).wall_ms;
            if wall > ceiling_ms {
                eprintln!(
                    "PERF CHECK FAILED: {name} took {wall:.0} ms (ceiling {ceiling_ms:.0} ms)"
                );
                failed = true;
            } else {
                eprintln!("perf check ok: {name} {wall:.1} ms <= {ceiling_ms:.0} ms");
            }
        };
        ceiling("fleet_year_100k", FLEET_YEAR_CEILING_MS);
        ceiling("sweep_16_cold", SWEEP_COLD_CEILING_MS);
        ceiling("event_dense_2k", EVENT_DENSE_CEILING_MS);
        ceiling("dense_1shard", DENSE_1SHARD_CEILING_MS);
        let mut warm_ratio = |warm_name: &str, cold_name: &str, max: f64, what: &str| {
            let cold = measured(cold_name).wall_ms;
            let warm = measured(warm_name).wall_ms;
            let ratio = warm / cold;
            if ratio > max {
                eprintln!(
                    "PERF CHECK FAILED: {warm_name} / {cold_name} = {ratio:.2} (max {max}) \
                     — {what}"
                );
                failed = true;
            } else {
                eprintln!(
                    "perf check ok: {warm_name} {warm:.1} ms is {:.0}% of the {cold:.1} ms \
                     {cold_name}",
                    ratio * 100.0
                );
            }
        };
        warm_ratio(
            "sweep_refine",
            "sweep_16_cold",
            SWEEP_REFINE_MAX_RATIO,
            "the sweep cache is not reusing points",
        );
        warm_ratio(
            "campaign_resume",
            "campaign_cold",
            CAMPAIGN_RESUME_MAX_RATIO,
            "the persisted campaign caches are not being reused",
        );
        warm_ratio(
            "campaign_service",
            "campaign_cold",
            CAMPAIGN_SERVICE_MAX_RATIO,
            "the campaign service's coordination overhead has outgrown the compute",
        );
        warm_ratio(
            "campaign_tcp",
            "campaign_service",
            CAMPAIGN_TCP_MAX_RATIO,
            "the TCP wire protocol grew a per-unit cost over the service machinery",
        );
        warm_ratio(
            "fleet_year_ec_100k",
            "fleet_year_100k",
            EC_KERNEL_MAX_RATIO,
            "the banded redundancy-policy path grew a per-event kernel cost",
        );
        // Rare-event acceleration: importance sampling must reach the
        // target CI width with an order of magnitude fewer trials than
        // vanilla, and its measured per-root variance ratio must agree.
        // Both ladders are deterministic (fixed seeds), so this is a
        // machine-independent gate like the cache-reuse tripwires.
        {
            let vanilla = measured("mc_rare_vanilla").work_items as f64;
            let tilted = measured("mc_rare_is").work_items as f64;
            let ratio = vanilla / tilted;
            if ratio < RARE_TRIALS_MIN_RATIO {
                eprintln!(
                    "PERF CHECK FAILED: mc_rare_vanilla needed {vanilla:.0} trials vs \
                     mc_rare_is {tilted:.0} ({ratio:.1}x, floor {RARE_TRIALS_MIN_RATIO}) \
                     — importance sampling is not accelerating the tail"
                );
                failed = true;
            } else {
                eprintln!(
                    "perf check ok: mc_rare_is reached the target CI width with {ratio:.0}x \
                     fewer trials ({tilted:.0} vs {vanilla:.0})"
                );
            }
            match rare_variance_ratio {
                Some(vr) if vr >= RARE_TRIALS_MIN_RATIO => {
                    eprintln!(
                        "perf check ok: mc_rare_is variance ratio vs vanilla {vr:.1} >= \
                         {RARE_TRIALS_MIN_RATIO}"
                    );
                }
                other => {
                    eprintln!(
                        "PERF CHECK FAILED: mc_rare_is variance ratio vs vanilla {other:?} \
                         (floor {RARE_TRIALS_MIN_RATIO})"
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
