//! `fleet`: fleet what-ifs — one seed run through six designs with
//! `FleetSim` on two threads. Placement, bursts, the event kernel and its
//! queues do all the work; the campaign, Monte-Carlo and net layers none.

use crate::inputs::{self, DEFAULT_SEED, FLEET_SEED_POOL};
use crate::measure::median;
use crate::report::{EndToEnd, Metrics, Passes};
use crate::trace::Tracer;
use crate::{pins, PASSES, THREADS};
use ltds_core::hash::fnv1a;
use ltds_fleet::{FleetConfig, FleetReport, FleetScenario, FleetSim, PlacementIndex};
use ltds_sim::campaign::{PreparedScenario, Scenario};
use ltds_stochastic::SimRng;
use std::time::Instant;

/// RNG sub-stream of the burst timeline: the index `FleetSim` and
/// `PreparedFleet` fork from the master seed for it. The traced job checks
/// that its standalone timeline strikes as many bursts as the report says.
const BURST_STREAM: u64 = u64::MAX;

/// Jobs in each pass of a run of `seconds`.
pub fn jobs_for(seconds: u64) -> usize {
    ((seconds * 4) as usize).max(100)
}

/// Digest of a job's six reports.
pub fn digest(reports: &[FleetReport]) -> u64 {
    let text: Vec<String> =
        reports.iter().map(|r| serde_json::to_string(r).expect("report serializes")).collect();
    fnv1a(text.join("\n").as_bytes())
}

/// Runs every design at `seed` on `threads` threads, timing each run.
fn run_designs(
    designs: &[(&'static str, FleetConfig)],
    seed: u64,
    threads: usize,
) -> Result<(Vec<FleetReport>, Vec<f64>), ltds_core::error::ModelError> {
    let mut reports = Vec::with_capacity(designs.len());
    let mut times = Vec::with_capacity(designs.len());
    for (_, config) in designs {
        let start = Instant::now();
        reports.push(FleetSim::new(*config).seed(seed).threads(threads).run()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((reports, times))
}

/// Reference digest of every pool seed: pinned for the default seed,
/// otherwise recomputed.
pub fn references(seed: u64) -> Vec<u64> {
    if seed == DEFAULT_SEED && pins::FLEET.len() == FLEET_SEED_POOL {
        return pins::FLEET.to_vec();
    }
    recompute(seed)
}

/// Digest of every pool seed's reports, run single-threaded, two seeds at
/// a time.
pub fn recompute(seed: u64) -> Vec<u64> {
    let designs = inputs::fleet_designs();
    let seeds: Vec<u64> = (0..FLEET_SEED_POOL).map(|j| inputs::fleet_seed(seed, j)).collect();
    crate::par_map(&seeds, |&seed| {
        digest(&run_designs(&designs, seed, 1).expect("reference fleet run").0)
    })
}

/// Builds the six designs from the shared workload configs and validates
/// them: the fleet workload's set-up.
fn ready_designs() -> Vec<(&'static str, FleetConfig)> {
    let designs = inputs::fleet_designs();
    for (_, config) in &designs {
        config.validate().expect("valid design");
    }
    designs
}

/// The untraced run. The set-up (microseconds) is redone before every
/// job and `setup_s` is its median over the run, so a host that is briefly
/// slow or fast cannot move the figure on its own.
pub fn run(seed: u64, seconds: u64) -> EndToEnd {
    let refs = references(seed);
    let jobs = jobs_for(seconds);
    let mut setups = Vec::with_capacity(jobs * PASSES);
    let mut passes = Passes::new(jobs);
    for _ in 0..PASSES {
        passes.begin();
        for j in 0..jobs {
            let start = Instant::now();
            let designs = std::hint::black_box(ready_designs());
            setups.push(start.elapsed().as_secs_f64());
            passes.job(
                j,
                || run_designs(&designs, inputs::fleet_seed(seed, j), THREADS),
                |result| {
                    result.map(|(reports, _)| digest(&reports)).ok()
                        == Some(refs[j % FLEET_SEED_POOL])
                },
            );
        }
        passes.end();
    }
    passes.finish(median(&setups))
}

/// Per-design layer times of one traced job.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesignTimes {
    /// Standalone burst timeline.
    pub bursts: f64,
    /// Standalone placement index build.
    pub placement: f64,
    /// Shard kernels, with the lazy context the first shard builds taken
    /// out (it equals the two standalone builds above).
    pub kernel: f64,
    /// Slowest shard kernel.
    pub shard_max: f64,
    /// Report merge.
    pub merge: f64,
    /// Critical path had the shards run as `FleetSim` splits them over
    /// [`THREADS`] threads.
    pub critical: f64,
}

/// One design decomposed into its layer calls, each under its own span
/// beneath `parent`: prepare, the burst timeline and placement index
/// (standalone), every shard on this thread, and the merge. Returns the
/// report (which must equal `FleetSim::run`'s) and the design's times.
pub fn traced_design(
    tracer: &mut Tracer,
    parent: Option<usize>,
    job: u64,
    name: &str,
    config: &FleetConfig,
    seed: u64,
) -> (FleetReport, DesignTimes) {
    let scenario = FleetScenario { name: name.to_string(), fleet: *config, seed };
    let start = Instant::now();
    let prepared = scenario.prepare().expect("valid design");
    let prepared_at = Instant::now();
    tracer.record("fleet.prepare", parent, job, start, prepared_at);
    let mut burst_rng = SimRng::seed_from(seed).fork(BURST_STREAM);
    let bursts = config.bursts.timeline(&config.topology, config.horizon_hours, &mut burst_rng);
    let bursts_at = Instant::now();
    tracer.record("fleet.bursts", parent, job, prepared_at, bursts_at);
    drop(std::hint::black_box(PlacementIndex::build(config, !bursts.is_empty())));
    let placed_at = Instant::now();
    tracer.record("fleet.placement", parent, job, bursts_at, placed_at);

    let context = (bursts_at - prepared_at + (placed_at - bursts_at)).as_secs_f64();
    let mut shard_times = Vec::with_capacity(config.shards);
    let mut outcomes = Vec::with_capacity(config.shards);
    let mut last = Instant::now();
    for shard in 0..prepared.shards() {
        outcomes.push(prepared.run_shard(shard));
        let now = Instant::now();
        tracer.record("fleet.shard", parent, job, last, now);
        let secs = (now - last).as_secs_f64();
        shard_times.push(if shard == 0 { (secs - context).max(0.0) } else { secs });
        last = now;
    }
    let report = prepared.report(&outcomes);
    let merged_at = Instant::now();
    tracer.record("fleet.merge", parent, job, last, merged_at);
    assert_eq!(report.bursts_struck as usize, bursts.len(), "standalone burst timeline diverged");

    // FleetSim hands thread t a contiguous run of shards, the first
    // `shards % threads` threads one extra.
    let threads = THREADS.min(shard_times.len()).max(1);
    let (chunk, extra) = (shard_times.len() / threads, shard_times.len() % threads);
    let mut offset = 0;
    let mut slowest_thread = 0.0f64;
    for t in 0..threads {
        let count = chunk + usize::from(t < extra);
        slowest_thread = slowest_thread.max(shard_times[offset..offset + count].iter().sum());
        offset += count;
    }
    let times = DesignTimes {
        bursts: (bursts_at - prepared_at).as_secs_f64(),
        placement: (placed_at - bursts_at).as_secs_f64(),
        kernel: shard_times.iter().sum(),
        shard_max: shard_times.iter().copied().fold(0.0, f64::max),
        merge: (merged_at - last).as_secs_f64(),
        critical: (placed_at - start).as_secs_f64()
            + slowest_thread
            + (merged_at - last).as_secs_f64(),
    };
    (report, times)
}

/// The traced fleet profile over the first `jobs` jobs: an untraced pass,
/// the traced decomposition of every design, and `run_traced` against
/// `run` for the telemetry ratio. Returns `(attempted, failed)`.
pub fn profile(
    seed: u64,
    jobs: usize,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> (usize, usize) {
    let designs = inputs::fleet_designs();
    let pinned = seed == DEFAULT_SEED && pins::FLEET.len() == FLEET_SEED_POOL;

    // Untraced pass.
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(jobs);
    let mut untraced = Vec::with_capacity(jobs);
    let mut run_secs = vec![0.0; designs.len()];
    for j in 0..jobs {
        let t = Instant::now();
        let (reports, times) =
            run_designs(&designs, inputs::fleet_seed(seed, j), THREADS).expect("fleet run");
        latencies.push(t.elapsed().as_secs_f64());
        for (total, secs) in run_secs.iter_mut().zip(times) {
            *total += secs;
        }
        untraced.push(reports);
    }
    let wall_untraced = start.elapsed().as_secs_f64();

    // Traced pass.
    let mut failed = 0;
    let mut per_job: Vec<DesignTimes> = Vec::with_capacity(jobs);
    let mut events = 0u64;
    let start = Instant::now();
    for (j, reports) in untraced.iter().enumerate() {
        let seed_j = inputs::fleet_seed(seed, j);
        let root = tracer.open("fleet.job", None, j as u64);
        let mut total = DesignTimes::default();
        let mut traced = Vec::with_capacity(designs.len());
        for (name, config) in &designs {
            let (report, times) = traced_design(tracer, Some(root), j as u64, name, config, seed_j);
            traced.push(report);
            total.bursts += times.bursts;
            total.placement += times.placement;
            total.kernel += times.kernel;
            total.shard_max = total.shard_max.max(times.shard_max);
            total.merge += times.merge;
            total.critical += times.critical;
        }
        tracer.close(root);
        events += traced.iter().map(|r| r.totals.events).sum::<u64>();
        let ok = digest(&traced) == digest(reports)
            && (!pinned || digest(reports) == pins::FLEET[j % FLEET_SEED_POOL]);
        failed += usize::from(!ok);
        per_job.push(total);
    }
    let wall_traced = start.elapsed().as_secs_f64();

    // Telemetry on, against the untraced pass's `run` times.
    let mut traced_secs = vec![0.0; designs.len()];
    for (j, reports) in untraced.iter().enumerate() {
        let seed_j = inputs::fleet_seed(seed, j);
        for (d, ((_, config), report)) in designs.iter().zip(reports).enumerate() {
            let t = Instant::now();
            let (with_telemetry, _) = FleetSim::new(*config)
                .seed(seed_j)
                .threads(THREADS)
                .run_traced()
                .expect("traced fleet run");
            traced_secs[d] += t.elapsed().as_secs_f64();
            failed +=
                usize::from(digest(&[with_telemetry]) != digest(std::slice::from_ref(report)));
        }
    }

    let field = |f: fn(&DesignTimes) -> f64| per_job.iter().map(f).collect::<Vec<f64>>();
    let kernel_total: f64 = per_job.iter().map(|t| t.kernel).sum();
    metrics.set("fleet.bursts_s", "s", median(&field(|t| t.bursts)));
    metrics.set("fleet.placement_s", "s", median(&field(|t| t.placement)));
    metrics.set("fleet.kernel_s", "s", median(&field(|t| t.kernel)));
    metrics.set("fleet.events", "count", events as f64);
    metrics.set("fleet.kernel_ns_per_event", "ns", kernel_total / events as f64 * 1e9);
    metrics.set("fleet.shard_max_s", "s", median(&field(|t| t.shard_max)));
    metrics.set("fleet.merge_s", "s", median(&field(|t| t.merge)));
    metrics.set("fleet.pool_s", "s", median(&latencies) - median(&field(|t| t.critical)));
    let ratio = traced_secs.iter().sum::<f64>() / run_secs.iter().sum::<f64>();
    metrics.set("telemetry.traced_ratio", "ratio", ratio);
    for (d, (name, _)) in designs.iter().enumerate() {
        let ratio = traced_secs[d] / run_secs[d];
        metrics.set(&format!("telemetry.traced_ratio.{name}"), "ratio", ratio);
    }
    metrics.set("trace.overhead_frac.fleet", "ratio", wall_traced / wall_untraced - 1.0);
    (jobs, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_digests_match_a_recomputation() {
        let designs = inputs::fleet_designs();
        for j in 0..2 {
            let (reports, _) =
                run_designs(&designs, inputs::fleet_seed(DEFAULT_SEED, j), 1).unwrap();
            assert_eq!(Some(&digest(&reports)), pins::FLEET.get(j), "pinned digest {j} is stale");
        }
    }

    /// The traced decomposition reproduces `FleetSim::run` bit for bit for
    /// all six designs.
    #[test]
    fn traced_decomposition_equals_fleet_sim_for_every_design() {
        let mut tracer = Tracer::new();
        for (name, config) in inputs::fleet_designs() {
            let seed = inputs::fleet_seed(DEFAULT_SEED, 3);
            let (traced, _) = traced_design(&mut tracer, None, 0, name, &config, seed);
            let direct = FleetSim::new(config).seed(seed).threads(THREADS).run().unwrap();
            assert_eq!(
                serde_json::to_string(&traced).unwrap(),
                serde_json::to_string(&direct).unwrap(),
                "{name}"
            );
            assert_eq!(traced.totals.events, direct.totals.events, "{name}");
            assert_eq!(
                traced.totals.loss_intervals.mean().to_bits(),
                direct.totals.loss_intervals.mean().to_bits(),
                "{name}"
            );
        }
    }
}
