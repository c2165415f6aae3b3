//! `study`: reliability studies run the way `campaign --cache-dir` runs
//! them — `CampaignDriver` on two threads over caches loaded from the
//! seeded history, with write-through armed, so every unit misses and
//! appends.

use crate::history::{self, Caches};
use crate::inputs::{self, DEFAULT_SEED};
use crate::measure::{self, median};
use crate::report::{EndToEnd, Metrics, Passes};
use crate::trace::Tracer;
use crate::{pins, PASSES, SETUP_ROUNDS, THREADS};
use ltds_core::hash::fnv1a;
use ltds_fleet::FleetCampaign;
use ltds_sim::campaign::{CampaignDriver, JsonlSink, RecordKind, ReportSink, StreamRecord};
use std::path::Path;
use std::time::Instant;

/// Jobs in each pass of a run of `seconds`: at least 100, so ten lie
/// beyond the p90.
pub fn jobs_for(seconds: u64) -> usize {
    ((seconds * 10 / PASSES as u64) as usize).max(100)
}

/// Runs `job` through the driver and returns its JSONL stream, or `None` if
/// the run failed.
fn stream(job: &FleetCampaign, threads: usize, caches: Option<&Caches>) -> Option<Vec<u8>> {
    let mut driver = CampaignDriver::new(job).threads(threads);
    if let Some(caches) = caches {
        driver = driver.point_cache(&caches.points).shard_cache(&caches.shards);
    }
    let mut sink = JsonlSink::new(Vec::new());
    let summary = driver.run(&mut sink).ok()?;
    (summary.units_run == summary.units_total).then(|| sink.into_inner())
}

/// Digest of `job`'s stream, or `None` if the run failed.
fn run_job(job: &FleetCampaign, threads: usize, caches: Option<&Caches>) -> Option<u64> {
    stream(job, threads, caches).map(|bytes| fnv1a(&bytes))
}

/// Reference stream digests of `jobs`: pinned for the default seed,
/// otherwise recomputed.
pub fn references(seed: u64, jobs: &[FleetCampaign]) -> Vec<u64> {
    let pinned: &[u64] = if seed == DEFAULT_SEED { pins::STUDY } else { &[] };
    let mut refs: Vec<u64> = pinned.iter().copied().take(jobs.len()).collect();
    refs.extend(recompute(&jobs[refs.len()..]));
    refs
}

/// Stream digests of `jobs` run single-threaded without caches, two jobs
/// at a time.
pub fn recompute(jobs: &[FleetCampaign]) -> Vec<u64> {
    crate::par_map(jobs, |job| run_job(job, 1, None).expect("reference study run"))
}

/// Generates the history into `workdir/history` (once per run) and puts a
/// fresh copy of it at `workdir/<name>` for each name in `copies`.
fn fresh_history(seed: u64, workdir: &Path, copies: &[impl AsRef<Path>]) {
    let master = workdir.join("history");
    if !master.exists() {
        history::generate(seed, &master);
    }
    for name in copies {
        measure::copy_dir(&master, &workdir.join(name)).expect("copy history");
    }
}

/// [`SETUP_ROUNDS`] set-ups over `dir`; returns their times and the last
/// round's caches.
fn setup(dir: &Path) -> (Vec<f64>, Caches) {
    let mut times = Vec::with_capacity(SETUP_ROUNDS);
    let mut caches = None;
    for _ in 0..SETUP_ROUNDS {
        // The previous round's caches go before the next load starts, so
        // only one set is resident at a time.
        drop(caches.take());
        let start = Instant::now();
        let (opened, _) = history::open(dir);
        times.push(start.elapsed().as_secs_f64());
        caches = Some(opened);
    }
    (times, caches.expect("at least one set-up round"))
}

/// The untraced run. Every pass sets up over its own fresh copy of the
/// history, so each pass's jobs miss and append exactly as the first's.
pub fn run(seed: u64, seconds: u64, workdir: &Path) -> EndToEnd {
    let jobs: Vec<FleetCampaign> =
        (0..jobs_for(seconds)).map(|j| inputs::study_job(seed, j)).collect();
    let refs = references(seed, &jobs);
    let copies: Vec<String> = (0..PASSES).map(|p| format!("cache-{p}")).collect();
    fresh_history(seed, workdir, &copies);

    let mut setups = Vec::with_capacity(PASSES * SETUP_ROUNDS);
    let mut passes = Passes::new(jobs.len());
    for copy in &copies {
        let (times, caches) = setup(&workdir.join(copy));
        setups.extend(times);
        passes.begin();
        for (j, (job, reference)) in jobs.iter().zip(&refs).enumerate() {
            passes.job(
                j,
                || run_job(job, THREADS, Some(&caches)),
                |digest| digest == Some(*reference),
            );
        }
        passes.end();
    }
    passes.finish(median(&setups))
}

/// A report sink that streams JSONL like `JsonlSink` and records, for each
/// record, the unit's compute time (the gap since the previous release)
/// and its own time.
struct TimingSink<'a> {
    tracer: &'a mut Tracer,
    root: usize,
    job: u64,
    last: Instant,
    trials: &'a [(String, u64)],
    out: JsonlSink<Vec<u8>>,
    total_trials: u64,
}

impl ReportSink for TimingSink<'_> {
    fn record(&mut self, record: &StreamRecord) -> std::io::Result<()> {
        let released = Instant::now();
        let name = match record.kind {
            RecordKind::FleetShard | RecordKind::ShardTrace => "campaign.shard",
            RecordKind::SweepPoint if inputs::is_rare_sweep(&record.task) => "campaign.rare_point",
            RecordKind::SweepPoint => "campaign.point",
        };
        if record.kind == RecordKind::SweepPoint {
            let (_, trials) =
                self.trials.iter().find(|(task, _)| *task == record.task).expect("sweep");
            self.total_trials += trials;
        }
        self.tracer.record(name, Some(self.root), self.job, self.last, released);
        self.out.record(record)?;
        self.last = Instant::now();
        self.tracer.record("campaign.sink", Some(self.root), self.job, released, self.last);
        Ok(())
    }
}

/// The traced study profile over the first `jobs` jobs: an untraced pass
/// and a traced single-threaded pass over the same jobs, each on its own
/// fresh copy of the history. Returns `(attempted, failed)`.
pub fn profile(
    seed: u64,
    jobs: usize,
    workdir: &Path,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> (usize, usize) {
    let jobs: Vec<FleetCampaign> = (0..jobs).map(|j| inputs::study_job(seed, j)).collect();
    let pinned: &[u64] = if seed == DEFAULT_SEED { pins::STUDY } else { &[] };
    fresh_history(seed, workdir, &["study-a", "study-b"]);
    let history_bytes = measure::dir_bytes(&workdir.join("history"));

    // Untraced pass.
    let dir_a = workdir.join("study-a");
    let (caches, load) = history::open(&dir_a);
    let before = measure::dir_bytes(&dir_a);
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut untraced = Vec::new();
    for job in &jobs {
        let t = Instant::now();
        untraced.push(run_job(job, THREADS, Some(&caches)));
        latencies.push(t.elapsed().as_secs_f64());
    }
    let wall_untraced = start.elapsed().as_secs_f64();
    let append_bytes = measure::dir_bytes(&dir_a) - before;
    drop(caches);

    // Traced pass: one thread, so the gaps between record releases are
    // the units' compute times.
    let (caches, _) = history::open(&workdir.join("study-b"));
    let first_span = tracer.spans().len();
    let start = Instant::now();
    let mut failed = 0;
    let mut trials = 0;
    for (j, job) in jobs.iter().enumerate() {
        let sweeps: Vec<(String, u64)> =
            job.sweeps.iter().map(|s| (s.name.clone(), s.trials)).collect();
        let root = tracer.open("study.job", None, j as u64);
        let mut sink = TimingSink {
            tracer: &mut *tracer,
            root,
            job: j as u64,
            last: Instant::now(),
            trials: &sweeps,
            out: JsonlSink::new(Vec::new()),
            total_trials: 0,
        };
        let result = CampaignDriver::new(job)
            .threads(1)
            .point_cache(&caches.points)
            .shard_cache(&caches.shards)
            .run(&mut sink);
        let (stream, job_trials) = (sink.out.into_inner(), sink.total_trials);
        tracer.close(root);
        trials += job_trials;
        let traced = result.ok().map(|_| fnv1a(&stream));
        let pin = pinned.get(j).copied();
        // The 2-thread stream must equal the 1-thread stream (and the pin).
        if traced.is_none() || traced != untraced[j] || pin.is_some_and(|p| Some(p) != traced) {
            failed += 1;
        }
    }
    let wall_traced = start.elapsed().as_secs_f64();

    let n = jobs.len();
    let per_job = |name| tracer.per_job_self(name, n);
    let (point, rare, shard, sink) = (
        per_job("campaign.point"),
        per_job("campaign.rare_point"),
        per_job("campaign.shard"),
        per_job("campaign.sink"),
    );
    let units: Vec<&crate::trace::Span> = tracer.spans()[first_span..]
        .iter()
        .filter(|s| s.name.starts_with("campaign.") && s.name != "campaign.sink")
        .collect();
    let mut unit_max = vec![0.0f64; n];
    for span in &units {
        unit_max[span.job as usize] = unit_max[span.job as usize].max(span.secs());
    }
    let idle: Vec<f64> = (0..n)
        .map(|j| 1.0 - (point[j] + rare[j] + shard[j]) / (THREADS as f64 * latencies[j]))
        .collect();
    let mc_secs: f64 = point.iter().chain(&rare).sum();

    metrics.set("campaign.point_s", "s", median(&point));
    metrics.set("campaign.rare_point_s", "s", median(&rare));
    metrics.set("campaign.shard_s", "s", median(&shard));
    metrics.set("campaign.unit_max_s", "s", median(&unit_max));
    metrics.set("campaign.pool_idle_frac", "ratio", median(&idle));
    metrics.set("campaign.sink_s", "s", median(&sink));
    metrics.set("campaign.units", "count", units.len() as f64);
    metrics.set("monte_carlo.trials", "count", trials as f64);
    metrics.set("monte_carlo.ns_per_trial", "ns", mc_secs / trials as f64 * 1e9);
    metrics.set("cache.load_s", "s", load.load_s);
    metrics.set("cache.load_mb_per_s", "MB/s", history_bytes as f64 / 1e6 / load.load_s);
    metrics.set("cache.loaded_records", "count", load.loaded as f64);
    metrics.set("cache.skipped_records", "count", load.skipped as f64);
    metrics.set("cache.append_bytes.study", "B", append_bytes as f64);
    metrics.set("trace.overhead_frac.study", "ratio", wall_traced / wall_untraced - 1.0);
    (n, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A study job streams the same bytes on one thread as on two, and
    /// those bytes are the pinned ones.
    #[test]
    fn one_thread_stream_equals_two_thread_stream() {
        let job = inputs::study_job(DEFAULT_SEED, 0);
        let one = stream(&job, 1, None).expect("1-thread run");
        let two = stream(&job, THREADS, None).expect("2-thread run");
        assert!(one == two, "1-thread and 2-thread streams differ");
        assert_eq!(Some(&fnv1a(&one)), pins::STUDY.first(), "pinned digest is stale");
    }
}
