//! What a run measured, and how it is printed.

use crate::{measure, PASSES};
use std::time::Instant;

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, &'static str, f64)>);

impl Metrics {
    /// Adds a metric.
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push((name.to_string(), unit, value));
    }

    /// Every metric, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, &'static str, f64)> {
        self.0.iter()
    }

    /// The metrics as a JSON object of `{"value": …, "unit": …}` entries.
    /// Values keep every digit; counts print as integers.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .0
            .iter()
            .map(|(name, unit, value)| {
                let value = if *unit == "count" && value.fract() == 0.0 {
                    format!("{}", *value as u64)
                } else {
                    format!("{value:?}")
                };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", entries.join(","))
    }
}

/// End-to-end figures of one untraced run.
pub struct EndToEnd {
    /// Median set-up time over the run's set-up rounds.
    pub setup_s: f64,
    /// Every pass's wall time, seconds, in pass order.
    pub pass_walls: Vec<f64>,
    /// Per-job latency, seconds, in job order: each job's fastest pass.
    pub latencies: Vec<f64>,
    /// Per-job process CPU time, seconds, in job order: each job's least.
    pub cpu: Vec<f64>,
    /// Median over the passes of each pass's peak resident set, megabytes.
    pub peak_rss_mb: f64,
    /// Job runs over all passes.
    pub attempted: usize,
    /// Job runs whose output failed verification (or that errored).
    pub failed: usize,
}

impl EndToEnd {
    /// The seven end-to-end metrics.
    pub fn metrics(&self) -> Metrics {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", "s", self.setup_s);
        metrics.set("wall_s", "s", self.latencies.iter().sum());
        metrics.set("job_p50_s", "s", measure::percentile(&self.latencies, 0.5));
        metrics.set("job_p90_s", "s", measure::percentile(&self.latencies, 0.9));
        metrics.set("cpu_s", "s", self.cpu.iter().sum());
        metrics.set("peak_rss_mb", "MB", self.peak_rss_mb);
        let ok = (self.attempted - self.failed) as f64 / self.attempted as f64;
        metrics.set("ok_frac", "ratio", ok);
        metrics
    }
}

/// The timed phase of a run: [`PASSES`] passes over the same jobs, each
/// from the same starting state. Each job counts with its fastest pass and
/// its least CPU time; `wall_s` and `cpu_s` are their sums, the timed phase
/// as it runs when no job is held up by others' load.
///
/// Why: on a shared host, load from other tenants of the machine comes in
/// episodes of several seconds that slow everything running by a third or
/// more, CPU time included. An episode moves these figures only if it
/// covers the same job in every pass, and the passes lie seconds apart.
///
/// Each pass resets the peak resident set when it starts, so input
/// generation and set-up do not count, and `peak_rss_mb` is the median of
/// the passes' peaks: how much of the heap an earlier pass left with the
/// allocator varies from run to run, and one pass's peak with it.
pub struct Passes {
    best: Vec<f64>,
    cpu: Vec<f64>,
    walls: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    attempted: usize,
    failed: usize,
    pass_start: Option<Instant>,
}

impl Passes {
    /// Passes over `jobs` jobs.
    pub fn new(jobs: usize) -> Self {
        Self {
            best: vec![f64::INFINITY; jobs],
            cpu: vec![f64::INFINITY; jobs],
            walls: Vec::with_capacity(PASSES),
            peak_rss_mb: Vec::with_capacity(PASSES),
            attempted: 0,
            failed: 0,
            pass_start: None,
        }
    }

    /// Starts a pass.
    pub fn begin(&mut self) {
        measure::reset_peak_rss().expect("reset peak RSS via /proc/self/clear_refs");
        self.pass_start = Some(Instant::now());
    }

    /// Runs and times job `job` of the current pass, then hands its output
    /// to `verify`, untimed.
    pub fn job<T>(&mut self, job: usize, run: impl FnOnce() -> T, verify: impl FnOnce(T) -> bool) {
        let cpu = measure::cpu_seconds();
        let start = Instant::now();
        let out = run();
        let latency = start.elapsed().as_secs_f64();
        let cpu = measure::cpu_seconds() - cpu;
        self.best[job] = self.best[job].min(latency);
        self.cpu[job] = self.cpu[job].min(cpu);
        self.attempted += 1;
        self.failed += usize::from(!verify(out));
    }

    /// Ends the current pass.
    pub fn end(&mut self) {
        let start = self.pass_start.take().expect("a pass was begun");
        self.walls.push(start.elapsed().as_secs_f64());
        self.peak_rss_mb.push(measure::peak_rss_mb());
    }

    /// The run's figures, with `setup_s` measured by the caller.
    pub fn finish(self, setup_s: f64) -> EndToEnd {
        assert!(self.best.iter().all(|t| t.is_finite()), "a job was never run");
        EndToEnd {
            setup_s,
            pass_walls: self.walls,
            latencies: self.best,
            cpu: self.cpu,
            peak_rss_mb: measure::median(&self.peak_rss_mb),
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}
