//! Span recorder for the traced run.
//!
//! Spans are taken in the benchmark's own code, around its calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! They are kept in memory and written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval: a call into a layer, or a job that contains such
/// calls.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `fleet.shard`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to (workload-local job index).
    pub job: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, job };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, job, start, Instant::now());
        out
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, job, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in seconds: its duration minus the part of
    /// it that its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = span.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                (span.end_ns - span.start_ns - covered) as f64 * 1e-9
            })
            .collect()
    }

    /// For every root span named `root`: the share of its duration that
    /// the layer spans beneath it do not account for,
    /// `|duration − Σ descendant self time| / duration`.
    pub fn unaccounted_shares(&self, root: &str) -> Vec<f64> {
        let self_times = self.self_times();
        let mut child_sum = vec![0.0; self.spans.len()];
        for (i, own) in self_times.iter().enumerate() {
            if self.spans[i].parent.is_none() {
                continue;
            }
            let mut top = i;
            while let Some(parent) = self.spans[top].parent {
                top = parent;
            }
            child_sum[top] += own;
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.parent.is_none() && span.name == root)
            .map(|(i, span)| (span.secs() - child_sum[i]).abs() / span.secs())
            .collect()
    }

    /// Per-job sums of the self times of spans named `name`, for jobs
    /// `0..jobs` (jobs without such a span read 0).
    pub fn per_job_self(&self, name: &str, jobs: usize) -> Vec<f64> {
        let mut sums = vec![0.0; jobs];
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            if span.name == name && (span.job as usize) < jobs {
                sums[span.job as usize] += own;
            }
        }
        sums
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.job
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, job: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut tracer = Tracer::new();
        tracer.spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps `a` by 10
            span("c", 60, 90, Some(0)),
            span("c.inner", 70, 80, Some(3)),
        ];
        let own: Vec<u64> = tracer.self_times().iter().map(|s| (s * 1e9).round() as u64).collect();
        assert_eq!(own, vec![20, 30, 30, 20, 10]);
        let share = tracer.unaccounted_shares("job");
        assert_eq!(share.len(), 1);
        assert!((share[0] - 0.10).abs() < 1e-12, "{share:?}");
    }
}
