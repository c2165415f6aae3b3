//! Deterministic sim-time telemetry for the fleet kernel.
//!
//! The paper's central question is *why* archives lose data — which causal
//! chains (latent fault → missed detection → slow repair → correlated
//! second fault) actually kill a replica group — and aggregate counters
//! cannot answer it. This crate is the instrumentation layer the fleet
//! kernel and campaign driver thread their probes through:
//!
//! * **Metrics** — a per-shard time series ([`MetricSample`]) sampled at a
//!   configurable sim-time cadence: event-queue occupancy, undetected
//!   latent-fault population, degraded-group count, per-site repair queue
//!   depth and byte-budget utilization, scrub-tour progress, cumulative
//!   fault/repair/loss counters.
//! * **Loss post-mortems** — every group keeps a bounded ring of its recent
//!   kernel events; when the group dies the ring is flushed as a causal
//!   [`LossTrace`] (fault classes, detection path, repair waits), answering
//!   the latent-vs-direct question per incident instead of in aggregate.
//! * **Export** — [`RunTrace::write_jsonl`] emits the whole trace over the
//!   `ltds_core::record` checksummed line framing; [`scan_jsonl`] validates
//!   checksums and schema and re-derives loss totals from the post-mortem
//!   stream, which is what the `ltds-trace` CLI builds on.
//!
//! The probe surface is *behaviour-free by construction*: [`Probe`] is
//! statically dispatched, the disabled impl ([`NoTelemetry`]) compiles to
//! nothing (`Probe::ENABLED` gates every call site), and no probe consumes
//! RNG — so a telemetry-on run produces bit-identical `FleetReport`s to a
//! telemetry-off run, and the pinned digests stand either way. Sinks are
//! per-shard values merged in shard order, so exported traces are
//! byte-identical for any worker-thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ltds_core::fault::FaultClass;
use ltds_core::record;
use serde::{Deserialize, Serialize, Value};

/// Schema tag carried by the first line of every trace file.
pub const TRACE_SCHEMA: &str = "ltds-trace/1";

/// Telemetry knobs. Lives on *drivers* (`FleetSim`, campaign driver), never
/// inside `FleetConfig`/`SimConfig`: configs are content-addressed cache
/// keys and digest inputs, and observability must not perturb them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Sim-time hours between metric samples.
    pub sample_period_hours: f64,
    /// Events retained per group for loss post-mortems (older events are
    /// dropped, counted in [`LossTrace::dropped`]).
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    /// Monthly samples (730 h), 16-event post-mortem rings.
    fn default() -> Self {
        Self { sample_period_hours: 730.0, ring_capacity: 16 }
    }
}

impl TelemetryConfig {
    /// Sets the sampling cadence in sim-time hours.
    pub fn sample_period_hours(mut self, hours: f64) -> Self {
        assert!(hours > 0.0 && hours.is_finite(), "sample period must be positive");
        self.sample_period_hours = hours;
        self
    }

    /// Sets the per-group post-mortem ring capacity.
    pub fn ring_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        self.ring_capacity = capacity;
        self
    }
}

/// A typed kernel event, as seen by a probe. `faulty` fields report the
/// group's faulty-replica count *after* the transition, so a post-mortem
/// reads as a trajectory towards the loss threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProbeEvent {
    /// A replica faulted (organically or struck by a correlated burst).
    Fault {
        /// Visible (operationally noticed) or latent (scrub-detected).
        class: FaultClass,
        /// Whether a correlated burst caused the fault.
        from_burst: bool,
        /// Faulty replicas in the group after this fault.
        faulty: u16,
    },
    /// A repair became ready and was committed to its site pipeline. For
    /// visible faults this coincides with the fault; for latent faults it
    /// marks the scrub tour's *detection* — the gap back to the `Fault`
    /// event is the detection latency.
    RepairStart {
        /// Class of the fault being repaired.
        class: FaultClass,
        /// Site whose pipeline serves the repair.
        site: u32,
        /// Queueing delay the site's backlog imposes before the transfer
        /// starts (zero under unlimited bandwidth).
        wait_hours: f64,
        /// Hours of pipeline time the transfer occupies (zero under
        /// unlimited bandwidth).
        transfer_hours: f64,
    },
    /// A repair completed; the replica returned to service.
    RepairDone {
        /// Class of the fault that was repaired.
        class: FaultClass,
        /// Site whose pipeline served the repair.
        site: u32,
        /// Faulty replicas remaining in the group.
        faulty: u16,
    },
}

/// A ring-buffered event with its sim time and replica index within the
/// group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Sim-time hours of the event.
    pub t: f64,
    /// Replica index within the group (`0..replicas`).
    pub replica: u32,
    /// The event itself.
    pub event: ProbeEvent,
}

/// The kernel's instrumentation surface. Statically dispatched: generic
/// code gates every probe call on [`Probe::ENABLED`], so the disabled impl
/// costs nothing — no branch, no call, no data. Implementations must not
/// consume RNG or otherwise feed back into simulation behaviour.
pub trait Probe {
    /// Whether this probe records anything (call sites compile out when
    /// `false`).
    const ENABLED: bool;

    /// Records a typed event on a shard-local slot (`slot = local_group *
    /// replicas + replica`).
    fn record(&mut self, t: f64, slot: u32, event: ProbeEvent);

    /// Records a data loss of a shard-local group: `interval_hours` since
    /// the group's last renewal, killed by a fault of class `fatal`.
    /// Flushes the group's post-mortem ring.
    fn loss(&mut self, t: f64, group: u32, interval_hours: f64, fatal: FaultClass);

    /// Advances sim time (called once per popped kernel event with the
    /// current event-queue occupancy); due metric samples are emitted here.
    fn tick(&mut self, t: f64, queue_len: usize);
}

/// The disabled probe: every method is an inlined no-op and
/// [`Probe::ENABLED`] is `false`, so instrumented code paths compile down
/// to the uninstrumented ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTelemetry;

impl Probe for NoTelemetry {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _t: f64, _slot: u32, _event: ProbeEvent) {}

    #[inline(always)]
    fn loss(&mut self, _t: f64, _group: u32, _interval_hours: f64, _fatal: FaultClass) {}

    #[inline(always)]
    fn tick(&mut self, _t: f64, _queue_len: usize) {}
}

/// One point of a shard's metric time series. Gauges reflect the shard
/// state at sim time `t` (immediately before any event scheduled exactly
/// at `t`); counters are cumulative since the shard started.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Sample time in sim hours.
    pub t: f64,
    /// Shard this sample belongs to.
    pub shard: u32,
    /// Event-queue occupancy at the most recent kernel event.
    pub queue: u64,
    /// Undetected latent faults outstanding (the scrub tour has not found
    /// them yet).
    pub latent_open: u64,
    /// Groups with at least one faulty replica.
    pub degraded: u64,
    /// Repairs committed to a pipeline and not yet completed.
    pub repairs_in_flight: u64,
    /// Per-site in-flight repair counts (queue depth).
    pub site_queue: Vec<u32>,
    /// Per-site byte-budget utilization: transfer hours committed during
    /// this sample window divided by the window length. Exceeds 1 while a
    /// backlog builds faster than the pipeline drains.
    pub site_util: Vec<f64>,
    /// Position within the scrub tour period, in `[0, 1)`; `None` when
    /// latent faults are never detected.
    pub scrub_progress: Option<f64>,
    /// Cumulative faults so far.
    pub faults: u64,
    /// Cumulative completed repairs so far.
    pub repairs: u64,
    /// Cumulative group losses so far.
    pub losses: u64,
}

/// Post-mortem of one group death: the causal trail of recent events that
/// led to crossing the loss threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossTrace {
    /// Sim time of the loss.
    pub t: f64,
    /// Shard the group lived in.
    pub shard: u32,
    /// Global group id (`local * shards + shard`, the round-robin deal).
    pub group: u64,
    /// Hours survived since the group's last renewal.
    pub interval_hours: f64,
    /// Class of the fault that crossed the threshold.
    pub fatal: FaultClass,
    /// Faulty replicas at the moment of loss (the loss threshold).
    pub faulty: u16,
    /// Undetected latent faults among them — how much of the kill was
    /// invisible to operators when it landed.
    pub latent_open: u16,
    /// Events evicted from the ring before the flush (0 means `events` is
    /// the group's complete post-renewal history).
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// Per-shard counter totals, exported at the end of the shard's stream.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardSummary {
    /// Shard these totals belong to.
    pub shard: u32,
    /// Total faults observed.
    pub faults: u64,
    /// Faults of visible class.
    pub faults_visible: u64,
    /// Faults of latent class.
    pub faults_latent: u64,
    /// Faults caused by correlated bursts.
    pub burst_faults: u64,
    /// Completed repairs.
    pub repairs: u64,
    /// Group losses.
    pub losses: u64,
    /// Losses whose fatal fault was visible.
    pub fatal_visible: u64,
    /// Losses whose fatal fault was latent.
    pub fatal_latent: u64,
    /// Metric samples emitted.
    pub samples: u64,
    /// Mean queueing delay across committed repairs (0 when none).
    pub repair_wait_mean_hours: f64,
    /// Maximum queueing delay across committed repairs.
    pub repair_wait_max_hours: f64,
}

/// Everything one shard's sink recorded, in deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardTrace {
    /// Metric time series, ascending in time.
    pub samples: Vec<MetricSample>,
    /// Loss post-mortems, in loss order.
    pub losses: Vec<LossTrace>,
    /// Counter totals.
    pub summary: ShardSummary,
}

/// Static facts a sink needs about the shard it instruments.
#[derive(Debug, Clone, Copy)]
pub struct ShardParams {
    /// Shard index.
    pub shard: u32,
    /// Total shard count (global group ids are `local * shards + shard`).
    pub shards: u32,
    /// Groups dealt to this shard.
    pub groups: usize,
    /// Replicas per group.
    pub replicas: usize,
    /// Sites in the fleet topology.
    pub sites: usize,
    /// Simulation horizon (the metric series runs to here).
    pub horizon_hours: f64,
    /// Scrub tour `(period, phase)` driving the progress gauge, if latent
    /// faults are detectable.
    pub scrub: Option<(f64, f64)>,
}

/// Per-group post-mortem ring buffer.
#[derive(Debug, Clone, Default)]
struct Ring {
    events: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, capacity: usize, event: TraceEvent) {
        if self.events.len() < capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % capacity;
            self.dropped += 1;
        }
    }

    /// Drains the ring in chronological order and resets it.
    fn flush(&mut self) -> (Vec<TraceEvent>, u64) {
        let mut events = Vec::with_capacity(self.events.len());
        events.extend_from_slice(&self.events[self.head..]);
        events.extend_from_slice(&self.events[..self.head]);
        let dropped = self.dropped;
        self.events.clear();
        self.head = 0;
        self.dropped = 0;
        (events, dropped)
    }
}

/// Sentinel for "no repair in flight on this slot".
const NO_SITE: u16 = u16::MAX;

/// The enabled probe: one per shard, owned by the worker that simulates
/// the shard, merged in shard order afterwards. Maintains every gauge
/// itself from the typed event stream, so the kernel only reports what
/// happened.
#[derive(Debug, Clone)]
pub struct ShardTelemetry {
    params: ShardParams,
    config: TelemetryConfig,
    next_sample: f64,
    last_queue: usize,
    // Gauges.
    latent_open: u64,
    degraded: u64,
    in_flight: u64,
    group_faulty: Vec<u16>,
    /// Site serving each slot's in-flight repair (`NO_SITE` when none).
    slot_site: Vec<u16>,
    /// Whether the slot carries an undetected latent fault.
    slot_latent: Vec<bool>,
    site_queue: Vec<u32>,
    /// Transfer hours committed per site since the last sample.
    site_window: Vec<f64>,
    // Counters.
    summary: ShardSummary,
    wait_sum: f64,
    wait_count: u64,
    // Output.
    samples: Vec<MetricSample>,
    losses: Vec<LossTrace>,
    rings: Vec<Ring>,
}

impl ShardTelemetry {
    /// Creates a sink for one shard.
    pub fn new(params: ShardParams, config: TelemetryConfig) -> Self {
        assert!(config.sample_period_hours > 0.0, "sample period must be positive");
        assert!(config.ring_capacity > 0, "ring capacity must be positive");
        let slots = params.groups * params.replicas;
        Self {
            params,
            config,
            next_sample: config.sample_period_hours,
            last_queue: 0,
            latent_open: 0,
            degraded: 0,
            in_flight: 0,
            group_faulty: vec![0; params.groups],
            slot_site: vec![NO_SITE; slots],
            slot_latent: vec![false; slots],
            site_queue: vec![0; params.sites],
            site_window: vec![0.0; params.sites],
            summary: ShardSummary { shard: params.shard, ..ShardSummary::default() },
            wait_sum: 0.0,
            wait_count: 0,
            samples: Vec::new(),
            losses: Vec::new(),
            rings: vec![Ring::default(); params.groups],
        }
    }

    fn emit_sample(&mut self, at: f64) {
        let period = self.config.sample_period_hours;
        let scrub_progress =
            self.params.scrub.map(|(tour, phase)| ((at - phase) / tour).rem_euclid(1.0));
        self.samples.push(MetricSample {
            t: at,
            shard: self.params.shard,
            queue: self.last_queue as u64,
            latent_open: self.latent_open,
            degraded: self.degraded,
            repairs_in_flight: self.in_flight,
            site_queue: self.site_queue.clone(),
            site_util: self.site_window.iter().map(|&h| h / period).collect(),
            scrub_progress,
            faults: self.summary.faults,
            repairs: self.summary.repairs,
            losses: self.summary.losses,
        });
        self.site_window.fill(0.0);
        self.summary.samples += 1;
    }

    /// Finalizes the sink: pads the metric series out to the horizon (so
    /// its length is a function of the config, not of when the last event
    /// happened) and returns the shard's trace.
    pub fn finish(mut self) -> ShardTrace {
        // An unbounded horizon cannot be padded; the series then ends at
        // the last event-driven sample.
        while self.params.horizon_hours.is_finite() && self.next_sample <= self.params.horizon_hours
        {
            let at = self.next_sample;
            self.emit_sample(at);
            self.next_sample += self.config.sample_period_hours;
        }
        let mut summary = self.summary;
        summary.repair_wait_mean_hours =
            if self.wait_count == 0 { 0.0 } else { self.wait_sum / self.wait_count as f64 };
        ShardTrace { samples: self.samples, losses: self.losses, summary }
    }
}

impl Probe for ShardTelemetry {
    const ENABLED: bool = true;

    fn record(&mut self, t: f64, slot: u32, event: ProbeEvent) {
        let s = slot as usize;
        let group = s / self.params.replicas;
        let replica = (s % self.params.replicas) as u32;
        match event {
            ProbeEvent::Fault { class, from_burst, .. } => {
                self.summary.faults += 1;
                match class {
                    FaultClass::Visible => self.summary.faults_visible += 1,
                    FaultClass::Latent => {
                        self.summary.faults_latent += 1;
                        self.slot_latent[s] = true;
                        self.latent_open += 1;
                    }
                }
                if from_burst {
                    self.summary.burst_faults += 1;
                }
                self.group_faulty[group] += 1;
                if self.group_faulty[group] == 1 {
                    self.degraded += 1;
                }
            }
            ProbeEvent::RepairStart { class, site, wait_hours, transfer_hours } => {
                if class == FaultClass::Latent && self.slot_latent[s] {
                    // The scrub tour found it: latent but no longer open.
                    self.slot_latent[s] = false;
                    self.latent_open -= 1;
                }
                self.wait_sum += wait_hours;
                self.wait_count += 1;
                if wait_hours > self.summary.repair_wait_max_hours {
                    self.summary.repair_wait_max_hours = wait_hours;
                }
                self.slot_site[s] = site as u16;
                self.site_queue[site as usize] += 1;
                self.site_window[site as usize] += transfer_hours;
                self.in_flight += 1;
            }
            ProbeEvent::RepairDone { .. } => {
                self.summary.repairs += 1;
                self.group_faulty[group] -= 1;
                if self.group_faulty[group] == 0 {
                    self.degraded -= 1;
                }
                // Every repair starts with a `RepairStart`, which closes its
                // latent fault, so none is still open when it completes.
                debug_assert!(!self.slot_latent[s], "a repair completed on an open latent fault");
                // That `RepairStart` also set the serving site, and only a
                // loss clears it, which drops the pending completion too.
                let site = self.slot_site[s];
                debug_assert!(site != NO_SITE, "a repair completed with no site serving it");
                self.site_queue[site as usize] -= 1;
                self.in_flight -= 1;
                self.slot_site[s] = NO_SITE;
            }
        }
        self.rings[group].push(self.config.ring_capacity, TraceEvent { t, replica, event });
    }

    fn loss(&mut self, t: f64, group: u32, interval_hours: f64, fatal: FaultClass) {
        let g = group as usize;
        self.summary.losses += 1;
        match fatal {
            FaultClass::Visible => self.summary.fatal_visible += 1,
            FaultClass::Latent => self.summary.fatal_latent += 1,
        }
        // Reconcile gauges with the renewal: the group restarts intact, so
        // its open latent faults and in-flight repairs vanish with it.
        let mut latent_open = 0u16;
        let base = g * self.params.replicas;
        for s in base..base + self.params.replicas {
            if self.slot_latent[s] {
                self.slot_latent[s] = false;
                self.latent_open -= 1;
                latent_open += 1;
            }
            let site = self.slot_site[s];
            if site != NO_SITE {
                self.site_queue[site as usize] -= 1;
                self.in_flight -= 1;
                self.slot_site[s] = NO_SITE;
            }
        }
        let faulty = self.group_faulty[g];
        if faulty > 0 {
            self.degraded -= 1;
        }
        self.group_faulty[g] = 0;
        let (events, dropped) = self.rings[g].flush();
        self.losses.push(LossTrace {
            t,
            shard: self.params.shard,
            group: g as u64 * self.params.shards as u64 + self.params.shard as u64,
            interval_hours,
            fatal,
            faulty,
            latent_open,
            dropped,
            events,
        });
    }

    fn tick(&mut self, t: f64, queue_len: usize) {
        self.last_queue = queue_len;
        while t >= self.next_sample {
            let at = self.next_sample;
            self.emit_sample(at);
            self.next_sample += self.config.sample_period_hours;
        }
    }
}

/// Header line of a trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Schema tag ([`TRACE_SCHEMA`]).
    pub schema: String,
    /// Master seed of the traced run.
    pub seed: u64,
    /// Shard count.
    pub shards: u32,
    /// Group count.
    pub groups: u64,
    /// Simulation horizon in hours.
    pub horizon_hours: f64,
    /// Metric sampling cadence.
    pub sample_period_hours: f64,
    /// Post-mortem ring capacity.
    pub ring_capacity: u64,
}

/// Fleet-level counter totals, exported as the trace's final line.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Total faults across shards.
    pub faults: u64,
    /// Visible-class faults.
    pub faults_visible: u64,
    /// Latent-class faults.
    pub faults_latent: u64,
    /// Burst-caused faults.
    pub burst_faults: u64,
    /// Completed repairs.
    pub repairs: u64,
    /// Group losses.
    pub losses: u64,
    /// Losses killed by a visible fault.
    pub fatal_visible: u64,
    /// Losses killed by a latent fault.
    pub fatal_latent: u64,
    /// Metric samples across shards.
    pub samples: u64,
    /// Post-mortems flushed across shards.
    pub postmortems: u64,
}

impl RunSummary {
    fn absorb(&mut self, shard: &ShardSummary, postmortems: u64) {
        self.faults += shard.faults;
        self.faults_visible += shard.faults_visible;
        self.faults_latent += shard.faults_latent;
        self.burst_faults += shard.burst_faults;
        self.repairs += shard.repairs;
        self.losses += shard.losses;
        self.fatal_visible += shard.fatal_visible;
        self.fatal_latent += shard.fatal_latent;
        self.samples += shard.samples;
        self.postmortems += postmortems;
    }
}

/// A whole run's telemetry: per-shard traces in shard order under one
/// header. Building it from per-shard sinks in shard order is what makes
/// the export bit-identical for any worker-thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Header.
    pub meta: TraceMeta,
    /// Per-shard traces, index = shard.
    pub shards: Vec<ShardTrace>,
}

/// Prefixes a serialized record with its `kind` tag.
fn tagged(kind: &str, value: &impl Serialize) -> String {
    let mut fields = match value.to_value() {
        Value::Object(fields) => fields,
        other => vec![("value".to_string(), other)],
    };
    fields.insert(0, ("kind".to_string(), Value::Str(kind.to_string())));
    serde_json::to_string(&Value::Object(fields)).expect("serializing a Value is infallible")
}

impl RunTrace {
    /// Fleet-level totals across shard summaries.
    pub fn summary(&self) -> RunSummary {
        let mut run = RunSummary::default();
        for shard in &self.shards {
            run.absorb(&shard.summary, shard.losses.len() as u64);
        }
        run
    }

    /// Renders the trace as checksummed JSON lines: one `meta` line, then
    /// per shard (in shard order) its `sample` lines, `loss` lines and
    /// `shard` summary line, then one final `run` totals line. Every line
    /// is framed by `ltds_core::record`, so readers detect truncation and
    /// bit rot.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        record::encode_line(&tagged("meta", &self.meta), &mut out);
        for shard in &self.shards {
            for sample in &shard.samples {
                record::encode_line(&tagged("sample", sample), &mut out);
            }
            for loss in &shard.losses {
                record::encode_line(&tagged("loss", loss), &mut out);
            }
            record::encode_line(&tagged("shard", &shard.summary), &mut out);
        }
        record::encode_line(&tagged("run", &self.summary()), &mut out);
        out
    }

    /// Writes [`RunTrace::to_jsonl`] to a writer.
    pub fn write_jsonl<W: std::io::Write>(&self, writer: &mut W) -> std::io::Result<()> {
        writer.write_all(self.to_jsonl().as_bytes())
    }
}

/// Why a trace file failed validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanError {
    /// 1-based line number of the offending line (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ScanError {}

/// Validated scan of a trace file: line counts per kind plus loss totals
/// re-derived from the post-mortem stream and cross-checked against the
/// trailing `run` summary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceScan {
    /// Parsed header.
    pub meta: TraceMeta,
    /// Total record lines (all kinds).
    pub lines: u64,
    /// `sample` lines.
    pub samples: u64,
    /// `loss` (post-mortem) lines.
    pub postmortems: u64,
    /// `shard` summary lines.
    pub shard_summaries: u64,
    /// Losses re-derived by counting post-mortem lines.
    pub losses: u64,
    /// Post-mortems whose fatal fault was visible.
    pub fatal_visible: u64,
    /// Post-mortems whose fatal fault was latent.
    pub fatal_latent: u64,
    /// Distinct groups with at least one post-mortem.
    pub groups_lost: u64,
    /// Fraction of the fleet's groups that reached the horizon without a
    /// loss — the trace-level view of trial censoring. Near 1.0 means the
    /// run barely sampled the loss tail.
    pub censoring_fraction: f64,
    /// The trailing `run` totals line.
    pub run: RunSummary,
}

fn scan_fail(line: usize, message: impl Into<String>) -> ScanError {
    ScanError { line, message: message.into() }
}

/// Validates a trace file's framing and schema line by line — checksums
/// via `ltds_core::record::decode`, JSON payloads, known `kind` tags, a
/// leading `meta` header and a trailing `run` summary — and aggregates the
/// post-mortem stream. The re-derived loss totals must match both the
/// `run` line and the per-`shard` summaries, so a scan that succeeds
/// proves the post-mortem stream reproduces the run's loss counts.
pub fn scan_jsonl(text: &str) -> Result<TraceScan, ScanError> {
    let mut meta: Option<TraceMeta> = None;
    let mut run: Option<RunSummary> = None;
    let mut lines = 0u64;
    let mut samples = 0u64;
    let mut postmortems = 0u64;
    let mut shard_summaries = 0u64;
    let mut losses = 0u64;
    let mut fatal_visible = 0u64;
    let mut fatal_latent = 0u64;
    let mut shard_losses = 0u64;
    let mut shard_fatal_visible = 0u64;
    let mut shard_fatal_latent = 0u64;
    let mut lost_groups = std::collections::BTreeSet::new();

    for (index, line) in text.lines().enumerate() {
        let number = index + 1;
        let payload =
            record::decode(line).map_err(|e| scan_fail(number, format!("bad record: {e}")))?;
        let value: Value = serde_json::value_from_str(payload)
            .map_err(|e| scan_fail(number, format!("bad JSON payload: {e}")))?;
        let kind = match value.get("kind") {
            Some(Value::Str(kind)) => kind.clone(),
            _ => return Err(scan_fail(number, "payload has no `kind` tag")),
        };
        if run.is_some() {
            return Err(scan_fail(number, "records after the trailing `run` summary"));
        }
        lines += 1;
        match kind.as_str() {
            "meta" => {
                if meta.is_some() {
                    return Err(scan_fail(number, "duplicate `meta` header"));
                }
                if number != 1 {
                    return Err(scan_fail(number, "`meta` header is not the first line"));
                }
                let parsed = TraceMeta::from_value(&value)
                    .map_err(|e| scan_fail(number, format!("bad meta: {e}")))?;
                if parsed.schema != TRACE_SCHEMA {
                    return Err(scan_fail(
                        number,
                        format!("schema `{}` is not `{TRACE_SCHEMA}`", parsed.schema),
                    ));
                }
                meta = Some(parsed);
            }
            "sample" => {
                MetricSample::from_value(&value)
                    .map_err(|e| scan_fail(number, format!("bad sample: {e}")))?;
                samples += 1;
            }
            "loss" => {
                let loss = LossTrace::from_value(&value)
                    .map_err(|e| scan_fail(number, format!("bad loss trace: {e}")))?;
                postmortems += 1;
                losses += 1;
                lost_groups.insert(loss.group);
                match loss.fatal {
                    FaultClass::Visible => fatal_visible += 1,
                    FaultClass::Latent => fatal_latent += 1,
                }
            }
            "shard" => {
                let shard = ShardSummary::from_value(&value)
                    .map_err(|e| scan_fail(number, format!("bad shard summary: {e}")))?;
                shard_summaries += 1;
                shard_losses += shard.losses;
                shard_fatal_visible += shard.fatal_visible;
                shard_fatal_latent += shard.fatal_latent;
            }
            "run" => {
                run = Some(
                    RunSummary::from_value(&value)
                        .map_err(|e| scan_fail(number, format!("bad run summary: {e}")))?,
                );
            }
            other => return Err(scan_fail(number, format!("unknown record kind `{other}`"))),
        }
        if meta.is_none() {
            return Err(scan_fail(number, "first line is not the `meta` header"));
        }
    }

    let meta = meta.ok_or_else(|| scan_fail(0, "empty trace: no `meta` header"))?;
    let run = run.ok_or_else(|| scan_fail(0, "truncated trace: no trailing `run` summary"))?;
    if shard_summaries != u64::from(meta.shards) {
        return Err(scan_fail(
            0,
            format!("{} shard summaries for {} shards", shard_summaries, meta.shards),
        ));
    }
    // The loss totals must agree three ways: post-mortem stream, per-shard
    // summaries, run summary.
    for (what, stream, summary) in [
        ("losses", losses, run.losses),
        ("visible-fatal losses", fatal_visible, run.fatal_visible),
        ("latent-fatal losses", fatal_latent, run.fatal_latent),
        ("shard-summary losses", shard_losses, run.losses),
        ("shard-summary visible-fatal", shard_fatal_visible, run.fatal_visible),
        ("shard-summary latent-fatal", shard_fatal_latent, run.fatal_latent),
        ("post-mortem count", postmortems, run.postmortems),
        ("samples", samples, run.samples),
    ] {
        if stream != summary {
            return Err(scan_fail(
                0,
                format!("{what}: stream has {stream}, run summary says {summary}"),
            ));
        }
    }
    let groups_lost = lost_groups.len() as u64;
    let censoring_fraction =
        if meta.groups == 0 { 0.0 } else { 1.0 - groups_lost as f64 / meta.groups as f64 };
    Ok(TraceScan {
        meta,
        lines,
        samples,
        postmortems,
        shard_summaries,
        losses,
        fatal_visible,
        fatal_latent,
        groups_lost,
        censoring_fraction,
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ShardParams {
        ShardParams {
            shard: 1,
            shards: 4,
            groups: 2,
            replicas: 2,
            sites: 2,
            horizon_hours: 100.0,
            scrub: Some((10.0, 0.0)),
        }
    }

    fn visible_fault(faulty: u16) -> ProbeEvent {
        ProbeEvent::Fault { class: FaultClass::Visible, from_burst: false, faulty }
    }

    #[test]
    fn disabled_probe_is_disabled() {
        const { assert!(!NoTelemetry::ENABLED) };
        const { assert!(ShardTelemetry::ENABLED) };
        let mut probe = NoTelemetry;
        probe.record(1.0, 0, visible_fault(1));
        probe.loss(1.0, 0, 1.0, FaultClass::Visible);
        probe.tick(1.0, 3);
    }

    #[test]
    fn gauges_follow_the_event_stream() {
        let mut sink = ShardTelemetry::new(params(), TelemetryConfig::default());
        // Slot 0 (group 0) faults latently at t=1; slot 2 (group 1)
        // visibly at t=2 with an immediate repair commit.
        sink.record(
            1.0,
            0,
            ProbeEvent::Fault { class: FaultClass::Latent, from_burst: false, faulty: 1 },
        );
        sink.record(2.0, 2, visible_fault(1));
        sink.record(
            2.0,
            2,
            ProbeEvent::RepairStart {
                class: FaultClass::Visible,
                site: 1,
                wait_hours: 4.0,
                transfer_hours: 2.0,
            },
        );
        assert_eq!(sink.latent_open, 1);
        assert_eq!(sink.degraded, 2);
        assert_eq!(sink.in_flight, 1);
        assert_eq!(sink.site_queue, vec![0, 1]);

        // Scrub finds the latent fault at t=5: no longer open, now queued.
        sink.record(
            5.0,
            0,
            ProbeEvent::RepairStart {
                class: FaultClass::Latent,
                site: 0,
                wait_hours: 0.0,
                transfer_hours: 2.0,
            },
        );
        assert_eq!(sink.latent_open, 0);
        assert_eq!(sink.in_flight, 2);

        // Both repairs finish: fully healthy again.
        sink.record(
            6.0,
            2,
            ProbeEvent::RepairDone { class: FaultClass::Visible, site: 1, faulty: 0 },
        );
        sink.record(
            7.0,
            0,
            ProbeEvent::RepairDone { class: FaultClass::Latent, site: 0, faulty: 0 },
        );
        assert_eq!(sink.degraded, 0);
        assert_eq!(sink.in_flight, 0);
        assert_eq!(sink.site_queue, vec![0, 0]);

        let trace = sink.finish();
        assert_eq!(trace.summary.faults, 2);
        assert_eq!(trace.summary.faults_latent, 1);
        assert_eq!(trace.summary.repairs, 2);
        assert_eq!(trace.summary.losses, 0);
        assert_eq!(trace.summary.repair_wait_max_hours, 4.0);
        assert!((trace.summary.repair_wait_mean_hours - 2.0).abs() < 1e-12);
        // Horizon 100 h at the default 730 h cadence: no samples due.
        assert!(trace.samples.is_empty());
    }

    #[test]
    fn loss_flushes_the_ring_and_reconciles_gauges() {
        let config = TelemetryConfig::default().ring_capacity(2);
        let mut sink = ShardTelemetry::new(params(), config);
        // Group 0 dies: latent fault on slot 0, then a visible fault on
        // slot 1 crosses the mirrored threshold. Three events through a
        // 2-slot ring drops the oldest.
        sink.record(
            1.0,
            0,
            ProbeEvent::Fault { class: FaultClass::Latent, from_burst: false, faulty: 1 },
        );
        sink.record(
            1.5,
            0,
            ProbeEvent::RepairStart {
                class: FaultClass::Latent,
                site: 0,
                wait_hours: 0.0,
                transfer_hours: 1.0,
            },
        );
        sink.record(2.0, 1, visible_fault(2));
        sink.loss(2.0, 0, 2.0, FaultClass::Visible);

        assert_eq!(sink.latent_open, 0);
        assert_eq!(sink.degraded, 0);
        assert_eq!(sink.in_flight, 0, "the dead group's in-flight repair is reconciled");
        let trace = sink.finish();
        assert_eq!(trace.losses.len(), 1);
        let loss = &trace.losses[0];
        assert_eq!(loss.group, 1, "global id 0*shards+shard from the round-robin deal");
        assert_eq!(loss.fatal, FaultClass::Visible);
        assert_eq!(loss.faulty, 2);
        assert_eq!(loss.latent_open, 0, "the latent fault had been detected");
        assert_eq!(loss.dropped, 1);
        assert_eq!(loss.events.len(), 2);
        assert!(loss.events[0].t <= loss.events[1].t, "flush is chronological");
        assert_eq!(trace.summary.fatal_visible, 1);
    }

    #[test]
    fn samples_are_emitted_on_cadence_and_padded_to_horizon() {
        let config = TelemetryConfig::default().sample_period_hours(10.0);
        let mut sink = ShardTelemetry::new(params(), config);
        sink.record(3.0, 0, visible_fault(1));
        sink.tick(3.0, 5);
        assert!(sink.samples.is_empty(), "nothing due before the first period");
        sink.tick(25.0, 7);
        assert_eq!(sink.samples.len(), 2, "ticks drain every due sample");
        assert_eq!(sink.samples[0].t, 10.0);
        assert_eq!(sink.samples[0].queue, 7, "gauge reads the latest queue length");
        assert_eq!(sink.samples[0].faults, 1);
        assert_eq!(sink.samples[0].scrub_progress, Some(0.0));
        let trace = sink.finish();
        assert_eq!(trace.samples.len(), 10, "padded to horizon / period");
        assert_eq!(trace.samples.last().unwrap().t, 100.0);
        assert_eq!(trace.summary.samples, 10);
    }

    #[test]
    fn site_utilization_is_windowed() {
        let config = TelemetryConfig::default().sample_period_hours(10.0);
        let mut sink = ShardTelemetry::new(params(), config);
        sink.record(1.0, 0, visible_fault(1));
        sink.record(
            1.0,
            0,
            ProbeEvent::RepairStart {
                class: FaultClass::Visible,
                site: 0,
                wait_hours: 0.0,
                transfer_hours: 5.0,
            },
        );
        sink.tick(15.0, 1);
        assert_eq!(sink.samples[0].site_util, vec![0.5, 0.0]);
        sink.tick(25.0, 1);
        assert_eq!(sink.samples[1].site_util, vec![0.0, 0.0], "window resets after a sample");
    }

    fn tiny_trace() -> RunTrace {
        let config = TelemetryConfig::default().sample_period_hours(50.0).ring_capacity(4);
        let mut shards = Vec::new();
        for shard in 0..2u32 {
            let mut sink =
                ShardTelemetry::new(ShardParams { shard, shards: 2, ..params() }, config);
            sink.record(1.0, 0, visible_fault(1));
            sink.record(2.0, 1, visible_fault(2));
            sink.loss(2.0, 0, 2.0, FaultClass::Visible);
            sink.tick(60.0, 2);
            shards.push(sink.finish());
        }
        RunTrace {
            meta: TraceMeta {
                schema: TRACE_SCHEMA.to_string(),
                seed: 7,
                shards: 2,
                groups: 4,
                horizon_hours: 100.0,
                sample_period_hours: 50.0,
                ring_capacity: 4,
            },
            shards,
        }
    }

    #[test]
    fn jsonl_roundtrips_through_scan() {
        let trace = tiny_trace();
        let text = trace.to_jsonl();
        let scan = scan_jsonl(&text).unwrap();
        assert_eq!(scan.meta, trace.meta);
        assert_eq!(scan.losses, 2);
        assert_eq!(scan.fatal_visible, 2);
        assert_eq!(scan.postmortems, 2);
        assert_eq!(scan.samples, 4);
        assert_eq!(scan.shard_summaries, 2);
        // Each shard lost its local group 0 — two distinct global groups
        // out of the fleet's four, so half the fleet is censored.
        assert_eq!(scan.groups_lost, 2);
        assert!((scan.censoring_fraction - 0.5).abs() < 1e-12);
        assert_eq!(scan.run, trace.summary());
        assert_eq!(scan.lines as usize, text.lines().count());
    }

    #[test]
    fn scan_rejects_corruption_truncation_and_foreign_lines() {
        let text = tiny_trace().to_jsonl();

        // Flip one payload byte: the line checksum catches it.
        let corrupted = text.replacen("\"losses\":", "\"Losses\":", 1);
        let err = scan_jsonl(&corrupted).unwrap_err();
        assert!(err.message.contains("bad record"), "{err}");

        // Drop the trailing run summary: truncation is detected.
        let without_last = &text[..text.trim_end().rfind('\n').unwrap() + 1];
        let err = scan_jsonl(without_last).unwrap_err();
        assert!(err.message.contains("no trailing `run`"), "{err}");

        // A healthy record of unknown kind is rejected.
        let mut foreign = String::from(&text[..text.trim_end().rfind('\n').unwrap() + 1]);
        record::encode_line("{\"kind\":\"wat\"}", &mut foreign);
        foreign.push_str(&text[text.trim_end().rfind('\n').unwrap() + 1..]);
        let err = scan_jsonl(&foreign).unwrap_err();
        assert!(err.message.contains("unknown record kind"), "{err}");

        // Empty input has no header.
        assert!(scan_jsonl("").is_err());
    }

    #[test]
    fn scan_cross_checks_postmortems_against_the_run_summary() {
        let trace = tiny_trace();
        let text = trace.to_jsonl();
        // Remove one loss line: counts no longer reconcile.
        let filtered: String = text
            .lines()
            .filter(|line| !record::decode(line).unwrap().contains("\"kind\":\"loss\""))
            .map(|line| format!("{line}\n"))
            .collect();
        let err = scan_jsonl(&filtered).unwrap_err();
        assert!(err.message.contains("stream has"), "{err}");
    }

    #[test]
    fn traces_serialize_for_campaign_payloads() {
        let trace = tiny_trace();
        let json = serde_json::to_string(&trace).unwrap();
        let back: RunTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_jsonl(), trace.to_jsonl());
    }
}
