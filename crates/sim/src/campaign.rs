//! Campaign driver: many related sweeps and fleet scenarios, one worker
//! pool, streamed reports.
//!
//! A *campaign* bundles the runs behind a figure or a design study — a
//! handful of named parameter sweeps plus (through the [`Scenario`] trait,
//! implemented by `ltds-fleet`) fleet-scale scenarios — into one serde
//! round-trippable spec ([`Campaign`]). [`CampaignDriver`] executes it as a
//! flat list of content-addressed work units (one sweep grid point or one
//! fleet shard each, tagged with its [`CacheKey`]) claimed by a pool of
//! worker threads from a shared cursor: whichever worker is free takes the
//! next piece of work, so stragglers never idle the pool. A simulated
//! sweep point runs as up to eight contiguous ranges of its trials, so one
//! heavy point occupies every worker at once; its ranges fold in trial
//! order, which never changes the output. The *output* is
//! thread-count-invariant — results are released to the [`ReportSink`] in
//! unit order through a reorder buffer, as soon as the order-front
//! completes, not at end of run.
//!
//! Every executor — this driver, the lease-based
//! [`crate::service::CampaignService`] and its harness, and the TCP worker
//! of [`crate::net`] — builds one crate-private unit plan from the spec. The
//! plan fixes the unit order and decides, for each unit, the payload its
//! cache holds, the raw result a worker ships, the canonical payload that
//! result becomes and the record that streams it, so every executor streams
//! the same bytes. It refuses a spec whose sweeps and scenarios repeat a
//! name, since records are identified by `(task, unit)`.
//!
//! Three properties compose into cheap restarts:
//!
//! * every unit is a pure function of its key, so the driver consults
//!   content-addressed caches for every unit before any runs, and fills
//!   them as results land (fleet shards share theirs with
//!   `FleetSim::run_cached`);
//! * those caches persist ([`SweepCache::write_through`]), so a killed
//!   campaign leaves its completed units on disk;
//! * the streamed report is deterministic, so re-running the campaign from
//!   the persisted caches reproduces the full report byte-for-byte — the
//!   warm rerun *is* the resume, at cache-hit speed.
//!
//! [`CampaignDriver::max_units`] bounds how many units run (the test
//! suite's deterministic stand-in for `kill -9`).

use crate::cache::{CacheKey, ConfigDigest, SweepCache};
use crate::config::SimConfig;
use crate::monte_carlo::{MonteCarlo, MttdlEstimate, TrialTally};
use crate::sweep::{PointRequest, SweepPoint};
use ltds_core::error::ModelError;
use ltds_telemetry::TelemetryConfig;
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// The parameter axis a named sweep walks, with its grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Scrub period in hours for a mirrored pair (`f64::INFINITY` = never
    /// scrub).
    ScrubPeriod {
        /// The grid of scrub periods, in hours.
        periods_hours: Vec<f64>,
    },
    /// Replica count at a fixed correlation factor.
    Replication {
        /// The grid of replica counts.
        replica_counts: Vec<usize>,
        /// The correlation factor applied at every count.
        alpha: f64,
    },
    /// Correlation factor at a fixed configuration.
    Alpha {
        /// The grid of correlation factors.
        alphas: Vec<f64>,
    },
    /// Redundancy policy at otherwise fixed parameters. The swept `x` value
    /// is each policy's storage overhead (`fragments / min_fragments`), so
    /// replication and erasure coding land on a comparable axis.
    Policy {
        /// The grid of redundancy policies.
        policies: Vec<crate::config::RedundancyPolicy>,
    },
}

impl SweepAxis {
    /// Number of grid points on this axis.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::ScrubPeriod { periods_hours } => periods_hours.len(),
            SweepAxis::Replication { replica_counts, .. } => replica_counts.len(),
            SweepAxis::Alpha { alphas } => alphas.len(),
            SweepAxis::Policy { policies } => policies.len(),
        }
    }

    /// Whether the axis has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The swept value at grid index `i`.
    fn x(&self, i: usize) -> f64 {
        match self {
            SweepAxis::ScrubPeriod { periods_hours } => periods_hours[i],
            SweepAxis::Replication { replica_counts, .. } => replica_counts[i] as f64,
            SweepAxis::Alpha { alphas } => alphas[i],
            SweepAxis::Policy { policies } => policies[i].storage_overhead(),
        }
    }

    /// Builds the configuration for grid index `i`: the base's fault and
    /// repair parameters with the axis value applied, keeping its mission
    /// length, draw discipline and rare-event strategy.
    fn config_at(&self, base: &SimConfig, i: usize) -> Result<SimConfig, ModelError> {
        let config = match self {
            SweepAxis::ScrubPeriod { periods_hours } => {
                let period = periods_hours[i];
                let scrub = if period.is_finite() { Some(period) } else { None };
                SimConfig::mirrored_disks(
                    base.mttf_visible_hours,
                    base.mttf_latent_hours,
                    base.repair_visible_hours,
                    base.repair_latent_hours,
                    scrub,
                    base.alpha,
                )?
            }
            SweepAxis::Replication { replica_counts, alpha } => SimConfig::new(
                replica_counts[i],
                1,
                base.mttf_visible_hours,
                base.mttf_latent_hours,
                base.repair_visible_hours,
                base.repair_latent_hours,
                base.detection,
                *alpha,
            )?,
            SweepAxis::Alpha { alphas } => SimConfig::new(
                base.replicas,
                base.min_intact,
                base.mttf_visible_hours,
                base.mttf_latent_hours,
                base.repair_visible_hours,
                base.repair_latent_hours,
                base.detection,
                alphas[i],
            )?,
            SweepAxis::Policy { policies } => {
                policies[i].validate()?;
                base.with_policy(policies[i])
            }
        };
        Ok(config.with_max_hours(base.max_hours).with_draw(base.draw).with_strategy(base.strategy))
    }
}

/// One named parameter sweep of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Name of the sweep, carried on every streamed record.
    pub name: String,
    /// Base configuration the axis varies.
    pub base: SimConfig,
    /// The axis and its grid.
    pub axis: SweepAxis,
    /// Monte-Carlo trials per grid point.
    pub trials: u64,
    /// Master seed; grid point `i` derives seed `seed + i`.
    pub seed: u64,
}

/// A campaign: named sweeps plus fleet scenarios, round-trippable through
/// JSON so specs can live in files and ride through version control.
///
/// The scenario type `S` is anything implementing [`Scenario`] —
/// `ltds-fleet` provides the fleet-scale implementation; sweep-only
/// campaigns use [`NoScenario`].
#[derive(Debug, Clone)]
pub struct Campaign<S> {
    /// Campaign name, carried on every streamed record.
    pub name: String,
    /// The named sweeps, executed in order.
    pub sweeps: Vec<SweepSpec>,
    /// The fleet scenarios, executed after the sweeps.
    pub scenarios: Vec<S>,
}

// The vendored serde derive does not handle generics, so the campaign's
// (trivial) impls are written out against the value model by hand.
impl<S: Serialize> Serialize for Campaign<S> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("sweeps".to_string(), self.sweeps.to_value()),
            ("scenarios".to_string(), self.scenarios.to_value()),
        ])
    }
}

impl<S: Deserialize> Deserialize for Campaign<S> {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            value.get(name).ok_or_else(|| serde::Error::custom(format!("missing field `{name}`")))
        };
        Ok(Self {
            name: String::from_value(field("name")?)?,
            sweeps: Vec::from_value(field("sweeps")?)?,
            scenarios: Vec::from_value(field("scenarios")?)?,
        })
    }
}

/// A fleet-scale scenario specification the campaign driver can execute
/// shard-by-shard. Implemented by `ltds_fleet::campaign::FleetScenario`;
/// the driver only relies on shard-level purity (outcome = f(spec, shard)).
pub trait Scenario {
    /// Per-shard outcome (for the fleet: `ltds_fleet::ShardOutcome`).
    type Outcome: Clone + Send + Serialize + Deserialize + 'static;
    /// The validated, ready-to-run form — built once per campaign run and
    /// shared read-only across the worker pool.
    type Prepared: PreparedScenario<Outcome = Self::Outcome> + Send + Sync;

    /// Name of the scenario, carried on every streamed record.
    fn name(&self) -> &str;
    /// Validates the spec and builds its prepared form.
    fn prepare(&self) -> Result<Self::Prepared, ModelError>;
}

/// The executable form of a [`Scenario`]: a fixed number of pure,
/// individually runnable shards.
pub trait PreparedScenario {
    /// Per-shard outcome type.
    type Outcome;

    /// Number of shards (work units) in this scenario.
    fn shards(&self) -> u32;
    /// Content-addressed identity of one shard's outcome.
    fn key(&self, shard: u32) -> CacheKey;
    /// Runs one shard to completion.
    fn run_shard(&self, shard: u32) -> Self::Outcome;

    /// Runs one shard while collecting telemetry, returning the outcome and
    /// the trace payload to stream as a [`RecordKind::ShardTrace`] record.
    ///
    /// The default ignores `telemetry` and reports no trace
    /// (`Value::Null`), so scenarios without an instrumented kernel keep
    /// working unchanged; `ltds-fleet` overrides this with its probed
    /// kernel path.
    fn run_shard_traced(&self, shard: u32, telemetry: TelemetryConfig) -> (Self::Outcome, Value) {
        let _ = telemetry;
        (self.run_shard(shard), Value::Null)
    }
}

/// The scenario type of sweep-only campaigns: carries no data, prepares
/// into zero shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoScenario;

impl Scenario for NoScenario {
    type Outcome = u64;
    type Prepared = NoScenario;

    fn name(&self) -> &str {
        "none"
    }

    fn prepare(&self) -> Result<Self, ModelError> {
        Ok(*self)
    }
}

impl PreparedScenario for NoScenario {
    type Outcome = u64;

    fn shards(&self) -> u32 {
        0
    }

    fn key(&self, _shard: u32) -> CacheKey {
        unreachable!("NoScenario has no shards")
    }

    fn run_shard(&self, _shard: u32) -> u64 {
        unreachable!("NoScenario has no shards")
    }
}

/// A sweep-only campaign.
pub type SweepCampaign = Campaign<NoScenario>;

/// What kind of work unit a streamed record reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordKind {
    /// One sweep grid point; the payload is a [`SweepPoint`].
    SweepPoint,
    /// One fleet scenario shard; the payload is the scenario's outcome.
    FleetShard,
    /// The telemetry trace of a fleet shard the driver simulated this run
    /// (emitted right after the shard's [`RecordKind::FleetShard`] record
    /// when [`CampaignDriver::telemetry`] is set; cache hits carry no
    /// trace). The payload is the scenario's trace value — for the fleet,
    /// an `ltds_telemetry::ShardTrace`.
    ShardTrace,
}

/// One line of the streamed campaign report: which campaign/task/unit, its
/// content-addressed key, and the unit's result as a dynamic JSON value.
///
/// Records carry *results only* — no provenance, timestamps or cache
/// hit/miss flags — so a cache-warm rerun streams the same bytes as the
/// cold run it resumes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamRecord {
    /// Campaign name.
    pub campaign: String,
    /// Sweep or scenario name.
    pub task: String,
    /// Whether this is a sweep point or a fleet shard.
    pub kind: RecordKind,
    /// Grid index (sweep point) or shard index (fleet shard) within the
    /// task.
    pub unit: u64,
    /// Content-addressed identity of the unit's result.
    pub key: CacheKey,
    /// The result itself (a [`SweepPoint`] or a scenario outcome).
    pub payload: Value,
}

/// Where streamed records go. Implementations must be cheap per record —
/// the driver calls [`ReportSink::record`] from its merge loop while
/// workers are still simulating.
pub trait ReportSink {
    /// Consumes one record (records arrive in unit order).
    fn record(&mut self, record: &StreamRecord) -> std::io::Result<()>;

    /// Flushes buffered output; called once after the last record.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams records as JSON lines to any writer (a file, a `Vec<u8>`,
/// stdout).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        Self { writer }
    }

    /// Unwraps the writer (e.g. to inspect an in-memory buffer).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> ReportSink for JsonlSink<W> {
    fn record(&mut self, record: &StreamRecord) -> std::io::Result<()> {
        let line = serde_json::to_string(record).expect("record serializes");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

/// Collects records in memory (tests, notebooks, incremental consumers).
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Vec<StreamRecord>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The records received so far, in unit order.
    pub fn records(&self) -> &[StreamRecord] {
        &self.records
    }

    /// Renders the received records as the equivalent JSONL text.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            out.push_str(&serde_json::to_string(record).expect("record serializes"));
            out.push('\n');
        }
        out
    }
}

impl ReportSink for MemorySink {
    fn record(&mut self, record: &StreamRecord) -> std::io::Result<()> {
        self.records.push(record.clone());
        Ok(())
    }
}

/// Why a campaign run failed.
#[derive(Debug)]
pub enum CampaignError {
    /// A sweep or scenario spec was invalid.
    Model(ModelError),
    /// Two sweeps or scenarios of one spec share a name. Records are
    /// identified by `(task, unit)`, so such a spec is refused before any
    /// unit runs.
    DuplicateTask {
        /// The repeated sweep or scenario name.
        name: String,
    },
    /// An I/O operation failed: the report sink, a socket or a file.
    Io(std::io::Error),
    /// The campaign service made no progress for too long (every worker
    /// dead with fallback disabled, or a server or client idling past its
    /// poll budget).
    Stalled {
        /// Sim-clock ticks (or transport polls) elapsed without completing.
        ticks: u64,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Model(e) => write!(f, "invalid campaign spec: {e}"),
            CampaignError::DuplicateTask { name } => {
                write!(f, "invalid campaign spec: two sweeps or scenarios are named `{name}`")
            }
            CampaignError::Io(e) => write!(f, "I/O error: {e}"),
            CampaignError::Stalled { ticks } => {
                write!(f, "campaign service stalled after {ticks} ticks")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ModelError> for CampaignError {
    fn from(e: ModelError) -> Self {
        CampaignError::Model(e)
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// What a campaign run did: how much work the spec defines, how much ran,
/// and how much of it the caches answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CampaignSummary {
    /// Work units the full campaign defines.
    pub units_total: usize,
    /// Units executed this run (less than `units_total` only under
    /// [`CampaignDriver::max_units`]).
    pub units_run: usize,
    /// Units answered from a cache.
    pub cache_hits: u64,
    /// Units simulated (and inserted into their cache, if one is wired).
    pub cache_misses: u64,
    /// Damaged persistent-cache records skipped while loading (checksum,
    /// parse, or digest failures). The driver itself never loads from disk
    /// and reports `0`; callers that do (the `campaign` binary) fold their
    /// [`crate::cache::LoadStats::skipped`] counts in before publishing the
    /// summary.
    pub skipped_records: u64,
}

/// Executes a [`Campaign`] over a worker pool. See the module docs for the
/// execution model.
pub struct CampaignDriver<'a, S: Scenario> {
    campaign: &'a Campaign<S>,
    threads: usize,
    point_cache: Option<&'a SweepCache<MttdlEstimate>>,
    shard_cache: Option<&'a SweepCache<S::Outcome>>,
    max_units: Option<usize>,
    telemetry: Option<TelemetryConfig>,
}

// All fields are references or small scalars, so the driver is freely
// copyable (derive would demand `S: Copy`).
impl<S: Scenario> Clone for CampaignDriver<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: Scenario> Copy for CampaignDriver<'_, S> {}

impl<'a, S: Scenario> CampaignDriver<'a, S> {
    /// Creates a driver with one worker per available core and no caches.
    pub fn new(campaign: &'a Campaign<S>) -> Self {
        Self {
            campaign,
            threads: ltds_stochastic::available_threads(),
            point_cache: None,
            shard_cache: None,
            max_units: None,
            telemetry: None,
        }
    }

    /// Sets the worker-thread count. Changes wall-clock time only — the
    /// streamed report and the final caches are identical for any count.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread is required");
        self.threads = threads;
        self
    }

    /// Memoises sweep grid points through `cache`: a point whose
    /// `(config, trials)` digest and derived seed are already cached is
    /// streamed bit-identically instead of re-simulated, so a superset grid
    /// costs only its new points.
    pub fn point_cache(mut self, cache: &'a SweepCache<MttdlEstimate>) -> Self {
        self.point_cache = Some(cache);
        self
    }

    /// Memoises fleet scenario shards through `cache` (shared with
    /// `FleetSim::run_cached` over the same configurations).
    pub fn shard_cache(mut self, cache: &'a SweepCache<S::Outcome>) -> Self {
        self.shard_cache = Some(cache);
        self
    }

    /// Streams a telemetry trace record ([`RecordKind::ShardTrace`]) after
    /// every scenario shard the run actually simulates, collected at
    /// `telemetry`'s cadence through the scenario's instrumented kernel.
    ///
    /// Cache hits carry no trace — the unit was computed by some earlier
    /// run — so a warm rerun streams fewer records than the cold run it
    /// resumes. Telemetry is a diagnostic channel, not part of the
    /// deterministic resumable report; with caches off (or uniformly cold)
    /// the stream is still byte-identical for any thread count.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Stops after the first `k` work units (in unit order): the
    /// deterministic stand-in for a campaign killed mid-run. The streamed
    /// report ends early; the caches keep whatever completed.
    pub fn max_units(mut self, k: usize) -> Self {
        self.max_units = Some(k);
        self
    }

    /// Runs the campaign, streaming records to `sink` in unit order as
    /// results land.
    ///
    /// Cache lookups happen up front, on the calling thread. Every point
    /// they miss runs as up to eight contiguous trial ranges that any
    /// worker may claim; the worker that finishes a point's last range
    /// folds the ranges in trial order, caches the estimate and reports the
    /// unit. A missed scenario shard is one piece. Ranges fold to the same
    /// bits however they are split or scheduled, so the output never
    /// depends on the thread count.
    pub fn run(&self, sink: &mut dyn ReportSink) -> Result<CampaignSummary, CampaignError> {
        let plan = UnitPlan::new(self.campaign)?;
        let limit = self.max_units.map_or(plan.len(), |k| k.min(plan.len()));

        // Cached units go straight to the reorder buffer; every other unit
        // becomes pieces, with one fold slot per trial range of a point.
        let mut reorder: BTreeMap<usize, UnitResult> = BTreeMap::new();
        let mut pieces: Vec<Piece> = Vec::new();
        let mut folds: Vec<Mutex<Vec<Option<TrialTally>>>> = Vec::with_capacity(limit);
        for ordinal in 0..limit {
            let mut slots = Vec::new();
            if let Some(payload) = plan.cached(ordinal, self.point_cache, self.shard_cache) {
                reorder.insert(ordinal, (payload, true, None));
            } else if let Unit::Point { trials, .. } = plan.units[ordinal] {
                for (slot, roots) in piece_ranges(trials).into_iter().enumerate() {
                    pieces.push(Piece { ordinal, trials: Some((slot, roots)) });
                    slots.push(None);
                }
            } else {
                pieces.push(Piece { ordinal, trials: None });
            }
            folds.push(Mutex::new(slots));
        }
        let threads = self.threads.min(pieces.len());

        // Work-claiming pool: free workers claim the next piece from a
        // shared cursor. Results return tagged with their unit ordinal and
        // are released to the sink strictly in order. The cursor publishes
        // no data (pieces are shared read-only, tallies travel under their
        // point's lock, results through the channel), so its accesses are
        // relaxed; being read-modify-writes, claims still see the latest
        // store.
        let cursor = AtomicUsize::new(0);
        let (result_tx, result_rx) = mpsc::channel::<(usize, UnitResult)>();

        let mut hits = 0u64;
        let mut misses = 0u64;
        std::thread::scope(|scope| -> Result<(), CampaignError> {
            for _ in 0..threads {
                let result_tx = result_tx.clone();
                let (cursor, pieces, folds, plan) = (&cursor, &pieces, &folds, &plan);
                let (points, shards, telemetry) =
                    (self.point_cache, self.shard_cache, self.telemetry);
                scope.spawn(move || {
                    while let Some(piece) = pieces.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let ordinal = piece.ordinal;
                        let result = match &piece.trials {
                            Some(range) => plan.run_point_piece(ordinal, range, folds, points),
                            None => Some(plan.run_shard(ordinal, telemetry, shards)),
                        };
                        let Some(result) = result else { continue };
                        if result_tx.send((ordinal, result)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(result_tx);

            // On a sink failure, move the cursor past the last piece before
            // propagating: workers stop after their piece in flight instead
            // of simulating the rest of the campaign into a dead sink.
            let mut deliver = |record: &StreamRecord| {
                sink.record(record).inspect_err(|_| cursor.store(pieces.len(), Ordering::Relaxed))
            };
            let mut next = 0usize;
            while next < limit {
                let Some((payload, hit, trace)) = reorder.remove(&next) else {
                    let (ordinal, result) =
                        result_rx.recv().expect("every claimed unit reports a result");
                    reorder.insert(ordinal, result);
                    continue;
                };
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                deliver(&plan.record(next, payload))?;
                // The trace rides directly behind its shard's result, under
                // the same key. Scenarios without an instrumented kernel
                // report `Null` — nothing worth streaming.
                if let Some(trace) = trace.filter(|t| !matches!(t, Value::Null)) {
                    let mut record = plan.record(next, trace);
                    record.kind = RecordKind::ShardTrace;
                    deliver(&record)?;
                }
                next += 1;
            }
            sink.flush()?;
            Ok(())
        })?;

        Ok(CampaignSummary {
            units_total: plan.len(),
            units_run: limit,
            cache_hits: hits,
            cache_misses: misses,
            skipped_records: 0,
        })
    }
}

/// Simulated sweep points run as at most this many trial ranges. A
/// constant rather than an option: pieces change only the schedule, never
/// the output.
const POINT_PIECES: u64 = 8;

/// The trial ranges a simulated point of `trials` root trials runs as:
/// `min(trials, 8)` contiguous ascending ranges covering `0..trials`, the
/// first `trials % ranges` of them one trial longer.
fn piece_ranges(trials: u64) -> Vec<Range<u64>> {
    let pieces = trials.min(POINT_PIECES);
    let (chunk, remainder) = (trials / pieces, trials % pieces);
    let mut start = 0;
    (0..pieces)
        .map(|p| {
            let roots = start..start + chunk + u64::from(p < remainder);
            start = roots.end;
            roots
        })
        .collect()
}

/// One claimable piece of pool work: a trial range (`slot` of its point's
/// ranges) of a simulated sweep point, or (`trials: None`) a whole unit.
struct Piece {
    ordinal: usize,
    trials: Option<(usize, Range<u64>)>,
}

/// A unit's record payload, whether a cache answered it, and the trace
/// payload of a scenario shard simulated with telemetry on.
type UnitResult = (Value, bool, Option<Value>);

/// The Monte-Carlo run behind a sweep point: its config at `trials` trials
/// and the point's seed, on the calling thread.
fn point_monte_carlo(config: &SimConfig, trials: u64, key: &CacheKey) -> MonteCarlo {
    MonteCarlo::new(*config).trials(trials).seed(key.seed).threads(1)
}

/// Caches `est` as the result of the sweep point at `x` keyed `key` and
/// returns the point's payload.
fn point_payload(
    x: f64,
    key: &CacheKey,
    est: MttdlEstimate,
    cache: Option<&SweepCache<MttdlEstimate>>,
) -> Value {
    let payload = SweepPoint::from_estimate(x, &est).to_value();
    if let Some(cache) = cache {
        cache.insert(*key, est);
    }
    payload
}

/// A campaign validated, prepared and flattened into its deterministic
/// unit order: sweeps (spec order, grid order), then scenarios (spec order,
/// shard order). Every executor — the driver's pool, the campaign service,
/// its harness and a remote worker — builds its plan from the same spec
/// with [`UnitPlan::new`], so a unit ordinal alone identifies the work. The
/// plan answers every per-unit question: the payload a cache already
/// holds, the raw result a worker ships, the canonical payload a raw result
/// becomes, and the record that streams it. It owns what it needs, so it
/// outlives the spec it was built from.
pub(crate) struct UnitPlan<S: Scenario> {
    campaign: String,
    sweeps: Vec<String>,
    scenarios: Vec<(String, S::Prepared)>,
    units: Vec<Unit>,
}

/// One resolved work unit.
enum Unit {
    /// Grid point `index` of sweep `sweep`, run at `trials` root trials.
    Point { sweep: usize, index: usize, x: f64, config: SimConfig, trials: u64, key: CacheKey },
    /// Shard `shard` of prepared scenario `scenario`.
    Shard { scenario: usize, shard: u32, key: CacheKey },
}

impl<S: Scenario> UnitPlan<S> {
    /// Validates, prepares and flattens `campaign`. Every error a spec can
    /// cause surfaces here, before any unit runs.
    pub(crate) fn new(campaign: &Campaign<S>) -> Result<Self, CampaignError> {
        let sweeps: Vec<String> = campaign.sweeps.iter().map(|spec| spec.name.clone()).collect();
        let mut names = BTreeSet::new();
        let tasks = sweeps.iter().map(String::as_str).chain(campaign.scenarios.iter().map(S::name));
        for name in tasks {
            if !names.insert(name) {
                return Err(CampaignError::DuplicateTask { name: name.to_string() });
            }
        }
        let scenarios = campaign
            .scenarios
            .iter()
            .map(|s| Ok((s.name().to_string(), s.prepare()?)))
            .collect::<Result<Vec<_>, ModelError>>()?;
        let mut units = Vec::new();
        for (sweep, spec) in campaign.sweeps.iter().enumerate() {
            if spec.trials == 0 {
                return Err(ModelError::InvalidQuantity { parameter: "trials", value: 0.0 }.into());
            }
            for index in 0..spec.axis.len() {
                let config = spec.axis.config_at(&spec.base, index)?;
                let key = CacheKey {
                    digest: PointRequest::new(config, spec.trials).config_digest(),
                    seed: spec.seed.wrapping_add(index as u64),
                    shard: 0,
                };
                let (x, trials) = (spec.axis.x(index), spec.trials);
                units.push(Unit::Point { sweep, index, x, config, trials, key });
            }
        }
        for (scenario, (_, prepared)) in scenarios.iter().enumerate() {
            for shard in 0..prepared.shards() {
                units.push(Unit::Shard { scenario, shard, key: prepared.key(shard) });
            }
        }
        Ok(Self { campaign: campaign.name.clone(), sweeps, scenarios, units })
    }

    /// Number of units.
    pub(crate) fn len(&self) -> usize {
        self.units.len()
    }

    /// Unit `ordinal`'s payload, if its cache already holds the result.
    pub(crate) fn cached(
        &self,
        ordinal: usize,
        points: Option<&SweepCache<MttdlEstimate>>,
        shards: Option<&SweepCache<S::Outcome>>,
    ) -> Option<Value> {
        match &self.units[ordinal] {
            Unit::Point { x, key, .. } => {
                points?.get(key).map(|est| SweepPoint::from_estimate(*x, &est).to_value())
            }
            Unit::Shard { key, .. } => shards?.get(key).map(|outcome| outcome.to_value()),
        }
    }

    /// Runs unit `ordinal` on the calling thread without consulting any
    /// cache: the raw result a worker ships (an [`MttdlEstimate`] for a
    /// sweep point, the scenario outcome for a shard).
    pub(crate) fn raw(&self, ordinal: usize) -> Value {
        match &self.units[ordinal] {
            Unit::Point { config, trials, key, .. } => {
                point_monte_carlo(config, *trials, key).run().to_value()
            }
            Unit::Shard { scenario, shard, .. } => {
                self.scenarios[*scenario].1.run_shard(*shard).to_value()
            }
        }
    }

    /// The canonical payload raw result `raw` becomes as unit `ordinal`'s
    /// streamed result, filling the unit's cache on the way. `None` means
    /// `raw` does not parse as the unit's result type.
    pub(crate) fn payload(
        &self,
        ordinal: usize,
        raw: &Value,
        points: Option<&SweepCache<MttdlEstimate>>,
        shards: Option<&SweepCache<S::Outcome>>,
    ) -> Option<Value> {
        Some(match &self.units[ordinal] {
            Unit::Point { x, key, .. } => {
                point_payload(*x, key, MttdlEstimate::from_value(raw).ok()?, points)
            }
            Unit::Shard { key, .. } => {
                let outcome = S::Outcome::from_value(raw).ok()?;
                if let Some(cache) = shards {
                    cache.insert(*key, outcome.clone());
                }
                outcome.to_value()
            }
        })
    }

    /// The record that streams `payload` as unit `ordinal`'s result.
    pub(crate) fn record(&self, ordinal: usize, payload: Value) -> StreamRecord {
        let (task, kind, unit, key) = match &self.units[ordinal] {
            Unit::Point { sweep, index, key, .. } => {
                (&self.sweeps[*sweep], RecordKind::SweepPoint, *index as u64, *key)
            }
            Unit::Shard { scenario, shard, key } => {
                (&self.scenarios[*scenario].0, RecordKind::FleetShard, u64::from(*shard), *key)
            }
        };
        StreamRecord {
            campaign: self.campaign.clone(),
            task: task.clone(),
            kind,
            unit,
            key,
            payload,
        }
    }

    /// Runs trial range `roots` of sweep point `ordinal` into its fold slot
    /// `slot` in `folds`. The worker that fills the point's last slot folds
    /// the ranges in trial order, caches the estimate and returns the
    /// unit's result.
    fn run_point_piece(
        &self,
        ordinal: usize,
        (slot, roots): &(usize, Range<u64>),
        folds: &[Mutex<Vec<Option<TrialTally>>>],
        cache: Option<&SweepCache<MttdlEstimate>>,
    ) -> Option<UnitResult> {
        let Unit::Point { x, config, trials, key, .. } = &self.units[ordinal] else {
            unreachable!("only sweep points split into trial ranges")
        };
        let mc = point_monte_carlo(config, *trials, key);
        let tally = mc.run_trials(roots.clone());
        let tallies = {
            let mut slots = folds[ordinal].lock().expect("fold lock poisoned");
            slots[*slot] = Some(tally);
            if !slots.iter().all(Option::is_some) {
                return None;
            }
            std::mem::take(&mut *slots)
        };
        let est = mc.estimate(tallies.into_iter().flatten());
        Some((point_payload(*x, key, est, cache), false, None))
    }

    /// Simulates scenario shard `ordinal` — through the instrumented kernel
    /// when `telemetry` is set — caches the outcome and returns the unit's
    /// result with its trace.
    fn run_shard(
        &self,
        ordinal: usize,
        telemetry: Option<TelemetryConfig>,
        cache: Option<&SweepCache<S::Outcome>>,
    ) -> UnitResult {
        let Unit::Shard { scenario, shard, key } = &self.units[ordinal] else {
            unreachable!("only scenario shards run whole")
        };
        let prepared = &self.scenarios[*scenario].1;
        let (outcome, trace) = match telemetry {
            Some(telemetry) => {
                let (outcome, trace) = prepared.run_shard_traced(*shard, telemetry);
                (outcome, Some(trace))
            }
            None => (prepared.run_shard(*shard), None),
        };
        if let Some(cache) = cache {
            cache.insert(*key, outcome.clone());
        }
        (outcome.to_value(), false, trace)
    }
}

/// Test fixtures shared by the campaign, service and transport tests.
#[cfg(test)]
pub(crate) mod fixture {
    use super::*;

    /// A deterministic toy scenario: outcome of shard `s` is a pure
    /// function of `(seed, s)`, expensive enough to exercise the pool.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub(crate) struct ToyScenario {
        pub(crate) name: String,
        pub(crate) seed: u64,
        pub(crate) shards: u32,
    }

    impl Scenario for ToyScenario {
        type Outcome = u64;
        type Prepared = ToyScenario;

        fn name(&self) -> &str {
            &self.name
        }

        fn prepare(&self) -> Result<Self, ModelError> {
            Ok(self.clone())
        }
    }

    impl PreparedScenario for ToyScenario {
        type Outcome = u64;

        fn shards(&self) -> u32 {
            self.shards
        }

        fn key(&self, shard: u32) -> CacheKey {
            CacheKey { digest: crate::cache::fnv1a(self.name.as_bytes()), seed: self.seed, shard }
        }

        fn run_shard(&self, shard: u32) -> u64 {
            // A tiny but order-sensitive computation.
            let mut acc = self.seed ^ u64::from(shard);
            for i in 0..2_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        }
    }

    /// The single-threaded driver's stream of `campaign`: the reference
    /// every other executor must reproduce byte for byte.
    pub(crate) fn driver_reference(campaign: &Campaign<ToyScenario>) -> String {
        let mut sink = MemorySink::new();
        CampaignDriver::new(campaign).threads(1).run(&mut sink).unwrap();
        sink.to_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::fixture::ToyScenario;
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    fn base() -> SimConfig {
        SimConfig::mirrored_disks(2000.0, 2000.0, 5.0, 5.0, Some(100.0), 1.0).unwrap()
    }

    fn sweep_campaign() -> SweepCampaign {
        Campaign {
            name: "unit-test".to_string(),
            sweeps: vec![
                SweepSpec {
                    name: "scrub".to_string(),
                    base: base(),
                    axis: SweepAxis::ScrubPeriod {
                        periods_hours: vec![30.0, 300.0, f64::INFINITY],
                    },
                    trials: 150,
                    seed: 7,
                },
                SweepSpec {
                    name: "replicas".to_string(),
                    base: base(),
                    axis: SweepAxis::Replication { replica_counts: vec![1, 2, 3], alpha: 1.0 },
                    trials: 120,
                    seed: 11,
                },
            ],
            scenarios: Vec::new(),
        }
    }

    fn mixed_campaign() -> Campaign<ToyScenario> {
        Campaign {
            name: "mixed".to_string(),
            sweeps: sweep_campaign().sweeps,
            scenarios: vec![
                ToyScenario { name: "toy-a".to_string(), seed: 3, shards: 5 },
                ToyScenario { name: "toy-b".to_string(), seed: 4, shards: 2 },
            ],
        }
    }

    #[test]
    fn campaign_spec_roundtrips_through_json() {
        let campaign = mixed_campaign();
        let json = serde_json::to_string_pretty(&campaign).unwrap();
        let back: Campaign<ToyScenario> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, campaign.name);
        assert_eq!(back.sweeps.len(), campaign.sweeps.len());
        assert_eq!(back.sweeps[0].name, "scrub");
        assert_eq!(back.sweeps[1].axis, campaign.sweeps[1].axis);
        assert_eq!(back.scenarios.len(), 2);
        assert_eq!(back.scenarios[1].shards, 2);
        // And the round-trip preserves identity where it matters: the
        // regenerated spec streams the same report.
        let mut a = MemorySink::new();
        let mut b = MemorySink::new();
        CampaignDriver::new(&campaign).threads(2).run(&mut a).unwrap();
        CampaignDriver::new(&back).threads(2).run(&mut b).unwrap();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn policy_axis_executes_and_matches_direct_monte_carlo() {
        use crate::config::RedundancyPolicy;
        let policies = vec![
            RedundancyPolicy::Replicated { n: 2 },
            RedundancyPolicy::ErasureCoded { k: 2, n: 6 },
        ];
        let campaign: SweepCampaign = Campaign {
            name: "policy".to_string(),
            sweeps: vec![SweepSpec {
                name: "policy".to_string(),
                base: base(),
                axis: SweepAxis::Policy { policies: policies.clone() },
                trials: 100,
                seed: 9,
            }],
            scenarios: Vec::new(),
        };
        // The axis round-trips through the spec JSON schema.
        let json = serde_json::to_string(&campaign).unwrap();
        let back: SweepCampaign = serde_json::from_str(&json).unwrap();
        assert_eq!(back.sweeps[0].axis, campaign.sweeps[0].axis);

        // Campaign points carry the storage-overhead x and the estimate of
        // the policy's config run directly at the derived seed.
        let mut sink = MemorySink::new();
        CampaignDriver::new(&campaign).threads(2).run(&mut sink).unwrap();
        let streamed: Vec<SweepPoint> =
            sink.records().iter().map(|r| SweepPoint::from_value(&r.payload).unwrap()).collect();
        assert_eq!(streamed.len(), 2);
        assert_eq!(streamed[0].x, 2.0, "Replicated {{ n: 2 }} stores 2x");
        assert_eq!(streamed[1].x, 3.0, "EC {{ k: 2, n: 6 }} stores 3x");
        for (i, (point, policy)) in streamed.iter().zip(&policies).enumerate() {
            let config = base().with_policy(*policy);
            let direct = MonteCarlo::new(config).trials(100).seed(9 + i as u64).threads(1).run();
            assert_eq!(point.mttdl_hours.to_bits(), direct.mttdl_hours.estimate.to_bits());
        }
    }

    #[test]
    fn stream_is_byte_identical_across_thread_counts() {
        let campaign = mixed_campaign();
        let mut reference = MemorySink::new();
        let summary = CampaignDriver::new(&campaign).threads(1).run(&mut reference).unwrap();
        assert_eq!(summary.units_total, 3 + 3 + 5 + 2);
        assert_eq!(summary.units_run, summary.units_total);
        let reference_jsonl = reference.to_jsonl();
        assert!(!reference_jsonl.is_empty());

        for threads in [2usize, 8] {
            let mut sink = MemorySink::new();
            CampaignDriver::new(&campaign).threads(threads).run(&mut sink).unwrap();
            assert_eq!(sink.to_jsonl(), reference_jsonl, "{threads} threads diverged");
        }

        // Points with fewer trials than pieces, and the correlated
        // 4-replica point of the demo's replication sweep (its `mc_group()`
        // base at α = 0.5), whose trials vary most in length.
        let mc_group = SimConfig::mirrored_disks(1_000.0, 5_000.0, 10.0, 10.0, Some(100.0), 1.0);
        let split: SweepCampaign = Campaign {
            name: "split".to_string(),
            sweeps: vec![
                SweepSpec {
                    name: "three_trials".to_string(),
                    base: base(),
                    axis: SweepAxis::ScrubPeriod { periods_hours: vec![30.0, 300.0] },
                    trials: 3,
                    seed: 5,
                },
                SweepSpec {
                    name: "correlated".to_string(),
                    base: mc_group.unwrap(),
                    axis: SweepAxis::Replication { replica_counts: vec![4], alpha: 0.5 },
                    trials: 16,
                    seed: 2,
                },
            ],
            scenarios: Vec::new(),
        };
        let mut reference = MemorySink::new();
        CampaignDriver::new(&split).threads(1).run(&mut reference).unwrap();
        // The split points carry the bits of their unsplit runs.
        let plan = UnitPlan::new(&split).unwrap();
        assert_eq!(reference.records().len(), plan.len());
        for (ordinal, record) in reference.records().iter().enumerate() {
            let payload = plan.payload(ordinal, &plan.raw(ordinal), None, None);
            assert_eq!(payload.as_ref(), Some(&record.payload));
        }
        for threads in [2usize, 8] {
            let mut sink = MemorySink::new();
            CampaignDriver::new(&split).threads(threads).run(&mut sink).unwrap();
            assert_eq!(sink.to_jsonl(), reference.to_jsonl(), "split, {threads} threads");
        }
    }

    #[test]
    fn piece_ranges_cover_the_trials_in_order() {
        for trials in [1u64, 3, 8, 9, 75, 8_000] {
            let ranges = piece_ranges(trials);
            assert_eq!(ranges.len() as u64, trials.min(8), "{trials} trials");
            assert_eq!(ranges[0].start, 0, "{trials} trials");
            assert!(ranges.iter().all(|r| r.start < r.end), "{trials} trials: {ranges:?}");
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start), "{trials}: {ranges:?}");
            assert_eq!(ranges.last().unwrap().end, trials, "{trials} trials");
        }
    }

    #[test]
    fn jsonl_sink_matches_memory_sink() {
        let campaign = sweep_campaign();
        let mut memory = MemorySink::new();
        CampaignDriver::new(&campaign).threads(2).run(&mut memory).unwrap();
        let mut jsonl = JsonlSink::new(Vec::<u8>::new());
        CampaignDriver::new(&campaign).threads(2).run(&mut jsonl).unwrap();
        assert_eq!(String::from_utf8(jsonl.into_inner()).unwrap(), memory.to_jsonl());
    }

    #[test]
    fn warm_caches_answer_every_unit_and_stream_identically() {
        let campaign = mixed_campaign();
        let points = SweepCache::new();
        let shards = SweepCache::new();
        let driver =
            CampaignDriver::new(&campaign).threads(4).point_cache(&points).shard_cache(&shards);

        let mut cold = MemorySink::new();
        let summary = driver.run(&mut cold).unwrap();
        assert_eq!(summary.cache_hits, 0);
        assert_eq!(summary.cache_misses as usize, summary.units_total);

        let mut warm = MemorySink::new();
        let summary = driver.run(&mut warm).unwrap();
        assert_eq!(summary.cache_misses, 0);
        assert_eq!(summary.cache_hits as usize, summary.units_total);
        assert_eq!(warm.to_jsonl(), cold.to_jsonl(), "warm stream must match cold");
    }

    #[test]
    fn campaign_points_match_direct_monte_carlo_runs() {
        // Point `i` is its grid config run on one thread at seed `seed + i`,
        // keyed by that request's digest.
        let campaign = sweep_campaign();
        let mut sink = MemorySink::new();
        CampaignDriver::new(&campaign).threads(2).run(&mut sink).unwrap();
        let spec = &campaign.sweeps[0];
        let SweepAxis::ScrubPeriod { periods_hours } = &spec.axis else { unreachable!() };
        for (i, (record, &period)) in sink.records().iter().zip(periods_hours).enumerate() {
            let scrub = period.is_finite().then_some(period);
            let config = SimConfig::mirrored_disks(2000.0, 2000.0, 5.0, 5.0, scrub, 1.0).unwrap();
            let seed = spec.seed + i as u64;
            let direct = MonteCarlo::new(config).trials(spec.trials).seed(seed).threads(1).run();
            let digest = PointRequest::new(config, spec.trials).config_digest();
            assert_eq!(record.key, CacheKey { digest, seed, shard: 0 });
            let streamed = SweepPoint::from_value(&record.payload).unwrap();
            assert_eq!(streamed.x.to_bits(), period.to_bits());
            assert_eq!(streamed.mttdl_hours.to_bits(), direct.mttdl_hours.estimate.to_bits());
            assert_eq!(streamed.ci_half_width.to_bits(), direct.mttdl_hours.half_width().to_bits());
        }
    }

    #[test]
    fn point_cache_key_digest_is_pinned() {
        // Persisted point caches are keyed by this digest of
        // `(config, trials, threads: Some(1))`: a drift in that encoding
        // would orphan every cache on disk.
        let mut sink = MemorySink::new();
        CampaignDriver::new(&sweep_campaign()).max_units(1).run(&mut sink).unwrap();
        assert_eq!(
            sink.records()[0].key,
            CacheKey { digest: 11_195_579_810_558_385_184, seed: 7, shard: 0 }
        );
    }

    #[test]
    fn cache_keys_trials_and_seed_but_not_threads() {
        let cache = SweepCache::new();
        let run = |trials: u64, seed: u64, threads: usize| {
            let mut campaign = sweep_campaign();
            campaign.sweeps.truncate(1);
            campaign.sweeps[0].trials = trials;
            campaign.sweeps[0].seed = seed;
            let driver = CampaignDriver::new(&campaign).threads(threads).point_cache(&cache);
            driver.run(&mut MemorySink::new()).unwrap()
        };
        run(200, 1, 1);
        run(300, 1, 1);
        run(200, 9, 1);
        assert_eq!(cache.len(), 9, "trials and seed must key separately");
        assert_eq!(cache.hits(), 0);
        let summary = run(200, 1, 2);
        assert_eq!(cache.len(), 9, "the thread count must not key separately");
        assert_eq!(summary.cache_hits, 3);
    }

    #[test]
    fn strategy_is_part_of_the_cache_identity() {
        // A vanilla campaign and an importance-sampled twin over the same
        // grid must never answer each other from a shared point cache: the
        // strategy sits on `SimConfig`, so `config_at` folds it into every
        // unit's digest.
        use crate::config::RareEventStrategy;
        let vanilla = sweep_campaign();
        let mut tilted = sweep_campaign();
        for spec in &mut tilted.sweeps {
            spec.base =
                spec.base.with_strategy(RareEventStrategy::ImportanceSampling { tilt: 2.0 });
        }
        let cache = SweepCache::new();
        let mut sink = MemorySink::new();
        let cold =
            CampaignDriver::new(&vanilla).threads(2).point_cache(&cache).run(&mut sink).unwrap();
        assert_eq!(cold.cache_hits, 0);

        let mut sink = MemorySink::new();
        let cross =
            CampaignDriver::new(&tilted).threads(2).point_cache(&cache).run(&mut sink).unwrap();
        assert_eq!(cross.cache_hits, 0, "an accelerated unit hit a vanilla cache entry");
        assert_eq!(cross.cache_misses as usize, cross.units_total);

        // Each campaign still hits its own entries on a rerun.
        let mut sink = MemorySink::new();
        let warm =
            CampaignDriver::new(&tilted).threads(2).point_cache(&cache).run(&mut sink).unwrap();
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.cache_hits as usize, warm.units_total);
    }

    #[test]
    fn max_units_truncates_deterministically_and_resume_completes() {
        let campaign = mixed_campaign();
        let mut full = MemorySink::new();
        CampaignDriver::new(&campaign).threads(3).run(&mut full).unwrap();

        let points = SweepCache::new();
        let shards = SweepCache::new();
        let driver =
            CampaignDriver::new(&campaign).threads(3).point_cache(&points).shard_cache(&shards);
        let mut killed = MemorySink::new();
        let summary = driver.max_units(5).run(&mut killed).unwrap();
        assert_eq!(summary.units_run, 5);
        assert_eq!(killed.records().len(), 5);
        // The partial stream is a prefix of the full one.
        assert!(full.to_jsonl().starts_with(&killed.to_jsonl()));

        // Resume: same caches, no truncation — the first 5 units hit.
        let mut resumed = MemorySink::new();
        let summary = driver.run(&mut resumed).unwrap();
        assert_eq!(summary.cache_hits, 5);
        assert_eq!(resumed.to_jsonl(), full.to_jsonl(), "resume must reproduce the full stream");
    }

    /// A scenario whose shards after the first spin until `gate` opens,
    /// logging every shard that runs.
    #[derive(Debug, Clone)]
    struct GatedScenario {
        shards: u32,
        gate: Arc<AtomicBool>,
        ran: Arc<Mutex<Vec<u32>>>,
    }

    impl Scenario for GatedScenario {
        type Outcome = u64;
        type Prepared = GatedScenario;

        fn name(&self) -> &str {
            "gated"
        }

        fn prepare(&self) -> Result<Self, ModelError> {
            Ok(self.clone())
        }
    }

    impl PreparedScenario for GatedScenario {
        type Outcome = u64;

        fn shards(&self) -> u32 {
            self.shards
        }

        fn key(&self, shard: u32) -> CacheKey {
            CacheKey { digest: 0, seed: 0, shard }
        }

        fn run_shard(&self, shard: u32) -> u64 {
            self.ran.lock().unwrap().push(shard);
            while shard > 0 && !self.gate.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            u64::from(shard)
        }
    }

    /// Fails on its first record, opening `gate` as it does.
    struct FailingSink {
        gate: Arc<AtomicBool>,
    }

    impl ReportSink for FailingSink {
        fn record(&mut self, _record: &StreamRecord) -> std::io::Result<()> {
            let err = std::io::Error::other("disk full");
            self.gate.store(true, Ordering::SeqCst);
            Err(err)
        }
    }

    #[test]
    fn failing_sink_stops_the_pool_after_the_units_in_flight() {
        let threads = 2;
        let gate = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(Mutex::new(Vec::new()));
        let campaign = Campaign {
            name: "gated".to_string(),
            sweeps: Vec::new(),
            scenarios: vec![GatedScenario { shards: 64, gate: gate.clone(), ran: ran.clone() }],
        };
        let err = CampaignDriver::new(&campaign).threads(threads).run(&mut FailingSink { gate });
        assert!(matches!(err, Err(CampaignError::Io(_))));
        // Unit 0 reached the sink while every worker held at most one gated
        // unit (1..=threads); no unit was claimed once the sink had failed.
        let mut ran = ran.lock().unwrap().clone();
        ran.sort_unstable();
        assert_eq!(ran[0], 0);
        assert!(ran.iter().all(|&shard| shard as usize <= threads), "ran {ran:?}");
    }

    #[test]
    fn invalid_specs_fail_before_simulating() {
        let mut campaign = sweep_campaign();
        campaign.sweeps[0].trials = 0;
        let err = CampaignDriver::new(&campaign).run(&mut MemorySink::new());
        assert!(matches!(err, Err(CampaignError::Model(_))));

        for axis in [
            SweepAxis::Replication { replica_counts: vec![0], alpha: 1.0 },
            SweepAxis::Alpha { alphas: vec![0.0] },
        ] {
            let mut campaign = sweep_campaign();
            campaign.sweeps[1].axis = axis;
            let err = CampaignDriver::new(&campaign).run(&mut MemorySink::new());
            assert!(matches!(err, Err(CampaignError::Model(_))));
        }

        // A task name shared by a sweep and a scenario.
        let mut campaign = mixed_campaign();
        campaign.scenarios[1].name = "scrub".to_string();
        let err = CampaignDriver::new(&campaign).run(&mut MemorySink::new());
        assert!(matches!(err, Err(CampaignError::DuplicateTask { name }) if name == "scrub"));
    }
}
