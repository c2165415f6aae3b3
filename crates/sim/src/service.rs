//! Fault-tolerant campaign service: lease-based unit dispatch to workers
//! that may crash, stall, or lie about being alive.
//!
//! [`crate::campaign::CampaignDriver`] executes a campaign on an in-process
//! thread pool: workers cannot vanish, messages cannot be lost, and the
//! reorder buffer alone guarantees a deterministic report. This module keeps
//! that report contract while dropping every one of those assumptions. A
//! [`CampaignService`] owns the flattened unit list and a worker registry;
//! workers — separate processes, or simulated peers inside a test — send
//! [`WorkerMsg`]s and receive [`ServerMsg::Assign`] leases. The service is a
//! *pure state machine driven by an explicit sim clock* ([`CampaignService::tick`]):
//! it does no I/O and consumes no randomness, so every recovery decision
//! (lease expiry, retry backoff, quarantine, degraded fallback) is a
//! deterministic function of the message sequence.
//!
//! Fault model and responses:
//!
//! * **Worker death** — a worker that stops heartbeating for
//!   [`ServiceConfig::lease_ticks`] is marked dead and its leases re-issued;
//!   a worker that comes back with a higher incarnation forfeits the old
//!   incarnation's leases immediately. A message from an incarnation below
//!   the registered one says nothing about the live worker: only a stale
//!   `Done` has an effect, committing its (pure) result.
//! * **Stragglers** — a lease older than [`ServiceConfig::reissue_ticks`]
//!   is re-issued even if its holder still heartbeats.
//! * **Duplicates** — units are pure functions of their keys and payloads
//!   are canonicalised server-side (raw wire values are round-tripped
//!   through the typed result before streaming), so completions commit
//!   first-result-wins and late duplicates are counted and dropped without
//!   changing a byte of the report.
//! * **Poison units** — a unit whose lease fails [`ServiceConfig::max_attempts`]
//!   times is quarantined: the stream skips it (so one bad unit cannot
//!   wedge the in-order release) and its ordinal is surfaced in the
//!   [`ServiceSummary`].
//! * **No workers at all** — after [`ServiceConfig::fallback_ticks`] with
//!   no live worker the service degrades to in-process execution, so a
//!   campaign never hangs on an empty fleet.
//!
//! Two drivers feed the state machine: [`crate::net::serve_tcp`] carries
//! worker messages over sockets as checksum-framed JSON lines and ticks the
//! service once per poll, and [`ServiceHarness`] simulates a worker fleet
//! deterministically in-process (the test suite's chaos rig, always
//! compiled).

use crate::cache::SweepCache;
use crate::campaign::{
    compute_unit_raw, execute_unit, flatten_units, prepare_scenarios, record_for, Campaign,
    CampaignError, ReportSink, Scenario, Unit,
};
use crate::monte_carlo::MttdlEstimate;
use crate::sweep::SweepPoint;
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, VecDeque};

/// Tuning knobs of the campaign service's fault handling. All durations are
/// in *ticks* of the service's sim clock — one [`CampaignService::tick`]
/// call each — so recovery behaviour is independent of wall-clock time.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// A worker silent for more than this many ticks is dead: its leases
    /// are re-issued and it receives no new work until it speaks again.
    pub lease_ticks: u64,
    /// A lease older than this many ticks is re-issued even if its holder
    /// still heartbeats (straggler insurance).
    pub reissue_ticks: u64,
    /// Lease attempts before a unit is quarantined as poison.
    pub max_attempts: u32,
    /// Base retry delay; attempt `n` waits `base << (n-1)` ticks (capped).
    pub backoff_base_ticks: u64,
    /// Ticks without any live worker before the service degrades to
    /// in-process execution; `None` never degrades (chaos drills).
    pub fallback_ticks: Option<u64>,
    /// Outstanding leases allowed per worker.
    pub max_inflight_per_worker: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            lease_ticks: 5,
            reissue_ticks: 50,
            max_attempts: 3,
            backoff_base_ticks: 1,
            fallback_ticks: Some(8),
            max_inflight_per_worker: 2,
        }
    }
}

/// Messages workers send the service.
#[derive(Debug, Clone)]
pub enum WorkerMsg {
    /// A worker announcing itself (or a respawn: same name, higher
    /// incarnation — the old incarnation's leases are forfeited).
    Hello {
        /// Stable worker name.
        worker: String,
        /// Monotonic per-name restart counter.
        incarnation: u64,
    },
    /// Liveness signal; a worker silent past the lease window is dead.
    Heartbeat {
        /// Stable worker name.
        worker: String,
        /// Monotonic per-name restart counter.
        incarnation: u64,
    },
    /// Announces that the worker is about to execute `unit` — sent before
    /// execution starts, so that if the worker dies, the service can blame
    /// the unit that was actually running rather than every unit queued on
    /// the worker. Only blamed failures count toward quarantine.
    Working {
        /// Stable worker name.
        worker: String,
        /// Monotonic per-name restart counter.
        incarnation: u64,
        /// Unit ordinal about to execute.
        unit: u64,
    },
    /// A completed unit, carrying the *raw* result value (an
    /// [`MttdlEstimate`] or scenario outcome); the service canonicalises it
    /// before streaming so report bytes come from exactly one place.
    Done {
        /// Stable worker name.
        worker: String,
        /// Monotonic per-name restart counter.
        incarnation: u64,
        /// Unit ordinal in the campaign's flattened order.
        unit: u64,
        /// The lease under which the unit was executed.
        lease: u64,
        /// The unit's raw result value.
        result: Value,
    },
}

/// Messages the service sends workers.
#[derive(Debug, Clone)]
pub enum ServerMsg {
    /// A lease on one unit: execute it and report [`WorkerMsg::Done`].
    Assign {
        /// Unit ordinal in the campaign's flattened order.
        unit: u64,
        /// Lease identifier (unique per issue, including re-issues).
        lease: u64,
    },
}

/// Where one unit stands in the lease lifecycle. `attempts` counts *blamed*
/// failures — leases that died while this unit was the one executing — not
/// every lost lease, so an innocent unit queued behind a poison unit on the
/// same worker is never quarantined by association.
#[derive(Debug, Clone, Copy)]
enum UnitState {
    /// Waiting for a lease (eligible from `eligible_at`).
    Pending { attempts: u32, eligible_at: u64 },
    /// Leased out since `issued_at` (the holder is tracked by the worker
    /// registry's inflight lists).
    Leased { attempts: u32, issued_at: u64 },
    /// Committed; its payload is (or was) in the reorder buffer.
    Done,
    /// Failed `max_attempts` leases; skipped by the stream.
    Quarantined,
}

/// One registered worker.
#[derive(Debug)]
struct WorkerEntry {
    name: String,
    incarnation: u64,
    last_seen: u64,
    inflight: Vec<usize>,
    /// The unit the worker last announced it was executing — the one that
    /// takes the blame if the worker dies.
    working: Option<usize>,
    alive: bool,
}

/// What a service run did, over and above [`crate::CampaignSummary`]:
/// every fault the service absorbed, counted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceSummary {
    /// Work units the campaign defines.
    pub units_total: u64,
    /// Units committed to the stream (excludes quarantined units).
    pub units_done: u64,
    /// Units answered from a cache probe at start.
    pub cache_hits: u64,
    /// Units computed this run (by workers or the degraded fallback).
    pub cache_misses: u64,
    /// Damaged persistent-cache records skipped while loading (folded in
    /// by callers that load caches from disk; the service itself reports 0).
    pub skipped_records: u64,
    /// Distinct worker names that ever registered.
    pub workers_seen: u64,
    /// Leases lost to dead or restarted workers.
    pub expired_leases: u64,
    /// Leases re-issued from live-but-slow workers.
    pub reissues: u64,
    /// Completions for already-committed or quarantined units (dropped).
    pub duplicate_completions: u64,
    /// Completions whose result value failed to parse as the unit's type.
    pub bad_payloads: u64,
    /// Transport frames that failed checksum or framing checks.
    pub corrupt_frames: u64,
    /// Units executed in-process after the service degraded.
    pub degraded_units: u64,
    /// Ordinals of quarantined units, in quarantine order.
    pub quarantined: Vec<u64>,
}

impl ServiceSummary {
    fn new(units_total: u64) -> Self {
        Self {
            units_total,
            units_done: 0,
            cache_hits: 0,
            cache_misses: 0,
            skipped_records: 0,
            workers_seen: 0,
            expired_leases: 0,
            reissues: 0,
            duplicate_completions: 0,
            bad_payloads: 0,
            corrupt_frames: 0,
            degraded_units: 0,
            quarantined: Vec::new(),
        }
    }
}

/// The campaign service state machine. See the module docs for the fault
/// model; see [`ServiceHarness`] and [`crate::net::serve_tcp`] for the two
/// drivers that feed it.
pub struct CampaignService<'a, S: Scenario> {
    campaign: Campaign<S>,
    prepared: Vec<(String, S::Prepared)>,
    units: Vec<Unit>,
    config: ServiceConfig,
    point_cache: Option<&'a SweepCache<MttdlEstimate>>,
    shard_cache: Option<&'a SweepCache<S::Outcome>>,
    clock: u64,
    states: Vec<UnitState>,
    workers: Vec<WorkerEntry>,
    reorder: BTreeMap<usize, Value>,
    next: usize,
    started: bool,
    last_alive: u64,
    next_lease: u64,
    summary: ServiceSummary,
}

impl<'a, S: Scenario> CampaignService<'a, S> {
    /// Validates the campaign and builds the service over its flattened
    /// unit list (the same deterministic order every executor derives).
    ///
    /// The service *owns* its campaign: a long-running multi-tenant server
    /// constructs services from specs that arrive over the wire, long after
    /// any caller-side borrow could be arranged.
    pub fn new(campaign: Campaign<S>, config: ServiceConfig) -> Result<Self, CampaignError> {
        let prepared = prepare_scenarios(&campaign)?;
        let units = flatten_units(&campaign, &prepared)?;
        let states = vec![UnitState::Pending { attempts: 0, eligible_at: 0 }; units.len()];
        let summary = ServiceSummary::new(units.len() as u64);
        Ok(Self {
            campaign,
            prepared,
            units,
            config,
            point_cache: None,
            shard_cache: None,
            clock: 0,
            states,
            workers: Vec::new(),
            reorder: BTreeMap::new(),
            next: 0,
            started: false,
            last_alive: 0,
            next_lease: 0,
            summary,
        })
    }

    /// Memoises sweep grid points through `cache` (probed at
    /// [`CampaignService::start`], filled as completions commit).
    pub fn point_cache(mut self, cache: &'a SweepCache<MttdlEstimate>) -> Self {
        self.point_cache = Some(cache);
        self
    }

    /// Memoises scenario shards through `cache`.
    pub fn shard_cache(mut self, cache: &'a SweepCache<S::Outcome>) -> Self {
        self.shard_cache = Some(cache);
        self
    }

    /// Probes the caches and commits every already-answered unit, so a
    /// resumed campaign streams its warm prefix before any worker runs.
    pub fn start(&mut self, sink: &mut dyn ReportSink) -> Result<(), CampaignError> {
        assert!(!self.started, "start() must be called exactly once");
        self.started = true;
        for ordinal in 0..self.units.len() {
            let payload = match &self.units[ordinal] {
                Unit::Point { x, key, .. } => self
                    .point_cache
                    .and_then(|cache| cache.get(key))
                    .map(|est| SweepPoint::from_estimate(*x, &est).to_value()),
                Unit::Shard { key, .. } => {
                    self.shard_cache.and_then(|cache| cache.get(key)).map(|o| o.to_value())
                }
            };
            if let Some(payload) = payload {
                self.commit(ordinal, payload, true);
            }
        }
        self.release(sink)
    }

    /// Whether every unit is committed or quarantined and the stream is
    /// fully released.
    pub fn is_done(&self) -> bool {
        self.next == self.units.len()
    }

    /// Counts transport frames rejected by checksum or framing checks.
    pub fn note_corrupt_frames(&mut self, count: u64) {
        self.summary.corrupt_frames += count;
    }

    /// Flushes the sink and returns the run's summary. Call once
    /// [`CampaignService::is_done`].
    pub fn finish(&mut self, sink: &mut dyn ReportSink) -> Result<ServiceSummary, CampaignError> {
        sink.flush()?;
        Ok(self.summary.clone())
    }

    /// Feeds one worker message through the state machine, releasing any
    /// newly in-order records to `sink`.
    pub fn handle(
        &mut self,
        msg: &WorkerMsg,
        sink: &mut dyn ReportSink,
    ) -> Result<(), CampaignError> {
        match msg {
            WorkerMsg::Hello { worker, incarnation }
            | WorkerMsg::Heartbeat { worker, incarnation } => {
                self.seen(worker, *incarnation);
                self.release(sink)
            }
            WorkerMsg::Working { worker, incarnation, unit } => {
                if let Some(idx) = self.seen(worker, *incarnation) {
                    let ordinal = *unit as usize;
                    if self.workers[idx].inflight.contains(&ordinal) {
                        self.workers[idx].working = Some(ordinal);
                    }
                }
                self.release(sink)
            }
            WorkerMsg::Done { worker, incarnation, unit, result, .. } => {
                // A stale incarnation's result still commits: units are pure.
                self.seen(worker, *incarnation);
                let ordinal = *unit as usize;
                if ordinal >= self.units.len() {
                    self.summary.bad_payloads += 1;
                    return Ok(());
                }
                if matches!(self.states[ordinal], UnitState::Done | UnitState::Quarantined) {
                    // Late duplicate (an expired lease completed after its
                    // re-issue, or a quarantined unit finally finished).
                    // Units are pure and payloads canonical, so dropping it
                    // cannot change the report.
                    self.summary.duplicate_completions += 1;
                    return Ok(());
                }
                for worker in &mut self.workers {
                    worker.inflight.retain(|&o| o != ordinal);
                    if worker.working == Some(ordinal) {
                        worker.working = None;
                    }
                }
                match self.payload_from_raw(ordinal, result) {
                    Some(payload) => {
                        self.commit(ordinal, payload, false);
                    }
                    None => {
                        self.summary.bad_payloads += 1;
                        if matches!(self.states[ordinal], UnitState::Leased { .. }) {
                            self.requeue_failure(ordinal, true);
                        }
                    }
                }
                self.release(sink)
            }
        }
    }

    /// Advances the sim clock one tick: expires silent workers, re-issues
    /// stale leases, degrades to in-process execution if the fleet is gone,
    /// and assigns pending units. Returns the `(worker, message)` pairs the
    /// transport must deliver.
    pub fn tick(
        &mut self,
        sink: &mut dyn ReportSink,
    ) -> Result<Vec<(String, ServerMsg)>, CampaignError> {
        self.clock += 1;

        // Expire workers silent past the lease window.
        for idx in 0..self.workers.len() {
            let stale = self.workers[idx].alive
                && self.clock.saturating_sub(self.workers[idx].last_seen) > self.config.lease_ticks;
            if stale {
                self.workers[idx].alive = false;
                let blamed = self.workers[idx].working.take();
                let orphans = std::mem::take(&mut self.workers[idx].inflight);
                for ordinal in orphans {
                    self.summary.expired_leases += 1;
                    self.requeue_failure(ordinal, Some(ordinal) == blamed);
                }
            }
        }

        // Re-issue leases held too long even by live workers.
        for ordinal in 0..self.states.len() {
            if let UnitState::Leased { issued_at, .. } = self.states[ordinal] {
                if self.clock.saturating_sub(issued_at) > self.config.reissue_ticks {
                    self.summary.reissues += 1;
                    let blame = self.workers.iter().any(|w| w.working == Some(ordinal));
                    self.requeue_failure(ordinal, blame);
                }
            }
        }

        // Degrade to in-process execution when the fleet has been gone too
        // long — a campaign must finish even if no worker ever registers.
        if self.workers.iter().any(|w| w.alive) {
            self.last_alive = self.clock;
        } else if let Some(after) = self.config.fallback_ticks {
            if self.clock.saturating_sub(self.last_alive) >= after {
                self.run_fallback();
            }
        }
        self.release(sink)?;

        // Assign pending, eligible units to live workers, in unit order.
        let mut out = Vec::new();
        for idx in 0..self.workers.len() {
            if !self.workers[idx].alive {
                continue;
            }
            while self.workers[idx].inflight.len() < self.config.max_inflight_per_worker {
                let Some(ordinal) = self.next_assignable() else { break };
                let UnitState::Pending { attempts, .. } = self.states[ordinal] else {
                    unreachable!("next_assignable returns pending units")
                };
                let lease = self.next_lease;
                self.next_lease += 1;
                self.states[ordinal] = UnitState::Leased { attempts, issued_at: self.clock };
                self.workers[idx].inflight.push(ordinal);
                out.push((
                    self.workers[idx].name.clone(),
                    ServerMsg::Assign { unit: ordinal as u64, lease },
                ));
            }
        }
        Ok(out)
    }

    /// Registers or refreshes a worker and returns its registry index; a
    /// higher incarnation forfeits the previous incarnation's leases. A
    /// stale incarnation touches nothing and gets `None`.
    fn seen(&mut self, worker: &str, incarnation: u64) -> Option<usize> {
        match self.workers.iter().position(|w| w.name == worker) {
            Some(idx) if incarnation < self.workers[idx].incarnation => None,
            Some(idx) => {
                if incarnation > self.workers[idx].incarnation {
                    self.workers[idx].incarnation = incarnation;
                    let blamed = self.workers[idx].working.take();
                    let orphans = std::mem::take(&mut self.workers[idx].inflight);
                    for ordinal in orphans {
                        self.summary.expired_leases += 1;
                        self.requeue_failure(ordinal, Some(ordinal) == blamed);
                    }
                }
                self.workers[idx].last_seen = self.clock;
                self.workers[idx].alive = true;
                Some(idx)
            }
            None => {
                self.summary.workers_seen += 1;
                self.workers.push(WorkerEntry {
                    name: worker.to_string(),
                    incarnation,
                    last_seen: self.clock,
                    inflight: Vec::new(),
                    working: None,
                    alive: true,
                });
                Some(self.workers.len() - 1)
            }
        }
    }

    /// First pending, eligible unit at or after the stream front.
    fn next_assignable(&self) -> Option<usize> {
        (self.next..self.units.len()).find(|&ordinal| {
            matches!(self.states[ordinal], UnitState::Pending { eligible_at, .. }
                if eligible_at <= self.clock)
        })
    }

    /// Returns a failed lease's unit to the pending queue, or quarantines it
    /// once its blamed attempts are spent. `blame` marks the unit as the one
    /// the dead worker was actually executing — only blamed failures count
    /// toward quarantine (with exponential backoff); a blameless orphan is
    /// re-queued after the base delay with its attempt count untouched.
    fn requeue_failure(&mut self, ordinal: usize, blame: bool) {
        let attempts = match self.states[ordinal] {
            UnitState::Leased { attempts, .. } | UnitState::Pending { attempts, .. } => attempts,
            UnitState::Done | UnitState::Quarantined => return,
        };
        for worker in &mut self.workers {
            worker.inflight.retain(|&o| o != ordinal);
            if worker.working == Some(ordinal) {
                worker.working = None;
            }
        }
        let attempts = attempts + u32::from(blame);
        if attempts >= self.config.max_attempts {
            self.states[ordinal] = UnitState::Quarantined;
            self.summary.quarantined.push(ordinal as u64);
        } else {
            let shift = if blame { attempts.min(6) } else { 0 };
            let eligible_at = self.clock + (self.config.backoff_base_ticks << shift);
            self.states[ordinal] = UnitState::Pending { attempts, eligible_at };
        }
    }

    /// Canonicalises a raw wire value into the unit's streamed payload,
    /// filling the caches on the way. `None` means the value did not parse
    /// as the unit's result type.
    fn payload_from_raw(&self, ordinal: usize, raw: &Value) -> Option<Value> {
        match &self.units[ordinal] {
            Unit::Point { x, key, .. } => {
                let est = MttdlEstimate::from_value(raw).ok()?;
                if let Some(cache) = self.point_cache {
                    cache.insert(*key, est.clone());
                }
                Some(SweepPoint::from_estimate(*x, &est).to_value())
            }
            Unit::Shard { key, .. } => {
                let outcome = S::Outcome::from_value(raw).ok()?;
                if let Some(cache) = self.shard_cache {
                    cache.insert(*key, outcome.clone());
                }
                Some(outcome.to_value())
            }
        }
    }

    /// Executes every pending unit in-process (the no-fleet fallback).
    fn run_fallback(&mut self) {
        for ordinal in 0..self.units.len() {
            if !matches!(self.states[ordinal], UnitState::Pending { .. }) {
                continue;
            }
            let (payload, hit, _trace) = execute_unit::<S>(
                &self.campaign.sweeps,
                &self.prepared,
                &self.units[ordinal],
                self.point_cache,
                self.shard_cache,
                None,
            );
            self.summary.degraded_units += 1;
            self.commit(ordinal, payload, hit);
        }
    }

    /// Marks a unit done and stages its payload for in-order release.
    fn commit(&mut self, ordinal: usize, payload: Value, hit: bool) {
        self.states[ordinal] = UnitState::Done;
        self.summary.units_done += 1;
        if hit {
            self.summary.cache_hits += 1;
        } else {
            self.summary.cache_misses += 1;
        }
        self.reorder.insert(ordinal, payload);
    }

    /// Releases in-order records to the sink, skipping quarantined units
    /// (one poison unit must not wedge the stream).
    fn release(&mut self, sink: &mut dyn ReportSink) -> Result<(), CampaignError> {
        while self.next < self.units.len() {
            match self.states[self.next] {
                UnitState::Quarantined => self.next += 1,
                UnitState::Done => {
                    let Some(payload) = self.reorder.remove(&self.next) else { break };
                    let record = record_for(&self.campaign, &self.units[self.next], payload);
                    sink.record(&record)?;
                    self.next += 1;
                }
                UnitState::Pending { .. } | UnitState::Leased { .. } => break,
            }
        }
        Ok(())
    }
}

/// A deterministic chaos script for one simulated worker of a
/// [`ServiceHarness`]: which faults it injects, entirely as a function of
/// unit ordinals and harness ticks (no randomness, no wall clock).
#[derive(Debug, Clone)]
pub struct ChaosScript {
    /// The worker crashes when assigned any of these units (cleared by
    /// respawn; the service must re-issue the lease).
    pub kill_on_units: Vec<u64>,
    /// Crashes the worker performs before the script stops killing it
    /// (`u64::MAX` = poison forever; quarantine is the only way out).
    pub kill_budget: u64,
    /// The first `Done` for each of these units is lost in transit, once
    /// per incarnation (the unit is computed, the message never arrives).
    pub drop_done_for: Vec<u64>,
    /// Ticks `[from, to)` during which the worker is silent: no heartbeats,
    /// no deliveries — but computed results stay buffered and flush when
    /// the window closes, creating late duplicates.
    pub silent_window: Option<(u64, u64)>,
}

impl Default for ChaosScript {
    fn default() -> Self {
        Self {
            kill_on_units: Vec::new(),
            kill_budget: u64::MAX,
            drop_done_for: Vec::new(),
            silent_window: None,
        }
    }
}

/// One simulated worker inside the harness.
struct SimWorker {
    name: String,
    incarnation: u64,
    alive: bool,
    inbox: VecDeque<ServerMsg>,
    outbox: Vec<WorkerMsg>,
    kills: u64,
    dropped: Vec<u64>,
}

/// Drives a [`CampaignService`] with a simulated worker fleet, single
/// threaded and fully deterministic: the test suite's stand-in for real
/// processes dying at the worst possible moment. Faults come from one
/// [`ChaosScript`] per worker; a clean script runs the fleet fault-free.
pub struct ServiceHarness<'a, S: Scenario> {
    campaign: &'a Campaign<S>,
    workers: usize,
    config: ServiceConfig,
    chaos: Vec<ChaosScript>,
    point_cache: Option<&'a SweepCache<MttdlEstimate>>,
    shard_cache: Option<&'a SweepCache<S::Outcome>>,
    respawn: bool,
    max_ticks: u64,
}

impl<'a, S: Scenario> ServiceHarness<'a, S> {
    /// A harness over `workers` fault-free simulated workers.
    pub fn new(campaign: &'a Campaign<S>, workers: usize) -> Self {
        Self {
            campaign,
            workers,
            config: ServiceConfig::default(),
            chaos: Vec::new(),
            point_cache: None,
            shard_cache: None,
            respawn: true,
            max_ticks: 10_000,
        }
    }

    /// Overrides the service configuration.
    pub fn config(mut self, config: ServiceConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets worker `index`'s chaos script (workers without one run clean).
    pub fn chaos(mut self, index: usize, script: ChaosScript) -> Self {
        if self.chaos.len() <= index {
            self.chaos.resize_with(index + 1, ChaosScript::default);
        }
        self.chaos[index] = script;
        self
    }

    /// Whether crashed workers respawn (next tick, incarnation + 1).
    pub fn respawn(mut self, respawn: bool) -> Self {
        self.respawn = respawn;
        self
    }

    /// Tick budget before the run is declared stalled.
    pub fn max_ticks(mut self, max_ticks: u64) -> Self {
        self.max_ticks = max_ticks;
        self
    }

    /// Memoises sweep grid points through `cache`.
    pub fn point_cache(mut self, cache: &'a SweepCache<MttdlEstimate>) -> Self {
        self.point_cache = Some(cache);
        self
    }

    /// Memoises scenario shards through `cache`.
    pub fn shard_cache(mut self, cache: &'a SweepCache<S::Outcome>) -> Self {
        self.shard_cache = Some(cache);
        self
    }

    /// Runs the campaign through the simulated fleet, streaming the report
    /// to `sink`. Returns [`CampaignError::Stalled`] past the tick budget.
    pub fn run(&self, sink: &mut dyn ReportSink) -> Result<ServiceSummary, CampaignError>
    where
        S: Clone,
    {
        let mut service = CampaignService::new(self.campaign.clone(), self.config)?;
        if let Some(cache) = self.point_cache {
            service = service.point_cache(cache);
        }
        if let Some(cache) = self.shard_cache {
            service = service.shard_cache(cache);
        }

        // The workers' own view of the campaign: the flattening is
        // deterministic, so ordinals agree with the service by construction.
        let prepared = prepare_scenarios(self.campaign)?;
        let units = flatten_units(self.campaign, &prepared)?;

        let mut fleet: Vec<SimWorker> = (0..self.workers)
            .map(|i| SimWorker {
                name: format!("w{i}"),
                incarnation: 0,
                alive: true,
                inbox: VecDeque::new(),
                outbox: Vec::new(),
                kills: 0,
                dropped: Vec::new(),
            })
            .collect();
        for worker in &fleet {
            let hello =
                WorkerMsg::Hello { worker: worker.name.clone(), incarnation: worker.incarnation };
            service.handle(&hello, sink)?;
        }
        service.start(sink)?;

        let default_chaos = ChaosScript::default();
        let mut tick: u64 = 0;
        while !service.is_done() {
            tick += 1;
            if tick > self.max_ticks {
                return Err(CampaignError::Stalled { ticks: tick });
            }
            for (index, worker) in fleet.iter_mut().enumerate() {
                let chaos = self.chaos.get(index).unwrap_or(&default_chaos);
                if !worker.alive {
                    if self.respawn {
                        worker.incarnation += 1;
                        worker.alive = true;
                        worker.inbox.clear();
                        worker.outbox.clear();
                        worker.dropped.clear();
                        let hello = WorkerMsg::Hello {
                            worker: worker.name.clone(),
                            incarnation: worker.incarnation,
                        };
                        service.handle(&hello, sink)?;
                    }
                    continue;
                }
                if chaos.silent_window.is_some_and(|(from, to)| tick >= from && tick < to) {
                    continue;
                }
                // Results computed last tick (or buffered through a silent
                // window) deliver before new work — so a lease expired
                // mid-window surfaces as a duplicate completion here.
                for msg in worker.outbox.drain(..) {
                    service.handle(&msg, sink)?;
                }
                let heartbeat = WorkerMsg::Heartbeat {
                    worker: worker.name.clone(),
                    incarnation: worker.incarnation,
                };
                service.handle(&heartbeat, sink)?;
                while let Some(msg) = worker.inbox.pop_front() {
                    let ServerMsg::Assign { unit, lease } = msg;
                    // The execution announcement lands before any crash, so
                    // the service can blame the unit actually running when
                    // this worker dies, not every unit queued on it.
                    let working = WorkerMsg::Working {
                        worker: worker.name.clone(),
                        incarnation: worker.incarnation,
                        unit,
                    };
                    service.handle(&working, sink)?;
                    if chaos.kill_on_units.contains(&unit) && worker.kills < chaos.kill_budget {
                        // Crash: in-flight state, buffered results and
                        // queued assignments all die with the process.
                        worker.kills += 1;
                        worker.alive = false;
                        worker.inbox.clear();
                        worker.outbox.clear();
                        break;
                    }
                    let raw = compute_unit_raw::<S>(
                        &self.campaign.sweeps,
                        &prepared,
                        &units[unit as usize],
                    );
                    let done = WorkerMsg::Done {
                        worker: worker.name.clone(),
                        incarnation: worker.incarnation,
                        unit,
                        lease,
                        result: raw,
                    };
                    if chaos.drop_done_for.contains(&unit) && !worker.dropped.contains(&unit) {
                        worker.dropped.push(unit);
                    } else {
                        worker.outbox.push(done);
                    }
                }
            }
            let assignments = service.tick(sink)?;
            for (name, msg) in assignments {
                if let Some(worker) = fleet.iter_mut().find(|w| w.name == name && w.alive) {
                    worker.inbox.push_back(msg);
                }
            }
        }
        service.finish(sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::campaign::{CampaignDriver, MemorySink, PreparedScenario, SweepAxis, SweepSpec};
    use crate::config::SimConfig;
    use ltds_core::error::ModelError;

    fn base() -> SimConfig {
        SimConfig::mirrored_disks(2000.0, 2000.0, 5.0, 5.0, Some(100.0), 1.0).unwrap()
    }

    /// A deterministic toy scenario (outcome = f(seed, shard)) so harness
    /// tests exercise both unit kinds without fleet-sized runtimes.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct ToyScenario {
        name: String,
        seed: u64,
        shards: u32,
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
            let mut acc = self.seed ^ u64::from(shard);
            for i in 0..2_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        }
    }

    fn campaign() -> Campaign<ToyScenario> {
        Campaign {
            name: "service-test".to_string(),
            sweeps: vec![SweepSpec {
                name: "scrub".to_string(),
                base: base(),
                axis: SweepAxis::ScrubPeriod { periods_hours: vec![30.0, 300.0, f64::INFINITY] },
                trials: 120,
                seed: 7,
            }],
            scenarios: vec![
                ToyScenario { name: "toy-a".to_string(), seed: 3, shards: 4 },
                ToyScenario { name: "toy-b".to_string(), seed: 4, shards: 2 },
            ],
        }
    }

    fn driver_reference(campaign: &Campaign<ToyScenario>) -> String {
        let mut sink = MemorySink::new();
        CampaignDriver::new(campaign).threads(1).run(&mut sink).unwrap();
        sink.to_jsonl()
    }

    #[test]
    fn fallback_executes_without_workers_and_matches_driver() {
        let campaign = campaign();
        let reference = driver_reference(&campaign);
        let mut sink = MemorySink::new();
        let summary = ServiceHarness::new(&campaign, 0).run(&mut sink).unwrap();
        assert_eq!(sink.to_jsonl(), reference);
        assert_eq!(summary.units_done, summary.units_total);
        assert_eq!(summary.degraded_units, summary.units_total);
        assert_eq!(summary.workers_seen, 0);
    }

    #[test]
    fn harness_streams_match_driver_for_any_worker_count() {
        let campaign = campaign();
        let reference = driver_reference(&campaign);
        for workers in [1usize, 2, 8] {
            let mut sink = MemorySink::new();
            let summary = ServiceHarness::new(&campaign, workers).run(&mut sink).unwrap();
            assert_eq!(sink.to_jsonl(), reference, "{workers} workers diverged");
            assert_eq!(summary.units_done, summary.units_total);
            assert_eq!(summary.workers_seen, workers as u64);
            assert_eq!(summary.degraded_units, 0, "workers were live; no fallback expected");
            assert!(summary.quarantined.is_empty());
            // Without chaos every unit runs exactly once.
            assert_eq!(summary.cache_misses, summary.units_total);
            let lost = (summary.expired_leases, summary.reissues, summary.duplicate_completions);
            assert_eq!(lost, (0, 0, 0), "{workers} workers");
        }
    }

    #[test]
    fn killed_workers_respawn_and_the_stream_survives() {
        let campaign = campaign();
        let reference = driver_reference(&campaign);
        // Worker 0 crashes on two different units (once each); the lease
        // machinery must re-issue them without changing a byte.
        let chaos =
            ChaosScript { kill_on_units: vec![1, 4], kill_budget: 2, ..ChaosScript::default() };
        let mut sink = MemorySink::new();
        let summary = ServiceHarness::new(&campaign, 2)
            .chaos(0, chaos)
            .config(ServiceConfig { fallback_ticks: None, ..ServiceConfig::default() })
            .run(&mut sink)
            .unwrap();
        assert_eq!(sink.to_jsonl(), reference);
        assert_eq!(summary.units_done, summary.units_total);
        assert!(summary.expired_leases >= 1, "crashes must surface as expired leases");
        assert!(summary.quarantined.is_empty());
    }

    #[test]
    fn poison_unit_is_quarantined_and_reported() {
        let campaign = campaign();
        let poison = 2u64;
        // Every worker dies on the poison unit, forever; with fallback off
        // the only way to finish is to quarantine it.
        let config =
            ServiceConfig { fallback_ticks: None, max_attempts: 3, ..ServiceConfig::default() };
        let mut harness = ServiceHarness::new(&campaign, 2).config(config);
        for index in 0..2 {
            harness = harness.chaos(
                index,
                ChaosScript { kill_on_units: vec![poison], ..ChaosScript::default() },
            );
        }
        let mut sink = MemorySink::new();
        let summary = harness.run(&mut sink).unwrap();
        assert_eq!(summary.quarantined, vec![poison]);
        assert_eq!(summary.units_done, summary.units_total - 1);

        // The stream is the clean report minus exactly the poison record.
        let mut reference = MemorySink::new();
        CampaignDriver::new(&campaign).threads(1).run(&mut reference).unwrap();
        let expected: String = reference
            .records()
            .iter()
            .enumerate()
            .filter(|(ordinal, _)| *ordinal as u64 != poison)
            .map(|(_, r)| serde_json::to_string(r).unwrap() + "\n")
            .collect();
        assert_eq!(sink.to_jsonl(), expected);
    }

    #[test]
    fn dropped_completions_are_recovered_by_lease_expiry() {
        let campaign = campaign();
        let reference = driver_reference(&campaign);
        let chaos = ChaosScript { drop_done_for: vec![0, 3], ..ChaosScript::default() };
        let mut sink = MemorySink::new();
        let summary = ServiceHarness::new(&campaign, 2)
            .chaos(0, chaos.clone())
            .chaos(1, chaos)
            .config(ServiceConfig {
                fallback_ticks: None,
                reissue_ticks: 3,
                ..ServiceConfig::default()
            })
            .run(&mut sink)
            .unwrap();
        assert_eq!(sink.to_jsonl(), reference);
        assert_eq!(summary.units_done, summary.units_total);
        assert!(summary.reissues >= 1, "lost completions must be re-issued");
    }

    #[test]
    fn silent_worker_duplicates_are_dropped() {
        let campaign = campaign();
        let reference = driver_reference(&campaign);
        // Worker 0 computes its first assignments at tick 2, then goes dark
        // with the results still buffered: its leases expire and worker 1
        // redoes the units, so the flush at tick 8 arrives as duplicates.
        let chaos = ChaosScript { silent_window: Some((3, 8)), ..ChaosScript::default() };
        let mut sink = MemorySink::new();
        let summary = ServiceHarness::new(&campaign, 2)
            .chaos(0, chaos)
            .config(ServiceConfig {
                lease_ticks: 2,
                fallback_ticks: None,
                ..ServiceConfig::default()
            })
            .run(&mut sink)
            .unwrap();
        assert_eq!(sink.to_jsonl(), reference);
        assert_eq!(summary.units_done, summary.units_total);
        assert!(
            summary.duplicate_completions >= 1,
            "buffered results must surface as dropped duplicates, got {summary:?}"
        );
    }

    #[test]
    fn warm_caches_complete_without_any_workers_or_fallback() {
        let campaign = campaign();
        let points = SweepCache::new();
        let shards = SweepCache::new();
        let mut cold = MemorySink::new();
        CampaignDriver::new(&campaign)
            .threads(2)
            .point_cache(&points)
            .shard_cache(&shards)
            .run(&mut cold)
            .unwrap();

        // Fallback off, zero workers: only the start-time cache probe can
        // finish this run.
        let mut warm = MemorySink::new();
        let summary = ServiceHarness::new(&campaign, 0)
            .point_cache(&points)
            .shard_cache(&shards)
            .config(ServiceConfig { fallback_ticks: None, ..ServiceConfig::default() })
            .run(&mut warm)
            .unwrap();
        assert_eq!(warm.to_jsonl(), cold.to_jsonl());
        assert_eq!(summary.cache_hits, summary.units_total);
        assert_eq!(summary.cache_misses, 0);
    }

    #[test]
    fn workers_fill_the_service_caches() {
        let campaign = campaign();
        let points = SweepCache::new();
        let shards = SweepCache::new();
        let mut first = MemorySink::new();
        let summary = ServiceHarness::new(&campaign, 2)
            .point_cache(&points)
            .shard_cache(&shards)
            .run(&mut first)
            .unwrap();
        assert_eq!(summary.cache_misses, summary.units_total);

        // A rerun over the same caches is answered entirely by the probe.
        let mut second = MemorySink::new();
        let summary = ServiceHarness::new(&campaign, 2)
            .point_cache(&points)
            .shard_cache(&shards)
            .run(&mut second)
            .unwrap();
        assert_eq!(summary.cache_hits, summary.units_total);
        assert_eq!(second.to_jsonl(), first.to_jsonl());
    }

    #[test]
    fn service_summary_roundtrips_through_json() {
        let summary = ServiceSummary {
            units_total: 9,
            units_done: 8,
            cache_hits: 2,
            cache_misses: 6,
            skipped_records: 1,
            workers_seen: 3,
            expired_leases: 4,
            reissues: 1,
            duplicate_completions: 2,
            bad_payloads: 1,
            corrupt_frames: 5,
            degraded_units: 0,
            quarantined: vec![2],
        };
        let json = serde_json::to_string(&summary).unwrap();
        let back: ServiceSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }

    /// Drives a service to completion by honestly executing every assignment
    /// as worker `name` at `incarnation`, announcing each unit first.
    fn drain_honestly(
        service: &mut CampaignService<'_, ToyScenario>,
        sink: &mut MemorySink,
        campaign: &Campaign<ToyScenario>,
        name: &str,
        incarnation: u64,
    ) {
        let prepared = prepare_scenarios(campaign).unwrap();
        let units = flatten_units(campaign, &prepared).unwrap();
        for _ in 0..10_000 {
            if service.is_done() {
                return;
            }
            let assignments = service.tick(sink).unwrap();
            for (worker, msg) in assignments {
                assert_eq!(worker, name);
                let ServerMsg::Assign { unit, lease } = msg;
                let worker = name.to_string();
                service
                    .handle(&WorkerMsg::Working { worker: worker.clone(), incarnation, unit }, sink)
                    .unwrap();
                let result = compute_unit_raw::<ToyScenario>(
                    &campaign.sweeps,
                    &prepared,
                    &units[unit as usize],
                );
                service
                    .handle(&WorkerMsg::Done { worker, incarnation, unit, lease, result }, sink)
                    .unwrap();
            }
        }
        panic!("service did not finish under an honest worker");
    }

    #[test]
    fn reconnect_blames_only_the_announced_unit_and_spares_the_orphan() {
        // A worker holding leases on units A (announced `Working`) and B
        // (queued, never announced) reconnects with a bumped incarnation —
        // twice, each time mid-A. With max_attempts = 2, A's two blamed
        // failures quarantine it; B must keep zero attempts and complete,
        // or blame is leaking onto innocent orphans.
        let campaign = campaign();
        let reference = driver_reference(&campaign);
        let config = ServiceConfig {
            // Only incarnation bumps may forfeit leases in this test.
            lease_ticks: 100_000,
            reissue_ticks: 100_000,
            max_attempts: 2,
            backoff_base_ticks: 0,
            fallback_ticks: None,
            max_inflight_per_worker: 2,
        };
        let mut service = CampaignService::new(campaign.clone(), config).unwrap();
        let mut sink = MemorySink::new();
        service.start(&mut sink).unwrap();

        let hello = |inc: u64| WorkerMsg::Hello { worker: "w0".to_string(), incarnation: inc };
        service.handle(&hello(0), &mut sink).unwrap();
        let assigns = service.tick(&mut sink).unwrap();
        let leases: Vec<(u64, u64)> =
            assigns.iter().map(|(_, ServerMsg::Assign { unit, lease })| (*unit, *lease)).collect();
        assert_eq!(leases.len(), 2, "expected two leases inflight, got {leases:?}");
        let (unit_a, lease_a) = leases[0];
        let unit_b = leases[1].0;

        // First mid-unit reconnect: A blamed once, B forfeited blameless.
        service
            .handle(
                &WorkerMsg::Working { worker: "w0".to_string(), incarnation: 0, unit: unit_a },
                &mut sink,
            )
            .unwrap();
        service.handle(&hello(1), &mut sink).unwrap();

        // The units come straight back (zero backoff); reconnect mid-A
        // again. That is A's second blamed failure: quarantine.
        let assigns = service.tick(&mut sink).unwrap();
        assert!(
            assigns
                .iter()
                .any(|(_, m)| matches!(m, ServerMsg::Assign { unit, .. } if *unit == unit_a)),
            "unit A must be re-issued after the first reconnect"
        );
        service
            .handle(
                &WorkerMsg::Working { worker: "w0".to_string(), incarnation: 1, unit: unit_a },
                &mut sink,
            )
            .unwrap();
        service.handle(&hello(2), &mut sink).unwrap();

        drain_honestly(&mut service, &mut sink, &campaign, "w0", 2);

        // A late `Done` for the quarantined unit from the first (long-dead)
        // incarnation must be dropped as a duplicate, not committed.
        let prepared = prepare_scenarios(&campaign).unwrap();
        let units = flatten_units(&campaign, &prepared).unwrap();
        let stale =
            compute_unit_raw::<ToyScenario>(&campaign.sweeps, &prepared, &units[unit_a as usize]);
        service
            .handle(
                &WorkerMsg::Done {
                    worker: "w0".to_string(),
                    incarnation: 0,
                    unit: unit_a,
                    lease: lease_a,
                    result: stale,
                },
                &mut sink,
            )
            .unwrap();

        let summary = service.finish(&mut sink).unwrap();
        assert_eq!(summary.quarantined, vec![unit_a], "exactly the announced unit is poisoned");
        assert_eq!(summary.units_done, summary.units_total - 1);
        assert_eq!(summary.expired_leases, 4, "two leases forfeited per reconnect");
        assert_eq!(summary.duplicate_completions, 1, "the stale Done must be dropped");
        assert!(
            !summary.quarantined.contains(&unit_b),
            "the innocent orphan must not advance toward quarantine"
        );

        // The stream is the clean report minus exactly A's record.
        let expected: String = reference
            .lines()
            .enumerate()
            .filter(|(ordinal, _)| *ordinal as u64 != unit_a)
            .map(|(_, line)| format!("{line}\n"))
            .collect();
        assert_eq!(sink.to_jsonl(), expected);
    }

    #[test]
    fn stale_done_after_reconnect_commits_once_and_duplicates_are_dropped() {
        // A worker reconnects mid-unit, but its old incarnation's result
        // still arrives (a kernel socket buffer drains late). Units are pure
        // and payloads canonical, so first-committed-wins: the stale result
        // commits, the re-executed one is dropped, and the stream is
        // byte-identical to the clean driver's.
        let campaign = campaign();
        let reference = driver_reference(&campaign);
        let config = ServiceConfig {
            lease_ticks: 100_000,
            reissue_ticks: 100_000,
            max_attempts: 3,
            backoff_base_ticks: 0,
            fallback_ticks: None,
            max_inflight_per_worker: 2,
        };
        let mut service = CampaignService::new(campaign.clone(), config).unwrap();
        let mut sink = MemorySink::new();
        service.start(&mut sink).unwrap();

        service
            .handle(&WorkerMsg::Hello { worker: "w0".to_string(), incarnation: 0 }, &mut sink)
            .unwrap();
        let assigns = service.tick(&mut sink).unwrap();
        let (unit_a, lease_a) = assigns
            .first()
            .map(|(_, ServerMsg::Assign { unit, lease })| (*unit, *lease))
            .expect("one lease issued");
        service
            .handle(
                &WorkerMsg::Working { worker: "w0".to_string(), incarnation: 0, unit: unit_a },
                &mut sink,
            )
            .unwrap();
        service
            .handle(&WorkerMsg::Hello { worker: "w0".to_string(), incarnation: 1 }, &mut sink)
            .unwrap();

        // The stale result of the forfeited lease lands while A is pending
        // again: it commits (first writer wins).
        let prepared = prepare_scenarios(&campaign).unwrap();
        let units = flatten_units(&campaign, &prepared).unwrap();
        let result =
            compute_unit_raw::<ToyScenario>(&campaign.sweeps, &prepared, &units[unit_a as usize]);
        service
            .handle(
                &WorkerMsg::Done {
                    worker: "w0".to_string(),
                    incarnation: 0,
                    unit: unit_a,
                    lease: lease_a,
                    result: result.clone(),
                },
                &mut sink,
            )
            .unwrap();

        // The re-executed copy arrives second: dropped, not double-committed.
        service
            .handle(
                &WorkerMsg::Done {
                    worker: "w0".to_string(),
                    incarnation: 1,
                    unit: unit_a,
                    lease: lease_a + 1,
                    result,
                },
                &mut sink,
            )
            .unwrap();

        drain_honestly(&mut service, &mut sink, &campaign, "w0", 1);
        let summary = service.finish(&mut sink).unwrap();
        assert_eq!(sink.to_jsonl(), reference, "double-commit or reorder detected");
        assert_eq!(summary.units_done, summary.units_total);
        assert_eq!(summary.duplicate_completions, 1);
        assert!(summary.quarantined.is_empty());
        assert_eq!(summary.expired_leases, 2, "the reconnect forfeits both inflight leases");
    }

    // -----------------------------------------------------------------
    // Bounded model check of the lease state machine: every interleaving of
    // worker messages and ticks up to a depth bound, for a 3-unit campaign
    // and two workers. The search is stateless: each path is replayed from
    // a fresh service, so the service needs no `Clone`.
    // -----------------------------------------------------------------

    /// One move of the explorer's adversary: a message from worker
    /// `MC_WORKERS[worker]`, or a tick of the sim clock.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Hello { worker: usize, incarnation: u64 },
        Heartbeat { worker: usize, incarnation: u64 },
        Working { worker: usize, incarnation: u64, unit: usize },
        Done { worker: usize, incarnation: u64, unit: usize },
        Tick,
    }

    const MC_WORKERS: [&str; 2] = ["w0", "w1"];
    const MC_MAX_INCARNATION: u64 = 2;
    /// Small windows so expiry, re-issue and quarantine all fit in the
    /// depth bound; no backoff, so a lost unit is leasable on the next tick.
    const MC_CONFIG: ServiceConfig = ServiceConfig {
        lease_ticks: 3,
        reissue_ticks: 2,
        max_attempts: 2,
        backoff_base_ticks: 0,
        fallback_ticks: None,
        max_inflight_per_worker: 2,
    };
    /// Ticks a fair worker gets to finish from any explored state: silent
    /// holders lose their leases within `lease_ticks + 1` ticks, and the
    /// fair worker completes two units per tick.
    const MC_FAIR_TICKS: u64 = 10;

    /// The campaign under check and what an honest fleet produces for it.
    struct Model {
        campaign: Campaign<ToyScenario>,
        /// Each unit's raw result, as an honest worker reports it.
        results: Vec<Value>,
        /// Each unit's line of the driver's stream, newline included.
        lines: Vec<String>,
    }

    impl Model {
        fn new() -> Self {
            let campaign = Campaign {
                name: "model-check".to_string(),
                sweeps: Vec::new(),
                scenarios: vec![ToyScenario { name: "toy".to_string(), seed: 5, shards: 3 }],
            };
            let prepared = prepare_scenarios(&campaign).unwrap();
            let units = flatten_units(&campaign, &prepared).unwrap();
            let results = units
                .iter()
                .map(|unit| compute_unit_raw::<ToyScenario>(&campaign.sweeps, &prepared, unit))
                .collect();
            let lines = driver_reference(&campaign).lines().map(|l| format!("{l}\n")).collect();
            Self { campaign, results, lines }
        }

        /// The driver's stream restricted to `ordinals`.
        fn stream(&self, ordinals: impl Iterator<Item = usize>) -> String {
            ordinals.map(|u| self.lines[u].as_str()).collect()
        }
    }

    /// A service replayed through a path, plus the explorer's own count of
    /// blamed lease losses per unit: a lease lost while its unit was the
    /// holder's announced `Working` unit.
    struct Replay {
        service: CampaignService<'static, ToyScenario>,
        sink: MemorySink,
        blamed: Vec<u32>,
    }

    fn replay(model: &Model, path: &[Step]) -> Replay {
        let mut service = CampaignService::new(model.campaign.clone(), MC_CONFIG).unwrap();
        let mut sink = MemorySink::new();
        service.start(&mut sink).unwrap();
        let mut r = Replay { service, sink, blamed: vec![0; model.results.len()] };
        for &step in path {
            apply(model, &mut r, step, path);
        }
        r
    }

    fn worker_entry<'s>(
        service: &'s CampaignService<'_, ToyScenario>,
        worker: usize,
    ) -> Option<&'s WorkerEntry> {
        service.workers.iter().find(|w| w.name == MC_WORKERS[worker])
    }

    fn apply(model: &Model, r: &mut Replay, step: Step, path: &[Step]) {
        let s = &r.service;
        // Every live lease before the step: its unit, issue time, and
        // whether losing it is the unit's fault.
        let leases: Vec<(usize, u64, bool)> = (0..s.states.len())
            .filter_map(|unit| match s.states[unit] {
                UnitState::Leased { issued_at, .. } => {
                    let working = s.workers.iter().any(|w| w.working == Some(unit));
                    Some((unit, issued_at, working))
                }
                _ => None,
            })
            .collect();
        let bumped = match step {
            Step::Hello { worker, incarnation }
                if worker_entry(s, worker).is_some_and(|w| incarnation > w.incarnation) =>
            {
                Some(worker)
            }
            _ => None,
        };
        // For a step from an incarnation below the registered one: the
        // worker's liveness and blame, and every inflight list, as they were.
        let stale = match step {
            Step::Tick => None,
            Step::Hello { worker, incarnation }
            | Step::Heartbeat { worker, incarnation }
            | Step::Working { worker, incarnation, .. }
            | Step::Done { worker, incarnation, .. } => {
                worker_entry(s, worker).filter(|w| incarnation < w.incarnation).map(|w| {
                    let inflight: Vec<Vec<usize>> =
                        s.workers.iter().map(|w| w.inflight.clone()).collect();
                    (worker, w.alive, w.last_seen, w.working, inflight)
                })
            }
        };
        let message = match step {
            Step::Tick => None,
            Step::Hello { worker, incarnation } => {
                Some(WorkerMsg::Hello { worker: MC_WORKERS[worker].to_string(), incarnation })
            }
            Step::Heartbeat { worker, incarnation } => {
                Some(WorkerMsg::Heartbeat { worker: MC_WORKERS[worker].to_string(), incarnation })
            }
            Step::Working { worker, incarnation, unit } => Some(WorkerMsg::Working {
                worker: MC_WORKERS[worker].to_string(),
                incarnation,
                unit: unit as u64,
            }),
            // The service ignores lease ids; results are the honest ones.
            Step::Done { worker, incarnation, unit } => Some(WorkerMsg::Done {
                worker: MC_WORKERS[worker].to_string(),
                incarnation,
                unit: unit as u64,
                lease: 0,
                result: model.results[unit].clone(),
            }),
        };
        match message {
            Some(msg) => r.service.handle(&msg, &mut r.sink).unwrap(),
            None => {
                r.service.tick(&mut r.sink).unwrap();
            }
        }

        // A lease survives the step only as the same lease (same issue
        // time) or by committing; a re-issue within a tick is a new lease.
        for (unit, issued_at, working) in leases {
            let kept = match r.service.states[unit] {
                UnitState::Leased { issued_at: now, .. } => now == issued_at,
                UnitState::Done => true,
                UnitState::Pending { .. } | UnitState::Quarantined => false,
            };
            if !kept && working {
                r.blamed[unit] += 1;
            }
        }
        if let Some(worker) = bumped {
            let w = worker_entry(&r.service, worker).unwrap();
            assert!(
                w.inflight.is_empty() && w.working.is_none(),
                "a higher incarnation kept the old one's leases {w:?} after {path:?}"
            );
        }
        // A stale step leaves the live worker's liveness and blame alone,
        // and only a `Done` may take its own unit out of inflight lists.
        if let Some((worker, alive, last_seen, working, inflight)) = stale {
            let done = match step {
                Step::Done { unit, .. } => Some(unit),
                _ => None,
            };
            let w = worker_entry(&r.service, worker).unwrap();
            assert_eq!((w.alive, w.last_seen), (alive, last_seen), "stale liveness: {path:?}");
            let cleared = done.is_some() && working == done && w.working.is_none();
            assert!(w.working == working || cleared, "stale step moved blame: {path:?}");
            for (w, before) in r.service.workers.iter().zip(inflight) {
                let kept: Vec<usize> = before.into_iter().filter(|&u| Some(u) != done).collect();
                assert_eq!(w.inflight, kept, "stale step moved leases: {path:?}");
            }
        }
    }

    /// Every move the adversary can make from `s`: any first hello, a
    /// respawn at a higher incarnation, heartbeats at the current or a stale
    /// incarnation (the service handles a hello at those the same way),
    /// `Working`/`Done` for a held unit, a duplicate `Done` for a finished
    /// unit, and a tick.
    fn enabled(s: &CampaignService<'_, ToyScenario>) -> Vec<Step> {
        let mut steps = vec![Step::Tick];
        for worker in 0..MC_WORKERS.len() {
            let entry = worker_entry(s, worker);
            for incarnation in 0..=MC_MAX_INCARNATION {
                let Some(w) = entry.filter(|w| incarnation <= w.incarnation) else {
                    steps.push(Step::Hello { worker, incarnation });
                    continue;
                };
                steps.push(Step::Heartbeat { worker, incarnation });
                for &unit in &w.inflight {
                    steps.push(Step::Working { worker, incarnation, unit });
                    steps.push(Step::Done { worker, incarnation, unit });
                }
                for unit in 0..s.states.len() {
                    if matches!(s.states[unit], UnitState::Done | UnitState::Quarantined) {
                        steps.push(Step::Done { worker, incarnation, unit });
                    }
                }
            }
        }
        steps
    }

    /// Everything that distinguishes one service state from another (lease
    /// ids aside: the service never reads them back).
    fn fingerprint(s: &CampaignService<'_, ToyScenario>) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut h = DefaultHasher::new();
        (s.clock, s.next, s.last_alive).hash(&mut h);
        for state in &s.states {
            match *state {
                UnitState::Pending { attempts, eligible_at } => (0u8, attempts, eligible_at),
                UnitState::Leased { attempts, issued_at } => (1, attempts, issued_at),
                UnitState::Done => (2, 0, 0),
                UnitState::Quarantined => (3, 0, 0),
            }
            .hash(&mut h);
        }
        for w in &s.workers {
            (&w.name, w.incarnation, w.last_seen, &w.inflight, w.working, w.alive).hash(&mut h);
        }
        s.reorder.keys().collect::<Vec<_>>().hash(&mut h);
        let m = &s.summary;
        (m.units_done, m.workers_seen, m.expired_leases, m.reissues, m.duplicate_completions)
            .hash(&mut h);
        (m.bad_payloads, &m.quarantined).hash(&mut h);
        h.finish()
    }

    fn check_invariants(model: &Model, r: &Replay, path: &[Step]) {
        let s = &r.service;
        // Type invariant: a leased unit has exactly one holder, no other
        // unit has any, and a worker only announces a unit it holds.
        for (unit, state) in s.states.iter().enumerate() {
            let holders = s.workers.iter().filter(|w| w.inflight.contains(&unit)).count();
            let leased = usize::from(matches!(state, UnitState::Leased { .. }));
            assert_eq!(holders, leased, "unit {unit} {state:?} has {holders} holders: {path:?}");
        }
        for w in &s.workers {
            assert!(w.working.is_none_or(|u| w.inflight.contains(&u)), "{w:?}: {path:?}");
        }
        // The released stream is the driver's, minus quarantined units.
        let released = (0..s.next).filter(|&u| !matches!(s.states[u], UnitState::Quarantined));
        assert_eq!(r.sink.to_jsonl(), model.stream(released), "stream diverged: {path:?}");
        // Each unit commits at most once.
        let done = s.states.iter().filter(|state| matches!(state, UnitState::Done)).count();
        assert_eq!(s.summary.units_done, done as u64, "commit count: {path:?}");
        // Only blamed losses count toward quarantine, and exactly
        // `max_attempts` of them quarantine a unit.
        for (unit, state) in s.states.iter().enumerate() {
            match *state {
                UnitState::Pending { attempts, .. } | UnitState::Leased { attempts, .. } => {
                    assert_eq!(attempts, r.blamed[unit], "unit {unit} attempts: {path:?}");
                    assert!(attempts < MC_CONFIG.max_attempts, "unit {unit} overdue: {path:?}");
                }
                UnitState::Quarantined => assert_eq!(
                    r.blamed[unit], MC_CONFIG.max_attempts,
                    "unit {unit} quarantined early or late: {path:?}"
                ),
                UnitState::Done => {}
            }
        }
    }

    /// Liveness: a fresh worker that heartbeats every tick and honestly
    /// completes each assignment finishes the campaign within
    /// [`MC_FAIR_TICKS`], whatever state the adversary left behind.
    fn finishes_under_a_fair_worker(model: &Model, r: Replay, path: &[Step]) {
        let Replay { mut service, mut sink, .. } = r;
        let fair = || "fair".to_string();
        service.handle(&WorkerMsg::Hello { worker: fair(), incarnation: 0 }, &mut sink).unwrap();
        for _ in 0..MC_FAIR_TICKS {
            if service.is_done() {
                break;
            }
            for (worker, ServerMsg::Assign { unit, lease }) in service.tick(&mut sink).unwrap() {
                if worker == fair() {
                    let working = WorkerMsg::Working { worker: fair(), incarnation: 0, unit };
                    service.handle(&working, &mut sink).unwrap();
                    let result = model.results[unit as usize].clone();
                    let done =
                        WorkerMsg::Done { worker: fair(), incarnation: 0, unit, lease, result };
                    service.handle(&done, &mut sink).unwrap();
                }
            }
            service
                .handle(&WorkerMsg::Heartbeat { worker: fair(), incarnation: 0 }, &mut sink)
                .unwrap();
        }
        assert!(service.is_done(), "a fair worker could not finish after {path:?}");
        let kept =
            (0..model.lines.len()).filter(|&u| !service.summary.quarantined.contains(&(u as u64)));
        assert_eq!(sink.to_jsonl(), model.stream(kept), "final stream diverged after {path:?}");
    }

    /// Breadth-first search over every path up to `depth` steps, checking
    /// the invariants at every generated state and liveness from every
    /// distinct one.
    fn explore(depth: usize) {
        let model = Model::new();
        assert_eq!(model.results.len(), 3);
        let started = std::time::Instant::now();
        let mut seen = std::collections::HashSet::new();
        let root = replay(&model, &[]);
        check_invariants(&model, &root, &[]);
        seen.insert(fingerprint(&root.service));
        let (mut quarantine, mut duplicate, mut expiry, mut reissue, mut completion) =
            (false, false, false, false, false);
        let mut frontier: Vec<Vec<Step>> = vec![Vec::new()];
        for _ in 0..depth {
            let mut next = Vec::new();
            for path in &frontier {
                for step in enabled(&replay(&model, path).service) {
                    let mut path = path.clone();
                    path.push(step);
                    let r = replay(&model, &path);
                    check_invariants(&model, &r, &path);
                    if !seen.insert(fingerprint(&r.service)) {
                        continue;
                    }
                    let s = &r.service;
                    quarantine |= !s.summary.quarantined.is_empty();
                    duplicate |= s.summary.duplicate_completions > 0;
                    expiry |= s.workers.iter().any(|w| !w.alive);
                    reissue |= s.summary.reissues > 0;
                    completion |= s.is_done();
                    finishes_under_a_fair_worker(&model, r, &path);
                    next.push(path);
                }
            }
            frontier = next;
        }
        println!(
            "lease state machine: {} distinct states to depth {depth} in {:.1?}",
            seen.len(),
            started.elapsed()
        );
        assert!(quarantine, "no explored path quarantined a unit");
        assert!(duplicate, "no explored path completed a unit twice");
        assert!(expiry, "no explored path expired a silent worker");
        assert!(reissue, "no explored path re-issued a straggler");
        assert!(completion, "no explored path finished the campaign");
    }

    #[test]
    fn bounded_model_check_of_the_lease_state_machine() {
        explore(7);
    }

    /// One step deeper than tier-1 affords; CI runs it in the release
    /// profile with `--ignored`.
    #[test]
    #[ignore = "three times the states of depth 7; CI runs it in release"]
    fn bounded_model_check_to_depth_8() {
        explore(8);
    }
}
