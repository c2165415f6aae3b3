//! TCP campaign transport: a long-running, multi-tenant campaign server
//! over real sockets, plus the worker and submit clients that talk to it.
//!
//! Every frame on the wire is one [`ltds_core::record::encode_framed`]
//! line per JSON message: length-prefixed and checksummed, so a torn or
//! corrupted frame is detected rather than parsed. A socket hands frames
//! back in arbitrary `read()` chunks, which
//! [`ltds_core::record::FrameDecoder`] reassembles without ever letting one
//! damaged frame poison the connection.
//!
//! The server ([`serve_tcp`]) is a single-threaded poll loop over
//! non-blocking sockets. Each *tenant* — a campaign spec submitted by a
//! client — owns one [`CampaignService`] state machine; every server poll
//! ticks every live tenant once, so all of the service's fault handling
//! (lease expiry on heartbeat silence, blame-attributed retry, quarantine,
//! incarnation tracking) applies per tenant with no new recovery code.
//! Workers are shared across tenants: a worker's heartbeat refreshes its
//! liveness in *every* tenant (it may be busy on another tenant's unit),
//! and its `Working`/`Done` frames route to the tenant that issued the
//! lease. All tenants share whatever persistent [`SweepCache`]s the server
//! was given, so identical units across tenants are computed once. Neither
//! side keeps a tenant's spec: the server's service and each worker build
//! one unit plan per tenant from it, and unit ordinals agree because plans
//! are deterministic.
//!
//! Robustness surface:
//!
//! * **Reconnects** — workers and subscribers reconnect with exponential
//!   backoff plus deterministic jitter ([`BackoffPolicy`]). A reconnecting
//!   worker bumps its incarnation (any assignment in flight on the dead
//!   socket is lost), so the service forfeits and re-issues its leases; a
//!   reconnecting subscriber resubmits its spec with the number of report
//!   lines it already holds and resumes the stream without duplication.
//! * **Durable cursors** — the subscriber's cursor is simply how many
//!   lines it has durably written; tenants are content-addressed by their
//!   spec bytes, so resubmitting after a *server* restart re-creates the
//!   tenant, replays the warm prefix from the shared cache, and streams
//!   from the cursor — byte-identical to an uninterrupted run.
//! * **Eviction** — the server never fakes liveness: a dead socket simply
//!   stops producing heartbeats, and the existing deadline-based lease
//!   eviction fires after [`ServiceConfig::lease_ticks`] polls.
//! * **Slow subscribers** — per-connection outbound buffers are bounded;
//!   a subscriber that falls more than `SUBSCRIBER_BUFFER` (4 MiB) behind
//!   is deterministically disconnected (the server retains every tenant's
//!   full stream, so the client reconnects with its cursor and loses
//!   nothing).
//! * **Orderly exit** — the server sends `Shutdown` to every worker, then
//!   half-closes each socket and drains it until the peer hangs up, so no
//!   unread heartbeat turns the close into a reset that destroys the
//!   `Shutdown` in flight.
//! * **Status** — a [`ClientHello::Status`] probe ([`status_tcp`]) returns
//!   the registered worker names, so a client can wait for its fleet before
//!   it submits.
//! * **Fail points** — `net.conn.drop` (worker drops its socket mid-unit),
//!   `net.frame.truncate` (worker writes half a `Done` frame, gluing it to
//!   the next one), and `net.accept.stall` (server skips an accept round)
//!   drill the recovery paths deterministically; see
//!   [`ltds_core::failpoint`].

use crate::cache::SweepCache;
use crate::campaign::{Campaign, CampaignError, ReportSink, Scenario, StreamRecord, UnitPlan};
use crate::monte_carlo::MttdlEstimate;
use crate::service::{CampaignService, ServerMsg, ServiceConfig, ServiceSummary, WorkerMsg};
use ltds_core::hash::fnv1a;
use ltds_core::record::{encode_framed, FrameDecoder};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The first frame every client sends: who it is and what it wants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ClientHello {
    /// A worker offering compute. Reconnects use a higher incarnation so
    /// the server forfeits leases stranded on the previous socket.
    Worker {
        /// Stable worker name.
        worker: String,
        /// Monotonic restart/reconnect counter.
        incarnation: u64,
    },
    /// A tenant submitting a campaign spec and subscribing to its report
    /// stream from line `cursor` (0 = from the beginning).
    Submit {
        /// The campaign spec as a JSON value; its serialized bytes are the
        /// tenant's content address.
        spec: Value,
        /// Report lines the client already holds (resume without
        /// duplication after a reconnect).
        cursor: u64,
    },
    /// A one-shot probe: the server answers with one [`NetStatus`] frame
    /// and closes the connection.
    Status,
}

/// The server's answer to [`ClientHello::Status`], as of the poll that
/// read the probe.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStatus {
    /// Every worker name that has said hello, in name order: exactly the
    /// fleet a tenant submitted next starts with.
    pub workers: Vec<String>,
}

/// Worker-to-server messages after the hello. The tenant id scopes
/// `Working`/`Done` to the service that issued the lease.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum NetWorkerMsg {
    /// Liveness; refreshes the worker in every tenant's registry.
    Heartbeat,
    /// Durable announcement that `unit` of `tenant` is about to execute.
    Working {
        /// Tenant whose lease is executing.
        tenant: u64,
        /// Unit ordinal in that tenant's flattened order.
        unit: u64,
    },
    /// A completed unit with its raw result value.
    Done {
        /// Tenant whose lease completed.
        tenant: u64,
        /// Unit ordinal in that tenant's flattened order.
        unit: u64,
        /// The lease under which the unit ran.
        lease: u64,
        /// The unit's raw result value.
        result: Value,
    },
}

/// Server-to-worker messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum NetServerMsg {
    /// A tenant's spec, sent once per worker before its first assignment
    /// from that tenant (workers derive units from the spec locally).
    Campaign {
        /// Tenant id (content address of the spec bytes).
        tenant: u64,
        /// The campaign spec.
        spec: Value,
    },
    /// A lease on one unit of one tenant.
    Assign {
        /// Tenant id.
        tenant: u64,
        /// Unit ordinal.
        unit: u64,
        /// Lease identifier.
        lease: u64,
    },
    /// The server is exiting; the worker should too.
    Shutdown,
}

/// Server-to-subscriber messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum NetDelta {
    /// One report line, `seq` lines into the tenant's stream.
    Record {
        /// Zero-based line index in the tenant's report stream.
        seq: u64,
        /// The serialized [`StreamRecord`] JSON line (no newline).
        line: String,
    },
    /// The tenant completed; its summary closes the stream.
    Done {
        /// The tenant's service summary.
        summary: ServiceSummary,
    },
    /// The submission was rejected (unparseable spec).
    Error {
        /// Why.
        message: String,
    },
}

/// Reconnect policy: exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// Connection attempts before giving up.
    pub max_attempts: u32,
    /// Delay after the first failure; attempt `n` waits `base << n`.
    pub base: Duration,
    /// Ceiling on any single delay (before jitter).
    pub cap: Duration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self { max_attempts: 8, base: Duration::from_millis(25), cap: Duration::from_secs(2) }
    }
}

impl BackoffPolicy {
    /// The wall-clock delay before retry `attempt` (0-based): exponential,
    /// capped, plus up to +50% jitter derived deterministically from
    /// `salt` and the attempt index — peers with different names never
    /// thundering-herd a restarted server, yet every delay is reproducible.
    pub fn delay(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self.base.saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX));
        let capped = exp.min(self.cap);
        let mut x = salt ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let frac = (x >> 40) as f64 / (1u64 << 24) as f64; // [0, 1)
        capped + Duration::from_nanos((capped.as_nanos() as f64 * 0.5 * frac) as u64)
    }

    /// Connects to `addr`, retrying per the policy. `salt` seeds the
    /// jitter (callers pass a hash of their stable name).
    pub fn connect(&self, addr: &str, salt: u64) -> std::io::Result<TcpStream> {
        let mut last = None;
        for attempt in 0..self.max_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.delay(attempt - 1, salt));
            }
            match TcpStream::connect(addr) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("no connect attempts")))
    }
}

/// Writes one framed message line to a blocking stream.
fn write_frame(stream: &mut TcpStream, payload: &str) -> std::io::Result<()> {
    let frame = encode_framed(payload)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    stream.write_all(frame.as_bytes())?;
    stream.write_all(b"\n")
}

/// Reads whatever bytes are available on a blocking stream with a read
/// timeout, feeding them to the decoder. Returns `Ok(false)` on EOF.
fn read_available(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    frames: &mut Vec<String>,
) -> std::io::Result<bool> {
    let mut buf = [0u8; 8192];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Ok(false),
            Ok(n) => {
                frames.extend(decoder.feed(&buf[..n]));
                if n < buf.len() {
                    return Ok(true);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Configuration of the multi-tenant TCP campaign server.
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; see `addr_file`).
    pub addr: String,
    /// If set, the actually-bound address is written here once listening —
    /// how tests and CI discover a port-0 bind.
    pub addr_file: Option<PathBuf>,
    /// Wall-clock pause between polls (each poll ticks every live tenant).
    pub poll: Duration,
    /// Polls without any activity (frames, accepts, completions) before
    /// the server gives up as stalled.
    pub idle_polls: u64,
    /// Exit after this many tenants complete; `None` runs until stalled.
    pub tenants: Option<u64>,
    /// Per-tenant service tuning.
    pub service: ServiceConfig,
}

/// Outbound bytes a subscriber may fall behind before it is
/// deterministically disconnected.
const SUBSCRIBER_BUFFER: usize = 4 << 20;

impl Default for TcpServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            addr_file: None,
            poll: Duration::from_millis(1),
            idle_polls: 100_000,
            tenants: Some(1),
            service: ServiceConfig::default(),
        }
    }
}

/// What a [`serve_tcp`] run absorbed, across all tenants.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TcpServerSummary {
    /// Tenants that ran to completion.
    pub tenants_done: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Frames rejected by checksum/framing checks across all connections.
    pub corrupt_frames: u64,
    /// Subscribers disconnected for falling behind the buffer bound.
    pub slow_subscribers_dropped: u64,
}

/// Retains a tenant's full report stream as serialized lines, so any
/// subscriber can resume from any cursor at any time.
struct LineSink {
    lines: Vec<String>,
}

impl ReportSink for LineSink {
    fn record(&mut self, record: &StreamRecord) -> std::io::Result<()> {
        self.lines.push(serde_json::to_string(record).expect("record serializes"));
        Ok(())
    }
}

struct Tenant<'a, S: Scenario> {
    service: CampaignService<'a, S>,
    sink: LineSink,
    /// Canonical spec bytes (the content address preimage), shipped to
    /// workers before their first assignment from this tenant.
    spec_json: String,
    summary: Option<ServiceSummary>,
}

/// Who a connection turned out to be.
enum Peer {
    /// Awaiting its hello frame.
    Unknown,
    Worker {
        name: String,
    },
    Subscriber {
        tenant: u64,
        cursor: usize,
        /// The final `Done` delta has been queued; close after it flushes.
        finished: bool,
    },
    /// A status probe, answered; close after the answer flushes.
    Status,
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    corrupt_noted: u64,
    outbuf: Vec<u8>,
    peer: Peer,
    dead: bool,
    // Tenants whose spec has been sent down THIS socket. Per-connection,
    // not per-worker-name: a respawned worker is a fresh process that
    // knows nothing, so its first assignment must re-announce the spec.
    announced: Vec<u64>,
}

impl Conn {
    fn queue(&mut self, payload: &str) {
        match encode_framed(payload) {
            Ok(frame) => {
                self.outbuf.extend_from_slice(frame.as_bytes());
                self.outbuf.push(b'\n');
            }
            Err(_) => self.dead = true,
        }
    }

    /// Writes as much buffered output as the socket will take.
    fn flush(&mut self) {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// Runs the multi-tenant campaign server until [`TcpServerConfig::tenants`]
/// tenants complete (or the idle budget runs out). `point_cache` and
/// `shard_cache` are shared by every tenant — the whole point of a
/// long-running server: one persistent write-through cache answering
/// resubmissions and overlapping specs across tenants.
pub fn serve_tcp<S>(
    config: &TcpServerConfig,
    point_cache: Option<&SweepCache<MttdlEstimate>>,
    shard_cache: Option<&SweepCache<S::Outcome>>,
) -> Result<TcpServerSummary, CampaignError>
where
    S: Scenario + Deserialize,
{
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    if let Some(path) = &config.addr_file {
        // Write-then-rename so a poller never reads a half-written address.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, format!("{bound}\n"))?;
        std::fs::rename(&tmp, path)?;
    }

    let mut summary = TcpServerSummary {
        tenants_done: 0,
        connections: 0,
        corrupt_frames: 0,
        slow_subscribers_dropped: 0,
    };
    let mut tenants: BTreeMap<u64, Tenant<'_, S>> = BTreeMap::new();
    let mut conns: Vec<Conn> = Vec::new();
    // name -> highest incarnation seen (new tenants learn the fleet).
    let mut workers: BTreeMap<String, u64> = BTreeMap::new();
    let mut idle: u64 = 0;

    for poll_index in 0.. {
        let mut active = false;

        // Accept — unless the accept-stall fail point wedges this round.
        if !ltds_core::failpoint::fire("net.accept.stall", poll_index) {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true)?;
                        conns.push(Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            corrupt_noted: 0,
                            outbuf: Vec::new(),
                            peer: Peer::Unknown,
                            dead: false,
                            announced: Vec::new(),
                        });
                        summary.connections += 1;
                        active = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
        }

        // Read every connection, reassemble frames, dispatch.
        for conn in &mut conns {
            if conn.dead {
                continue;
            }
            let mut frames = Vec::new();
            let mut buf = [0u8; 8192];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => frames.extend(conn.decoder.feed(&buf[..n])),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            let newly_corrupt = conn.decoder.corrupt_frames() - conn.corrupt_noted;
            conn.corrupt_noted = conn.decoder.corrupt_frames();
            if newly_corrupt > 0 {
                summary.corrupt_frames += newly_corrupt;
                if matches!(conn.peer, Peer::Worker { .. }) {
                    for tenant in tenants.values_mut() {
                        if tenant.summary.is_none() {
                            tenant.service.note_corrupt_frames(newly_corrupt);
                        }
                    }
                }
                active = true;
            }
            for frame in frames {
                match &mut conn.peer {
                    Peer::Unknown => match serde_json::from_str::<ClientHello>(&frame) {
                        Ok(ClientHello::Worker { worker, incarnation }) => {
                            active = true;
                            workers
                                .entry(worker.clone())
                                .and_modify(|inc| *inc = (*inc).max(incarnation))
                                .or_insert(incarnation);
                            let hello = WorkerMsg::Hello { worker: worker.clone(), incarnation };
                            for tenant in tenants.values_mut() {
                                if tenant.summary.is_none() {
                                    tenant.service.handle(&hello, &mut tenant.sink)?;
                                }
                            }
                            conn.peer = Peer::Worker { name: worker };
                        }
                        Ok(ClientHello::Submit { spec, cursor }) => {
                            active = true;
                            let spec_json = serde_json::to_string(&spec).expect("value serializes");
                            let id = fnv1a(spec_json.as_bytes());
                            if let std::collections::btree_map::Entry::Vacant(entry) =
                                tenants.entry(id)
                            {
                                match Campaign::<S>::from_value(&spec)
                                    .map_err(|e| e.to_string())
                                    .and_then(|campaign| {
                                        CampaignService::new(&campaign, config.service)
                                            .map_err(|e| e.to_string())
                                    }) {
                                    Ok(mut service) => {
                                        if let Some(cache) = point_cache {
                                            service = service.point_cache(cache);
                                        }
                                        if let Some(cache) = shard_cache {
                                            service = service.shard_cache(cache);
                                        }
                                        // The new tenant learns the live
                                        // fleet before its first tick.
                                        let mut sink = LineSink { lines: Vec::new() };
                                        for (name, incarnation) in &workers {
                                            let hello = WorkerMsg::Hello {
                                                worker: name.clone(),
                                                incarnation: *incarnation,
                                            };
                                            service.handle(&hello, &mut sink)?;
                                        }
                                        service.start(&mut sink)?;
                                        entry.insert(Tenant {
                                            service,
                                            sink,
                                            spec_json,
                                            summary: None,
                                        });
                                    }
                                    Err(message) => {
                                        let delta = NetDelta::Error { message };
                                        let line = serde_json::to_string(&delta)
                                            .expect("delta serializes");
                                        conn.queue(&line);
                                        conn.peer = Peer::Subscriber {
                                            tenant: id,
                                            cursor: 0,
                                            finished: true,
                                        };
                                        continue;
                                    }
                                }
                            }
                            conn.peer = Peer::Subscriber {
                                tenant: id,
                                cursor: cursor as usize,
                                finished: false,
                            };
                        }
                        Ok(ClientHello::Status) => {
                            let status = NetStatus { workers: workers.keys().cloned().collect() };
                            conn.queue(&serde_json::to_string(&status).expect("status serializes"));
                            conn.peer = Peer::Status;
                        }
                        Err(_) => {
                            summary.corrupt_frames += 1;
                            conn.dead = true;
                        }
                    },
                    Peer::Worker { name } => {
                        let Ok(msg) = serde_json::from_str::<NetWorkerMsg>(&frame) else {
                            summary.corrupt_frames += 1;
                            for tenant in tenants.values_mut() {
                                if tenant.summary.is_none() {
                                    tenant.service.note_corrupt_frames(1);
                                }
                            }
                            continue;
                        };
                        // Pure heartbeats are liveness, not progress: they
                        // must not hold off the idle-stall detector.
                        if !matches!(msg, NetWorkerMsg::Heartbeat) {
                            active = true;
                        }
                        let incarnation = workers.get(name.as_str()).copied().unwrap_or(0);
                        // Any frame is a liveness proof for every tenant —
                        // a worker busy on tenant A's unit must not be
                        // evicted by tenant B for silence.
                        let heartbeat = WorkerMsg::Heartbeat { worker: name.clone(), incarnation };
                        let target = match &msg {
                            NetWorkerMsg::Heartbeat => None,
                            NetWorkerMsg::Working { tenant, .. }
                            | NetWorkerMsg::Done { tenant, .. } => Some(*tenant),
                        };
                        for (id, tenant) in tenants.iter_mut() {
                            if tenant.summary.is_some() {
                                continue;
                            }
                            if Some(*id) == target {
                                let scoped = match &msg {
                                    NetWorkerMsg::Working { unit, .. } => WorkerMsg::Working {
                                        worker: name.clone(),
                                        incarnation,
                                        unit: *unit,
                                    },
                                    NetWorkerMsg::Done { unit, lease, result, .. } => {
                                        WorkerMsg::Done {
                                            worker: name.clone(),
                                            incarnation,
                                            unit: *unit,
                                            lease: *lease,
                                            result: result.clone(),
                                        }
                                    }
                                    NetWorkerMsg::Heartbeat => unreachable!("target is None"),
                                };
                                tenant.service.handle(&scoped, &mut tenant.sink)?;
                            } else {
                                tenant.service.handle(&heartbeat, &mut tenant.sink)?;
                            }
                        }
                    }
                    Peer::Subscriber { .. } | Peer::Status => {
                        // Subscribers and probes only ever send the one hello.
                        summary.corrupt_frames += 1;
                    }
                }
            }
        }

        // Tick every live tenant once and route its assignments.
        let mut assignments: Vec<(String, u64, ServerMsg)> = Vec::new();
        for (id, tenant) in tenants.iter_mut() {
            if tenant.summary.is_some() {
                continue;
            }
            for (worker, msg) in tenant.service.tick(&mut tenant.sink)? {
                assignments.push((worker, *id, msg));
            }
            if tenant.service.is_done() {
                tenant.summary = Some(tenant.service.finish(&mut tenant.sink)?);
                summary.tenants_done += 1;
                active = true;
            }
        }
        for (worker, tenant_id, ServerMsg::Assign { unit, lease }) in assignments {
            let Some(conn) = conns
                .iter_mut()
                .find(|c| matches!(&c.peer, Peer::Worker { name } if *name == worker) && !c.dead)
            else {
                // The socket died since the tick; the lease will expire.
                continue;
            };
            if !conn.announced.contains(&tenant_id) {
                let spec: Value = serde_json::value_from_str(&tenants[&tenant_id].spec_json)
                    .expect("spec round-trips");
                let campaign = NetServerMsg::Campaign { tenant: tenant_id, spec };
                conn.queue(&serde_json::to_string(&campaign).expect("message serializes"));
                conn.announced.push(tenant_id);
            }
            let assign = NetServerMsg::Assign { tenant: tenant_id, unit, lease };
            conn.queue(&serde_json::to_string(&assign).expect("message serializes"));
            active = true;
        }

        // Stream report deltas to subscribers, respecting the buffer bound.
        for conn in &mut conns {
            if conn.dead {
                continue;
            }
            let Peer::Subscriber { tenant, cursor, finished } = &mut conn.peer else { continue };
            if *finished {
                continue;
            }
            let Some(t) = tenants.get(tenant) else { continue };
            let mut queued: Vec<String> = Vec::new();
            let mut queued_bytes = conn.outbuf.len();
            while *cursor < t.sink.lines.len() && queued_bytes < SUBSCRIBER_BUFFER {
                let delta =
                    NetDelta::Record { seq: *cursor as u64, line: t.sink.lines[*cursor].clone() };
                let line = serde_json::to_string(&delta).expect("delta serializes");
                queued_bytes += line.len() + 32;
                queued.push(line);
                *cursor += 1;
            }
            if *cursor == t.sink.lines.len() {
                if let Some(s) = &t.summary {
                    let done = NetDelta::Done { summary: s.clone() };
                    queued.push(serde_json::to_string(&done).expect("delta serializes"));
                    *finished = true;
                }
            }
            if !queued.is_empty() {
                active = true;
                for line in queued {
                    conn.queue(&line);
                }
            }
        }

        // Flush, then enforce the slow-subscriber bound and reap the dead.
        for conn in &mut conns {
            let before = conn.outbuf.len();
            if !conn.dead {
                conn.flush();
            }
            // A subscriber pinned at the buffer bound whose pipe accepted
            // nothing for a whole poll is not reading: cut it. Its cursor
            // is durable on the client side (the lines it has written), so
            // a reconnect resumes exactly where it left off — bounded
            // server memory, no data loss.
            if !conn.dead
                && matches!(conn.peer, Peer::Subscriber { .. })
                && conn.outbuf.len() == before
                && before >= SUBSCRIBER_BUFFER
            {
                summary.slow_subscribers_dropped += 1;
                conn.dead = true;
            }
            // A finished subscriber or an answered probe with nothing left
            // to write is closed, so its client sees EOF right after its
            // last frame.
            if !conn.dead
                && matches!(conn.peer, Peer::Subscriber { finished: true, .. } | Peer::Status)
                && conn.outbuf.is_empty()
            {
                conn.dead = true;
            }
        }
        conns.retain(|c| !c.dead);

        if let Some(target) = config.tenants {
            if summary.tenants_done >= target {
                break;
            }
        }
        idle = if active { 0 } else { idle + 1 };
        if idle > config.idle_polls {
            return Err(CampaignError::Stalled { ticks: poll_index });
        }
        if !config.poll.is_zero() {
            std::thread::sleep(config.poll);
        }
    }

    // Orderly exit: tell every worker to go home and drain the buffers,
    // then half-close each socket and read it until the peer hangs up (one
    // second at most in all). Closing a socket that still holds unread
    // input (a worker heartbeats every poll) resets it, and the reset can
    // destroy a queued `Shutdown` before the worker reads it.
    let shutdown = serde_json::to_string(&NetServerMsg::Shutdown).expect("message serializes");
    for conn in &mut conns {
        if matches!(conn.peer, Peer::Worker { .. }) {
            conn.queue(&shutdown);
        }
        for _ in 0..64 {
            conn.flush();
            if conn.outbuf.is_empty() || conn.dead {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        conn.stream.shutdown(std::net::Shutdown::Write).ok();
    }
    drop(listener);
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut buf = [0u8; 8192];
    while conns.iter().any(|c| !c.dead) && Instant::now() < deadline {
        for conn in conns.iter_mut().filter(|c| !c.dead) {
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => conn.dead = true,
                    Ok(_) => continue,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(_) => conn.dead = true,
                }
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(summary)
}

// ---------------------------------------------------------------------------
// Worker client
// ---------------------------------------------------------------------------

/// Configuration of [`run_tcp_worker`].
#[derive(Debug, Clone)]
pub struct TcpWorkerConfig {
    /// Server address.
    pub addr: String,
    /// Stable worker name.
    pub name: String,
    /// Restart counter of the *process*; socket-level reconnects bump an
    /// internal counter on top of it.
    pub incarnation: u64,
    /// Wall-clock pause between receive polls.
    pub poll: Duration,
    /// Poll budget before the worker gives up as stalled.
    pub max_polls: u64,
    /// How to (re)connect.
    pub reconnect: BackoffPolicy,
}

/// Process exit code of a worker killed by the `worker.kill` fail point.
pub const EXIT_KILLED: i32 = 81;

/// Runs one TCP worker until the server broadcasts shutdown: connects
/// (with backoff), announces itself, executes assignments across any
/// number of tenants, and reconnects with a bumped incarnation whenever
/// the socket dies. Returns the number of units completed.
pub fn run_tcp_worker<S>(config: &TcpWorkerConfig) -> Result<u64, CampaignError>
where
    S: Scenario + Deserialize,
{
    let salt = fnv1a(config.name.as_bytes());
    let mut incarnation = config.incarnation;
    let mut completed = 0u64;
    // One plan per tenant, built from the spec the server shipped.
    let mut tenants: BTreeMap<u64, UnitPlan<S>> = BTreeMap::new();
    let mut polls = 0u64;

    'session: loop {
        let mut stream = config.reconnect.connect(&config.addr, salt)?;
        stream.set_read_timeout(Some(config.poll.max(Duration::from_millis(1))))?;
        stream.set_nodelay(true).ok();
        let hello = ClientHello::Worker { worker: config.name.clone(), incarnation };
        if write_frame(&mut stream, &serde_json::to_string(&hello).expect("hello serializes"))
            .is_err()
        {
            incarnation += 1;
            continue 'session;
        }
        let mut decoder = FrameDecoder::new();

        loop {
            polls += 1;
            if polls > config.max_polls {
                return Err(CampaignError::Stalled { ticks: polls });
            }
            let heartbeat =
                serde_json::to_string(&NetWorkerMsg::Heartbeat).expect("message serializes");
            if write_frame(&mut stream, &heartbeat).is_err() {
                incarnation += 1;
                continue 'session;
            }
            let mut frames = Vec::new();
            match read_available(&mut stream, &mut decoder, &mut frames) {
                Ok(true) => {}
                // EOF or a hard error: the server is gone (or restarting) —
                // reconnect with a fresh incarnation so stranded leases are
                // forfeited rather than double-executed.
                Ok(false) | Err(_) => {
                    incarnation += 1;
                    continue 'session;
                }
            }
            for frame in frames {
                let Ok(msg) = serde_json::from_str::<NetServerMsg>(&frame) else { continue };
                match msg {
                    NetServerMsg::Shutdown => return Ok(completed),
                    NetServerMsg::Campaign { tenant, spec } => {
                        if tenants.contains_key(&tenant) {
                            continue;
                        }
                        let Ok(campaign) = Campaign::<S>::from_value(&spec) else { continue };
                        let Ok(plan) = UnitPlan::new(&campaign) else { continue };
                        tenants.insert(tenant, plan);
                    }
                    NetServerMsg::Assign { tenant, unit, lease } => {
                        let Some(plan) = tenants.get(&tenant) else { continue };
                        if unit as usize >= plan.len() {
                            continue;
                        }
                        // Announce the unit before any crash can land, so
                        // the service blames exactly this unit if we die.
                        let working = NetWorkerMsg::Working { tenant, unit };
                        if write_frame(
                            &mut stream,
                            &serde_json::to_string(&working).expect("message serializes"),
                        )
                        .is_err()
                        {
                            incarnation += 1;
                            continue 'session;
                        }
                        if ltds_core::failpoint::fire("worker.kill", unit) {
                            eprintln!(
                                "tcp worker {}: failpoint worker.kill fired on unit {unit}",
                                config.name
                            );
                            std::process::exit(EXIT_KILLED);
                        }
                        if ltds_core::failpoint::fire("net.conn.drop", unit) {
                            eprintln!(
                                "tcp worker {}: failpoint net.conn.drop fired on unit {unit}",
                                config.name
                            );
                            drop(stream);
                            incarnation += 1;
                            continue 'session;
                        }
                        let raw = plan.raw(unit as usize);
                        let done = NetWorkerMsg::Done { tenant, unit, lease, result: raw };
                        let line = serde_json::to_string(&done).expect("message serializes");
                        if ltds_core::failpoint::fire("net.frame.truncate", unit) {
                            // Write half the frame with no newline: the
                            // next frame glues onto it and the server's
                            // decoder must count one corrupt line, resync,
                            // and recover the loss through the lease.
                            eprintln!(
                                "tcp worker {}: failpoint net.frame.truncate fired on unit {unit}",
                                config.name
                            );
                            if let Ok(frame) = encode_framed(&line) {
                                let half = &frame.as_bytes()[..frame.len() / 2];
                                if stream.write_all(half).is_err() {
                                    incarnation += 1;
                                    continue 'session;
                                }
                            }
                            continue;
                        }
                        if write_frame(&mut stream, &line).is_err() {
                            incarnation += 1;
                            continue 'session;
                        }
                        completed += 1;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Submit client
// ---------------------------------------------------------------------------

/// Configuration of [`submit_tcp`].
#[derive(Debug, Clone)]
pub struct TcpSubmitConfig {
    /// Server address.
    pub addr: String,
    /// Report lines the caller already holds durably (resume cursor).
    pub cursor: u64,
    /// Wall-clock pause between receive polls.
    pub poll: Duration,
    /// Poll budget before the submission gives up as stalled.
    pub max_polls: u64,
    /// How to (re)connect — also used mid-stream if the server restarts.
    pub reconnect: BackoffPolicy,
}

/// Submits a campaign spec to a TCP campaign server and streams the report:
/// every line past the cursor is written (newline-terminated) to `out`, in
/// order, exactly once — across any number of reconnects. Returns the
/// tenant's summary once the server closes the stream.
///
/// The spec is submitted as a JSON *value*: the client and server hash the
/// same serialized bytes, so a resubmission (after either side restarts)
/// lands on the same tenant and resumes instead of duplicating work.
pub fn submit_tcp(
    config: &TcpSubmitConfig,
    spec: &Value,
    out: &mut dyn Write,
) -> Result<ServiceSummary, CampaignError> {
    let spec_json = serde_json::to_string(spec).expect("value serializes");
    let salt = fnv1a(spec_json.as_bytes());
    let mut cursor = config.cursor;
    let mut polls = 0u64;

    'session: loop {
        let mut stream = config.reconnect.connect(&config.addr, salt)?;
        stream.set_read_timeout(Some(config.poll.max(Duration::from_millis(1))))?;
        stream.set_nodelay(true).ok();
        let hello = ClientHello::Submit { spec: spec.clone(), cursor };
        if write_frame(&mut stream, &serde_json::to_string(&hello).expect("hello serializes"))
            .is_err()
        {
            continue 'session;
        }
        let mut decoder = FrameDecoder::new();

        loop {
            polls += 1;
            if polls > config.max_polls {
                return Err(CampaignError::Stalled { ticks: polls });
            }
            let mut frames = Vec::new();
            match read_available(&mut stream, &mut decoder, &mut frames) {
                Ok(true) => {}
                Ok(false) | Err(_) => continue 'session,
            }
            for frame in frames {
                let Ok(delta) = serde_json::from_str::<NetDelta>(&frame) else { continue };
                match delta {
                    NetDelta::Record { seq, line } => {
                        if seq != cursor {
                            // Out-of-sequence delta (stale socket): drop
                            // the session and resume from our cursor.
                            continue 'session;
                        }
                        out.write_all(line.as_bytes())?;
                        out.write_all(b"\n")?;
                        cursor += 1;
                    }
                    NetDelta::Done { summary } => {
                        out.flush()?;
                        return Ok(summary);
                    }
                    NetDelta::Error { message } => {
                        return Err(std::io::Error::new(ErrorKind::InvalidData, message).into());
                    }
                }
            }
        }
    }
}

/// Asks the server at `addr` for a [`NetStatus`] snapshot: one connection,
/// one [`ClientHello::Status`] hello, one answer frame, waiting at most
/// `timeout` for each read.
pub fn status_tcp(addr: &str, timeout: Duration) -> Result<NetStatus, CampaignError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_nodelay(true).ok();
    write_frame(
        &mut stream,
        &serde_json::to_string(&ClientHello::Status).expect("hello serializes"),
    )?;
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 8192];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            let eof =
                std::io::Error::new(ErrorKind::UnexpectedEof, "server closed before its status");
            return Err(eof.into());
        }
        if let Some(frame) = decoder.feed(&buf[..n]).into_iter().next() {
            return serde_json::from_str(&frame).map_err(|e| {
                std::io::Error::new(ErrorKind::InvalidData, format!("bad status frame: {e}")).into()
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::fixture::{driver_reference, ToyScenario};
    use crate::campaign::{SweepAxis, SweepSpec};
    use crate::config::SimConfig;

    fn campaign(seed: u64) -> Campaign<ToyScenario> {
        let base = SimConfig::mirrored_disks(2000.0, 2000.0, 5.0, 5.0, Some(100.0), 1.0).unwrap();
        Campaign {
            name: format!("net-test-{seed}"),
            sweeps: vec![SweepSpec {
                name: "scrub".to_string(),
                base,
                axis: SweepAxis::ScrubPeriod { periods_hours: vec![30.0, 300.0, f64::INFINITY] },
                trials: 120,
                seed,
            }],
            scenarios: vec![ToyScenario { name: "toy".to_string(), seed, shards: 3 }],
        }
    }

    fn server_config(workers: usize) -> TcpServerConfig {
        TcpServerConfig {
            poll: Duration::ZERO,
            // Scale the tick-denominated windows: with zero pause the
            // server polls far faster than workers heartbeat.
            service: ServiceConfig {
                lease_ticks: 200_000,
                reissue_ticks: 2_000_000,
                fallback_ticks: if workers == 0 { Some(400) } else { None },
                ..ServiceConfig::default()
            },
            idle_polls: 2_000_000,
            ..TcpServerConfig::default()
        }
    }

    fn worker_config(addr: &str, name: &str) -> TcpWorkerConfig {
        TcpWorkerConfig {
            addr: addr.to_string(),
            name: name.to_string(),
            incarnation: 0,
            poll: Duration::from_millis(1),
            max_polls: 200_000,
            reconnect: BackoffPolicy {
                max_attempts: 20,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(100),
            },
        }
    }

    fn submit_config(addr: &str) -> TcpSubmitConfig {
        TcpSubmitConfig {
            addr: addr.to_string(),
            cursor: 0,
            poll: Duration::from_millis(1),
            max_polls: 200_000,
            reconnect: BackoffPolicy {
                max_attempts: 20,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(100),
            },
        }
    }

    fn wait_addr(path: &std::path::Path) -> String {
        for _ in 0..5_000 {
            if let Ok(text) = std::fs::read_to_string(path) {
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    return trimmed.to_string();
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("server never published its address at {}", path.display());
    }

    /// Polls the server's status until it has registered `workers` workers,
    /// so the tenant submitted next starts with the whole fleet. A worker
    /// that first connects after that tenant finished would find the server
    /// gone and fail its reconnect.
    fn wait_workers(addr: &str, workers: usize) {
        for _ in 0..10_000 {
            if status_tcp(addr, Duration::from_secs(5)).unwrap().workers.len() == workers {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("the server never registered {workers} workers");
    }

    #[test]
    fn tcp_streams_match_driver_for_any_fleet_size() {
        let campaign = campaign(41);
        let reference = driver_reference(&campaign);
        let spec: Value =
            serde_json::value_from_str(&serde_json::to_string(&campaign).unwrap()).unwrap();
        for workers in [1usize, 2, 8] {
            let addr_path =
                std::env::temp_dir().join(format!("ltds-net-{}-{workers}", std::process::id()));
            let _ = std::fs::remove_file(&addr_path);
            std::thread::scope(|scope| {
                let config = TcpServerConfig {
                    addr_file: Some(addr_path.clone()),
                    ..server_config(workers)
                };
                let server = scope.spawn(move || serve_tcp::<ToyScenario>(&config, None, None));
                let addr = wait_addr(&addr_path);
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let config = worker_config(&addr, &format!("w{w}"));
                        scope.spawn(move || run_tcp_worker::<ToyScenario>(&config))
                    })
                    .collect();
                wait_workers(&addr, workers);
                let mut out: Vec<u8> = Vec::new();
                let summary = submit_tcp(&submit_config(&addr), &spec, &mut out).unwrap();
                assert_eq!(
                    String::from_utf8(out).unwrap(),
                    reference,
                    "{workers} TCP worker(s) diverged"
                );
                assert_eq!(summary.units_done, summary.units_total);
                let server_summary = server.join().unwrap().unwrap();
                assert_eq!(server_summary.tenants_done, 1);
                for handle in handles {
                    handle.join().unwrap().unwrap();
                }
            });
            let _ = std::fs::remove_file(&addr_path);
        }
    }

    #[test]
    fn tcp_fallback_completes_without_workers() {
        let campaign = campaign(43);
        let reference = driver_reference(&campaign);
        let spec: Value =
            serde_json::value_from_str(&serde_json::to_string(&campaign).unwrap()).unwrap();
        let addr_path = std::env::temp_dir().join(format!("ltds-net-fb-{}", std::process::id()));
        let _ = std::fs::remove_file(&addr_path);
        std::thread::scope(|scope| {
            let config = TcpServerConfig { addr_file: Some(addr_path.clone()), ..server_config(0) };
            let server = scope.spawn(move || serve_tcp::<ToyScenario>(&config, None, None));
            let addr = wait_addr(&addr_path);
            let mut out: Vec<u8> = Vec::new();
            let summary = submit_tcp(&submit_config(&addr), &spec, &mut out).unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), reference);
            assert_eq!(summary.degraded_units, summary.units_total);
            server.join().unwrap().unwrap();
        });
        let _ = std::fs::remove_file(&addr_path);
    }

    #[test]
    fn two_tenants_share_one_cache() {
        // The same spec submitted by two subscribers is one tenant; a
        // second, different spec over the same units hits the shared cache.
        let campaign_a = campaign(47);
        let reference_a = driver_reference(&campaign_a);
        let spec_a: Value =
            serde_json::value_from_str(&serde_json::to_string(&campaign_a).unwrap()).unwrap();
        let mut campaign_b = campaign_a.clone();
        campaign_b.name = "net-test-47-twin".to_string();
        let reference_b = driver_reference(&campaign_b);
        let spec_b: Value =
            serde_json::value_from_str(&serde_json::to_string(&campaign_b).unwrap()).unwrap();

        let points = SweepCache::new();
        let shards = SweepCache::new();
        let addr_path = std::env::temp_dir().join(format!("ltds-net-mt-{}", std::process::id()));
        let _ = std::fs::remove_file(&addr_path);
        std::thread::scope(|scope| {
            let config = TcpServerConfig {
                addr_file: Some(addr_path.clone()),
                tenants: Some(2),
                ..server_config(1)
            };
            let points = &points;
            let shards = &shards;
            let server =
                scope.spawn(move || serve_tcp::<ToyScenario>(&config, Some(points), Some(shards)));
            let addr = wait_addr(&addr_path);
            let wconfig = worker_config(&addr, "w0");
            let worker = scope.spawn(move || run_tcp_worker::<ToyScenario>(&wconfig));

            let mut out_a: Vec<u8> = Vec::new();
            let summary_a = submit_tcp(&submit_config(&addr), &spec_a, &mut out_a).unwrap();
            assert_eq!(String::from_utf8(out_a).unwrap(), reference_a);
            assert_eq!(summary_a.cache_hits, 0);

            // Tenant B differs only by name: every unit key matches, so
            // the shared cache answers everything at start().
            let mut out_b: Vec<u8> = Vec::new();
            let summary_b = submit_tcp(&submit_config(&addr), &spec_b, &mut out_b).unwrap();
            assert_eq!(String::from_utf8(out_b).unwrap(), reference_b);
            assert_eq!(summary_b.cache_hits, summary_b.units_total);

            let server_summary = server.join().unwrap().unwrap();
            assert_eq!(server_summary.tenants_done, 2);
            worker.join().unwrap().unwrap();
        });
        let _ = std::fs::remove_file(&addr_path);
    }

    #[test]
    fn subscriber_resumes_from_cursor_without_duplication() {
        // Simulate a subscriber that already holds the first K lines: the
        // stream it receives must be exactly the remainder.
        let campaign = campaign(53);
        let reference = driver_reference(&campaign);
        let lines: Vec<&str> = reference.lines().collect();
        let k = lines.len() / 2;
        let spec: Value =
            serde_json::value_from_str(&serde_json::to_string(&campaign).unwrap()).unwrap();
        let addr_path = std::env::temp_dir().join(format!("ltds-net-cur-{}", std::process::id()));
        let _ = std::fs::remove_file(&addr_path);
        std::thread::scope(|scope| {
            let config = TcpServerConfig { addr_file: Some(addr_path.clone()), ..server_config(1) };
            let server = scope.spawn(move || serve_tcp::<ToyScenario>(&config, None, None));
            let addr = wait_addr(&addr_path);
            let wconfig = worker_config(&addr, "w0");
            let worker = scope.spawn(move || run_tcp_worker::<ToyScenario>(&wconfig));

            let mut out: Vec<u8> = Vec::new();
            let config = TcpSubmitConfig { cursor: k as u64, ..submit_config(&addr) };
            submit_tcp(&config, &spec, &mut out).unwrap();
            let expected: String = lines[k..].iter().map(|l| format!("{l}\n")).collect();
            assert_eq!(String::from_utf8(out).unwrap(), expected);

            server.join().unwrap().unwrap();
            worker.join().unwrap().unwrap();
        });
        let _ = std::fs::remove_file(&addr_path);
    }

    #[test]
    fn backoff_delays_are_deterministic_capped_and_jittered() {
        let policy = BackoffPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
        };
        for attempt in 0..8 {
            let a = policy.delay(attempt, 1);
            let b = policy.delay(attempt, 1);
            assert_eq!(a, b, "same salt and attempt must repeat");
            assert!(a <= Duration::from_millis(750), "cap plus 50% jitter");
        }
        // Different salts jitter differently somewhere in the schedule.
        assert!((0..8).any(|n| policy.delay(n, 1) != policy.delay(n, 2)));
        // The schedule grows before the cap bites.
        assert!(policy.delay(3, 7) > policy.delay(0, 7));
    }

    #[test]
    fn bad_spec_is_rejected_with_an_error_delta() {
        let addr_path = std::env::temp_dir().join(format!("ltds-net-bad-{}", std::process::id()));
        let _ = std::fs::remove_file(&addr_path);
        std::thread::scope(|scope| {
            let config = TcpServerConfig {
                addr_file: Some(addr_path.clone()),
                tenants: Some(1),
                ..server_config(0)
            };
            let server = scope.spawn(move || serve_tcp::<ToyScenario>(&config, None, None));
            let addr = wait_addr(&addr_path);
            // Not a campaign, and a campaign whose two scenarios share a name.
            let mut twins = campaign(61);
            twins.scenarios.push(twins.scenarios[0].clone());
            for bad in [
                serde_json::value_from_str(r#"{"not":"a campaign"}"#).unwrap(),
                serde_json::value_from_str(&serde_json::to_string(&twins).unwrap()).unwrap(),
            ] {
                let mut out: Vec<u8> = Vec::new();
                let err = submit_tcp(&submit_config(&addr), &bad, &mut out);
                assert!(matches!(err, Err(CampaignError::Io(_))), "got {err:?}");
                assert!(out.is_empty());
            }

            // A good spec afterwards still completes on the same server.
            let campaign = campaign(59);
            let spec: Value =
                serde_json::value_from_str(&serde_json::to_string(&campaign).unwrap()).unwrap();
            let mut out: Vec<u8> = Vec::new();
            submit_tcp(&submit_config(&addr), &spec, &mut out).unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), driver_reference(&campaign));
            server.join().unwrap().unwrap();
        });
        let _ = std::fs::remove_file(&addr_path);
    }
}
