//! `serve`: many small tenants through `serve_tcp` and one
//! `run_tcp_worker`, both threads of this process, fed by one closed-loop
//! client. A tenant computes in about a millisecond in-process, so the
//! service's lease machinery, JSON framing, sockets and cache reads
//! dominate.

use crate::history::{self, Caches};
use crate::inputs;
use crate::measure::{self, median};
use crate::report::{EndToEnd, Metrics, Passes};
use crate::trace::Tracer;
use crate::{PASSES, SETUP_ROUNDS, THREADS};
use ltds_core::record::encode_framed;
use ltds_fleet::{FleetCampaign, FleetScenario};
use ltds_sim::campaign::{CampaignDriver, JsonlSink};
use ltds_sim::net::{ClientHello, NetDelta};
use ltds_sim::service::ServiceConfig;
use ltds_sim::{
    run_tcp_worker, serve_tcp, submit_tcp, BackoffPolicy, ServiceHarness, ServiceSummary,
    TcpServerConfig, TcpServerSummary, TcpSubmitConfig, TcpWorkerConfig,
};
use serde::Value;
use std::path::{Path, PathBuf};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Server poll: none, the server spins. A tenant makes several hops
/// through the server, and each hop behind a sleeping server costs a timer
/// wake-up; on a shared host those wake-ups stretch by whole milliseconds
/// when other tenants of the host are busy. A spinning server answers at
/// once, so a tenant's latency is the service's own work.
const SERVER_POLL: Duration = Duration::ZERO;
/// Worker and client polls (read timeouts; a read returns as soon as a
/// frame arrives).
const CLIENT_POLL: Duration = Duration::from_millis(1);
/// Per-submission poll budget (30 s): a wedged tenant fails instead of
/// hanging the run.
const SUBMIT_MAX_POLLS: u64 = 30_000;

/// Lease windows are counted in server polls. A spinning poll takes at
/// least a microsecond, so 50 million polls is at least 50 s: far above any
/// unit's compute time (about a millisecond). The service never degrades
/// to in-process execution.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        lease_ticks: 50_000_000,
        reissue_ticks: 500_000_000,
        fallback_ticks: None,
        ..ServiceConfig::default()
    }
}

/// Tenants in each pass of a run of `seconds`.
pub fn tenants_for(seconds: u64) -> usize {
    ((seconds * 200 / PASSES as u64) as usize).max(100)
}

/// One tenant's input: its spec and the stream it must receive.
pub struct Tenant {
    campaign: FleetCampaign,
    spec: Value,
    reference: Vec<u8>,
}

/// Builds tenants `0..n` and their reference streams — each computed by the
/// in-process `CampaignDriver` over a copy of the history held in memory,
/// never touching the caches the server will use.
fn tenants(seed: u64, n: usize, history: &Caches) -> Vec<Tenant> {
    (0..n)
        .map(|i| {
            let campaign = inputs::serve_tenant(seed, i);
            let mut sink = JsonlSink::new(Vec::new());
            CampaignDriver::new(&campaign)
                .threads(THREADS)
                .point_cache(&history.points)
                .shard_cache(&history.shards)
                .run(&mut sink)
                .expect("reference tenant run");
            let json = serde_json::to_string(&campaign).expect("campaign serializes");
            let spec = serde_json::value_from_str(&json).expect("campaign spec parses");
            Tenant { campaign, spec, reference: sink.into_inner() }
        })
        .collect()
}

/// Generates the history under `workdir/history`, copies it to each of
/// `copies`, and returns the tenants.
fn prepare(seed: u64, n: usize, workdir: &Path, copies: &[impl AsRef<Path>]) -> Vec<Tenant> {
    let master = workdir.join("serve-history");
    let history = history::generate(seed, &master);
    let tenants = tenants(seed, n, &history);
    for name in copies {
        measure::copy_dir(&master, &workdir.join(name)).expect("copy history");
    }
    tenants
}

type ServerHandle<'scope> =
    ScopedJoinHandle<'scope, Result<TcpServerSummary, ltds_sim::campaign::CampaignError>>;

/// Spawns the server over `caches` and waits, without sleeping, until it
/// publishes its bound address.
fn start_server<'scope>(
    scope: &'scope Scope<'scope, '_>,
    caches: &'scope Caches,
    addr_file: PathBuf,
    tenants: usize,
) -> (ServerHandle<'scope>, String) {
    let config = TcpServerConfig {
        addr: "127.0.0.1:0".to_string(),
        addr_file: Some(addr_file.clone()),
        poll: SERVER_POLL,
        // The worker heartbeats every millisecond, so only a dead worker
        // leaves the server idle this long (at least 30 s).
        idle_polls: 30_000_000,
        tenants: Some(tenants as u64),
        service: service_config(),
        ..TcpServerConfig::default()
    };
    // A stale file from an earlier server would name a dead port.
    let _ = std::fs::remove_file(&addr_file);
    let server = scope.spawn(move || {
        if let Some(lanes) = lanes() {
            measure::pin_current_thread(&[lanes.0]);
        }
        serve_tcp::<FleetScenario>(&config, Some(&caches.points), Some(&caches.shards))
    });
    loop {
        // Whether the server had exited is read before the file: a server
        // sized for no tenants writes the file and exits at once, and may
        // do both between a read that misses and the check.
        let exited = server.is_finished();
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if text.ends_with('\n') {
                return (server, text.trim().to_string());
            }
        }
        assert!(!exited, "campaign server exited before binding");
        std::thread::yield_now();
    }
}

fn start_worker<'scope>(
    scope: &'scope Scope<'scope, '_>,
    addr: &str,
) -> ScopedJoinHandle<'scope, Result<u64, ltds_sim::campaign::CampaignError>> {
    let config = TcpWorkerConfig {
        addr: addr.to_string(),
        name: "w0".to_string(),
        incarnation: 0,
        poll: CLIENT_POLL,
        max_polls: 10_000_000,
        reconnect: BackoffPolicy::default(),
    };
    scope.spawn(move || {
        if let Some(lanes) = lanes() {
            measure::pin_current_thread(&[lanes.1]);
        }
        run_tcp_worker::<FleetScenario>(&config)
    })
}

/// The CPU of the spinning server and the CPU of the worker and the
/// client, when the host gives this process two or more. Left to the
/// scheduler, a woken worker or client often lands on the server's CPU and
/// time-shares it with the spin while the other CPU idles; pinned, the
/// server has a CPU of its own and the worker and client, which never run
/// at once, share the other.
fn lanes() -> Option<(usize, usize)> {
    let cpus = measure::allowed_cpus();
    (cpus.len() >= 2).then(|| (cpus[0], cpus[1]))
}

/// Runs `f` with the calling thread on the client's CPU, then lets it run
/// anywhere again.
fn as_client<T>(f: impl FnOnce() -> T) -> T {
    let all = measure::allowed_cpus();
    if let Some(lanes) = lanes() {
        measure::pin_current_thread(&[lanes.1]);
    }
    let out = f();
    measure::pin_current_thread(&all);
    out
}

/// Submits one tenant and waits for its whole stream. Returns the summary
/// if the stream byte-equals the reference and no unit was quarantined or
/// run degraded.
fn submit(addr: &str, tenant: &Tenant) -> Option<ServiceSummary> {
    let config = TcpSubmitConfig {
        addr: addr.to_string(),
        cursor: 0,
        poll: CLIENT_POLL,
        max_polls: SUBMIT_MAX_POLLS,
        reconnect: BackoffPolicy::default(),
    };
    let mut out = Vec::with_capacity(tenant.reference.len());
    let summary = submit_tcp(&config, &tenant.spec, &mut out).ok()?;
    let clean = out == tenant.reference
        && summary.units_done == summary.units_total
        && summary.quarantined.is_empty()
        && summary.degraded_units == 0;
    clean.then_some(summary)
}

/// Set-up rounds (load + arm + server bound) on `dir`; the last round's
/// server, sized for `tenants`, runs `body` with the address. Returns the
/// set-up times, `body`'s result and the server summary.
fn with_server<T>(
    dir: &Path,
    workdir: &Path,
    rounds: usize,
    tenants: usize,
    body: impl FnOnce(&str, &Caches) -> T,
) -> (Vec<f64>, T, TcpServerSummary) {
    let mut times = Vec::with_capacity(rounds);
    for round in 0..rounds - 1 {
        let start = Instant::now();
        let (caches, _) = history::open(dir);
        std::thread::scope(|scope| {
            let (server, _) =
                start_server(scope, &caches, workdir.join(format!("addr-{round}")), 0);
            times.push(start.elapsed().as_secs_f64());
            server.join().expect("server thread").expect("idle server exits");
        });
    }
    let start = Instant::now();
    let (caches, _) = history::open(dir);
    std::thread::scope(|scope| {
        let (server, addr) = start_server(scope, &caches, workdir.join("addr"), tenants);
        times.push(start.elapsed().as_secs_f64());
        let worker = start_worker(scope, &addr);
        let out = body(&addr, &caches);
        let summary = server.join().expect("server thread").expect("campaign server");
        worker.join().expect("worker thread").expect("tcp worker");
        (times, out, summary)
    })
}

/// The untraced run. Every pass gets its own server over its own fresh
/// copy of the history, so each pass's tenants hit and miss exactly as the
/// first's.
pub fn run(seed: u64, seconds: u64, workdir: &Path) -> EndToEnd {
    let copies: Vec<String> = (0..PASSES).map(|p| format!("serve-{p}")).collect();
    let tenants = prepare(seed, tenants_for(seconds), workdir, &copies);
    let mut setups = Vec::with_capacity(PASSES * SETUP_ROUNDS);
    let mut passes = Passes::new(tenants.len());
    for copy in &copies {
        let dir = workdir.join(copy);
        let (times, (), _) = with_server(&dir, workdir, SETUP_ROUNDS, tenants.len(), |addr, _| {
            as_client(|| {
                passes.begin();
                for (i, tenant) in tenants.iter().enumerate() {
                    passes.job(i, || submit(addr, tenant), |summary| summary.is_some());
                }
                passes.end();
            })
        });
        setups.extend(times);
    }
    passes.finish(median(&setups))
}

/// Bytes a submission moves between client and server: the framed hello
/// carrying the spec, one framed delta per report line, and the framed
/// closing summary.
fn submission_bytes(tenant: &Tenant, summary: &ServiceSummary) -> usize {
    let frame = |json: String| encode_framed(&json).expect("frame encodes").len() + 1;
    let hello = ClientHello::Submit { spec: tenant.spec.clone(), cursor: 0 };
    let mut bytes = frame(serde_json::to_string(&hello).expect("hello serializes"));
    let text = std::str::from_utf8(&tenant.reference).expect("stream is UTF-8");
    for (seq, line) in text.lines().enumerate() {
        let delta = NetDelta::Record { seq: seq as u64, line: line.to_string() };
        bytes += frame(serde_json::to_string(&delta).expect("delta serializes"));
    }
    let done = NetDelta::Done { summary: summary.clone() };
    bytes + frame(serde_json::to_string(&done).expect("delta serializes"))
}

/// The traced serve profile over tenants `0..n`: an untraced pass, then a
/// traced pass that runs each tenant through `CampaignDriver::threads(1)`,
/// `ServiceHarness::new(&spec, 1)` and `submit_tcp`, each on its own fresh
/// copy of the history. Returns `(attempted, failed)`.
pub fn profile(
    seed: u64,
    n: usize,
    workdir: &Path,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> (usize, usize) {
    let copies = ["serve-a", "serve-b", "serve-driver", "serve-harness"];
    let tenants = prepare(seed, n, workdir, &copies);
    let dir_a = workdir.join("serve-a");
    let before = measure::dir_bytes(&dir_a);

    // Untraced pass.
    let (_, (latencies, summaries, wall_untraced, hits, misses), server_a) =
        with_server(&dir_a, workdir, 1, n, |addr, caches| {
            as_client(|| {
                let start = Instant::now();
                let mut latencies = Vec::with_capacity(n);
                let mut summaries = Vec::with_capacity(n);
                for tenant in &tenants {
                    let t = Instant::now();
                    summaries.push(submit(addr, tenant));
                    latencies.push(t.elapsed().as_secs_f64());
                }
                (
                    latencies,
                    summaries,
                    start.elapsed().as_secs_f64(),
                    caches.hits(),
                    caches.misses(),
                )
            })
        });
    let append_bytes = measure::dir_bytes(&dir_a) - before;

    // Traced pass.
    let (driver_caches, _) = history::open(&workdir.join("serve-driver"));
    let (harness_caches, _) = history::open(&workdir.join("serve-harness"));
    let (_, failed_traced, server_b) =
        with_server(&workdir.join("serve-b"), workdir, 1, n, |addr, _| {
            as_client(|| {
                let mut failed = 0;
                for (i, tenant) in tenants.iter().enumerate() {
                    let job = i as u64;
                    let root = tracer.open("serve.tenant", None, job);
                    let driver = tracer.time("campaign.driver", Some(root), job, || {
                        let mut sink = JsonlSink::new(Vec::new());
                        CampaignDriver::new(&tenant.campaign)
                            .threads(1)
                            .point_cache(&driver_caches.points)
                            .shard_cache(&driver_caches.shards)
                            .run(&mut sink)
                            .ok()
                            .map(|_| sink.into_inner())
                    });
                    let harness = tracer.time("service.harness", Some(root), job, || {
                        let mut sink = JsonlSink::new(Vec::new());
                        ServiceHarness::new(&tenant.campaign, 1)
                            .point_cache(&harness_caches.points)
                            .shard_cache(&harness_caches.shards)
                            .run(&mut sink)
                            .ok()
                            .filter(|s| s.quarantined.is_empty() && s.degraded_units == 0)
                            .map(|_| sink.into_inner())
                    });
                    let net = tracer.time("net.submit", Some(root), job, || submit(addr, tenant));
                    tracer.close(root);
                    let ok = driver.as_ref() == Some(&tenant.reference)
                        && harness.as_ref() == Some(&tenant.reference)
                        && net.is_some();
                    failed += usize::from(!ok);
                }
                failed
            })
        });

    let failed = summaries.iter().filter(|s| s.is_none()).count() + failed_traced;
    let retries: u64 = summaries
        .iter()
        .flatten()
        .map(|s| s.expired_leases + s.reissues + s.duplicate_completions)
        .sum();
    let bytes: usize = tenants
        .iter()
        .zip(&summaries)
        .filter_map(|(t, s)| s.as_ref().map(|s| submission_bytes(t, s)))
        .sum();
    let driver = tracer.per_job_self("campaign.driver", n);
    let harness = tracer.per_job_self("service.harness", n);
    let submit_secs = tracer.per_job_self("net.submit", n);
    let service_overhead: Vec<f64> = (0..n).map(|i| harness[i] - driver[i]).collect();
    let net_overhead: Vec<f64> = (0..n).map(|i| submit_secs[i] - harness[i]).collect();
    let quarter = (n / 4).max(1);
    let growth = median(&latencies[n - quarter..]) / median(&latencies[..quarter]);

    metrics.set("service.overhead_s", "s", median(&service_overhead));
    metrics.set("net.overhead_s", "s", median(&net_overhead));
    metrics.set("net.latency_growth", "ratio", growth);
    metrics.set("net.bytes_per_tenant", "B", bytes as f64 / n as f64);
    metrics.set("service.retries", "count", retries as f64);
    metrics.set(
        "net.corrupt_frames",
        "count",
        (server_a.corrupt_frames + server_b.corrupt_frames) as f64,
    );
    metrics.set(
        "net.slow_subscribers_dropped",
        "count",
        (server_a.slow_subscribers_dropped + server_b.slow_subscribers_dropped) as f64,
    );
    metrics.set("cache.hits", "count", hits as f64);
    metrics.set("cache.misses", "count", misses as f64);
    metrics.set("cache.append_bytes.serve", "B", append_bytes as f64);
    metrics.set(
        "trace.overhead_frac.serve",
        "ratio",
        submit_secs.iter().sum::<f64>() / wall_untraced - 1.0,
    );
    (n, failed)
}
