//! `campaign` — runs a campaign spec against a persistent cache directory,
//! streaming the report as JSON lines.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ltds-bench --bin campaign -- \
//!     [--spec FILE.json]    # FleetCampaign spec; default: the built-in demo.
//!                           # `demo-rare` / `demo-rare-vanilla` name the
//!                           # built-in rare-event campaigns (importance
//!                           # sampled and its vanilla twin).
//!     [--cache-dir DIR]     # persistent cache (loaded, then written through)
//!     [--cache-evict-bytes N] # before loading, bound each cache store to N
//!                           # bytes: compact, then evict whole segments
//!                           # least-recently-written first
//!     [--out FILE.jsonl]    # streamed report (default campaign.jsonl)
//!     [--fleet-reports DIR] # also write merged per-scenario FleetReports
//!     [--threads N]         # worker threads (default: all cores)
//!     [--telemetry HOURS]   # stream shard traces sampled every HOURS sim-time
//!     [--max-units K]       # stop after K work units ("kill" the campaign)
//!     [--expect-hits N]     # exit 1 unless the caches answered >= N units
//!     [--expect-misses N]   # exit 1 if more than N units were simulated
//!     [--max-skipped N]     # exit 1 if more than N damaged cache records
//!                           # were skipped at load
//! ```
//!
//! # Campaign service over TCP
//!
//! `--serve-tcp ADDR` runs a long-running **multi-tenant** campaign server
//! over real sockets: any number of `campaign --submit ADDR` clients send
//! campaign specs and subscribe to their report streams, any number of
//! `campaign --worker-tcp ADDR` processes execute units, and every tenant
//! shares the server's persistent caches. Each tenant is a
//! [`ltds_sim::CampaignService`]: worker crashes, silent workers, dropped
//! sockets and torn frames are absorbed by lease re-issue, and the streamed
//! report stays byte-identical to the in-process driver's. Tenants are
//! content-addressed by their spec bytes, so a client that reconnects (or
//! outlives a server restart against the same `--cache-dir`) resumes its
//! stream exactly where it left off. A submitting client's final stdout
//! line is the tenant's [`ltds_sim::ServiceSummary`] as JSON.
//!
//! ```text
//!     --serve-tcp ADDR        # run the multi-tenant TCP campaign server
//!                             # (use 127.0.0.1:0 with --addr-file in CI)
//!     --worker-tcp ADDR       # run as a TCP worker (reconnects with
//!                             # backoff; bumps incarnation per reconnect)
//!     --submit ADDR           # submit --spec and stream the report to
//!                             # --out, resuming from the lines already
//!                             # there; prints the service summary
//!     [--addr-file FILE]      # server: write the bound address to FILE
//!     [--tenants N|none]      # server: exit after N tenants (default 1);
//!                             # `none` serves until the poll budget idles
//!     [--lease-ticks N]       # server: heartbeat-silence polls before a
//!                             # worker is dead (default: 10 s of polls)
//!     [--reissue-ticks N]     # server: lease age, in polls, before
//!                             # straggler re-issue (default: 100 s of polls)
//!     [--max-attempts N]      # server: blamed lease failures before
//!                             # quarantine (default 3)
//!     [--fallback-ticks N]    # server: polls without workers before the
//!                             # in-process fallback (default: 30 s of
//!                             # polls); `none` disables (poison drills)
//!     [--worker-id NAME]      # worker: stable name (default w0)
//!     [--incarnation N]       # worker: restart counter; respawn wrappers
//!                             # increment it
//!     [--local-fallback]      # submit: degrade to the in-process driver
//!                             # if the server cannot be reached
//!     [--expect-quarantined N]# submit: exit 1 unless exactly N units
//!                             # were quarantined
//!     [--poll-ms N]           # pause between polls (default 25); one
//!                             # server poll is one service tick
//!     [--max-polls N]         # stall budget, in polls (default 100000)
//! ```
//!
//! A flag that does not apply to the chosen mode is an error, never
//! silently ignored.
//!
//! Deterministic fault injection is armed from `LTDS_FAILPOINTS` (see
//! `ltds_core::failpoint`) when the binary is built with
//! `--features failpoints`; setting the variable on a binary built without
//! the feature is an error, so a chaos drill can never silently run clean.
//! The sites are `worker.kill` (a worker exits 81 as a unit starts),
//! `net.conn.drop` (a worker drops its socket mid-unit),
//! `net.frame.truncate` (a worker tears a result frame),
//! `net.accept.stall` (the server skips accept rounds) and
//! `cache.persist.crash` (exit 83 right after a durable cache append).
//!
//! `--fleet-reports DIR` reads the finished `--out` stream back and folds
//! each fully streamed scenario's fleet shards into the merged
//! [`ltds_fleet::FleetReport`] the engine would have produced
//! (bit-identical — `PreparedFleet::report` merges in shard order),
//! written as `DIR/<scenario>.json`. It works the same for the in-process
//! driver and for `--submit`. Scenarios truncated by `--max-units` are
//! skipped with a warning.
//!
//! The cache directory holds two segment stores —
//! `<dir>/points/seg-<digest>.jsonl` for sweep grid points and
//! `<dir>/shards/seg-<digest>.jsonl` for fleet shards — each a
//! checksum-framed JSON-lines file per config digest. Runs *load* whatever
//! is there, *write through* every fresh result, and skip (with a warning)
//! any record a kill or a bad disk damaged. Because work units are pure
//! functions of their content-addressed keys and the stream is released in
//! unit order, a re-run against a warm directory emits a byte-identical
//! report; resuming a killed campaign is just running it again.
//!
//! `--telemetry HOURS` streams an extra `ShardTrace` record (sampled at
//! the given sim-time cadence) behind every fleet shard the run actually
//! simulates; cache hits carry no trace.
//!
//! On success the final line on stdout is the run summary as JSON
//! (`units_total` / `units_run` / `cache_hits` / `cache_misses` /
//! `skipped_records` — the last counts damaged cache records dropped at
//! load), which is what CI asserts against. When the report contains sweep
//! points, the line before it is a censoring digest
//! (`censoring_mean` / `censoring_max` / `sweep_points`) — the first thing
//! to check when a rare-event config produces a noisy estimate.

use ltds_bench::workloads;
use ltds_fleet::{FleetCampaign, FleetReportCollector, FleetScenario, ShardCache, TelemetryConfig};
use ltds_sim::cache::SweepCache;
use ltds_sim::campaign::{CampaignDriver, CampaignSummary, JsonlSink, ReportSink, StreamRecord};
use ltds_sim::net::{
    run_tcp_worker, serve_tcp, submit_tcp, BackoffPolicy, TcpServerConfig, TcpSubmitConfig,
    TcpWorkerConfig,
};
use ltds_sim::service::{ServiceConfig, ServiceSummary};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("campaign: {message}");
    std::process::exit(2);
}

/// What one invocation runs as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Driver,
    Serve,
    Worker,
    Submit,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Driver => "the in-process driver",
            Mode::Serve => "--serve-tcp",
            Mode::Worker => "--worker-tcp",
            Mode::Submit => "--submit",
        }
    }
}

/// The modes a flag applies to. Every other mode rejects it, so a flag a
/// mode would ignore (a worker's `--expect-hits`, a server's
/// `--fleet-reports`) is an error rather than a silent no-op.
fn flag_modes(flag: &str) -> &'static [Mode] {
    use Mode::{Driver, Serve, Submit, Worker};
    match flag {
        "--spec" | "--out" | "--fleet-reports" | "--threads" | "--expect-hits"
        | "--expect-misses" | "--max-skipped" => &[Driver, Submit],
        "--cache-dir" | "--cache-evict-bytes" => &[Driver, Serve, Submit],
        "--telemetry" | "--max-units" => &[Driver],
        "--serve-tcp" | "--addr-file" | "--tenants" | "--lease-ticks" | "--reissue-ticks"
        | "--max-attempts" | "--fallback-ticks" => &[Serve],
        "--worker-tcp" | "--worker-id" | "--incarnation" => &[Worker],
        "--submit" | "--local-fallback" | "--expect-quarantined" => &[Submit],
        "--poll-ms" | "--max-polls" => &[Serve, Worker, Submit],
        _ => &[],
    }
}

/// The published run summary: the driver's or the service's, depending on
/// the mode — either way the final stdout line CI parses.
enum RunSummary {
    Driver(CampaignSummary),
    Service(ServiceSummary),
}

impl RunSummary {
    fn cache_hits(&self) -> u64 {
        match self {
            RunSummary::Driver(s) => s.cache_hits,
            RunSummary::Service(s) => s.cache_hits,
        }
    }

    fn cache_misses(&self) -> u64 {
        match self {
            RunSummary::Driver(s) => s.cache_misses,
            RunSummary::Service(s) => s.cache_misses,
        }
    }

    fn quarantined(&self) -> u64 {
        match self {
            RunSummary::Driver(_) => 0,
            RunSummary::Service(s) => s.quarantined.len() as u64,
        }
    }

    fn set_skipped(&mut self, skipped: u64) {
        match self {
            RunSummary::Driver(s) => s.skipped_records = skipped,
            RunSummary::Service(s) => s.skipped_records = skipped,
        }
    }

    fn to_json(&self) -> String {
        match self {
            RunSummary::Driver(s) => serde_json::to_string(s).expect("summary serializes"),
            RunSummary::Service(s) => serde_json::to_string(s).expect("summary serializes"),
        }
    }
}

/// Resolves a `--spec` argument: a built-in name, a JSON file, or (absent)
/// the built-in demo campaign.
fn load_spec(spec_path: Option<&str>) -> FleetCampaign {
    match spec_path {
        // Built-in rare-event specs: the importance-sampled demo and its
        // vanilla twin (same grids, seeds and trials — only the strategy,
        // and therefore every cache digest, differs).
        Some("demo-rare") => {
            workloads::demo_rare_campaign(ltds_sim::RareEventStrategy::ImportanceSampling {
                tilt: workloads::RARE_TILT,
            })
        }
        Some("demo-rare-vanilla") => {
            workloads::demo_rare_campaign(ltds_sim::RareEventStrategy::Vanilla)
        }
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read spec {path}: {e}")));
            serde_json::from_str(&text)
                .unwrap_or_else(|e| fail(format!("cannot parse spec {path}: {e}")))
        }
        None => workloads::demo_campaign(),
    }
}

/// Submit mode: send the spec to a TCP campaign server and stream the
/// report into `out_path`, resuming from whatever complete lines a
/// previous (interrupted) submission already wrote there. With
/// `local_fallback`, an unreachable server degrades to the in-process
/// driver over the same caches — same bytes, no fleet.
#[allow(clippy::too_many_arguments)]
fn submit_campaign(
    addr: &str,
    campaign: &FleetCampaign,
    points: &SweepCache<ltds_sim::MttdlEstimate>,
    shards: &ShardCache,
    out_path: &str,
    poll_ms: u64,
    max_polls: u64,
    threads: Option<usize>,
    local_fallback: bool,
) -> RunSummary {
    // The durable cursor is the report itself: the complete lines already
    // on disk. A torn tail line (a client killed mid-write) is discarded.
    let existing = std::fs::read(out_path).unwrap_or_default();
    let keep = existing.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let cursor = existing[..keep].iter().filter(|&&b| b == b'\n').count() as u64;
    // Not .truncate(true): the kept prefix IS the resume state. set_len
    // below trims only the torn tail.
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(false)
        .open(out_path)
        .unwrap_or_else(|e| fail(format!("cannot open {out_path}: {e}")));
    file.set_len(keep as u64).unwrap_or_else(|e| fail(format!("cannot truncate {out_path}: {e}")));
    file.seek(SeekFrom::End(0)).unwrap_or_else(|e| fail(format!("cannot seek {out_path}: {e}")));
    if cursor > 0 {
        eprintln!("submit: resuming from line {cursor} of {out_path}");
    }
    let spec =
        serde_json::value_from_str(&serde_json::to_string(campaign).expect("campaign serializes"))
            .expect("campaign round-trips");
    let config = TcpSubmitConfig {
        addr: addr.to_string(),
        cursor,
        poll: Duration::from_millis(poll_ms),
        max_polls,
        reconnect: BackoffPolicy::default(),
    };
    let mut writer = std::io::BufWriter::new(&mut file);
    match submit_tcp(&config, &spec, &mut writer) {
        Ok(summary) => RunSummary::Service(summary),
        Err(e) if local_fallback => {
            eprintln!("submit: server unreachable ({e}); degrading to the in-process driver");
            drop(writer);
            drop(file);
            let file = std::fs::File::create(out_path)
                .unwrap_or_else(|e| fail(format!("cannot create {out_path}: {e}")));
            let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
            let mut driver = CampaignDriver::new(campaign).point_cache(points).shard_cache(shards);
            if let Some(threads) = threads {
                driver = driver.threads(threads);
            }
            let summary = driver
                .run(&mut sink)
                .unwrap_or_else(|e| fail(format!("local fallback failed: {e}")));
            sink.into_inner()
                .flush()
                .unwrap_or_else(|e| fail(format!("cannot flush {out_path}: {e}")));
            RunSummary::Driver(summary)
        }
        Err(e) => fail(format!("submission failed: {e}")),
    }
}

/// Folds the finished report at `out_path` into merged per-scenario
/// [`ltds_fleet::FleetReport`]s, written as `dir/<scenario>.json`. Reading
/// the stream back gives every mode one path: the in-process driver, a
/// `--submit` stream resumed across reconnects, and its local fallback.
fn write_fleet_reports(out_path: &str, campaign: &FleetCampaign, dir: &Path) {
    let text = std::fs::read_to_string(out_path)
        .unwrap_or_else(|e| fail(format!("cannot read {out_path}: {e}")));
    let mut discard = JsonlSink::new(std::io::sink());
    let mut collector = FleetReportCollector::new(&mut discard);
    for (index, line) in text.lines().enumerate() {
        let record: StreamRecord = serde_json::from_str(line).unwrap_or_else(|e| {
            fail(format!("{out_path}:{}: not a stream record: {e}", index + 1))
        });
        collector.record(&record).expect("writing to io::sink cannot fail");
    }
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dir.display())));
    let reports = collector
        .reports(campaign)
        .unwrap_or_else(|e| fail(format!("cannot merge fleet reports: {e}")));
    for (name, report) in &reports {
        // Scenario names come from specs; keep the filename tame.
        let safe: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        let path = dir.join(format!("{safe}.json"));
        let json = serde_json::to_string_pretty(report).expect("report serializes");
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())));
        eprintln!("fleet report `{name}` -> {}", path.display());
    }
}

/// TCP worker mode: connect (with backoff), execute assignments across
/// every tenant the server announces, reconnect with a bumped incarnation
/// whenever the socket dies, exit on the server's shutdown broadcast.
fn run_worker_tcp(config: TcpWorkerConfig) -> ! {
    let name = config.name.clone();
    match run_tcp_worker::<FleetScenario>(&config) {
        Ok(completed) => {
            eprintln!("worker {name}: completed {completed} unit(s)");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("worker {name}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut spec_path: Option<String> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut cache_evict_bytes: Option<u64> = None;
    let mut fleet_reports: Option<PathBuf> = None;
    let mut out_path = String::from("campaign.jsonl");
    let mut threads: Option<usize> = None;
    let mut telemetry_hours: Option<f64> = None;
    let mut max_units: Option<usize> = None;
    let mut expect_hits: Option<u64> = None;
    let mut expect_misses: Option<u64> = None;
    let mut max_skipped: Option<u64> = None;
    let mut expect_quarantined: Option<u64> = None;
    let mut serve_tcp_addr: Option<String> = None;
    let mut worker_tcp_addr: Option<String> = None;
    let mut submit_addr: Option<String> = None;
    let mut addr_file: Option<PathBuf> = None;
    let mut tenants: Option<u64> = Some(1);
    let mut local_fallback = false;
    let mut worker_id = String::from("w0");
    let mut incarnation = 0u64;
    let mut poll_ms = 25u64;
    let mut max_polls = 100_000u64;
    let mut lease_ticks: Option<u64> = None;
    let mut reissue_ticks: Option<u64> = None;
    let mut fallback_ticks: Option<Option<u64>> = None;
    let mut max_attempts = ServiceConfig::default().max_attempts;
    let mut given: Vec<String> = Vec::new();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).unwrap_or_else(|| fail(format!("{flag} needs a value"))).clone()
    };
    while i < args.len() {
        let flag = args[i].clone();
        match flag.as_str() {
            "--spec" => spec_path = Some(value(&args, &mut i, "--spec")),
            "--cache-dir" => cache_dir = Some(PathBuf::from(value(&args, &mut i, "--cache-dir"))),
            "--cache-evict-bytes" => {
                cache_evict_bytes = Some(
                    value(&args, &mut i, "--cache-evict-bytes")
                        .parse()
                        .unwrap_or_else(|_| fail("--cache-evict-bytes needs a byte count")),
                )
            }
            "--fleet-reports" => {
                fleet_reports = Some(PathBuf::from(value(&args, &mut i, "--fleet-reports")))
            }
            "--out" => out_path = value(&args, &mut i, "--out"),
            "--threads" => {
                threads = Some(
                    value(&args, &mut i, "--threads")
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| fail("--threads needs a number >= 1")),
                )
            }
            "--telemetry" => {
                telemetry_hours = Some(
                    value(&args, &mut i, "--telemetry")
                        .parse()
                        .ok()
                        .filter(|&h: &f64| h.is_finite() && h > 0.0)
                        .unwrap_or_else(|| fail("--telemetry needs a positive number of hours")),
                )
            }
            "--max-units" => {
                max_units = Some(
                    value(&args, &mut i, "--max-units")
                        .parse()
                        .unwrap_or_else(|_| fail("--max-units needs a number")),
                )
            }
            "--expect-hits" => {
                expect_hits = Some(
                    value(&args, &mut i, "--expect-hits")
                        .parse()
                        .unwrap_or_else(|_| fail("--expect-hits needs a number")),
                )
            }
            "--expect-misses" => {
                expect_misses = Some(
                    value(&args, &mut i, "--expect-misses")
                        .parse()
                        .unwrap_or_else(|_| fail("--expect-misses needs a number")),
                )
            }
            "--max-skipped" => {
                max_skipped = Some(
                    value(&args, &mut i, "--max-skipped")
                        .parse()
                        .unwrap_or_else(|_| fail("--max-skipped needs a number")),
                )
            }
            "--expect-quarantined" => {
                expect_quarantined = Some(
                    value(&args, &mut i, "--expect-quarantined")
                        .parse()
                        .unwrap_or_else(|_| fail("--expect-quarantined needs a number")),
                )
            }
            "--serve-tcp" => serve_tcp_addr = Some(value(&args, &mut i, "--serve-tcp")),
            "--worker-tcp" => worker_tcp_addr = Some(value(&args, &mut i, "--worker-tcp")),
            "--submit" => submit_addr = Some(value(&args, &mut i, "--submit")),
            "--addr-file" => addr_file = Some(PathBuf::from(value(&args, &mut i, "--addr-file"))),
            "--tenants" => {
                let v = value(&args, &mut i, "--tenants");
                tenants = match v.as_str() {
                    "none" => None,
                    n => Some(
                        n.parse()
                            .ok()
                            .filter(|&n: &u64| n > 0)
                            .unwrap_or_else(|| fail("--tenants needs a number >= 1 or `none`")),
                    ),
                }
            }
            "--local-fallback" => local_fallback = true,
            "--worker-id" => worker_id = value(&args, &mut i, "--worker-id"),
            "--incarnation" => {
                incarnation = value(&args, &mut i, "--incarnation")
                    .parse()
                    .unwrap_or_else(|_| fail("--incarnation needs a number"))
            }
            "--poll-ms" => {
                poll_ms = value(&args, &mut i, "--poll-ms")
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n > 0)
                    .unwrap_or_else(|| fail("--poll-ms needs a number >= 1"))
            }
            "--max-polls" => {
                max_polls = value(&args, &mut i, "--max-polls")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-polls needs a number"))
            }
            "--lease-ticks" => {
                lease_ticks = Some(
                    value(&args, &mut i, "--lease-ticks")
                        .parse()
                        .unwrap_or_else(|_| fail("--lease-ticks needs a number")),
                )
            }
            "--reissue-ticks" => {
                reissue_ticks = Some(
                    value(&args, &mut i, "--reissue-ticks")
                        .parse()
                        .unwrap_or_else(|_| fail("--reissue-ticks needs a number")),
                )
            }
            "--max-attempts" => {
                max_attempts = value(&args, &mut i, "--max-attempts")
                    .parse()
                    .ok()
                    .filter(|&n: &u32| n > 0)
                    .unwrap_or_else(|| fail("--max-attempts needs a number >= 1"))
            }
            "--fallback-ticks" => {
                let v = value(&args, &mut i, "--fallback-ticks");
                fallback_ticks = Some(match v.as_str() {
                    "none" => None,
                    n => Some(
                        n.parse()
                            .unwrap_or_else(|_| fail("--fallback-ticks needs a number or `none`")),
                    ),
                })
            }
            other => fail(format!("unknown argument: {other}")),
        }
        given.push(flag);
        i += 1;
    }

    // Arm deterministic fault injection before anything else. A drill that
    // sets LTDS_FAILPOINTS on a binary built without the feature must fail
    // loudly, never silently run clean.
    match ltds_core::failpoint::init_from_env() {
        Ok(true) => eprintln!("campaign: fail points armed from LTDS_FAILPOINTS"),
        Ok(false) => {
            if std::env::var("LTDS_FAILPOINTS").is_ok() && !ltds_core::failpoint::compiled_in() {
                fail(
                    "LTDS_FAILPOINTS is set but this binary was built without the \
                     `failpoints` feature; rebuild with --features failpoints",
                );
            }
        }
        Err(e) => fail(format!("invalid LTDS_FAILPOINTS: {e}")),
    }

    let mode = match (&serve_tcp_addr, &worker_tcp_addr, &submit_addr) {
        (None, None, None) => Mode::Driver,
        (Some(_), None, None) => Mode::Serve,
        (None, Some(_), None) => Mode::Worker,
        (None, None, Some(_)) => Mode::Submit,
        _ => fail("--serve-tcp, --worker-tcp and --submit are mutually exclusive"),
    };
    for flag in &given {
        if !flag_modes(flag).contains(&mode) {
            fail(format!("{flag} does not apply to {}", mode.name()));
        }
    }
    if let Some(addr) = worker_tcp_addr {
        run_worker_tcp(TcpWorkerConfig {
            addr,
            name: worker_id,
            incarnation,
            poll: Duration::from_millis(poll_ms),
            max_polls,
            reconnect: BackoffPolicy::default(),
        });
    }
    if cache_evict_bytes.is_some() && cache_dir.is_none() {
        fail("--cache-evict-bytes needs --cache-dir");
    }

    // The TCP server receives specs from --submit clients over the wire;
    // every other mode needs one now.
    let campaign: Option<FleetCampaign> =
        if mode == Mode::Serve { None } else { Some(load_spec(spec_path.as_deref())) };
    if let Some(campaign) = &campaign {
        eprintln!(
            "campaign `{}`: {} sweep(s), {} scenario(s)",
            campaign.name,
            campaign.sweeps.len(),
            campaign.scenarios.len()
        );
    }
    // Built-in rare-event specs: the importance-sampled demo and its
    // vanilla twin (same grids, seeds and trials — only the strategy,
    // and therefore every cache digest, differs).
    // Persistent caches: load whatever a previous run left, then write
    // every fresh result through so a kill loses at most one record.
    let points: SweepCache<ltds_sim::MttdlEstimate> = SweepCache::new();
    let shards = ShardCache::new();
    let mut skipped_records = 0u64;
    if let Some(dir) = &cache_dir {
        // Probe writability up front: write-through failures mid-run only
        // warn (the in-memory cache stays correct), so an unwritable
        // directory would otherwise silently produce a run that cannot be
        // resumed. Fail now, clearly, instead.
        for sub in ["points", "shards"] {
            let store = dir.join(sub);
            std::fs::create_dir_all(&store).unwrap_or_else(|e| {
                fail(format!("cache directory {} is not writable: {e}", store.display()))
            });
            let probe = store.join(".write-probe.tmp");
            std::fs::write(&probe, b"probe\n").unwrap_or_else(|e| {
                fail(format!("cache directory {} is not writable: {e}", store.display()))
            });
            let _ = std::fs::remove_file(&probe);
        }
        // Bound the stores before loading (and before write-through arms —
        // eviction must not race appends): the long-running server's disk
        // footprint stays under budget, at worst costing recomputation of
        // the least-recently-written configurations.
        if let Some(budget) = cache_evict_bytes {
            for (name, stats) in [
                (
                    "points",
                    SweepCache::<ltds_sim::MttdlEstimate>::evict_dir(dir.join("points"), budget),
                ),
                ("shards", ShardCache::evict_dir(dir.join("shards"), budget)),
            ] {
                let stats =
                    stats.unwrap_or_else(|e| fail(format!("cannot evict {name} cache: {e}")));
                eprintln!(
                    "cache {name}: evicted {} segment(s) ({} bytes), kept {} segment(s) \
                     ({} bytes) within the {budget}-byte budget",
                    stats.evicted_segments,
                    stats.evicted_bytes,
                    stats.retained_segments,
                    stats.retained_bytes
                );
            }
        }
        for (name, stats) in [
            ("points", points.load_dir(dir.join("points"))),
            ("shards", shards.load_dir(dir.join("shards"))),
        ] {
            let stats = stats.unwrap_or_else(|e| fail(format!("cannot load {name} cache: {e}")));
            eprintln!(
                "cache {name}: {} record(s) from {} segment(s), {} skipped",
                stats.loaded, stats.segments, stats.skipped
            );
            skipped_records += stats.skipped as u64;
        }
        points
            .write_through(dir.join("points"))
            .unwrap_or_else(|e| fail(format!("cannot arm points write-through: {e}")));
        shards
            .write_through(dir.join("shards"))
            .unwrap_or_else(|e| fail(format!("cannot arm shards write-through: {e}")));
    }

    // TCP server mode: serve submitted campaigns over the shared caches
    // until the tenant target is met, then publish the server summary.
    if let Some(addr) = serve_tcp_addr {
        // One poll is one service tick, so each tick window defaults to a
        // fixed wall-clock span at any --poll-ms: a 10 s heartbeat lease,
        // 100 s before straggler re-issue and 30 s without workers before
        // the in-process fallback. A worker sends nothing while it computes
        // a unit, so the lease must outlast the slowest unit.
        let polls_in = |ms: u64| ms.div_ceil(poll_ms);
        let service = ServiceConfig {
            lease_ticks: lease_ticks.unwrap_or(polls_in(10_000)),
            reissue_ticks: reissue_ticks.unwrap_or(polls_in(100_000)),
            fallback_ticks: fallback_ticks.unwrap_or(Some(polls_in(30_000))),
            max_attempts,
            ..ServiceConfig::default()
        };
        let config = TcpServerConfig {
            addr,
            addr_file,
            poll: Duration::from_millis(poll_ms),
            idle_polls: max_polls,
            tenants,
            service,
            ..TcpServerConfig::default()
        };
        match serve_tcp::<FleetScenario>(&config, Some(&points), Some(&shards)) {
            Ok(summary) => {
                eprintln!(
                    "campaign server: {} tenant(s) done over {} connection(s), \
                     {} corrupt frame(s), {} slow subscriber(s) dropped",
                    summary.tenants_done,
                    summary.connections,
                    summary.corrupt_frames,
                    summary.slow_subscribers_dropped
                );
                println!("{}", serde_json::to_string(&summary).expect("summary serializes"));
                std::process::exit(0);
            }
            Err(e) => fail(format!("server failed: {e}")),
        }
    }
    let campaign = campaign.expect("non-server modes load a spec");

    let mut summary = if let Some(addr) = &submit_addr {
        submit_campaign(
            addr,
            &campaign,
            &points,
            &shards,
            &out_path,
            poll_ms,
            max_polls,
            threads,
            local_fallback,
        )
    } else {
        let file = std::fs::File::create(&out_path)
            .unwrap_or_else(|e| fail(format!("cannot create {out_path}: {e}")));
        let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
        let mut driver = CampaignDriver::new(&campaign).point_cache(&points).shard_cache(&shards);
        if let Some(threads) = threads {
            driver = driver.threads(threads);
        }
        if let Some(hours) = telemetry_hours {
            driver = driver.telemetry(TelemetryConfig::default().sample_period_hours(hours));
        }
        if let Some(k) = max_units {
            driver = driver.max_units(k);
        }
        let summary = match driver.run(&mut sink) {
            Ok(summary) => summary,
            Err(e) => {
                eprintln!("campaign failed: {e}");
                std::process::exit(1);
            }
        };
        sink.into_inner().flush().unwrap_or_else(|e| fail(format!("cannot flush {out_path}: {e}")));
        RunSummary::Driver(summary)
    };
    if let Some(dir) = &fleet_reports {
        write_fleet_reports(&out_path, &campaign, dir);
    }
    // Damaged records dropped while loading the persistent caches: the
    // driver cannot see them, so the binary folds them into the published
    // summary (CI greps for a nonzero count after corruption drills).
    summary.set_skipped(skipped_records);

    match &summary {
        RunSummary::Driver(s) => eprintln!(
            "campaign `{}`: {}/{} unit(s) run, {} from cache, {} simulated -> {out_path}",
            campaign.name, s.units_run, s.units_total, s.cache_hits, s.cache_misses
        ),
        RunSummary::Service(s) => eprintln!(
            "campaign `{}`: {}/{} unit(s) done, {} from cache, {} computed, {} quarantined, \
             {} worker(s) -> {out_path}",
            campaign.name,
            s.units_done,
            s.units_total,
            s.cache_hits,
            s.cache_misses,
            s.quarantined.len(),
            s.workers_seen
        ),
    }
    // Trial-censoring visibility: fold the per-point censoring fractions
    // out of the streamed report, so a rare config whose tilt is too weak
    // (everything still censored) is obvious without a debugger. Printed
    // before the final summary line, which CI parses by position.
    if let Ok(report) = std::fs::read_to_string(&out_path) {
        let mut sum = 0.0f64;
        let mut max = 0.0f64;
        let mut points = 0u64;
        for line in report.lines() {
            let Ok(record) = serde_json::value_from_str(line) else { continue };
            let Some(c) = record.get("payload").and_then(|p| p.get("censoring_fraction")) else {
                continue;
            };
            let c = match c {
                serde_json::Value::F64(x) => *x,
                serde_json::Value::U64(n) => *n as f64,
                serde_json::Value::I64(n) => *n as f64,
                _ => continue,
            };
            sum += c;
            max = max.max(c);
            points += 1;
        }
        if points > 0 {
            let mean = sum / points as f64;
            eprintln!("censoring: mean {mean:.4}, max {max:.4} across {points} sweep point(s)");
            println!(
                "{{\"censoring_mean\":{mean},\"censoring_max\":{max},\"sweep_points\":{points}}}"
            );
        }
    }
    println!("{}", summary.to_json());

    if let Some(expected) = expect_hits {
        if summary.cache_hits() < expected {
            eprintln!(
                "CAMPAIGN CHECK FAILED: expected >= {expected} cache hit(s), got {}",
                summary.cache_hits()
            );
            std::process::exit(1);
        }
    }
    if let Some(allowed) = expect_misses {
        if summary.cache_misses() > allowed {
            eprintln!(
                "CAMPAIGN CHECK FAILED: expected <= {allowed} cache miss(es), got {}",
                summary.cache_misses()
            );
            std::process::exit(1);
        }
    }
    if let Some(expected) = expect_quarantined {
        if summary.quarantined() != expected {
            eprintln!(
                "CAMPAIGN CHECK FAILED: expected {expected} quarantined unit(s), got {}",
                summary.quarantined()
            );
            std::process::exit(1);
        }
    }
    if let Some(allowed) = max_skipped {
        if skipped_records > allowed {
            eprintln!(
                "CAMPAIGN CHECK FAILED: {skipped_records} damaged cache record(s) skipped, \
                 --max-skipped allows {allowed}"
            );
            std::process::exit(1);
        }
    }
}
