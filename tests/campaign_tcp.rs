//! Integration tests of the TCP campaign server with real fleet scenarios:
//! in-process server, worker and subscriber threads over real loopback
//! sockets. In every case the streamed report must be byte-identical to the
//! in-process driver's — including across a server restart resumed from a
//! warm cache directory, with a registered worker that silently abandons
//! its lease, and with a worker whose frames arrive damaged.

mod common;

use common::TempDir;
use ltds::core::record::{encode_framed, FrameDecoder};
use ltds::fleet::{FleetCampaign, FleetConfig, FleetScenario, FleetTopology, ShardCache};
use ltds::sim::campaign::{Campaign, CampaignDriver, MemorySink, SweepAxis, SweepSpec};
use ltds::sim::config::SimConfig;
use ltds::sim::net::{
    run_tcp_worker, serve_tcp, submit_tcp, BackoffPolicy, ClientHello, NetServerMsg, NetWorkerMsg,
    TcpServerConfig, TcpSubmitConfig, TcpWorkerConfig,
};
use ltds::sim::service::ServiceConfig;
use ltds::sim::SweepCache;
use serde_json::Value;
use std::io::{Read, Write};
use std::path::Path;
use std::time::Duration;

/// The same small mixed campaign `tests/campaign_service.rs` runs: sweep
/// points plus fleet shards, fast enough for several fleets per test.
fn small_campaign(seed: u64) -> FleetCampaign {
    let group = SimConfig::mirrored_disks(1_000.0, 5_000.0, 10.0, 10.0, Some(100.0), 1.0)
        .expect("valid group");
    let topology = FleetTopology::new(2, 2, 1, 4).expect("valid topology");
    let fleet = FleetConfig::new(topology, 12, group)
        .expect("valid fleet")
        .with_horizon_hours(8_000.0)
        .with_shards(3);
    Campaign {
        name: "tcp-e2e".to_string(),
        sweeps: vec![SweepSpec {
            name: "scrub".to_string(),
            base: group,
            axis: SweepAxis::ScrubPeriod { periods_hours: vec![40.0, 400.0, f64::INFINITY] },
            trials: 80,
            seed,
        }],
        scenarios: vec![FleetScenario { name: "fleet".to_string(), fleet, seed }],
    }
}

fn driver_reference(campaign: &FleetCampaign) -> String {
    let mut sink = MemorySink::new();
    CampaignDriver::new(campaign).threads(1).run(&mut sink).unwrap();
    sink.to_jsonl()
}

fn spec_value(campaign: &FleetCampaign) -> Value {
    serde_json::value_from_str(&serde_json::to_string(campaign).unwrap()).unwrap()
}

/// Server config for in-process tests: zero poll pause, with the
/// tick-denominated windows scaled up to match (the server ticks far
/// faster than the 1ms-polling workers heartbeat).
fn server_config(addr_file: &Path) -> TcpServerConfig {
    TcpServerConfig {
        addr_file: Some(addr_file.to_path_buf()),
        poll: Duration::ZERO,
        idle_polls: 4_000_000,
        service: ServiceConfig {
            lease_ticks: 400_000,
            reissue_ticks: 8_000_000,
            fallback_ticks: None,
            ..ServiceConfig::default()
        },
        ..TcpServerConfig::default()
    }
}

fn worker_config(addr: &str, name: &str) -> TcpWorkerConfig {
    TcpWorkerConfig {
        addr: addr.to_string(),
        name: name.to_string(),
        incarnation: 0,
        poll: Duration::from_millis(1),
        max_polls: 300_000,
        reconnect: BackoffPolicy {
            max_attempts: 20,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(100),
        },
    }
}

fn submit_config(addr: &str, cursor: u64) -> TcpSubmitConfig {
    TcpSubmitConfig {
        addr: addr.to_string(),
        cursor,
        poll: Duration::from_millis(1),
        max_polls: 300_000,
        reconnect: BackoffPolicy {
            max_attempts: 20,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(100),
        },
    }
}

/// Polls the server's `--addr-file` equivalent until the bound address
/// appears (the file is written atomically, so any content is complete).
fn wait_addr(path: &Path) -> String {
    for _ in 0..10_000 {
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

#[test]
fn tcp_fleet_streams_byte_identically_for_any_fleet_size() {
    let campaign = small_campaign(61);
    let reference = driver_reference(&campaign);
    let spec = spec_value(&campaign);
    for workers in [1usize, 2, 8] {
        let dir = TempDir::new("tcp-fleet");
        let addr_path = dir.join("addr");
        std::thread::scope(|scope| {
            let config = server_config(&addr_path);
            let server = scope.spawn(move || serve_tcp::<FleetScenario>(&config, None, None));
            let addr = wait_addr(&addr_path);
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let config = worker_config(&addr, &format!("w{w}"));
                    scope.spawn(move || run_tcp_worker::<FleetScenario>(&config))
                })
                .collect();

            let mut out: Vec<u8> = Vec::new();
            let summary = submit_tcp(&submit_config(&addr, 0), &spec, &mut out).unwrap();
            assert_eq!(
                String::from_utf8(out).unwrap(),
                reference,
                "{workers} TCP worker(s) diverged from the in-process driver"
            );
            assert_eq!(summary.units_done, summary.units_total);
            assert!(summary.quarantined.is_empty());
            assert_eq!(summary.workers_seen, workers as u64);

            let server_summary = server.join().unwrap().unwrap();
            assert_eq!(server_summary.tenants_done, 1);
            for handle in handles {
                handle.join().unwrap().unwrap();
            }
        });
    }
}

#[test]
fn restarted_server_resumes_the_stream_from_a_warm_cache() {
    let campaign = small_campaign(67);
    let reference = driver_reference(&campaign);
    let spec = spec_value(&campaign);
    let dir = TempDir::new("tcp-restart");

    // First server lifetime: compute everything, write the caches through.
    let points: SweepCache<ltds::sim::MttdlEstimate> = SweepCache::new();
    let shards = ShardCache::new();
    points.write_through(dir.join("points")).unwrap();
    shards.write_through(dir.join("shards")).unwrap();
    let addr_path = dir.join("addr1");
    let first = std::thread::scope(|scope| {
        let config = server_config(&addr_path);
        let points = &points;
        let shards = &shards;
        let server =
            scope.spawn(move || serve_tcp::<FleetScenario>(&config, Some(points), Some(shards)));
        let addr = wait_addr(&addr_path);
        let wconfig = worker_config(&addr, "w0");
        let worker = scope.spawn(move || run_tcp_worker::<FleetScenario>(&wconfig));
        let mut out: Vec<u8> = Vec::new();
        let summary = submit_tcp(&submit_config(&addr, 0), &spec, &mut out).unwrap();
        server.join().unwrap().unwrap();
        worker.join().unwrap().unwrap();
        assert_eq!(summary.cache_hits, 0, "a cold cache answers nothing");
        String::from_utf8(out).unwrap()
    });
    assert_eq!(first, reference);

    // Second lifetime: a fresh server loads the same directory and a
    // client resumes mid-stream. No worker at all — every unit must be a
    // cache hit, and the remainder must be byte-exact.
    let lines: Vec<&str> = reference.lines().collect();
    let k = lines.len() / 2;
    let points: SweepCache<ltds::sim::MttdlEstimate> = SweepCache::new();
    let shards = ShardCache::new();
    assert!(points.load_dir(dir.join("points")).unwrap().loaded > 0);
    assert!(shards.load_dir(dir.join("shards")).unwrap().loaded > 0);
    let addr_path = dir.join("addr2");
    let (remainder, summary) = std::thread::scope(|scope| {
        let config = server_config(&addr_path);
        let points = &points;
        let shards = &shards;
        let server =
            scope.spawn(move || serve_tcp::<FleetScenario>(&config, Some(points), Some(shards)));
        let addr = wait_addr(&addr_path);
        let mut out: Vec<u8> = Vec::new();
        let summary = submit_tcp(&submit_config(&addr, k as u64), &spec, &mut out).unwrap();
        server.join().unwrap().unwrap();
        (String::from_utf8(out).unwrap(), summary)
    });
    let mut expected = lines[k..].join("\n");
    expected.push('\n');
    assert_eq!(remainder, expected, "the resumed stream diverged");
    assert_eq!(summary.cache_hits, summary.units_total, "the warm cache must answer every unit");
    assert_eq!(summary.cache_misses, 0);
}

#[test]
fn respawned_worker_process_receives_the_spec_again() {
    let campaign = small_campaign(73);
    let reference = driver_reference(&campaign);
    let spec = spec_value(&campaign);
    let dir = TempDir::new("tcp-respawn");
    let addr_path = dir.join("addr");

    std::thread::scope(|scope| {
        let config = TcpServerConfig {
            service: ServiceConfig { lease_ticks: 50_000, ..server_config(&addr_path).service },
            ..server_config(&addr_path)
        };
        let server = scope.spawn(move || serve_tcp::<FleetScenario>(&config, None, None));
        let addr = wait_addr(&addr_path);

        // Incarnation 0 of "w0": a raw socket that registers, waits until
        // the server has actually announced the spec and assigned it a
        // unit, then dies without a word — exactly a worker process
        // crashing mid-campaign.
        let doomed = scope.spawn({
            let addr = addr.clone();
            move || {
                let hello = ClientHello::Worker { worker: "w0".to_string(), incarnation: 0 };
                let mut socket = std::net::TcpStream::connect(&addr).unwrap();
                let mut frame = encode_framed(&serde_json::to_string(&hello).unwrap()).unwrap();
                frame.push('\n');
                socket.write_all(frame.as_bytes()).unwrap();
                socket.flush().unwrap();
                socket.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut decoder = FrameDecoder::new();
                let mut buf = [0u8; 4096];
                'assigned: loop {
                    let n = std::io::Read::read(&mut socket, &mut buf).unwrap();
                    assert!(n > 0, "server closed the socket before assigning a unit");
                    for payload in decoder.feed(&buf[..n]) {
                        let msg: NetServerMsg = serde_json::from_str(&payload).unwrap();
                        if matches!(msg, NetServerMsg::Assign { .. }) {
                            break 'assigned;
                        }
                    }
                }
            }
        });

        let submit = scope.spawn({
            let addr = addr.clone();
            let spec = &spec;
            move || {
                let mut out: Vec<u8> = Vec::new();
                let summary = submit_tcp(&submit_config(&addr, 0), spec, &mut out).unwrap();
                (String::from_utf8(out).unwrap(), summary)
            }
        });

        // Only after incarnation 0 is provably mid-lease does incarnation 1
        // start: a fresh process that knows no specs. The server must
        // re-announce the tenant to the new socket — announcement state is
        // per connection, not per worker name — or the fleet stalls with
        // every unit leased to a worker that cannot decode its assignments.
        doomed.join().unwrap();
        let wconfig = worker_config(&addr, "w0");
        let respawned = scope.spawn(move || {
            run_tcp_worker::<FleetScenario>(&TcpWorkerConfig { incarnation: 1, ..wconfig })
        });

        let (stream, summary) = submit.join().unwrap();
        assert_eq!(stream, reference, "the respawned worker diverged from the driver");
        assert_eq!(summary.units_done, summary.units_total);
        assert!(summary.quarantined.is_empty());
        assert_eq!(summary.workers_seen, 1, "both incarnations share one name");
        respawned.join().unwrap().unwrap();
        server.join().unwrap().unwrap();
    });
}

#[test]
fn silent_worker_is_evicted_and_the_fleet_recovers() {
    let campaign = small_campaign(71);
    let reference = driver_reference(&campaign);
    let spec = spec_value(&campaign);
    let dir = TempDir::new("tcp-silent");
    let addr_path = dir.join("addr");

    std::thread::scope(|scope| {
        // Tight lease window: the registered-then-silent worker must be
        // evicted quickly, while the honest worker's 1ms heartbeats (and
        // first-committed-wins commits) keep the stream intact either way.
        let config = TcpServerConfig {
            service: ServiceConfig { lease_ticks: 50_000, ..server_config(&addr_path).service },
            ..server_config(&addr_path)
        };
        let server = scope.spawn(move || serve_tcp::<FleetScenario>(&config, None, None));
        let addr = wait_addr(&addr_path);

        // A worker-shaped client that registers, takes whatever leases the
        // server grants, and never speaks again: its socket stays open, so
        // only heartbeat silence can reveal it.
        let hello = ClientHello::Worker { worker: "liar".to_string(), incarnation: 0 };
        let mut fake = std::net::TcpStream::connect(&addr).unwrap();
        let mut frame = encode_framed(&serde_json::to_string(&hello).unwrap()).unwrap();
        frame.push('\n');
        fake.write_all(frame.as_bytes()).unwrap();
        fake.flush().unwrap();

        let wconfig = worker_config(&addr, "honest");
        let worker = scope.spawn(move || run_tcp_worker::<FleetScenario>(&wconfig));

        let mut out: Vec<u8> = Vec::new();
        let summary = submit_tcp(&submit_config(&addr, 0), &spec, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            reference,
            "a silently stalled worker changed the stream"
        );
        assert_eq!(summary.units_done, summary.units_total);
        assert!(summary.quarantined.is_empty(), "silence is never the unit's fault");
        assert_eq!(summary.workers_seen, 2, "the silent worker did register");
        assert!(summary.expired_leases >= 1, "the silent worker's leases must expire: {summary:?}");
        drop(fake);
        worker.join().unwrap().unwrap();
        server.join().unwrap().unwrap();
    });
}

#[test]
fn damaged_worker_frames_are_counted_and_never_trusted() {
    let campaign = small_campaign(23);
    let reference = driver_reference(&campaign);
    let spec = spec_value(&campaign);
    let dir = TempDir::new("tcp-garbage");
    let addr_path = dir.join("addr");

    std::thread::scope(|scope| {
        let config = server_config(&addr_path);
        let server = scope.spawn(move || serve_tcp::<FleetScenario>(&config, None, None));
        let addr = wait_addr(&addr_path);

        // Incarnation 0 of "w0" is a raw client: a worker hello, a line that
        // is no frame at all, then a torn fragment that the next frame's
        // bytes complete into one damaged line.
        let frame = |payload: String| {
            let mut frame = encode_framed(&payload).unwrap();
            frame.push('\n');
            frame
        };
        let hello = ClientHello::Worker { worker: "w0".to_string(), incarnation: 0 };
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        raw.write_all(frame(serde_json::to_string(&hello).unwrap()).as_bytes()).unwrap();
        raw.write_all(b"complete garbage line\n").unwrap();
        raw.write_all(b"torn-fragment").unwrap();
        raw.write_all(frame(serde_json::to_string(&NetWorkerMsg::Heartbeat).unwrap()).as_bytes())
            .unwrap();
        // Hang up and wait for the server to close its side: by then it has
        // read every byte above, before any tenant exists to lease to us.
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut unsolicited = Vec::new();
        raw.read_to_end(&mut unsolicited).unwrap();
        assert!(unsolicited.is_empty(), "the server sent a worker with no tenant something");

        // The respawned w0 is honest; its bumped incarnation forfeits any
        // lease the new tenant grants the dead one.
        let wconfig = TcpWorkerConfig { incarnation: 1, ..worker_config(&addr, "w0") };
        let worker = scope.spawn(move || run_tcp_worker::<FleetScenario>(&wconfig));

        let mut out: Vec<u8> = Vec::new();
        let summary = submit_tcp(&submit_config(&addr, 0), &spec, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), reference, "damaged frames changed the stream");
        assert_eq!(summary.units_done, summary.units_total);
        assert!(summary.quarantined.is_empty());
        let server_summary = server.join().unwrap().unwrap();
        // The garbage line and the glued torn fragment are both counted.
        assert!(
            server_summary.corrupt_frames >= 2,
            "expected >= 2 corrupt frames, got {server_summary:?}"
        );
        worker.join().unwrap().unwrap();
    });
}
