//! Crash-recovery and protocol-robustness tests for `ecl-serve`.
//!
//! The durability contract under test: an `ADD` is acknowledged only
//! after its WAL record is fsync'd, so a server killed at ANY point and
//! restarted with `--resume` must answer `CONN`/`STATS` exactly as an
//! unkilled oracle over the acknowledged prefix. Dropping a
//! [`ServeState`] without a graceful close is equivalent to `SIGKILL`
//! here because every acknowledged record is already on disk — the
//! harness (`harness serve`) additionally kills the real process with
//! a real signal mid-load.

use ecl_cc::incremental::IncrementalCc;
use ecl_gpu_sim::FaultRng;
use ecl_serve::state::{ServeState, SNAP_FILE, WAL_FILE};
use ecl_serve::{Client, JobsConfig, ServeConfig, Server};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ecl_serve_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A deterministic edge stream with enough duplicates and merges to
/// exercise both snapshot-covered and WAL-replayed regimes.
fn edge_stream(n: u32, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = FaultRng::new(seed, 0);
    (0..count)
        .map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32))
        .collect()
}

/// The headline resume property, mirroring `engine_batch`'s
/// kill-anywhere test: for EVERY prefix length k of the edge stream, a
/// state killed after k acknowledged edges and resumed answers
/// connectivity and stats identically to an in-memory oracle holding
/// exactly those k edges.
#[test]
fn kill_after_every_acked_edge_then_resume_matches_oracle() {
    let n = 64u32;
    let edges = edge_stream(n, 48, 11);
    let dir = tmpdir("kill_anywhere");
    for k in 0..=edges.len() {
        // snapshot_every=7 so successive kill points land before,
        // on, and after snapshot boundaries.
        let state = ServeState::open_fresh(&dir, n as usize, 7).unwrap();
        let oracle = IncrementalCc::new(n as usize);
        for &(u, v) in &edges[..k] {
            state.add_edge(u, v).unwrap();
            oracle.add_edge(u, v);
        }
        drop(state); // no graceful close: acks are already durable

        let resumed = ServeState::resume(&dir, 7)
            .unwrap_or_else(|e| panic!("resume after {k} acked edges: {e}"));
        let stats = resumed.stats();
        assert_eq!(stats.vertices, n as usize, "k={k}");
        assert_eq!(stats.edges, k as u64, "k={k}: acked-edge count");
        assert_eq!(stats.components, oracle.num_components(), "k={k}");
        for u in 0..n {
            for v in (u + 1)..n {
                assert_eq!(
                    resumed.connected(u, v).unwrap(),
                    oracle.connected(u, v),
                    "k={k}: CONN {u} {v} diverged after resume"
                );
            }
        }
    }
}

#[test]
fn tampered_snapshot_digest_is_refused() {
    let dir = tmpdir("tamper");
    let state = ServeState::open_fresh(&dir, 32, 4).unwrap();
    for &(u, v) in &edge_stream(32, 20, 3) {
        state.add_edge(u, v).unwrap();
    }
    state.snapshot().unwrap();
    drop(state);

    // Corrupt one byte of the snapshot body.
    let snap_path = dir.join(SNAP_FILE);
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let idx = bytes.len() - 2;
    bytes[idx] = bytes[idx].wrapping_add(1);
    std::fs::write(&snap_path, &bytes).unwrap();

    match ServeState::resume(&dir, 4) {
        Err(e) => assert!(e.contains("digest mismatch"), "wrong refusal reason: {e}"),
        Ok(_) => panic!("tampered snapshot was accepted"),
    }
}

#[test]
fn torn_wal_tail_is_discarded_not_fatal() {
    let dir = tmpdir("torn");
    let state = ServeState::open_fresh(&dir, 32, 0).unwrap();
    let edges = edge_stream(32, 12, 5);
    for &(u, v) in &edges {
        state.add_edge(u, v).unwrap();
    }
    drop(state);

    // Simulate a record half-written at the instant of the kill. It was
    // never acknowledged, so discarding it is correct.
    let wal_path = dir.join(WAL_FILE);
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&wal_path)
        .unwrap();
    f.write_all(b"e\t9").unwrap();
    drop(f);

    let resumed = ServeState::resume(&dir, 0).unwrap();
    assert_eq!(resumed.stats().edges, edges.len() as u64);
    let oracle = IncrementalCc::new(32);
    for &(u, v) in &edges {
        oracle.add_edge(u, v);
    }
    assert_eq!(resumed.stats().components, oracle.num_components());
}

fn test_config(dir: PathBuf) -> ServeConfig {
    ServeConfig {
        dir,
        vertices: 1000,
        max_conns: 2,
        snapshot_every: 5,
        idle_timeout_ms: 30_000,
        jobs: JobsConfig {
            workers: 1,
            queue_capacity: 4,
            ..JobsConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// End-to-end smoke over a real socket: protocol surface, malformed
/// frames, BUSY admission, jobs, graceful drain, and resume.
#[test]
fn live_server_protocol_busy_jobs_and_drain_resume() {
    let dir = tmpdir("live");
    let metrics = dir.join("final.prom");
    let server = Server::start(ServeConfig {
        recorder: ecl_obs::Recorder::new(),
        metrics_path: Some(metrics.clone()),
        ..test_config(dir.clone())
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr).unwrap();
    assert!(c.accepted(), "greeting: {}", c.greeting);
    assert!(c.greeting.contains("vertices=1000"), "{}", c.greeting);

    // Happy-path protocol surface.
    assert_eq!(c.request("ADD 1 2").unwrap(), "OK linked=true");
    assert_eq!(c.request("ADD 1 2").unwrap(), "OK linked=false");
    assert_eq!(c.request("CONN 1 2").unwrap(), "OK true");
    assert_eq!(c.request("CONN 1 3").unwrap(), "OK false");
    assert_eq!(c.request("COMP 2").unwrap(), "OK 1");
    assert_eq!(
        c.request("STATS").unwrap(),
        "OK vertices=1000 edges=2 components=999"
    );
    assert_eq!(c.request("PING").unwrap(), "OK pong");

    // Malformed frames get structured errors and the session survives.
    assert!(c.request("FROB").unwrap().starts_with("ERR bad-command"));
    assert!(c.request("ADD 1").unwrap().starts_with("ERR bad-arity"));
    assert!(c.request("ADD x y").unwrap().starts_with("ERR bad-vertex"));
    assert!(c
        .request("ADD 5000 1")
        .unwrap()
        .starts_with("ERR invalid-vertex"));
    assert!(c.request("").unwrap().starts_with("ERR empty"));
    let long = "ADD ".to_string() + &"7".repeat(2000);
    assert!(c.request(&long).unwrap().starts_with("ERR too-long"));
    assert_eq!(c.request("PING").unwrap(), "OK pong", "session survived");

    // Admission control: with max_conns=2 and one slot used, a second
    // client fits and a third is rejected with a structured BUSY line.
    let c2 = Client::connect(&addr).unwrap();
    assert!(c2.accepted());
    let c3 = Client::connect(&addr).unwrap();
    assert!(!c3.accepted());
    assert!(c3.greeting.starts_with("BUSY max-conns"), "{}", c3.greeting);
    drop(c3);
    drop(c2);

    // Batch job through the engine queue to certified completion. The
    // reply carries the request's trace id: `OK job=<id> trace=<hex>`.
    let resp = c.request("SUBMIT smoke cycle:300").unwrap();
    let rest = resp.strip_prefix("OK job=").unwrap();
    let job_id = rest.split_whitespace().next().unwrap().to_string();
    let trace = rest
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.strip_prefix("trace="))
        .unwrap_or_else(|| panic!("SUBMIT reply missing trace=: {resp}"));
    assert_eq!(trace.len(), 16, "trace id is 16 hex chars: {resp}");
    assert!(trace.chars().all(|c| c.is_ascii_hexdigit()), "{resp}");
    let mut status = String::new();
    for _ in 0..200 {
        status = c.request(&format!("JOB {job_id}")).unwrap();
        if status.starts_with("OK done") || status.starts_with("OK failed") {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        status.starts_with("OK done") && status.contains("components=1"),
        "job status: {status}"
    );
    assert!(c
        .request("SUBMIT bad not-a-spec")
        .unwrap()
        .starts_with("ERR bad-spec"));

    // METRICS now returns the ecl-metrics-v2 exposition; the session
    // counters ride along as `ecl_*` series.
    let doc = c.request_metrics(None).unwrap();
    let lines = ecl_obs::parse_expo(&doc).expect("METRICS parses as ecl-metrics-v2");
    let value_of = |name: &str| {
        lines
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("no {name} line in:\n{doc}"))
            .value
    };
    assert!(value_of("ecl_sessions_opened") >= 1.0);
    assert_eq!(value_of("ecl_session_panics"), 0.0);

    // Graceful drain: stop accepting, flush, snapshot, exit cleanly.
    assert_eq!(c.request("SHUTDOWN").unwrap(), "OK draining");
    drop(c);
    server.join().unwrap();

    // The drain-time metrics file is the same exposition plus the
    // recorder totals: the SUBMIT above shows up as `ecl_engine_jobs`.
    let doc = std::fs::read_to_string(&metrics).unwrap();
    let lines = ecl_obs::parse_expo(&doc).expect("metrics file parses as ecl-metrics-v2");
    let has = |name: &str, cmd: Option<&str>| {
        lines.iter().any(|l| {
            l.name == name
                && l.value > 0.0
                && cmd.is_none_or(|c| l.labels.contains(&("cmd".into(), c.into())))
        })
    };
    assert!(has("ecl_sessions_opened", None), "{doc}");
    assert!(has("ecl_request_latency_us_bucket", Some("all")), "{doc}");
    assert!(has("ecl_request_latency_us_count", Some("all")), "{doc}");
    assert!(has("ecl_engine_jobs", None), "{doc}");

    // Resume sees the exact acknowledged state.
    let mut cfg = test_config(dir);
    cfg.resume = true;
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert!(c.accepted());
    assert_eq!(c.request("CONN 1 2").unwrap(), "OK true");
    assert_eq!(
        c.request("STATS").unwrap(),
        "OK vertices=1000 edges=2 components=999"
    );
    assert_eq!(c.request("SHUTDOWN").unwrap(), "OK draining");
    drop(c);
    server.join().unwrap();
}
