//! Malformed-frame corpus for the ECL/1 line protocol.
//!
//! One live server, one table of hostile frames: every `ERR <kind>`
//! branch in the server must be reachable, reply with its structured
//! kind, and leave the session alive (verified with a `PING` probe
//! after each frame). The corpus includes the byte-level cases a
//! line-oriented parser gets wrong first — over-length lines and
//! non-UTF-8 bytes — plus the session- and job-layer errors
//! (`BUSY max-conns`, `queue-full`, `no-such-job`, `bad-graph`,
//! `draining`, `idle-timeout`) that only exist above the parser.

use ecl_serve::{Client, JobsConfig, ServeConfig, Server};
use std::path::PathBuf;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ecl_proto_corpus_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn config(dir: PathBuf) -> ServeConfig {
    ServeConfig {
        dir,
        vertices: 100,
        max_conns: 2,
        snapshot_every: 0,
        idle_timeout_ms: 30_000,
        jobs: JobsConfig {
            workers: 1,
            queue_capacity: 1,
            ..JobsConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Every parser-level `ERR` kind, exhaustively: the reply must carry the
/// structured kind and the session must answer the next request.
#[test]
fn parser_corpus_hits_every_err_kind_and_session_survives() {
    let dir = tmpdir("parser");
    let server = Server::start(config(dir)).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert!(c.accepted(), "{}", c.greeting);

    // (frame, expected kind) — one entry per rejection branch.
    let corpus: &[(&str, &str)] = &[
        // empty: nothing but whitespace.
        ("", "empty"),
        ("   ", "empty"),
        ("\t\t", "empty"),
        // bad-command: unknown verbs, wrong case, punctuation soup.
        ("FROB", "bad-command"),
        ("add 1 2", "bad-command"),
        ("Ping", "bad-command"),
        ("ADD;DROP TABLE edges", "bad-command"),
        ("\u{1F980} 1 2", "bad-command"),
        // bad-arity: too few and too many, for each arity class.
        ("ADD 1", "bad-arity"),
        ("ADD 1 2 3", "bad-arity"),
        ("CONN 1", "bad-arity"),
        ("COMP", "bad-arity"),
        ("COMP 1 2", "bad-arity"),
        ("STATS now", "bad-arity"),
        ("METRICS 10s extra", "bad-arity"),
        ("METRICS 1s 10s 60s", "bad-arity"),
        ("SUBMIT onlyname", "bad-arity"),
        ("JOB", "bad-arity"),
        ("PING PING", "bad-arity"),
        ("QUIT 0", "bad-arity"),
        ("SHUTDOWN --force", "bad-arity"),
        // bad-vertex: non-numeric, negative, overflowing.
        ("ADD x 2", "bad-vertex"),
        ("ADD -1 2", "bad-vertex"),
        ("ADD 1 99999999999999999999", "bad-vertex"),
        ("CONN 1 1.5", "bad-vertex"),
        ("COMP v0", "bad-vertex"),
        // bad-job-id: JOB wants a u64.
        ("JOB abc", "bad-job-id"),
        ("JOB -1", "bad-job-id"),
        ("JOB 1.0", "bad-job-id"),
        // invalid-vertex: parses fine, out of the structure's range.
        ("ADD 100 0", "invalid-vertex"),
        ("CONN 0 4000000", "invalid-vertex"),
        ("COMP 100", "invalid-vertex"),
        // bad-spec: SUBMIT grammar rejects at the submission point.
        ("SUBMIT j not-a-spec", "bad-spec"),
        ("SUBMIT j gnm:definitely:not:numbers", "bad-spec"),
        // no-such-job: well-formed id that was never issued.
        ("JOB 424242", "no-such-job"),
        // unknown-window: METRICS only knows 1s / 10s / 60s.
        ("METRICS please", "unknown-window"),
        ("METRICS 5s", "unknown-window"),
        ("METRICS 10S", "unknown-window"),
    ];
    for &(frame, kind) in corpus {
        let reply = c.request(frame).unwrap();
        assert!(
            reply.starts_with(&format!("ERR {kind}")),
            "frame {frame:?}: expected ERR {kind}, got {reply:?}"
        );
        assert_eq!(
            c.request("PING").unwrap(),
            "OK pong",
            "session died after {frame:?}"
        );
    }

    assert_eq!(c.request("SHUTDOWN").unwrap(), "OK draining");
    drop(c);
    server.join().unwrap();
}

/// Byte-level hostility: over-length lines (with and without interior
/// structure) and non-UTF-8 bytes. The reader must bound memory, reply
/// `ERR too-long` once per oversized line, lossily decode invalid UTF-8
/// into a structured parser error, and keep the session usable.
#[test]
fn over_length_and_non_utf8_frames_get_structured_errors() {
    let dir = tmpdir("bytes");
    let server = Server::start(config(dir)).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert!(c.accepted());

    // Just over the 1024-byte line cap.
    let long = format!("ADD {} 1", "7".repeat(1100));
    assert!(c.request(&long).unwrap().starts_with("ERR too-long"));
    assert_eq!(c.request("PING").unwrap(), "OK pong");

    // Vastly over it — a multi-read flood in one line.
    let flood = "A".repeat(64 * 1024);
    assert!(c.request(&flood).unwrap().starts_with("ERR too-long"));
    assert_eq!(c.request("PING").unwrap(), "OK pong");

    // Non-UTF-8 bytes: a complete line of invalid sequences. The server
    // decodes lossily, so this reaches the parser as replacement runes
    // and fails as an unknown command — never a panic, never a hang.
    c.send_raw(b"\xff\xfe\x80garbage \x9f 1 2\n").unwrap();
    let reply = c.read_line().unwrap();
    assert!(
        reply.starts_with("ERR bad-command"),
        "non-UTF-8 frame: {reply:?}"
    );
    assert_eq!(c.request("PING").unwrap(), "OK pong");

    // Non-UTF-8 bytes inside an argument position.
    c.send_raw(b"ADD \xc3\x28 2\n").unwrap();
    let reply = c.read_line().unwrap();
    assert!(
        reply.starts_with("ERR bad-vertex"),
        "invalid-UTF-8 vertex: {reply:?}"
    );

    // A torn frame (no newline) followed by the rest: reassembled into
    // one request, not treated as two.
    c.send_raw(b"CONN 1").unwrap();
    std::thread::sleep(Duration::from_millis(60));
    c.send_raw(b" 2\n").unwrap();
    assert_eq!(c.read_line().unwrap(), "OK false");

    assert_eq!(c.request("SHUTDOWN").unwrap(), "OK draining");
    drop(c);
    server.join().unwrap();
}

/// Session- and job-layer error branches: `BUSY max-conns` admission,
/// `queue-full` overflow, `bad-graph` from a spec that parses but cannot
/// build, and the `idle-timeout` reap.
#[test]
fn session_and_job_layer_err_branches() {
    let dir = tmpdir("layers");
    let server = Server::start(config(dir)).unwrap();
    let addr = server.local_addr().to_string();

    // BUSY max-conns: cap 2, third connection refused with a greeting.
    let mut c = Client::connect(&addr).unwrap();
    assert!(c.accepted());
    let c2 = Client::connect(&addr).unwrap();
    assert!(c2.accepted());
    let c3 = Client::connect(&addr).unwrap();
    assert!(c3.greeting.starts_with("BUSY max-conns"), "{}", c3.greeting);
    drop(c3);
    drop(c2);

    // queue-full: capacity 1, one slow worker — a burst must overflow.
    let mut rejected = false;
    for i in 0..20 {
        let reply = c
            .request(&format!("SUBMIT burst{i} gnm:2000:6000:1"))
            .unwrap();
        if reply.starts_with("ERR queue-full") {
            rejected = true;
            break;
        }
        assert!(reply.starts_with("OK job="), "{reply}");
    }
    assert!(rejected, "queue never filled");

    // bad-graph: the spec grammar accepts `file:` but the build fails;
    // the error surfaces through JOB status, not SUBMIT.
    let id = loop {
        let reply = c
            .request("SUBMIT ghost file:/nonexistent/ghost.el")
            .unwrap();
        // The reply carries `OK job=<id> trace=<hex>`; keep the id.
        if let Some(rest) = reply.strip_prefix("OK job=") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
        // Queue still saturated from the burst above; let it drain.
        assert!(reply.starts_with("ERR queue-full"), "{reply}");
        std::thread::sleep(Duration::from_millis(25));
    };
    let mut status = String::new();
    for _ in 0..400 {
        status = c.request(&format!("JOB {id}")).unwrap();
        if status.starts_with("OK failed") || status.starts_with("OK done") {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        status.starts_with("OK failed kind=bad-graph"),
        "ghost job: {status}"
    );

    assert_eq!(c.request("SHUTDOWN").unwrap(), "OK draining");
    drop(c);
    server.join().unwrap();
}

/// `idle-timeout`: a session that goes silent past the deadline is
/// reaped with a structured error line, not a bare disconnect.
#[test]
fn idle_session_is_reaped_with_structured_error() {
    let dir = tmpdir("idle");
    let mut cfg = config(dir);
    cfg.idle_timeout_ms = 200;
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr().to_string();

    let mut idle = Client::connect(&addr).unwrap();
    assert!(idle.accepted());
    let reply = idle.read_line().unwrap();
    assert!(
        reply.starts_with("ERR idle-timeout"),
        "idle session reply: {reply:?}"
    );
    drop(idle);

    let mut c = Client::connect(&addr).unwrap();
    assert!(c.accepted());
    assert_eq!(c.request("SHUTDOWN").unwrap(), "OK draining");
    drop(c);
    server.join().unwrap();
}

/// The grown `METRICS` reply: a well-formed `ecl-metrics-v2` document
/// that parses under the exposition grammar, carries the windowed
/// series for the requested window, and — because the exposition
/// excludes volatile counters and `METRICS` itself is never recorded —
/// is byte-stable across two consecutive idle calls.
#[test]
fn metrics_exposition_is_well_formed_and_idle_stable() {
    let dir = tmpdir("metrics");
    let server = Server::start(config(dir)).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert!(c.accepted());

    // Some traffic so latency series exist.
    for i in 0..20u32 {
        assert!(c
            .request(&format!("ADD {} {}", i % 50, (i + 1) % 50))
            .unwrap()
            .starts_with("OK"));
        assert_eq!(c.request("PING").unwrap(), "OK pong");
    }

    for win in [None, Some("1s"), Some("10s"), Some("60s")] {
        let doc = c.request_metrics(win).unwrap();
        let lines = ecl_obs::parse_expo(&doc)
            .unwrap_or_else(|e| panic!("window {win:?}: bad exposition: {e}"));
        assert!(!lines.is_empty(), "window {win:?}: empty exposition");
        let label = win.unwrap_or("10s");
        assert!(
            lines.iter().any(|l| {
                l.name == "ecl_window_qps"
                    && l.labels.iter().any(|(k, v)| k == "window" && v == label)
            }),
            "window {win:?}: no ecl_window_qps{{window={label}}} line"
        );
        // Round trip: the parsed document re-renders byte-identically.
        assert_eq!(ecl_obs::render_expo(&lines), doc, "window {win:?}");
    }

    // Idle byte-stability. An epoch boundary between the two calls can
    // legitimately change windowed stats, so allow a couple of retries —
    // but a pair taken back-to-back must eventually match exactly.
    let mut stable = false;
    for _ in 0..5 {
        let a = c.request_metrics(Some("60s")).unwrap();
        let b = c.request_metrics(Some("60s")).unwrap();
        if a == b {
            stable = true;
            break;
        }
    }
    assert!(stable, "idle METRICS never byte-stable across two calls");

    assert_eq!(c.request("SHUTDOWN").unwrap(), "OK draining");
    drop(c);
    server.join().unwrap();
}

/// `draining` over the wire: while the server winds down after SHUTDOWN,
/// an in-flight session's SUBMIT gets the structured refusal rather than
/// a hang or an unexplained disconnect.
#[test]
fn submit_after_shutdown_is_refused_as_draining() {
    let dir = tmpdir("draining");
    let server = Server::start(config(dir)).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert!(c.accepted());
    let mut c2 = Client::connect(&addr).unwrap();
    assert!(c2.accepted());

    assert_eq!(c.request("SHUTDOWN").unwrap(), "OK draining");
    drop(c);
    // The second session was admitted before the drain began; its
    // submissions must now be refused, structured, without a hang.
    // The drain may already have torn the session down — an `Err` here
    // (EOF / reset / broken pipe) is a prompt close, not a hang.
    if let Ok(r) = c2.request("SUBMIT late path:50") {
        assert!(
            r.starts_with("ERR draining") || r.starts_with("ERR queue-full"),
            "late submit: {r:?}"
        );
    }
    drop(c2);
    server.join().unwrap();
}

/// Framing over chunked reads: a pipelined burst, an over-long line and
/// a request sharing one write, and a request split across the server's
/// 4096-byte read boundary. Each request is answered exactly once, in
/// order.
#[test]
fn pipelined_and_chunk_straddling_frames_are_answered_once_in_order() {
    let dir = tmpdir("framing");
    let server = Server::start(config(dir)).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert!(c.accepted());

    // 50 requests in one write; STATS after each ADD pins the order.
    let burst: String = (0..25)
        .map(|i| format!("ADD {i} {}\nSTATS\n", i + 1))
        .collect();
    c.send_raw(burst.as_bytes()).unwrap();
    for i in 0..25 {
        assert_eq!(c.read_line().unwrap(), "OK linked=true", "ADD #{i}");
        assert_eq!(
            c.read_line().unwrap(),
            format!("OK vertices=100 edges={} components={}", i + 1, 99 - i),
            "STATS #{i}"
        );
    }

    // An over-long line and the next request in the same write: one
    // `ERR too-long`, then the request behind it.
    let frame = format!("ADD {} 1\nPING\n", "7".repeat(1100));
    c.send_raw(frame.as_bytes()).unwrap();
    let reply = c.read_line().unwrap();
    assert!(reply.starts_with("ERR too-long"), "{reply:?}");
    assert_eq!(c.read_line().unwrap(), "OK pong");

    // 819 five-byte PINGs end at byte 4095, so the ADD after them
    // straddles the 4096-byte chunk boundary.
    let mut frame = "PING\n".repeat(819);
    frame.push_str("ADD 60 61\n");
    c.send_raw(frame.as_bytes()).unwrap();
    for i in 0..819 {
        assert_eq!(c.read_line().unwrap(), "OK pong", "PING #{i}");
    }
    assert_eq!(c.read_line().unwrap(), "OK linked=true");
    assert_eq!(
        c.request("STATS").unwrap(),
        "OK vertices=100 edges=26 components=74"
    );

    assert_eq!(c.request("SHUTDOWN").unwrap(), "OK draining");
    drop(c);
    server.join().unwrap();
}

/// A request pipelined behind `SHUTDOWN` is never executed: the drain
/// stops the session at the request boundary, so the client sees
/// `OK draining` and then EOF.
#[test]
fn request_pipelined_after_shutdown_is_not_executed() {
    let dir = tmpdir("shutdown_pipelined");
    let server = Server::start(config(dir)).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert!(c.accepted());
    c.send_raw(b"SHUTDOWN\nPING\n").unwrap();
    assert_eq!(c.read_line().unwrap(), "OK draining");
    match c.read_line() {
        Err(_) => {}
        Ok(line) => panic!("request after SHUTDOWN was served: {line:?}"),
    }
    drop(c);
    server.join().unwrap();
}

/// `Server::stop` with no client connected wakes the blocking accept
/// loop, on a loopback and on an unspecified bind address alike.
#[test]
fn stop_wakes_an_idle_accept_loop() {
    for (tag, bind) in [("stop_loopback", "127.0.0.1:0"), ("stop_any", "0.0.0.0:0")] {
        let mut cfg = config(tmpdir(tag));
        cfg.addr = bind.to_string();
        let server = Server::start(cfg).unwrap();
        server.stop();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(server.join()).unwrap());
        let joined = rx
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("{bind}: join did not return within 2 s"));
        joined.unwrap();
    }
}
