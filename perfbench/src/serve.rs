//! `serve-mixed`: an `ecl-cc serve` child over 2^20 vertices under a
//! closed loop of `nproc` connections, each sending its own seeded mix of
//! 20% ADD, 70% CONN and 10% COMP and waiting for every reply.
//!
//! The loop is closed, not open: on this class of shared host an open
//! loop's tail latency swung by more than an order of magnitude between
//! identical runs (README.md). Snapshots are taken every
//! [`SNAPSHOT_EVERY`] acknowledged edges, so every run crosses several
//! snapshot and WAL-compaction cycles. The traced run alternates plain
//! and traced time slices (a span per request) and then replays the
//! run's own request stream in process through the protocol parser, the
//! union-find, the WAL and the durable state.

use crate::host;
use crate::inputs::{Op, RequestStream, SERVE_VERTICES};
use crate::stats::{median, overhead_pct, samples_beyond, window_percentiles};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use ecl_cc::incremental::IncrementalCc;
use ecl_graph::GraphBuilder;
use ecl_serve::wal::Wal;
use ecl_serve::{Client, ServeState};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Server starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// `--snapshot-every` of the server under test.
pub const SNAPSHOT_EVERY: u64 = 4000;
/// Length of the alternating plain/traced slices of a traced run.
const SLICE: Duration = Duration::from_millis(500);
/// Throughput and latency are taken per window of this length, and the
/// reported figure is the median over the run's whole windows.
const WINDOW: Duration = Duration::from_secs(1);
/// How often connection 0 looks for a new snapshot watermark.
const SNAPSHOT_POLL: Duration = Duration::from_millis(250);
/// Time cap of each in-process durable-path replay (one fsync per op).
const REPLAY_CAP: Duration = Duration::from_millis(1500);

/// A running `ecl-cc serve` child; killed and reaped on drop if it has
/// not exited by then.
struct ServerChild {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl ServerChild {
    fn start(ecl_cc: &Path, dir: &Path) -> Result<ServerChild, String> {
        let _ = std::fs::remove_dir_all(dir);
        let mut child = Command::new(ecl_cc)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--vertices", &SERVE_VERTICES.to_string()])
            .args(["--snapshot-every", &SNAPSHOT_EVERY.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", ecl_cc.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerChild {
            child,
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("server stdout: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or(format!("server did not start: {line:?}"))?
            .to_string();
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn connect(&self) -> Result<Client, String> {
        let c = Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        if c.accepted() {
            Ok(c)
        } else {
            Err(format!("server refused the session: {}", c.greeting))
        }
    }

    /// Asks the server to drain over `client` and waits for it to exit.
    fn shutdown(mut self, mut client: Client) -> Result<(), String> {
        let reply = client
            .request("SHUTDOWN")
            .map_err(|e| format!("SHUTDOWN: {e}"))?;
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && reply == "OK draining" => break,
                Ok(Some(status)) => return Err(format!("server exit {status}, reply {reply:?}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not drain within 30 s".to_string()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one connection saw.
struct Conn {
    sent: usize,
    /// (window, latency ns) of every ADD and CONN; a failed request is
    /// recorded as `u64::MAX`.
    add_ns: Vec<(usize, u64)>,
    conn_ns: Vec<(usize, u64)>,
    /// Answered requests per window.
    per_window: Vec<u64>,
    acked: Vec<(u32, u32)>,
    errors: Vec<String>,
    /// Latencies (ns) of the answered requests in plain and in traced
    /// slices.
    plain: Vec<u64>,
    traced: Vec<u64>,
    snapshot_marks: BTreeSet<u64>,
    tracer: Tracer,
}

/// The watermark (covered WAL records) in a snapshot file's header.
fn snapshot_mark(path: &Path) -> Option<u64> {
    let file = std::fs::File::open(path).ok()?;
    let mut header = String::new();
    BufReader::new(file).read_line(&mut header).ok()?;
    header.split('\t').nth(3)?.parse().ok()
}

/// Connection `id`'s closed loop until `deadline`. In a traced run
/// every odd [`SLICE`] records a span per request.
fn closed_loop(
    client: &mut Client,
    id: usize,
    seed: u64,
    load_start: Instant,
    deadline: Instant,
    tracer: Tracer,
    snap_file: Option<PathBuf>,
) -> Conn {
    let mut c = Conn {
        sent: 0,
        add_ns: Vec::new(),
        conn_ns: Vec::new(),
        per_window: Vec::new(),
        acked: Vec::new(),
        errors: Vec::new(),
        plain: Vec::new(),
        traced: Vec::new(),
        snapshot_marks: BTreeSet::new(),
        tracer,
    };
    let mut next_poll = Instant::now();
    for op in RequestStream::new(seed, id, SERVE_VERTICES) {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if let Some(path) = &snap_file {
            if now >= next_poll {
                c.snapshot_marks.extend(snapshot_mark(path));
                next_poll = now + SNAPSHOT_POLL;
            }
        }
        // Windows and slices are aligned on the shared load start, so all
        // connections switch between plain and traced together.
        let in_traced_slice =
            c.tracer.enabled() && (now - load_start).as_nanos() / SLICE.as_nanos() % 2 == 1;
        let line = op.line();
        let t = Instant::now();
        let reply = client.request(&line);
        let d = t.elapsed();
        c.sent += 1;
        if in_traced_slice {
            let name = match op {
                Op::Add(..) => "serve.request.add",
                Op::Conn(..) => "serve.request.conn",
                Op::Comp(..) => "serve.request.comp",
            };
            c.tracer.record(name, t, d, None, id + 1);
        }
        let ok = match (&reply, op) {
            (Ok(r), Op::Add(u, v)) if r.starts_with("OK linked=") => {
                c.acked.push((u, v));
                true
            }
            (Ok(r), Op::Conn(..)) => r == "OK true" || r == "OK false",
            (Ok(r), Op::Comp(..)) => r.strip_prefix("OK ").is_some_and(|v| {
                v.parse::<u32>()
                    .is_ok_and(|v| (v as usize) < SERVE_VERTICES)
            }),
            _ => false,
        };
        // A failed request misses every latency limit.
        let ns = if ok { d.as_nanos() as u64 } else { u64::MAX };
        if ok {
            (if in_traced_slice {
                &mut c.traced
            } else {
                &mut c.plain
            })
            .push(ns);
        }
        let window = (t - load_start).as_nanos() as usize / WINDOW.as_nanos() as usize;
        match op {
            Op::Add(..) => c.add_ns.push((window, ns)),
            Op::Conn(..) => c.conn_ns.push((window, ns)),
            Op::Comp(..) => {}
        }
        if ok {
            if c.per_window.len() <= window {
                c.per_window.resize(window + 1, 0);
            }
            c.per_window[window] += 1;
        } else {
            c.errors.push(format!("conn {id}: {line} -> {reply:?}"));
            if reply.is_err() {
                break;
            }
        }
    }
    c
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let conns = host::nproc();

    let mut setup_ms = Vec::new();
    let mut running: Option<(ServerChild, Vec<Client>)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((server, mut clients)) = running.take() {
            let first = clients.swap_remove(0);
            drop(clients);
            server.shutdown(first)?;
        }
        let dir = args.work_dir.join(format!("serve-{rep}"));
        let t = Instant::now();
        let server = ServerChild::start(&args.ecl_cc, &dir)?;
        let clients = (0..conns)
            .map(|_| server.connect())
            .collect::<Result<Vec<_>, _>>()?;
        let d = t.elapsed();
        tracer.record("serve.start", t, d, None, 0);
        setup_ms.push(d.as_secs_f64() * 1e3);
        running = Some((server, clients));
    }
    let (server, mut clients) = running.expect("at least one setup rep");
    let snap_file = server.dir.join(ecl_serve::state::SNAP_FILE);

    let load_start = Instant::now();
    let deadline = load_start + Duration::from_secs_f64(args.seconds);
    let (epoch, trace_on) = (tracer.epoch(), tracer.enabled());
    let loads: Vec<Conn> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(id, client)| {
                let snap = (id == 0).then(|| snap_file.clone());
                let t = Tracer::with_epoch(epoch, trace_on);
                s.spawn(move || closed_loop(client, id, args.seed, load_start, deadline, t, snap))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let load_s = load_start.elapsed().as_secs_f64();

    // Server-side figures, then the final state, then the drain.
    let pid = server.pid();
    let server_cpu_s = host::process_cpu_s(&pid);
    out.metrics
        .insert("run.peak_rss_mb", host::peak_rss_mb(&pid));
    let stats = clients[0].request("STATS");
    let control = clients.swap_remove(0);
    drop(clients);
    let snapshot_marks: BTreeSet<u64> = loads
        .iter()
        .flat_map(|c| c.snapshot_marks.iter().copied())
        .chain(snapshot_mark(&snap_file))
        .filter(|&m| m > 0)
        .collect();
    server.shutdown(control)?;

    // Correctness: the final component count equals serial ECL-CC over
    // exactly the acknowledged ADDs.
    let acked: Vec<(u32, u32)> = loads.iter().flat_map(|c| c.acked.iter().copied()).collect();
    let mut b = GraphBuilder::with_capacity(SERVE_VERTICES, acked.len());
    for &(u, v) in &acked {
        b.add_edge(u, v);
    }
    b.ensure_vertices(SERVE_VERTICES);
    let reference = ecl_cc::connected_components(&b.build()).num_components();
    let expect = format!(
        "OK vertices={SERVE_VERTICES} edges={} components={reference}",
        acked.len()
    );
    out.attempted += 1;
    out.check(stats.as_deref().ok() == Some(expect.as_str()), || {
        format!("STATS {stats:?}, expected {expect:?}")
    });

    let sent: u64 = loads.iter().map(|c| c.sent as u64).sum();
    out.attempted += sent;
    for c in &loads {
        out.failed += c.errors.len() as u64;
        out.errors.extend(c.errors.iter().take(5).cloned());
    }
    // Whole windows only; a run shorter than one window uses its one
    // partial window.
    let windows = ((load_s / WINDOW.as_secs_f64()) as usize).max(1);
    let mut rate = vec![0u64; windows];
    for c in &loads {
        for (w, n) in c.per_window.iter().take(windows).enumerate() {
            rate[w] += n;
        }
    }
    let window_s = WINDOW.as_secs_f64().min(load_s);
    let rate: Vec<f64> = rate.iter().map(|&n| n as f64 / window_s).collect();
    let add: Vec<(usize, u64)> = loads
        .iter()
        .flat_map(|c| c.add_ns.iter().copied())
        .collect();
    let conn: Vec<(usize, u64)> = loads
        .iter()
        .flat_map(|c| c.conn_ns.iter().copied())
        .collect();
    let us = |samples: &[(usize, u64)], p: f64| {
        let per_window: Vec<f64> = window_percentiles(samples, windows, p)
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect();
        median(&per_window).unwrap_or(0.0)
    };
    let fewest = |samples: &[(usize, u64)]| {
        (0..windows)
            .map(|w| samples.iter().filter(|s| s.0 == w).count())
            .min()
            .unwrap_or(0)
    };
    out.metrics
        .insert("setup_s", median(&setup_ms).unwrap_or(0.0) / 1e3);
    out.metrics
        .insert("serve.rps", median(&rate).unwrap_or(0.0));
    out.metrics.insert("serve.add_p50_us", us(&add, 50.0));
    out.metrics.insert("serve.add_p99_us", us(&add, 99.0));
    out.metrics.insert("serve.conn_p50_us", us(&conn, 50.0));
    out.metrics.insert("op_ms", us(&conn, 50.0) / 1e3);
    out.metrics.insert("serve.conn_p99_us", us(&conn, 99.0));
    out.metrics.insert("serve.add_samples", add.len() as f64);
    out.metrics.insert("serve.conn_samples", conn.len() as f64);
    out.metrics
        .insert("serve.snapshots", snapshot_marks.len() as f64);
    let cpu_per_req_us = server_cpu_s * 1e6 / sent.max(1) as f64;
    out.metrics.insert("serve.cpu_us_per_req", cpu_per_req_us);
    out.metrics.insert("op_cpu_ms", cpu_per_req_us / 1e3);
    out.notes.push(format!(
        "{sent} requests on {conns} connections in {load_s:.2} s, {windows} windows of {window_s} s; \
         req/s per window {:?}",
        rate.iter().map(|r| r.round() as u64).collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "median over windows: ADD n={} p50 {:.1} us p99 {:.1} us (>= {} beyond p99 per window); \
         CONN n={} p50 {:.1} us p99 {:.1} us (>= {} beyond p99 per window)",
        add.len(),
        us(&add, 50.0),
        us(&add, 99.0),
        samples_beyond(fewest(&add), 99.0),
        conn.len(),
        us(&conn, 50.0),
        us(&conn, 99.0),
        samples_beyond(fewest(&conn), 99.0),
    ));
    out.notes.push(format!(
        "{} acknowledged ADDs, {reference} components, {} snapshots seen, server CPU {server_cpu_s:.2} s",
        acked.len(),
        snapshot_marks.len()
    ));

    if tracer.enabled() {
        let plain: Vec<f64> = loads
            .iter()
            .flat_map(|c| c.plain.iter().map(|&ns| ns as f64))
            .collect();
        let traced: Vec<f64> = loads
            .iter()
            .flat_map(|c| c.traced.iter().map(|&ns| ns as f64))
            .collect();
        // Medians: a snapshot stall landing in one kind of slice would
        // otherwise dominate the comparison.
        out.metrics.insert(
            "trace.overhead_pct",
            overhead_pct(
                median(&traced).unwrap_or(0.0),
                median(&plain).unwrap_or(0.0),
            ),
        );
        let plain_mean_ns = plain.iter().sum::<f64>() / plain.len().max(1) as f64;
        let sent_per_conn: Vec<usize> = loads.iter().map(|c| c.sent).collect();
        for c in loads {
            tracer.absorb(c.tracer);
        }
        replay(args, &sent_per_conn, plain_mean_ns, &mut out, tracer)?;
    }
    Ok(out)
}

/// Per-op mean time of `f` over `items`, in nanoseconds.
fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for x in items {
        f(x);
    }
    t.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

/// Replays the run's own request stream (the first `sent[i]` requests of
/// connection `i`) in process through each layer's public functions.
fn replay(
    args: &Args,
    sent: &[usize],
    plain_mean_ns: f64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let ops: Vec<Op> = sent
        .iter()
        .enumerate()
        .flat_map(|(id, &n)| RequestStream::new(args.seed, id, SERVE_VERTICES).take(n))
        .collect();
    let lines: Vec<String> = ops.iter().map(Op::line).collect();
    let adds: Vec<(u32, u32)> = ops
        .iter()
        .filter_map(|o| match *o {
            Op::Add(u, v) => Some((u, v)),
            _ => None,
        })
        .collect();
    let conns: Vec<(u32, u32)> = ops
        .iter()
        .filter_map(|o| match *o {
            Op::Conn(u, v) => Some((u, v)),
            _ => None,
        })
        .collect();
    let comps: Vec<u32> = ops
        .iter()
        .filter_map(|o| match *o {
            Op::Comp(v) => Some(v),
            _ => None,
        })
        .collect();

    let t = Instant::now();
    let parse_ns = mean_ns(&lines, |l| {
        black_box(ecl_serve::parse_request(black_box(l)).is_ok());
    });
    tracer.record("serve.protocol.parse", t, t.elapsed(), None, 0);

    let cc = IncrementalCc::new(SERVE_VERTICES);
    let t = Instant::now();
    let add_ns = mean_ns(&adds, |&(u, v)| {
        black_box(cc.add_edge(u, v));
    });
    let conn_ns = mean_ns(&conns, |&(u, v)| {
        black_box(cc.connected(u, v));
    });
    let comp_ns = mean_ns(&comps, |&v| {
        black_box(cc.component(v));
    });
    tracer.record("core.incremental", t, t.elapsed(), None, 0);

    // The durable path pays an fsync per op when driven by one thread,
    // so it is replayed on a time-capped prefix of the ADDs.
    let dir = args.work_dir.join("serve-replay");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let wal_path = dir.join("replay.wal");
    let wal = Wal::create(&wal_path, SERVE_VERTICES)
        .map_err(|e| format!("{}: {e}", wal_path.display()))?;
    let t = Instant::now();
    let mut appended = 0usize;
    for &(u, v) in &adds {
        if t.elapsed() >= REPLAY_CAP {
            break;
        }
        out.attempted += 1;
        let res = wal.append_edge(u, v);
        out.check(res.is_ok(), || format!("WAL append: {res:?}"));
        appended += 1;
    }
    let wal_us = t.elapsed().as_secs_f64() * 1e6 / appended.max(1) as f64;
    tracer.record("serve.wal.append", t, t.elapsed(), None, 0);
    drop(wal);

    let state_dir = dir.join("state");
    let state = ServeState::open_fresh(&state_dir, SERVE_VERTICES, SNAPSHOT_EVERY)?;
    let t = Instant::now();
    let mut added = 0usize;
    for &(u, v) in &adds {
        if t.elapsed() >= REPLAY_CAP {
            break;
        }
        out.attempted += 1;
        let res = state.add_edge(u, v);
        out.check(res.is_ok(), || format!("state ADD: {res:?}"));
        added += 1;
    }
    let state_add_us = t.elapsed().as_secs_f64() * 1e6 / added.max(1) as f64;
    tracer.record("serve.state.add", t, t.elapsed(), None, 0);
    let mut snapshot_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        out.attempted += 1;
        let res = state.snapshot();
        out.check(res.is_ok(), || format!("snapshot: {res:?}"));
        snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.record("serve.state.snapshot", t, t.elapsed(), None, 0);
    }
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);

    // In-process handler time per request, weighted by the real mix; the
    // rest of the client-observed latency is socket, scheduling and
    // session overhead.
    let n = ops.len().max(1) as f64;
    let handler_ns = parse_ns
        + (adds.len() as f64 * state_add_us * 1e3
            + conns.len() as f64 * conn_ns
            + comps.len() as f64 * comp_ns)
            / n;
    out.metrics.insert("serve.protocol.parse_ns", parse_ns);
    out.metrics.insert("core.incremental.add_ns", add_ns);
    out.metrics.insert("core.incremental.conn_ns", conn_ns);
    out.metrics.insert("serve.wal.append_us", wal_us);
    out.metrics.insert("serve.state.add_us", state_add_us);
    out.metrics.insert(
        "serve.state.snapshot_ms",
        median(&snapshot_ms).unwrap_or(0.0),
    );
    out.metrics.insert(
        "serve.server.residual_us",
        (plain_mean_ns - handler_ns) / 1e3,
    );
    out.metrics.insert("run.round_ms", plain_mean_ns / 1e6);
    out.metrics
        .insert("run.residual_ms", (plain_mean_ns - handler_ns) / 1e6);
    out.notes.push(format!(
        "replay of {} requests: parse {parse_ns:.0} ns, union-find ADD {add_ns:.0} ns CONN {conn_ns:.0} ns \
         COMP {comp_ns:.0} ns; WAL append {wal_us:.1} us ({appended} ops), state ADD {state_add_us:.1} us \
         ({added} ops); handler {:.1} us of {:.1} us mean latency",
        ops.len(),
        handler_ns / 1e3,
        plain_mean_ns / 1e3
    ));
    Ok(())
}
