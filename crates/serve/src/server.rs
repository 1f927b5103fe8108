//! The TCP server: accept loop, session lifecycle, graceful drain.
//!
//! Robustness invariants, each enforced structurally rather than by
//! hoping clients behave:
//!
//! * **Bounded concurrency** — an accepted connection beyond
//!   `max_conns` is answered with a one-line `BUSY` greeting and closed
//!   before a session thread is ever spawned.
//! * **Bounded patience** — every socket gets a read timeout; a session
//!   that stays silent past `idle_timeout_ms` is reaped with a
//!   structured `ERR idle-timeout`. A stalled half-written frame
//!   therefore occupies a slot for a bounded time only.
//! * **Bounded damage** — each session runs under
//!   [`catch_unwind`], so a panicking session increments a counter and
//!   dies alone; the accept loop and every other session keep going.
//! * **Bounded lines** — input is read in [`READ_CHUNK`]-byte chunks
//!   and split on newlines with a hard [`MAX_LINE_BYTES`] cap; oversized
//!   frames are discarded to the next newline and answered with
//!   `ERR too-long`.
//! * **Graceful drain** — `SHUTDOWN` (or [`Server::stop`]) wakes and
//!   stops the blocking accept loop, lets in-flight sessions finish
//!   their current request, drains the job queue, takes a final
//!   snapshot, and writes the metrics file. Exit is clean; a SIGKILL
//!   instead loses nothing acknowledged (see [`crate::state`]).
//!
//! Every line the server writes (greeting, reply, error, the whole
//! multi-line `METRICS` reply) goes out in one `write_all`: with
//! `TCP_NODELAY` each write is its own segment, so a reply split over
//! two writes costs two.

use crate::jobs::{JobRunner, JobsConfig};
use crate::protocol::{parse_request, Request, RequestError, MAX_LINE_BYTES, PROTOCOL_VERSION};
use crate::state::ServeState;
use crate::telemetry::ServeTelemetry;
use ecl_obs::durable::write_atomic;
use ecl_obs::{Expo, FlightRecorder, Recorder, TraceCtx, TraceEvent, PID_ENGINE};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// State directory (WAL + snapshots).
    pub dir: PathBuf,
    /// Vertex-space size for a fresh start (ignored on resume: the WAL
    /// meta line pins it).
    pub vertices: usize,
    /// Resume from an existing state directory instead of truncating.
    pub resume: bool,
    /// Concurrent-session cap; excess connections get `BUSY`.
    pub max_conns: usize,
    /// Reap a session silent for this long, milliseconds.
    pub idle_timeout_ms: u64,
    /// Snapshot every N durable records (0 = only on graceful drain).
    pub snapshot_every: u64,
    /// Batch-job subsystem tuning.
    pub jobs: JobsConfig,
    /// Observability recorder (disabled by default).
    pub recorder: Recorder,
    /// Where to write the final `ecl-metrics-v2` exposition on drain, if
    /// anywhere: the `METRICS` counters and histograms plus the
    /// recorder's metric totals.
    pub metrics_path: Option<PathBuf>,
    /// Live-telemetry recording (latency histograms + sliding windows
    /// behind `METRICS`). On by default; the overhead harness A/Bs this
    /// flag, which is why it exists at all.
    pub telemetry: bool,
    /// Directory flight-recorder postmortems are dumped into (defaults
    /// to `dir`).
    pub flight_dir: Option<PathBuf>,
    /// Write an `ecl-metrics-v2` exposition to `dir/metrics.prom` every
    /// N seconds (0 = off).
    pub metrics_every: u64,
    /// Export the Chrome trace here on graceful drain (needs an enabled
    /// recorder).
    pub trace_path: Option<PathBuf>,
    /// Forced-fault knob: poison the WAL once N records are durable
    /// (0 = off). Exists so CI can exercise the flight recorder's
    /// WAL-poison dump without real disk failures.
    pub poison_wal_after: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            dir: PathBuf::from("serve-state"),
            vertices: 1 << 20,
            resume: false,
            max_conns: 256,
            idle_timeout_ms: 10_000,
            snapshot_every: 10_000,
            jobs: JobsConfig::default(),
            recorder: Recorder::disabled(),
            metrics_path: None,
            telemetry: true,
            flight_dir: None,
            metrics_every: 0,
            trace_path: None,
            poison_wal_after: 0,
        }
    }
}

/// Operational counters, exposed by `METRICS` and the final metrics
/// file. Monotonic within one server lifetime; deliberately NOT
/// persisted (unlike connectivity state).
#[derive(Default)]
struct Counters {
    sessions_opened: AtomicU64,
    active_sessions: AtomicU64,
    rejected_busy: AtomicU64,
    malformed: AtomicU64,
    idle_timeouts: AtomicU64,
    session_panics: AtomicU64,
}

struct Shared {
    state: ServeState,
    jobs: JobRunner,
    counters: Counters,
    recorder: Recorder,
    telemetry: ServeTelemetry,
    flight: FlightRecorder,
    flight_dir: PathBuf,
    shutdown: AtomicBool,
    /// The listener's bound address, which [`Shared::begin_drain`]
    /// connects to.
    addr: SocketAddr,
    cfg: ServeConfig,
}

impl Shared {
    /// Starts the graceful drain (idempotent): raises the shutdown flag,
    /// then wakes the accept loop, which blocks in `accept()`, by
    /// connecting to the server's own address. The accept loop drops
    /// whatever it accepts once the flag is up, this connection
    /// included. An unspecified bind IP (`0.0.0.0`, `::`) is not a
    /// connectable destination, so the wake goes to loopback instead.
    fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// The `METRICS` exposition over `window`, with the operational
    /// counters. There is deliberately no request counter: `METRICS`
    /// would bump it, which would break byte-stability across two
    /// consecutive idle calls.
    fn expo(&self, window: (&str, u64)) -> Expo {
        let c = &self.counters;
        let counters = [
            ("sessions_opened", c.sessions_opened.load(Ordering::Relaxed)),
            ("sessions_active", c.active_sessions.load(Ordering::SeqCst)),
            ("rejected_busy", c.rejected_busy.load(Ordering::Relaxed)),
            ("malformed", c.malformed.load(Ordering::Relaxed)),
            ("idle_timeouts", c.idle_timeouts.load(Ordering::Relaxed)),
            ("session_panics", c.session_panics.load(Ordering::Relaxed)),
            ("queue_depth", self.jobs.queue_depth() as u64),
        ];
        self.telemetry.expo(&counters, window)
    }
}

/// A running server. Drop does not stop it; call [`Server::stop`] (or
/// send `SHUTDOWN` over the wire) and then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    metrics_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Opens (or resumes) the state, starts the job workers and the
    /// accept loop, and returns once the listener is bound.
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        let state = if cfg.resume {
            ServeState::resume(&cfg.dir, cfg.snapshot_every)?
        } else {
            ServeState::open_fresh(&cfg.dir, cfg.vertices, cfg.snapshot_every)?
        };
        state.set_debug_poison_after(cfg.poison_wal_after);
        let flight = FlightRecorder::default();
        let flight_dir = cfg.flight_dir.clone().unwrap_or_else(|| cfg.dir.clone());
        let jobs = JobRunner::start_with(
            cfg.jobs.clone(),
            cfg.recorder.clone(),
            Some(flight.clone()),
            Some(flight_dir.clone()),
        );
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;

        let shared = Arc::new(Shared {
            state,
            jobs,
            counters: Counters::default(),
            recorder: cfg.recorder.clone(),
            telemetry: ServeTelemetry::new(cfg.telemetry),
            flight,
            flight_dir,
            shutdown: AtomicBool::new(false),
            addr,
            cfg,
        });
        let metrics_thread = if shared.cfg.metrics_every > 0 {
            let s = Arc::clone(&shared);
            Some(std::thread::spawn(move || metrics_dump_loop(s)))
        } else {
            None
        };
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(Server {
            shared,
            accept_thread: Mutex::new(Some(accept_thread)),
            metrics_thread: Mutex::new(metrics_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests a graceful drain (idempotent, non-blocking).
    pub fn stop(&self) {
        self.shared.begin_drain();
    }

    /// Waits for the drain to complete. Returns an error if the final
    /// snapshot or metrics file could not be written.
    pub fn join(self) -> Result<(), String> {
        if let Some(h) = self.accept_thread.lock().unwrap().take() {
            h.join().map_err(|_| "accept loop panicked".to_string())?;
        }
        // The accept loop has drained sessions and jobs; persist.
        self.shared.state.snapshot()?;
        if let Some(path) = &self.shared.cfg.metrics_path {
            let mut e = self.shared.expo(("10s", 10_000));
            e.recorder(&self.shared.recorder);
            write_atomic(path, e.finish().as_bytes())
                .map_err(|e| format!("write metrics {}: {e}", path.display()))?;
        }
        let r = &self.shared.recorder;
        if r.is_enabled() {
            if let Some(path) = &self.shared.cfg.trace_path {
                let md = [("tool".to_string(), "ecl-serve".to_string())];
                std::fs::write(path, r.chrome_trace_json(&md))
                    .map_err(|e| format!("write trace {}: {e}", path.display()))?;
            }
        }
        if let Some(h) = self.metrics_thread.lock().unwrap().take() {
            let _ = h.join();
        }
        Ok(())
    }
}

/// `--metrics-every N`: writes the current `ecl-metrics-v2` exposition
/// to `dir/metrics.prom` (write-temp-rename, so scrapers never see a
/// torn file) every N seconds until the server drains.
fn metrics_dump_loop(shared: Arc<Shared>) {
    let period = Duration::from_secs(shared.cfg.metrics_every.max(1));
    let path = shared.cfg.dir.join("metrics.prom");
    let dump = || {
        let _ = write_atomic(&path, shared.expo(("10s", 10_000)).finish().as_bytes());
    };
    let mut last = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
        if last.elapsed() >= period {
            last = Instant::now();
            dump();
        }
    }
    // A final dump on drain, so short-lived servers leave one behind.
    dump();
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // Checked after `accept` returns: the drain's wake-up connection
        // (and anything else that raced it) is dropped unserved.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                sessions.retain(|h| !h.is_finished());
                let c = &shared.counters;
                if c.active_sessions.load(Ordering::SeqCst) >= shared.cfg.max_conns as u64 {
                    c.rejected_busy.fetch_add(1, Ordering::Relaxed);
                    reject_busy(stream, &shared);
                    continue;
                }
                c.sessions_opened.fetch_add(1, Ordering::Relaxed);
                c.active_sessions.fetch_add(1, Ordering::SeqCst);
                let session_shared = Arc::clone(&shared);
                sessions.push(std::thread::spawn(move || {
                    // Panic containment: a poisoned session must never
                    // take the server (or the counter) down with it.
                    let sess = Arc::clone(&session_shared);
                    let outcome =
                        catch_unwind(AssertUnwindSafe(move || run_session(stream, &sess)));
                    if outcome.is_err() {
                        session_shared
                            .counters
                            .session_panics
                            .fetch_add(1, Ordering::Relaxed);
                        // A contained panic is exactly what the flight
                        // recorder exists for: dump the recent past.
                        session_shared.flight.instant(
                            "serve",
                            "session-panic",
                            "session thread panicked",
                        );
                        let _ = session_shared
                            .flight
                            .dump_to(&session_shared.flight_dir, "session-panic");
                    }
                    session_shared
                        .counters
                        .active_sessions
                        .fetch_sub(1, Ordering::SeqCst);
                }));
            }
            // Transient failures (e.g. out of descriptors): back off
            // rather than spin.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Drain: no new sessions; the ones in flight notice the shutdown
    // flag at their next request boundary and close.
    for h in sessions {
        let _ = h.join();
    }
    shared.jobs.shutdown();
}

/// Over-capacity greeting: structured, one line, immediate close.
fn reject_busy(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let busy = format!(
        "BUSY max-conns server at capacity ({})",
        shared.cfg.max_conns
    );
    let _ = send_line(&mut stream, busy);
}

/// Writes `line` and its newline in one `write_all`.
fn send_line(stream: &mut TcpStream, mut line: String) -> io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Bytes requested per `read()`: a whole pipelined burst of requests
/// arrives in one syscall.
const READ_CHUNK: usize = 4096;

/// Socket read poll granularity: how often a blocked session read wakes
/// to check the idle deadline and the drain flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// What [`read_line`] hands the session loop.
enum ReadOutcome {
    Line(String),
    TooLong,
    IdleTimeout,
    Disconnected,
    Draining,
}

/// Returns the next request line from `pending`, reading more in
/// [`READ_CHUNK`]-byte chunks as needed. Lines already buffered (a
/// pipelining client) are served without a syscall. A line longer than
/// [`MAX_LINE_BYTES`] is discarded up to its newline and reported once
/// as `TooLong`; buffered bytes never exceed the cap plus one chunk.
/// CRLF is trimmed and non-UTF-8 bytes are decoded lossily. The session
/// is reaped once no complete line arrives within the idle timeout.
fn read_line(stream: &mut TcpStream, pending: &mut Vec<u8>, shared: &Shared) -> ReadOutcome {
    let idle_deadline = Instant::now() + Duration::from_millis(shared.cfg.idle_timeout_ms);
    let mut too_long = false;
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        // A drain refuses the next request even when it is already
        // buffered: sessions stop at a request boundary.
        if shared.shutdown.load(Ordering::SeqCst) {
            return ReadOutcome::Draining;
        }
        if let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            // One chunk can carry a whole over-long line.
            let outcome = if too_long || pos > MAX_LINE_BYTES {
                ReadOutcome::TooLong
            } else {
                let text = String::from_utf8_lossy(&pending[..pos]);
                ReadOutcome::Line(text.trim_end_matches('\r').to_string())
            };
            pending.drain(..=pos);
            return outcome;
        }
        if pending.len() > MAX_LINE_BYTES {
            // Discard until the newline arrives, then report once.
            too_long = true;
            pending.clear();
        }
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Disconnected,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= idle_deadline {
                    return ReadOutcome::IdleTimeout;
                }
            }
            Err(_) => return ReadOutcome::Disconnected,
        }
    }
}

fn run_session(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(2_000)));
    let _ = stream.set_nodelay(true);

    let stats = shared.state.stats();
    let greeting = format!("{PROTOCOL_VERSION} OK vertices={}", stats.vertices);
    if send_line(&mut stream, greeting).is_err() {
        return;
    }

    let mut pending: Vec<u8> = Vec::new();
    loop {
        let outcome = read_line(&mut stream, &mut pending, shared);
        let line = match outcome {
            ReadOutcome::Line(l) => l,
            ReadOutcome::TooLong => {
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                let e = RequestError::new(
                    "too-long",
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                if send_line(&mut stream, e.to_line()).is_err() {
                    return;
                }
                continue;
            }
            ReadOutcome::IdleTimeout => {
                shared
                    .counters
                    .idle_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                let e = RequestError::new(
                    "idle-timeout",
                    format!("no complete request in {} ms", shared.cfg.idle_timeout_ms),
                );
                let _ = send_line(&mut stream, e.to_line());
                return;
            }
            ReadOutcome::Disconnected => return,
            ReadOutcome::Draining => return,
        };

        let t_req = Instant::now();
        let parsed = parse_request(&line);
        // Latency class for the telemetry plane. `METRICS` is `None` —
        // recording the observation would make two consecutive idle
        // expositions differ.
        let class = match &parsed {
            Ok(Request::Add(..)) => Some("add"),
            Ok(Request::Conn(..)) => Some("conn"),
            Ok(Request::Comp(..)) => Some("comp"),
            Ok(Request::Stats) => Some("stats"),
            Ok(Request::Submit { .. }) => Some("submit"),
            Ok(Request::Job(..)) => Some("job"),
            Ok(Request::Ping) => Some("ping"),
            Ok(Request::Metrics(_)) => None,
            Ok(_) | Err(_) => Some("other"),
        };
        let handled = match parsed {
            Err(e) => {
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                Handled::Reply(e.to_line())
            }
            Ok(req) => handle_request(shared, req),
        };
        if let Some(class) = class {
            shared
                .telemetry
                .record(class, t_req.elapsed().as_micros() as u64);
        }
        match handled {
            Handled::Reply(r) => {
                if send_line(&mut stream, r).is_err() {
                    return;
                }
            }
            Handled::Close(r) => {
                let _ = send_line(&mut stream, r);
                return;
            }
        }
    }
}

enum Handled {
    Reply(String),
    Close(String),
}

fn handle_request(shared: &Arc<Shared>, req: Request) -> Handled {
    let render = |r: Result<String, RequestError>| match r {
        Ok(ok) => Handled::Reply(ok),
        Err(e) => Handled::Reply(e.to_line()),
    };
    match req {
        Request::Add(u, v) => {
            let res = shared.state.add_edge(u, v);
            if let Err(e) = &res {
                if e.kind == "io" {
                    // A WAL that cannot acknowledge writes is the most
                    // serious fault the server survives — dump the
                    // flight rings while the evidence is fresh.
                    shared.flight.instant(
                        "serve",
                        "wal-poison",
                        &format!("ADD {u} {v}: {}", e.detail),
                    );
                    let _ = shared.flight.dump_to(&shared.flight_dir, "wal-poison");
                }
            }
            render(res.map(|linked| format!("OK linked={linked}")))
        }
        Request::Conn(u, v) => render(shared.state.connected(u, v).map(|c| format!("OK {c}"))),
        Request::Comp(v) => render(shared.state.component(v).map(|r| format!("OK {r}"))),
        Request::Stats => {
            let s = shared.state.stats();
            Handled::Reply(format!(
                "OK vertices={} edges={} components={}",
                s.vertices, s.edges, s.components
            ))
        }
        Request::Metrics(win) => {
            if shared.recorder.is_enabled() {
                shared.recorder.record(TraceEvent::counter(
                    "serve.queue_depth",
                    "serve",
                    PID_ENGINE,
                    shared.recorder.now_us(),
                    shared.jobs.queue_depth() as f64,
                ));
            }
            let text = shared.expo((win.label(), win.ms())).finish();
            // `lines=N` counts every exposition line (header included);
            // the client reads exactly N more lines after this one.
            let body = text.trim_end_matches('\n');
            Handled::Reply(format!(
                "OK ecl-metrics-v2 lines={}\n{body}",
                body.lines().count()
            ))
        }
        Request::Submit { name, spec } => {
            // Every SUBMIT mints a trace root; the job/ladder/kernel
            // spans below it join the same tree, and the client gets
            // the trace id back for correlation.
            let ctx = TraceCtx::root();
            let t0 = shared.recorder.now_us();
            let res = shared.jobs.submit_traced(&spec, Some(ctx));
            if shared.recorder.is_enabled() {
                let dur = shared.recorder.now_us().saturating_sub(t0).max(1);
                let ev =
                    TraceEvent::span(&format!("submit:{name}"), "serve", PID_ENGINE, 0, t0, dur)
                        .arg_str("spec", &spec);
                shared.recorder.record(ecl_obs::tag_span(ev, &ctx, None));
            }
            render(res.map(|id| format!("OK job={id} trace={}", TraceCtx::hex(ctx.trace_id))))
        }
        Request::Job(id) => match shared.jobs.status(id) {
            Some(status) => Handled::Reply(status.to_line()),
            None => Handled::Reply(
                RequestError::new("no-such-job", format!("job {id} was never submitted")).to_line(),
            ),
        },
        Request::Ping => Handled::Reply("OK pong".to_string()),
        Request::Quit => Handled::Close("OK bye".to_string()),
        Request::Shutdown => {
            shared.begin_drain();
            Handled::Close("OK draining".to_string())
        }
    }
}
