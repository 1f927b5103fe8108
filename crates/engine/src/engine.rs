//! The batch engine: worker pool, retry loop, breaker routing, and
//! checkpointing, glued around the certified fallback ladder.
//!
//! Lifecycle of one `run_batch` call:
//!
//! 1. **Resume scan** — if resuming, the journal is loaded, its job-list
//!    digest checked against the jobs actually submitted, and every
//!    recorded result re-hashed against its result file; entries that
//!    don't check out are demoted back to pending.
//! 2. **Admission** — pending jobs are pushed into the bounded queue,
//!    blocking for backpressure by default or rejecting with
//!    [`EclError::QueueFull`] under `reject_when_full`.
//! 3. **Workers** — each worker pops a job and runs the retry loop:
//!    breaker-filtered ladder stages, deterministic seeded backoff
//!    between rounds, a per-round cooperative deadline, and a
//!    [`health_probe`](ecl_gpu_sim::Gpu::health_probe) in front of any
//!    half-open GPU probe. Every ladder attempt's outcome is fed back
//!    into the breakers.
//! 4. **Checkpoint** — a certified result is persisted atomically
//!    (write-temp-then-rename), then journaled with an fsync before the
//!    job counts as finished. A kill between those two steps reruns one
//!    job on resume, deterministically producing the same bytes.
//!
//! The `kill_after_jobs` hook stops the whole engine dead — no drain, no
//! final report persistence — after the Nth journal append, which is how
//! the tests simulate `SIGKILL` at every possible checkpoint boundary
//! without spawning processes.

use crate::backoff::BackoffPolicy;
use crate::breaker::{Admission, BreakerConfig, BreakerSet, BACKENDS};
use crate::journal::{self, JournalEntry, JournalWriter};
use crate::queue::{BoundedQueue, PushError};
use crate::report::{AttemptReport, BatchReport, BreakerReport, ErrorReport, JobReport, JobStatus};
use crate::spec::{jobs_digest, GraphStore, JobSpec};
use ecl_cc::ladder::{self, AttemptOutcome, Backend, LadderConfig};
use ecl_cc::EclError;
use ecl_gpu_sim::{ExecMode, Gpu};
use ecl_obs::{Recorder, TraceEvent, PID_ENGINE};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Everything tunable about a batch run.
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads (min 1).
    pub workers: usize,
    /// Bounded-queue capacity (min 1).
    pub queue_capacity: usize,
    /// Per-round cooperative deadline in milliseconds, if any: a round
    /// whose certified answer arrives later than this is discarded and
    /// counted as a [`EclError::Timeout`] failure.
    pub deadline_ms: Option<u64>,
    /// Job-level retry rounds after the first try.
    pub retries: u32,
    /// Backoff schedule between retry rounds.
    pub backoff: BackoffPolicy,
    /// Circuit-breaker tuning (shared by all backends).
    pub breaker: BreakerConfig,
    /// Base ladder configuration: stages, device profile, fault plan,
    /// watchdog, CC config. Per job and retry round the fault seed is
    /// deterministically perturbed, like the ladder's own per-attempt
    /// reseed.
    pub ladder: LadderConfig,
    /// Journal file for checkpoint/resume; `None` disables journaling.
    pub journal_path: Option<PathBuf>,
    /// Directory for per-job result files; `None` disables persistence.
    pub results_dir: Option<PathBuf>,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Admission control: reject (rather than block) when the queue is
    /// full; rejected jobs fail with [`EclError::QueueFull`].
    pub reject_when_full: bool,
    /// Test hook simulating `SIGKILL`: stop the engine dead after this
    /// many journal appends in this run.
    pub kill_after_jobs: Option<usize>,
    /// Simulated devices per job: 1 (the default) runs jobs through the
    /// fallback ladder; N > 1 edge-cuts each job's graph across N
    /// devices with min-label exchange (`ecl-shard`). Counts against
    /// the core budget alongside workers — see [`budget_exec_mode`].
    pub shards_per_job: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
            deadline_ms: None,
            retries: 2,
            backoff: BackoffPolicy::default(),
            breaker: BreakerConfig::default(),
            ladder: LadderConfig::default(),
            journal_path: None,
            results_dir: None,
            resume: false,
            reject_when_full: false,
            kill_after_jobs: None,
            shards_per_job: 1,
        }
    }
}

/// Serializes a labeling in the CLI's `vertex label` line format — the
/// bytes that must be identical between a resumed and an uninterrupted
/// run.
pub fn labels_to_bytes(labels: &[u32]) -> Vec<u8> {
    let mut out = String::with_capacity(labels.len() * 8);
    for (v, l) in labels.iter().enumerate() {
        out.push_str(&format!("{v} {l}\n"));
    }
    out.into_bytes()
}

struct Shared<'a> {
    cfg: &'a EngineConfig,
    queue: BoundedQueue<JobSpec>,
    breakers: BreakerSet,
    journal: Option<Mutex<JournalWriter>>,
    reports: Mutex<Vec<JobReport>>,
    recorded: AtomicUsize,
    killed: AtomicBool,
    /// Dedup cache: identical graph specs across jobs and retry rounds
    /// are built once and shared by `Arc`.
    graphs: GraphStore,
    /// GPU exec mode with `HostParallel(0)` (auto) already resolved
    /// against the worker count — see [`budget_exec_mode`].
    exec: ExecMode,
}

impl Shared<'_> {
    fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// The batch's recorder (from the ladder config), when recording is
    /// actually enabled.
    fn recorder(&self) -> Option<&Recorder> {
        self.cfg.ladder.recorder.as_ref().filter(|r| r.is_enabled())
    }

    /// Emits a queue-depth counter sample on the engine timeline.
    fn gauge_queue_depth(&self) {
        if let Some(rec) = self.recorder() {
            rec.record(TraceEvent::counter(
                "queue.depth",
                "queue",
                PID_ENGINE,
                rec.now_us(),
                self.queue.len() as f64,
            ));
        }
    }
}

/// Feeds one outcome to `backend`'s breaker, emitting a state-transition
/// instant event when the outcome flipped the breaker's state. The
/// before/after snapshots are racy under concurrent workers — acceptable
/// for an observability signal; the breaker itself stays authoritative.
fn feed_breaker(shared: &Shared<'_>, backend: Backend, success: bool) {
    let before = shared.breakers.snapshot(backend).0;
    if success {
        shared.breakers.record_success(backend);
    } else {
        shared.breakers.record_failure(backend);
    }
    let after = shared.breakers.snapshot(backend).0;
    if before == after {
        return;
    }
    if let Some(rec) = shared.recorder() {
        rec.record(
            TraceEvent::instant(
                &format!("breaker:{}", backend.name()),
                "breaker",
                PID_ENGINE,
                0,
                rec.now_us(),
            )
            .arg_str("from", before.name())
            .arg_str("to", after.name()),
        );
        rec.add_metric("engine.breaker_transitions", 1.0);
    }
}

/// Runs a batch to completion (or until killed). Returns the report;
/// `Err` only for setup problems (unusable journal or results dir) —
/// individual job failures are *in* the report, not an `Err`.
pub fn run_batch(jobs: &[JobSpec], cfg: &EngineConfig) -> Result<BatchReport, String> {
    let t0 = Instant::now();
    let digest = jobs_digest(jobs);

    // ---- resume scan ---------------------------------------------------
    let mut recovered: HashMap<u64, JournalEntry> = HashMap::new();
    if cfg.resume {
        let path = cfg
            .journal_path
            .as_ref()
            .ok_or("resume requested but no journal path configured")?;
        let snap = journal::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
        if snap.jobs_digest != digest || snap.num_jobs != jobs.len() {
            return Err(format!(
                "journal {} was written for a different job list \
                 (digest {:016x}/{} jobs vs {:016x}/{} jobs); refusing to resume",
                path.display(),
                snap.jobs_digest,
                snap.num_jobs,
                digest,
                jobs.len()
            ));
        }
        for (id, entry) in snap.done {
            let trustworthy = match &cfg.results_dir {
                Some(dir) => std::fs::read(journal::result_path(dir, id))
                    .map(|bytes| journal::fnv1a(&bytes) == entry.digest)
                    .unwrap_or(false),
                None => true,
            };
            if trustworthy {
                recovered.insert(id, entry);
            }
            // Untrustworthy entries (torn or missing result file) are
            // dropped: the job reruns and rewrites both, idempotently.
        }
    }

    if let Some(dir) = &cfg.results_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let journal_writer = match &cfg.journal_path {
        Some(path) => Some(Mutex::new(if cfg.resume {
            JournalWriter::append(path).map_err(|e| format!("{}: {e}", path.display()))?
        } else {
            JournalWriter::create(path, digest, jobs.len())
                .map_err(|e| format!("{}: {e}", path.display()))?
        })),
        None => None,
    };

    let shared = Shared {
        cfg,
        queue: BoundedQueue::new(cfg.queue_capacity),
        breakers: BreakerSet::new(cfg.breaker),
        journal: journal_writer,
        reports: Mutex::new(Vec::new()),
        recorded: AtomicUsize::new(0),
        killed: AtomicBool::new(false),
        graphs: GraphStore::new(),
        exec: budget_exec_mode(
            cfg.ladder.exec,
            cfg.workers.max(1) * cfg.shards_per_job.max(1),
        ),
    };

    // Recovered jobs go straight into the report.
    {
        let mut reports = shared.reports.lock().unwrap();
        for (id, e) in &recovered {
            let name = jobs
                .iter()
                .find(|j| j.id == *id)
                .map(|j| j.name.clone())
                .unwrap_or_default();
            reports.push(JobReport {
                id: *id,
                name,
                status: JobStatus::Resumed,
                backend: Some(e.backend.clone()),
                components: Some(e.components),
                retries: e.retries,
                attempts: Vec::new(),
                error: None,
                time_ms: 0.0,
            });
        }
    }

    let mut rejections = 0usize;
    std::thread::scope(|scope| {
        let shared = &shared;
        for worker in 0..cfg.workers.max(1) {
            scope.spawn(move || worker_loop(shared, worker));
        }
        // Admission: feed pending jobs, then close the queue so workers
        // drain and exit.
        for job in jobs {
            if recovered.contains_key(&job.id) {
                continue;
            }
            if shared.killed() {
                break;
            }
            if cfg.reject_when_full {
                match shared.queue.try_push(job.clone()) {
                    Ok(()) => {}
                    Err(PushError::Full(job)) => {
                        rejections += 1;
                        shared.reports.lock().unwrap().push(JobReport {
                            id: job.id,
                            name: job.name,
                            status: JobStatus::Failed,
                            backend: None,
                            components: None,
                            retries: 0,
                            attempts: Vec::new(),
                            error: Some(ErrorReport::from_ecl(&EclError::QueueFull {
                                capacity: cfg.queue_capacity,
                            })),
                            time_ms: 0.0,
                        });
                    }
                    Err(PushError::Closed(_)) => break,
                }
            } else if shared.queue.push_blocking(job.clone()).is_err() {
                break;
            }
            shared.gauge_queue_depth();
        }
        shared.queue.close();
    });

    let mut job_reports = shared.reports.into_inner().unwrap();
    job_reports.sort_by_key(|j| j.id);
    let breakers = BACKENDS
        .iter()
        .map(|&b| {
            let (state, trips, failures, successes) = shared.breakers.snapshot(b);
            BreakerReport {
                backend: b.name().to_string(),
                state: state.name().to_string(),
                trips,
                failures,
                successes,
            }
        })
        .collect();

    Ok(BatchReport {
        jobs: job_reports,
        breakers,
        expected_jobs: jobs.len(),
        workers: cfg.workers.max(1),
        queue_capacity: cfg.queue_capacity.max(1),
        queue_rejections: rejections,
        aborted: shared.killed.load(Ordering::SeqCst),
        total_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// Divides the host's cores between engine workers and per-worker SM
/// simulation threads. `HostParallel(0)` means "auto": with W engine
/// workers each already running jobs concurrently, each simulated device
/// gets `cores / W` SM threads (at least 1; `HostParallel(1)` runs the
/// lockstep single-thread path inline on the worker's own thread — the
/// persistent pool spawns nothing, so it costs within a few percent of
/// serial mode). Sharded runs multiply the divisor: W workers × S shards
/// devices may execute at once, so each gets `cores / (W*S)` threads.
/// Explicit modes pass through untouched — the operator asked for
/// exactly that.
fn budget_exec_mode(requested: ExecMode, workers: usize) -> ExecMode {
    match requested {
        ExecMode::HostParallel(0) => {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            ExecMode::HostParallel((cores / workers.max(1)).max(1))
        }
        other => other,
    }
}

fn worker_loop(shared: &Shared<'_>, worker: usize) {
    // Per-worker ring buffer: job spans accumulate locally and are
    // merged into the shared recorder once per job, keeping the worker
    // hot path free of recorder locks.
    let rec = shared.recorder().cloned();
    let mut buf = rec
        .as_ref()
        .map(Recorder::local)
        .unwrap_or_else(|| Recorder::disabled().local());
    while let Some(job) = shared.queue.pop() {
        shared.gauge_queue_depth();
        if shared.killed() {
            // SIGKILL semantics: in-flight and queued work evaporates.
            return;
        }
        let span_start = rec.as_ref().map(|r| r.now_us());
        // Each batch job is the root of its own trace tree: the job span
        // is the root hop, ladder attempts and kernel launches hang off
        // it via the context threaded through `process_job`.
        let job_ctx = rec.as_ref().map(|_| ecl_obs::TraceCtx::root());
        let report = process_job(shared, &job, job_ctx);
        if let (Some(r), Some(start)) = (&rec, span_start) {
            let mut ev = TraceEvent::span(
                &format!("job:{}", job.name),
                "job",
                PID_ENGINE,
                worker as u32 + 1,
                start,
                r.now_us().saturating_sub(start),
            )
            .arg_u64("job_id", job.id)
            .arg_u64("worker", worker as u64);
            if let Some(ctx) = &job_ctx {
                ev = ecl_obs::tag_span(ev, ctx, None);
            }
            match &report {
                Some(rep) => {
                    ev = ev
                        .arg_str("status", rep.status.name())
                        .arg_u64("retries", rep.retries as u64)
                        .arg_u64("ladder_attempts", rep.attempts.len() as u64);
                }
                None => ev = ev.arg_str("status", "killed"),
            }
            buf.push(ev);
            r.add_metric("engine.jobs", 1.0);
            r.merge(&mut buf);
        }
        if let Some(report) = report {
            shared.reports.lock().unwrap().push(report);
        }
    }
}

/// Runs one job's retry loop. Returns `None` when the engine was killed
/// mid-job (the job vanishes, exactly as under a real SIGKILL).
/// `trace` is the job span's context; ladder attempts become its
/// children.
fn process_job(
    shared: &Shared<'_>,
    job: &JobSpec,
    trace: Option<ecl_obs::TraceCtx>,
) -> Option<JobReport> {
    let cfg = shared.cfg;
    let t0 = Instant::now();

    let graph = match shared.graphs.get(&job.graph) {
        Ok(g) => g,
        Err(e) => {
            // Inputs do not heal: fail without burning retries.
            return Some(JobReport {
                id: job.id,
                name: job.name.clone(),
                status: JobStatus::Failed,
                backend: None,
                components: None,
                retries: 0,
                attempts: Vec::new(),
                error: Some(ErrorReport::input(e)),
                time_ms: t0.elapsed().as_secs_f64() * 1e3,
            });
        }
    };

    if cfg.shards_per_job > 1 {
        return process_job_sharded(shared, job, &graph, t0);
    }

    let mut attempts: Vec<AttemptReport> = Vec::new();
    let mut last_error = EclError::Exhausted {
        attempts: 0,
        last: None,
    };

    for round in 0..=cfg.retries {
        if round > 0 {
            let delay = cfg.backoff.delay_ms(job.id, round);
            if delay > 0 {
                std::thread::sleep(std::time::Duration::from_millis(delay));
            }
        }
        if shared.killed() {
            return None;
        }

        // Per-round fault-seed perturbation, like the ladder's own
        // per-attempt reseed: deterministic, but transient injected
        // faults do not repeat across rounds.
        let mut ladder_cfg = cfg.ladder.clone();
        ladder_cfg.exec = shared.exec;
        ladder_cfg.trace = trace;
        ladder_cfg.fault.seed = ladder_cfg
            .fault
            .seed
            .wrapping_add(job.id.wrapping_mul(0x9e37_79b9))
            .wrapping_add(round as u64 * 64);

        // Breaker-filtered stage list. Serial is the rung of last
        // resort and is never gated — a batch must always be able to
        // finish on the slowest correct backend.
        let mut stages = Vec::with_capacity(ladder_cfg.stages.len());
        let mut denied: Option<Backend> = None;
        for &backend in &cfg.ladder.stages {
            let admission = if backend == Backend::Serial {
                Admission::Allow
            } else {
                shared.breakers.admit(backend)
            };
            match admission {
                Admission::Allow => stages.push(backend),
                Admission::Deny => denied = Some(backend),
                Admission::Probe => {
                    if backend == Backend::GpuSim {
                        // Half-open: health-probe the simulated device
                        // under the job's fault plan before trusting it
                        // with real work.
                        let mut device = Gpu::new(ladder_cfg.profile.clone());
                        device.set_fault_plan(ladder_cfg.fault);
                        device.set_watchdog(ladder_cfg.watchdog);
                        match device.health_probe() {
                            Ok(()) => stages.push(backend),
                            Err(_) => {
                                feed_breaker(shared, backend, false);
                                denied = Some(backend);
                            }
                        }
                    } else {
                        // CPU backends have no cheap probe; the job
                        // itself is the probe.
                        stages.push(backend);
                    }
                }
            }
        }
        ladder_cfg.stages = stages;

        if ladder_cfg.stages.is_empty() {
            // Every configured backend is gated. Only possible when the
            // ladder was configured without a Serial rung.
            last_error = EclError::CircuitOpen {
                backend: denied.map(|b| b.name()).unwrap_or("all").to_string(),
            };
            attempts.push(AttemptReport {
                round,
                backend: "none".to_string(),
                attempt: 0,
                certified: false,
                error: Some(ErrorReport::from_ecl(&last_error)),
            });
            continue;
        }

        let round_start = Instant::now();
        let outcome = ladder::run_with_fallback(&graph, &ladder_cfg);

        // Feed every ladder attempt back into the breakers and the
        // audit trail.
        let trail: &[ladder::StageAttempt] = match &outcome {
            Ok(out) => &out.attempts,
            Err(_) => &[],
        };
        for a in trail {
            feed_breaker(
                shared,
                a.backend,
                matches!(a.outcome, AttemptOutcome::Certified { .. }),
            );
            attempts.push(AttemptReport {
                round,
                backend: a.backend.name().to_string(),
                attempt: a.attempt,
                certified: matches!(a.outcome, AttemptOutcome::Certified { .. }),
                error: match &a.outcome {
                    AttemptOutcome::Failed { error } => Some(ErrorReport::from_ecl(error)),
                    AttemptOutcome::Certified { .. } => None,
                },
            });
        }

        match outcome {
            Ok(out) => {
                let elapsed_ms = round_start.elapsed().as_millis() as u64;
                if let Some(deadline) = cfg.deadline_ms {
                    if elapsed_ms > deadline {
                        last_error = EclError::Timeout {
                            elapsed_ms,
                            deadline_ms: deadline,
                        };
                        attempts.push(AttemptReport {
                            round,
                            backend: out.backend.name().to_string(),
                            attempt: 0,
                            certified: false,
                            error: Some(ErrorReport::from_ecl(&last_error)),
                        });
                        continue;
                    }
                }
                return finish_job(
                    shared,
                    job,
                    &out.result.labels,
                    out.backend.name(),
                    out.certificate.num_components,
                    round,
                    attempts,
                    t0,
                );
            }
            Err(e) => {
                // The ladder failed every stage; the failures were
                // already fed to the breakers from the (absent) trail —
                // recover them from the error's audit copy.
                if let EclError::Exhausted { .. } = &e {
                    // run_with_fallback returns no attempts on error, so
                    // charge the breakers for the stages we offered.
                    for &b in &ladder_cfg.stages {
                        feed_breaker(shared, b, false);
                    }
                    attempts.push(AttemptReport {
                        round,
                        backend: ladder_cfg
                            .stages
                            .last()
                            .map(|b| b.name())
                            .unwrap_or("none")
                            .to_string(),
                        attempt: 0,
                        certified: false,
                        error: Some(ErrorReport::from_ecl(&e)),
                    });
                }
                last_error = e;
            }
        }
    }

    Some(JobReport {
        id: job.id,
        name: job.name.clone(),
        status: JobStatus::Failed,
        backend: None,
        components: None,
        retries: cfg.retries,
        attempts,
        error: Some(ErrorReport::from_ecl(&last_error)),
        time_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// The sharded fast path: when `shards_per_job > 1` the job bypasses the
/// breaker-routed ladder — `ecl-shard` carries its own containment
/// (retransmission, checkpoint recovery, and a degrade-to-ladder rung of
/// last resort) — but keeps the engine's retry rounds, backoff, seed
/// perturbation, and deadline. Certified results checkpoint through the
/// same [`finish_job`] as ladder results, with backend `sharded:N` (or
/// `sharded:N(degraded)` when the crash budget was exceeded mid-run);
/// the journal digest covers label bytes only, so resume byte-identity
/// holds across shard counts.
fn process_job_sharded(
    shared: &Shared<'_>,
    job: &JobSpec,
    graph: &ecl_graph::CsrGraph,
    t0: Instant,
) -> Option<JobReport> {
    let cfg = shared.cfg;
    let mut attempts: Vec<AttemptReport> = Vec::new();
    let mut last_error = EclError::Exhausted {
        attempts: 0,
        last: None,
    };

    for round in 0..=cfg.retries {
        if round > 0 {
            let delay = cfg.backoff.delay_ms(job.id, round);
            if delay > 0 {
                std::thread::sleep(std::time::Duration::from_millis(delay));
            }
        }
        if shared.killed() {
            return None;
        }

        let mut fault = cfg.ladder.fault;
        fault.seed = fault
            .seed
            .wrapping_add(job.id.wrapping_mul(0x9e37_79b9))
            .wrapping_add(round as u64 * 64);
        let shard_cfg = ecl_shard::ShardConfig {
            shards: cfg.shards_per_job,
            // The degraded ladder keeps the default stages, attempts and
            // an untraced context, whatever this engine's own ladder says.
            ladder: LadderConfig {
                cc: cfg.ladder.cc,
                profile: cfg.ladder.profile.clone(),
                fault,
                watchdog: cfg.ladder.watchdog,
                exec: shared.exec,
                threads: cfg.ladder.threads,
                recorder: shared.recorder().cloned(),
                ..LadderConfig::default()
            },
            ..ecl_shard::ShardConfig::default()
        };

        let round_start = Instant::now();
        match ecl_shard::run_sharded(graph, &shard_cfg) {
            Ok(out) => {
                let backend = if out.report.degraded {
                    format!("sharded:{}(degraded)", cfg.shards_per_job)
                } else {
                    format!("sharded:{}", cfg.shards_per_job)
                };
                let elapsed_ms = round_start.elapsed().as_millis() as u64;
                if let Some(deadline) = cfg.deadline_ms {
                    if elapsed_ms > deadline {
                        last_error = EclError::Timeout {
                            elapsed_ms,
                            deadline_ms: deadline,
                        };
                        attempts.push(AttemptReport {
                            round,
                            backend,
                            attempt: 0,
                            certified: false,
                            error: Some(ErrorReport::from_ecl(&last_error)),
                        });
                        continue;
                    }
                }
                attempts.push(AttemptReport {
                    round,
                    backend: backend.clone(),
                    attempt: 0,
                    certified: true,
                    error: None,
                });
                return finish_job(
                    shared,
                    job,
                    &out.result.labels,
                    &backend,
                    out.certificate.num_components,
                    round,
                    attempts,
                    t0,
                );
            }
            Err(e) => {
                attempts.push(AttemptReport {
                    round,
                    backend: format!("sharded:{}", cfg.shards_per_job),
                    attempt: 0,
                    certified: false,
                    error: Some(ErrorReport::from_ecl(&e)),
                });
                last_error = e;
            }
        }
    }

    Some(JobReport {
        id: job.id,
        name: job.name.clone(),
        status: JobStatus::Failed,
        backend: None,
        components: None,
        retries: cfg.retries,
        attempts,
        error: Some(ErrorReport::from_ecl(&last_error)),
        time_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// Persists and journals a certified result; flips the kill switch when
/// the `kill_after_jobs` checkpoint count is reached. Takes the labels,
/// backend tag, and component count directly so both the ladder path and
/// the sharded path can checkpoint through the same code — the journal
/// digest covers label bytes only, so a sharded run and a serial run of
/// the same job resume interchangeably.
#[allow(clippy::too_many_arguments)]
fn finish_job(
    shared: &Shared<'_>,
    job: &JobSpec,
    labels: &[u32],
    backend: &str,
    components: usize,
    retries: u32,
    attempts: Vec<AttemptReport>,
    t0: Instant,
) -> Option<JobReport> {
    let bytes = labels_to_bytes(labels);
    let digest = journal::fnv1a(&bytes);

    if let Some(dir) = &shared.cfg.results_dir {
        if let Err(e) = journal::write_atomic(&journal::result_path(dir, job.id), &bytes) {
            return Some(JobReport {
                id: job.id,
                name: job.name.clone(),
                status: JobStatus::Failed,
                backend: None,
                components: None,
                retries,
                attempts,
                error: Some(ErrorReport::input(format!("persisting result: {e}"))),
                time_ms: t0.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    if let Some(journal) = &shared.journal {
        let entry = JournalEntry {
            job_id: job.id,
            backend: backend.to_string(),
            components,
            retries,
            digest,
        };
        if let Err(e) = journal.lock().unwrap().record(&entry) {
            return Some(JobReport {
                id: job.id,
                name: job.name.clone(),
                status: JobStatus::Failed,
                backend: None,
                components: None,
                retries,
                attempts,
                error: Some(ErrorReport::input(format!("journaling result: {e}"))),
                time_ms: t0.elapsed().as_secs_f64() * 1e3,
            });
        }
    }

    let recorded = shared.recorded.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(kill_after) = shared.cfg.kill_after_jobs {
        if recorded >= kill_after {
            shared.killed.store(true, Ordering::SeqCst);
            shared.queue.close();
            // SIGKILL semantics: this job's journal entry is durable,
            // but its report (and everything after) is lost.
            return None;
        }
    }

    Some(JobReport {
        id: job.id,
        name: job.name.clone(),
        status: JobStatus::Done,
        backend: Some(backend.to_string()),
        components: Some(components),
        retries,
        attempts,
        error: None,
        time_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}
