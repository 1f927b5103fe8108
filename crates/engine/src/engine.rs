//! The batch engine: worker pool, admission, and checkpointing, glued
//! around the shared retry rounds of [`Rounds`].
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
//! 3. **Workers** — each worker pops a job, builds (or reuses) its graph,
//!    and hands it to [`Rounds::run`], the retry loop the server's
//!    `SUBMIT` workers share: deterministic seeded backoff between
//!    rounds, a per-round cooperative deadline, and either the
//!    breaker-filtered ladder (with a health probe in front of any
//!    half-open GPU, every attempt fed back into the breakers) or, with
//!    `shards_per_job > 1`, a sharded run.
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
use crate::breaker::{BreakerConfig, BreakerSet, BACKENDS};
use crate::journal::{self, JournalEntry, JournalWriter};
use crate::queue::{BoundedQueue, PushError};
use crate::report::{AttemptReport, BatchReport, BreakerReport, ErrorReport, JobReport, JobStatus};
use crate::rounds::{Certified, Rounds};
use crate::spec::{jobs_digest, GraphStore, JobSpec};
use ecl_cc::ladder::LadderConfig;
use ecl_cc::EclError;
use ecl_obs::durable::push_decimal;
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
    /// devices with min-label exchange (`ecl-shard`).
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
    let mut out = Vec::with_capacity(labels.len() * 16);
    for (v, &l) in labels.iter().enumerate() {
        push_decimal(&mut out, v as u64);
        out.push(b' ');
        push_decimal(&mut out, l.into());
        out.push(b'\n');
    }
    out
}

struct Shared<'a> {
    cfg: &'a EngineConfig,
    queue: BoundedQueue<JobSpec>,
    /// The retry loop and breakers.
    rounds: Rounds,
    journal: Option<JournalWriter>,
    reports: Mutex<Vec<JobReport>>,
    recorded: AtomicUsize,
    killed: AtomicBool,
    /// Dedup cache: identical graph specs across jobs and retry rounds
    /// are built once and shared by `Arc`.
    graphs: GraphStore,
}

impl Shared<'_> {
    fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Emits a queue-depth counter sample on the engine timeline.
    fn gauge_queue_depth(&self) {
        if let Some(rec) = self.rounds.recorder() {
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
        Some(path) => Some(if cfg.resume {
            JournalWriter::append(path).map_err(|e| format!("{}: {e}", path.display()))?
        } else {
            JournalWriter::create(path, digest, jobs.len())
                .map_err(|e| format!("{}: {e}", path.display()))?
        }),
        None => None,
    };

    let shared = Shared {
        cfg,
        queue: BoundedQueue::new(cfg.queue_capacity),
        rounds: Rounds {
            ladder: cfg.ladder.clone(),
            shards: cfg.shards_per_job,
            retries: cfg.retries,
            backoff: cfg.backoff,
            deadline_ms: cfg.deadline_ms,
            breakers: BreakerSet::new(cfg.breaker),
            flight: None,
            flight_dir: None,
        },
        journal: journal_writer,
        reports: Mutex::new(Vec::new()),
        recorded: AtomicUsize::new(0),
        killed: AtomicBool::new(false),
        graphs: GraphStore::new(),
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
                        let full = ErrorReport::from_ecl(&EclError::QueueFull {
                            capacity: cfg.queue_capacity,
                        });
                        let report = failed(&job, 0, Vec::new(), full, 0.0);
                        shared.reports.lock().unwrap().push(report);
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
            let (state, trips, failures, successes) = shared.rounds.breakers.snapshot(b);
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

fn worker_loop(shared: &Shared<'_>, worker: usize) {
    // Per-worker ring buffer: job spans accumulate locally and are
    // merged into the shared recorder once per job, keeping the worker
    // hot path free of recorder locks.
    let rec = shared.rounds.recorder().cloned();
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

/// Runs one job's retry rounds. Returns `None` when the engine was
/// killed mid-job (the job vanishes, exactly as under a real SIGKILL).
/// `trace` is the job span's context; ladder attempts become its
/// children.
fn process_job(
    shared: &Shared<'_>,
    job: &JobSpec,
    trace: Option<ecl_obs::TraceCtx>,
) -> Option<JobReport> {
    let t0 = Instant::now();
    let graph = match shared.graphs.get(&job.graph) {
        Ok(g) => g,
        // Inputs do not heal: fail without burning retries.
        Err(e) => return Some(failed(job, 0, Vec::new(), ErrorReport::input(e), ms(t0))),
    };
    let out = shared
        .rounds
        .run(job.id, &graph, trace, || shared.killed())?;
    match out.result {
        Ok(cert) => finish_job(shared, job, cert, out.rounds, out.attempts, t0),
        Err(e) => {
            let error = ErrorReport::from_ecl(&e);
            Some(failed(job, out.rounds, out.attempts, error, ms(t0)))
        }
    }
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The report of a job that ended without a certified result.
fn failed(
    job: &JobSpec,
    retries: u32,
    attempts: Vec<AttemptReport>,
    error: ErrorReport,
    time_ms: f64,
) -> JobReport {
    JobReport {
        id: job.id,
        name: job.name.clone(),
        status: JobStatus::Failed,
        backend: None,
        components: None,
        retries,
        attempts,
        error: Some(error),
        time_ms,
    }
}

/// Persists and journals a certified result; flips the kill switch when
/// the `kill_after_jobs` checkpoint count is reached. Ladder and sharded
/// results checkpoint alike — the journal digest covers label bytes only,
/// so a sharded run and a serial run of the same job resume
/// interchangeably.
fn finish_job(
    shared: &Shared<'_>,
    job: &JobSpec,
    cert: Certified,
    retries: u32,
    attempts: Vec<AttemptReport>,
    t0: Instant,
) -> Option<JobReport> {
    let bytes = labels_to_bytes(&cert.labels);
    let digest = journal::fnv1a(&bytes);

    if let Some(dir) = &shared.cfg.results_dir {
        if let Err(e) = journal::write_atomic(&journal::result_path(dir, job.id), &bytes) {
            let error = ErrorReport::input(format!("persisting result: {e}"));
            return Some(failed(job, retries, attempts, error, ms(t0)));
        }
    }
    if let Some(journal) = &shared.journal {
        let entry = JournalEntry {
            job_id: job.id,
            backend: cert.backend.clone(),
            components: cert.components,
            retries,
            digest,
        };
        if let Err(e) = journal.record(&entry) {
            let error = ErrorReport::input(format!("journaling result: {e}"));
            return Some(failed(job, retries, attempts, error, ms(t0)));
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
        backend: Some(cert.backend),
        components: Some(cert.components),
        retries,
        attempts,
        error: None,
        time_ms: ms(t0),
    })
}

#[cfg(test)]
mod tests {
    use super::labels_to_bytes;
    use ecl_graph::generate::Pcg32;

    /// The result-file bytes equal the `format!`-built text they replaced,
    /// so journal digests and resumed runs stay byte-identical.
    #[test]
    fn labels_to_bytes_matches_formatted_text() {
        let reference = |labels: &[u32]| -> Vec<u8> {
            let text: String = labels
                .iter()
                .enumerate()
                .map(|(v, l)| format!("{v} {l}\n"))
                .collect();
            text.into_bytes()
        };
        assert_eq!(labels_to_bytes(&[]), b"");
        assert_eq!(
            labels_to_bytes(&[0, 9, 10, u32::MAX]),
            b"0 0\n1 9\n2 10\n3 4294967295\n"
        );
        let mut rng = Pcg32::new(7);
        let labels: Vec<u32> = (0..1000)
            .map(|_| rng.next_u32() >> (rng.next_u32() % 32))
            .collect();
        assert_eq!(labels_to_bytes(&labels), reference(&labels));
    }
}
