//! Batch job submission over the engine's machinery.
//!
//! `SUBMIT` routes work onto the same building blocks the batch engine
//! uses — the bounded MPMC [`BoundedQueue`] (admission control: a full
//! queue rejects with `queue-full` instead of stalling the session),
//! the per-backend [`BreakerSet`] (a dead GPU is skipped, probed back
//! in via the simulator's health probe), the seeded [`BackoffPolicy`]
//! between retry rounds, the deduplicating [`GraphStore`], and the
//! certified fallback ladder. Nothing here is new fault-tolerance
//! logic; it is the engine's worker loop reshaped for a long-lived
//! server where jobs arrive one at a time and are polled by id.

use crate::protocol::RequestError;
use ecl_cc::ladder::{self, AttemptOutcome, Backend, LadderConfig};
use ecl_cc::EclError;
use ecl_engine::breaker::BreakerSet;
use ecl_engine::queue::{BoundedQueue, PushError};
use ecl_engine::spec::{GraphSpec, GraphStore};
use ecl_engine::{Admission, BackoffPolicy, BreakerConfig};
use ecl_gpu_sim::Gpu;
use ecl_obs::{FlightRecorder, Recorder, TraceCtx, TraceEvent, PID_ENGINE};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Externally visible lifecycle of a submitted job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is on it.
    Running,
    /// Finished with a certified answer.
    Done {
        /// Backend whose answer passed certification.
        backend: &'static str,
        /// Certified component count.
        components: usize,
        /// Wall-clock milliseconds from pop to certification.
        ms: u64,
    },
    /// Failed (bad spec, exhausted ladder, deadline).
    Failed {
        /// Stable error kind.
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl JobStatus {
    /// One-line wire form for `JOB id` responses.
    pub fn to_line(&self) -> String {
        match self {
            JobStatus::Queued => "OK queued".to_string(),
            JobStatus::Running => "OK running".to_string(),
            JobStatus::Done {
                backend,
                components,
                ms,
            } => format!("OK done backend={backend} components={components} ms={ms}"),
            JobStatus::Failed { kind, detail } => {
                format!("OK failed kind={kind} detail={}", detail.replace('\n', " "))
            }
        }
    }
}

struct QueuedJob {
    id: u64,
    spec: GraphSpec,
    /// Trace context of the `SUBMIT` request this job came from, if the
    /// request was traced; the job span becomes its child and the
    /// ladder/kernel spans descend from there, so the whole request
    /// path is one connected tree in the Chrome export.
    trace: Option<TraceCtx>,
}

struct Shared {
    statuses: Mutex<HashMap<u64, JobStatus>>,
    breakers: BreakerSet,
    store: GraphStore,
    ladder: LadderConfig,
    backoff: BackoffPolicy,
    retries: u32,
    deadline_ms: Option<u64>,
    recorder: Recorder,
    flight: Option<FlightRecorder>,
    flight_dir: Option<PathBuf>,
}

/// Tuning for the job subsystem.
#[derive(Clone, Debug)]
pub struct JobsConfig {
    /// Worker threads consuming the queue.
    pub workers: usize,
    /// Queue capacity — the admission-control bound.
    pub queue_capacity: usize,
    /// Fallback-ladder configuration shared by all jobs.
    pub ladder: LadderConfig,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Retry rounds after the first (backoff-spaced).
    pub retries: u32,
    /// Per-round deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
}

impl Default for JobsConfig {
    fn default() -> Self {
        JobsConfig {
            workers: 2,
            queue_capacity: 16,
            ladder: LadderConfig::default(),
            breaker: BreakerConfig::default(),
            retries: 1,
            deadline_ms: None,
        }
    }
}

/// The server's batch-job runner: bounded queue in, polled statuses out.
pub struct JobRunner {
    queue: Arc<BoundedQueue<QueuedJob>>,
    shared: Arc<Shared>,
    next_id: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobRunner {
    /// Starts the worker pool with no observability hooks.
    pub fn start(cfg: JobsConfig) -> JobRunner {
        JobRunner::start_with(cfg, Recorder::disabled(), None, None)
    }

    /// Starts the worker pool with a recorder for job/ladder/kernel
    /// spans and an optional flight recorder (dumped to `flight_dir` on
    /// a watchdog abort or a breaker opening).
    pub fn start_with(
        cfg: JobsConfig,
        recorder: Recorder,
        flight: Option<FlightRecorder>,
        flight_dir: Option<PathBuf>,
    ) -> JobRunner {
        let queue = Arc::new(BoundedQueue::new(cfg.queue_capacity));
        let shared = Arc::new(Shared {
            statuses: Mutex::new(HashMap::new()),
            breakers: BreakerSet::new(cfg.breaker),
            store: GraphStore::new(),
            ladder: cfg.ladder,
            backoff: BackoffPolicy::default(),
            retries: cfg.retries,
            deadline_ms: cfg.deadline_ms,
            recorder,
            flight,
            flight_dir,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    while let Some(job) = queue.pop() {
                        run_job(&shared, job);
                    }
                })
            })
            .collect();
        JobRunner {
            queue,
            shared,
            next_id: AtomicU64::new(0),
            workers: Mutex::new(workers),
        }
    }

    /// Submits a job; `Err` carries `bad-spec` or `queue-full`. The
    /// non-blocking push IS the admission decision: a session thread
    /// must never stall behind a saturated worker pool.
    pub fn submit(&self, spec_str: &str) -> Result<u64, RequestError> {
        self.submit_traced(spec_str, None)
    }

    /// [`submit`](Self::submit) carrying the `SUBMIT` request's trace
    /// context, so the job's spans join the request's span tree.
    pub fn submit_traced(
        &self,
        spec_str: &str,
        trace: Option<TraceCtx>,
    ) -> Result<u64, RequestError> {
        let spec = GraphSpec::parse(spec_str).map_err(|e| RequestError::new("bad-spec", e))?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared
            .statuses
            .lock()
            .unwrap()
            .insert(id, JobStatus::Queued);
        match self.queue.try_push(QueuedJob { id, spec, trace }) {
            Ok(()) => Ok(id),
            Err(e) => {
                self.shared.statuses.lock().unwrap().remove(&id);
                match e {
                    PushError::Full(_) => Err(RequestError::from(EclError::QueueFull {
                        capacity: self.queue.capacity(),
                    })),
                    PushError::Closed(_) => {
                        Err(RequestError::new("draining", "server is shutting down"))
                    }
                }
            }
        }
    }

    /// Current status of a submitted job.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.shared.statuses.lock().unwrap().get(&id).cloned()
    }

    /// Current queue depth (for metrics).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Closes the queue, lets queued jobs drain, and joins the workers.
    pub fn shutdown(&self) {
        self.queue.close();
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// One job through breaker-filtered, backoff-spaced, deadline-checked
/// ladder rounds — the engine's retry loop in miniature. Wraps the
/// rounds in a traced job span and checks the flight-recorder triggers
/// (watchdog abort, breaker opening) afterwards.
fn run_job(shared: &Shared, job: QueuedJob) {
    shared
        .statuses
        .lock()
        .unwrap()
        .insert(job.id, JobStatus::Running);
    // The job span is a child of the `SUBMIT` request's root span, and
    // the ladder/kernel spans below descend from the job span — one
    // connected tree per request.
    let job_ctx = job.trace.map(|t| t.child());
    let t0 = shared.recorder.now_us();
    let (status, watchdog) = run_job_rounds(shared, &job, job_ctx);
    if shared.recorder.is_enabled() {
        let dur = shared.recorder.now_us().saturating_sub(t0).max(1);
        let kind = match &status {
            JobStatus::Done { .. } => "done".to_string(),
            JobStatus::Failed { kind, .. } => kind.clone(),
            _ => "unknown".to_string(),
        };
        let mut ev = TraceEvent::span(&format!("job:{}", job.id), "job", PID_ENGINE, 0, t0, dur)
            .arg_u64("job_id", job.id)
            .arg_str("status", &kind);
        if let Some(ctx) = &job_ctx {
            ev = ecl_obs::tag_span(ev, ctx, job.trace.map(|t| t.span_id));
        }
        shared.recorder.record(ev);
        // The same job counter the batch engine's worker loop keeps.
        shared.recorder.add_metric("engine.jobs", 1.0);
    }
    if watchdog {
        if let Some(f) = &shared.flight {
            f.instant(
                "jobs",
                "watchdog-abort",
                &format!("job={} spec={:?}", job.id, job.spec),
            );
            if let Some(dir) = &shared.flight_dir {
                let _ = f.dump_to(dir, "watchdog-abort");
            }
        }
    }
    shared.statuses.lock().unwrap().insert(job.id, status);
}

/// The retry rounds themselves; returns the final status plus whether
/// any attempt died to the simulated GPU's watchdog.
fn run_job_rounds(
    shared: &Shared,
    job: &QueuedJob,
    job_ctx: Option<TraceCtx>,
) -> (JobStatus, bool) {
    let mut watchdog = false;

    let graph = match shared.store.get(&job.spec) {
        Ok(g) => g,
        Err(e) => {
            return (
                JobStatus::Failed {
                    kind: "bad-graph".to_string(),
                    detail: e,
                },
                watchdog,
            );
        }
    };

    let mut last_error = EclError::Exhausted {
        attempts: 0,
        last: None,
    };
    for round in 0..=shared.retries {
        if round > 0 {
            let delay = shared.backoff.delay_ms(job.id, round);
            if delay > 0 {
                std::thread::sleep(std::time::Duration::from_millis(delay));
            }
        }

        let mut ladder_cfg = shared.ladder.clone();
        ladder_cfg.fault.seed = ladder_cfg
            .fault
            .seed
            .wrapping_add(job.id.wrapping_mul(0x9e37_79b9))
            .wrapping_add(round as u64 * 64);
        if shared.recorder.is_enabled() {
            ladder_cfg.recorder = Some(shared.recorder.clone());
        }
        ladder_cfg.trace = job_ctx;

        // A failure that trips a breaker open is a flight-recorder
        // trigger: the dump captures the spans leading up to the trip.
        let record_failure = |backend: Backend| {
            let trips_before = shared.breakers.snapshot(backend).1;
            shared.breakers.record_failure(backend);
            let (state, trips, failures, _) = shared.breakers.snapshot(backend);
            if trips > trips_before {
                if let Some(f) = &shared.flight {
                    f.instant(
                        "jobs",
                        "breaker-open",
                        &format!(
                            "backend={} state={} trips={trips} failures={failures}",
                            backend.name(),
                            state.name()
                        ),
                    );
                    if let Some(dir) = &shared.flight_dir {
                        let _ = f.dump_to(dir, "breaker-open");
                    }
                }
            }
        };

        // Breaker-filtered stages; Serial is never gated.
        let mut stages = Vec::with_capacity(ladder_cfg.stages.len());
        for &backend in &shared.ladder.stages {
            let admission = if backend == Backend::Serial {
                Admission::Allow
            } else {
                shared.breakers.admit(backend)
            };
            match admission {
                Admission::Allow => stages.push(backend),
                Admission::Deny => {}
                Admission::Probe => {
                    if backend == Backend::GpuSim {
                        let mut device = Gpu::new(ladder_cfg.profile.clone());
                        device.set_fault_plan(ladder_cfg.fault);
                        device.set_watchdog(ladder_cfg.watchdog);
                        match device.health_probe() {
                            Ok(()) => stages.push(backend),
                            Err(_) => record_failure(backend),
                        }
                    } else {
                        stages.push(backend);
                    }
                }
            }
        }
        if stages.is_empty() {
            last_error = EclError::CircuitOpen {
                backend: "all".to_string(),
            };
            continue;
        }
        ladder_cfg.stages = stages;

        let round_start = Instant::now();
        let outcome = ladder::run_with_fallback(&graph, &ladder_cfg);
        if let Ok(out) = &outcome {
            for a in &out.attempts {
                if let AttemptOutcome::Failed { error } = &a.outcome {
                    if error.kind() == "sim-watchdog" || error.watchdog_cycles().is_some() {
                        watchdog = true;
                    }
                }
                let ok = matches!(a.outcome, AttemptOutcome::Certified { .. });
                if a.backend != Backend::Serial {
                    if ok {
                        shared.breakers.record_success(a.backend);
                    } else {
                        record_failure(a.backend);
                    }
                }
            }
        }
        match outcome {
            Ok(out) => {
                let elapsed_ms = round_start.elapsed().as_millis() as u64;
                if let Some(deadline) = shared.deadline_ms {
                    if elapsed_ms > deadline {
                        last_error = EclError::Timeout {
                            elapsed_ms,
                            deadline_ms: deadline,
                        };
                        continue;
                    }
                }
                return (
                    JobStatus::Done {
                        backend: out.backend.name(),
                        components: out.certificate.num_components,
                        ms: elapsed_ms,
                    },
                    watchdog,
                );
            }
            Err(e) => {
                if e.kind() == "sim-watchdog" || e.watchdog_cycles().is_some() {
                    watchdog = true;
                }
                last_error = e;
            }
        }
    }
    (
        JobStatus::Failed {
            kind: last_error.kind().to_string(),
            detail: last_error.to_string(),
        },
        watchdog,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_done(runner: &JobRunner, id: u64) -> JobStatus {
        for _ in 0..2000 {
            match runner.status(id) {
                Some(JobStatus::Done { .. }) | Some(JobStatus::Failed { .. }) => {
                    return runner.status(id).unwrap()
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        panic!("job {id} never finished: {:?}", runner.status(id));
    }

    #[test]
    fn submit_runs_to_certified_done() {
        let runner = JobRunner::start(JobsConfig::default());
        let id = runner.submit("cycle:500").unwrap();
        match wait_done(&runner, id) {
            JobStatus::Done { components, .. } => assert_eq!(components, 1),
            other => panic!("expected done, got {other:?}"),
        }
        runner.shutdown();
    }

    #[test]
    fn bad_spec_rejected_at_submit() {
        let runner = JobRunner::start(JobsConfig::default());
        assert_eq!(runner.submit("blob:7").unwrap_err().kind, "bad-spec");
        assert!(runner.status(99).is_none());
        runner.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_queue_full() {
        // Zero workers are clamped to 1, so stuff the queue with slow
        // jobs; capacity 1 guarantees the burst overflows.
        let runner = JobRunner::start(JobsConfig {
            workers: 1,
            queue_capacity: 1,
            ..JobsConfig::default()
        });
        let mut rejected = false;
        for _ in 0..20 {
            if let Err(e) = runner.submit("gnm:2000:6000:1") {
                assert_eq!(e.kind, "queue-full");
                rejected = true;
                break;
            }
        }
        assert!(rejected, "queue never filled");
        runner.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_rejects() {
        let runner = JobRunner::start(JobsConfig::default());
        let id = runner.submit("path:200").unwrap();
        runner.shutdown();
        // The queued job drained to completion before the workers left.
        match runner.status(id).unwrap() {
            JobStatus::Done { .. } => {}
            other => panic!("expected done after drain, got {other:?}"),
        }
        assert_eq!(runner.submit("path:10").unwrap_err().kind, "draining");
    }
}
