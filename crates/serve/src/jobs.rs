//! Batch job submission over the engine's machinery.
//!
//! `SUBMIT` routes work onto the same building blocks the batch engine
//! uses — the bounded MPMC [`BoundedQueue`] (admission control: a full
//! queue rejects with `queue-full` instead of stalling the session),
//! the deduplicating [`GraphStore`], and the engine's own retry loop,
//! [`Rounds`]: seeded backoff between rounds, breaker-filtered ladder
//! stages with a health probe in front of a half-open GPU, breaker
//! feedback (trace instants, and a `breaker-open` flight dump on a
//! trip), and the per-round deadline. What lives here is only what a
//! long-lived server adds: jobs arrive one at a time and are polled by
//! id, each job is one span in its `SUBMIT` request's trace tree, and a
//! watchdog abort dumps the flight recorder.

use crate::protocol::RequestError;
use ecl_cc::ladder::LadderConfig;
use ecl_cc::EclError;
use ecl_engine::breaker::BreakerSet;
use ecl_engine::queue::{BoundedQueue, PushError};
use ecl_engine::spec::{GraphSpec, GraphStore};
use ecl_engine::{budget_exec_mode, BackoffPolicy, BreakerConfig, Rounds};
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
        backend: String,
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
    store: GraphStore,
    rounds: Rounds,
    recorder: Recorder,
}

impl Shared {
    fn set_status(&self, id: u64, status: JobStatus) {
        self.statuses.lock().unwrap().insert(id, status);
    }
}

/// Tuning for the job subsystem.
#[derive(Clone, Debug)]
pub struct JobsConfig {
    /// Worker threads consuming the queue.
    pub workers: usize,
    /// Queue capacity — the admission-control bound.
    pub queue_capacity: usize,
    /// Fallback-ladder configuration shared by all jobs. An auto
    /// host-parallel exec mode (`HostParallel(0)`) is split between the
    /// workers like the batch engine's.
    pub ladder: LadderConfig,
    /// Per-round deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
}

impl Default for JobsConfig {
    fn default() -> Self {
        JobsConfig {
            workers: 2,
            queue_capacity: 16,
            ladder: LadderConfig::default(),
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
        let mut ladder = cfg.ladder;
        ladder.exec = budget_exec_mode(ladder.exec, cfg.workers.max(1));
        if recorder.is_enabled() {
            ladder.recorder = Some(recorder.clone());
        }
        let shared = Arc::new(Shared {
            statuses: Mutex::new(HashMap::new()),
            store: GraphStore::new(),
            rounds: Rounds {
                ladder,
                shards: 1,
                // One backoff-spaced retry round, default breaker tuning.
                retries: 1,
                backoff: BackoffPolicy::default(),
                deadline_ms: cfg.deadline_ms,
                breakers: BreakerSet::new(BreakerConfig::default()),
                flight,
                flight_dir,
            },
            recorder,
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
        self.shared.set_status(id, JobStatus::Queued);
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

/// One job through the engine's retry rounds, wrapped in a traced job
/// span; a watchdog abort in any round dumps the flight recorder.
fn run_job(shared: &Shared, job: QueuedJob) {
    shared.set_status(job.id, JobStatus::Running);
    // The job span is a child of the `SUBMIT` request's root span, and
    // the ladder/kernel spans below descend from the job span — one
    // connected tree per request.
    let job_ctx = job.trace.map(|t| t.child());
    let span_start = shared.recorder.now_us();
    // The job's wall time, on the batch engine's `JobReport::time_ms`
    // clock: from pop (graph build included) to certification.
    let t0 = Instant::now();
    let status = match shared.store.get(&job.spec) {
        Err(detail) => JobStatus::Failed {
            kind: "bad-graph".to_string(),
            detail,
        },
        Ok(graph) => {
            let out = shared
                .rounds
                .run(job.id, &graph, job_ctx, || false)
                .expect("a server job is never killed");
            if out.hit_watchdog() {
                if let Some(f) = &shared.rounds.flight {
                    f.instant(
                        "jobs",
                        "watchdog-abort",
                        &format!("job={} spec={:?}", job.id, job.spec),
                    );
                    if let Some(dir) = &shared.rounds.flight_dir {
                        let _ = f.dump_to(dir, "watchdog-abort");
                    }
                }
            }
            match out.result {
                Ok(cert) => JobStatus::Done {
                    backend: cert.backend,
                    components: cert.components,
                    ms: t0.elapsed().as_millis() as u64,
                },
                Err(e) => JobStatus::Failed {
                    kind: e.kind().to_string(),
                    detail: e.to_string(),
                },
            }
        }
    };
    if shared.recorder.is_enabled() {
        let dur = shared.recorder.now_us().saturating_sub(span_start).max(1);
        let kind = match &status {
            JobStatus::Failed { kind, .. } => kind,
            _ => "done",
        };
        let mut ev = TraceEvent::span(
            &format!("job:{}", job.id),
            "job",
            PID_ENGINE,
            0,
            span_start,
            dur,
        )
        .arg_u64("job_id", job.id)
        .arg_str("status", kind);
        if let Some(ctx) = &job_ctx {
            ev = ecl_obs::tag_span(ev, ctx, job.trace.map(|t| t.span_id));
        }
        shared.recorder.record(ev);
        // The same job counter the batch engine's worker loop keeps.
        shared.recorder.add_metric("engine.jobs", 1.0);
    }
    shared.set_status(job.id, status);
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

    #[test]
    fn dead_gpu_jobs_finish_on_cpu_and_dump_a_postmortem() {
        let dir =
            std::env::temp_dir().join(format!("ecl_serve_jobs_flight_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner = JobRunner::start_with(
            JobsConfig {
                workers: 1,
                ladder: LadderConfig {
                    watchdog: Some(1),
                    ..LadderConfig::default()
                },
                ..JobsConfig::default()
            },
            Recorder::disabled(),
            Some(FlightRecorder::default()),
            Some(dir.clone()),
        );
        let ids = [
            runner.submit("gnm:2000:6000:1").unwrap(),
            runner.submit("cycle:500").unwrap(),
        ];
        for id in ids {
            match wait_done(&runner, id) {
                JobStatus::Done { backend, .. } => {
                    assert!(matches!(&*backend, "parallel-cpu" | "serial"), "{backend}")
                }
                other => panic!("expected done, got {other:?}"),
            }
        }
        runner.shutdown();
        let doc = std::fs::read_to_string(dir.join("postmortem.json")).unwrap();
        let summary = ecl_obs::validate_postmortem(&doc).unwrap();
        assert!(
            matches!(summary.reason.as_str(), "breaker-open" | "watchdog-abort"),
            "{}",
            summary.reason
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
