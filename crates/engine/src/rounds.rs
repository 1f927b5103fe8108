//! One job's certified retry rounds, shared by the batch engine's
//! workers and the server's `SUBMIT` workers.
//!
//! [`Rounds::run`] owns everything between rounds — seeded backoff, the
//! kill check, the per-round fault-seed perturbation, the cooperative
//! deadline that turns a late answer into [`EclError::Timeout`], and the
//! final failure. Each round has one of two bodies:
//!
//! * the **ladder round**: breaker-filtered stages (Serial is never
//!   gated), a [`health_probe`](Gpu::health_probe) in front of a
//!   half-open GPU, [`ladder::run_with_fallback`], and every attempt fed
//!   back into the breakers;
//! * the **sharded round** (`shards > 1`): [`ecl_shard::run_sharded`],
//!   which carries its own containment, reported as backend `sharded:N`
//!   or `sharded:N(degraded)`.

use crate::backoff::BackoffPolicy;
use crate::breaker::{Admission, BreakerSet};
use crate::report::{AttemptReport, ErrorReport};
use ecl_cc::ladder::{self, AttemptOutcome, Backend, LadderConfig};
use ecl_cc::EclError;
use ecl_gpu_sim::{FaultPlan, Gpu};
use ecl_graph::CsrGraph;
use ecl_obs::{FlightRecorder, Recorder, TraceCtx, TraceEvent, PID_ENGINE};
use std::path::PathBuf;
use std::time::Instant;

/// The retry policy and breakers one pool of job workers shares.
pub struct Rounds {
    /// Base ladder configuration, its exec mode already budgeted against
    /// the pool ([`budget_exec_mode`](crate::engine::budget_exec_mode));
    /// an enabled recorder also receives the breaker transitions.
    pub ladder: LadderConfig,
    /// Simulated devices per job; N > 1 runs the sharded round.
    pub shards: usize,
    /// Retry rounds after the first.
    pub retries: u32,
    /// Backoff schedule between rounds.
    pub backoff: BackoffPolicy,
    /// Per-round deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
    /// Per-backend circuit breakers.
    pub breakers: BreakerSet,
    /// Flight recorder that notes every breaker trip.
    pub flight: Option<FlightRecorder>,
    /// Where a breaker trip dumps the flight recorder's postmortem.
    pub flight_dir: Option<PathBuf>,
}

/// A certified answer that beat the deadline.
pub struct Certified {
    /// The certified labeling.
    pub labels: Vec<u32>,
    /// Backend tag (`gpu-sim`, ..., `sharded:N`).
    pub backend: String,
    /// Certified component count.
    pub components: usize,
    /// Whether the trail already holds the certifying attempt.
    in_trail: bool,
}

/// What a job's rounds came to.
pub struct JobOutcome {
    /// The accepted answer, or the last round's error.
    pub result: Result<Certified, EclError>,
    /// The accepting round's index, or `retries` when every round failed.
    pub rounds: u32,
    /// Every attempt of every round, in order.
    pub attempts: Vec<AttemptReport>,
}

impl JobOutcome {
    /// Whether any attempt died to the simulated GPU's watchdog.
    pub fn hit_watchdog(&self) -> bool {
        self.attempts
            .iter()
            .filter_map(|a| a.error.as_ref())
            .any(|e| e.kind == "sim-watchdog" || e.spent_cycles.is_some())
    }
}

/// An attempt the loop or a round body records itself, outside the
/// ladder's own trail: certified when `error` is `None`.
fn attempt(round: u32, backend: String, error: Option<&EclError>) -> AttemptReport {
    AttemptReport {
        round,
        backend,
        attempt: 0,
        certified: error.is_none(),
        error: error.map(ErrorReport::from_ecl),
    }
}

impl Rounds {
    /// Runs `job_id` on `graph` through up to `retries + 1` rounds.
    /// `trace` is the job span's context (ladder attempts become its
    /// children). Returns `None` when `killed` reports the pool was
    /// killed before a round: the job vanishes, as under a real SIGKILL.
    pub fn run(
        &self,
        job_id: u64,
        graph: &CsrGraph,
        trace: Option<TraceCtx>,
        killed: impl Fn() -> bool,
    ) -> Option<JobOutcome> {
        let mut attempts = Vec::new();
        let mut last_error = EclError::Exhausted {
            attempts: 0,
            last: None,
        };
        for round in 0..=self.retries {
            if round > 0 {
                let delay = self.backoff.delay_ms(job_id, round);
                std::thread::sleep(std::time::Duration::from_millis(delay));
            }
            if killed() {
                return None;
            }
            // Per-round fault-seed perturbation, like the ladder's own
            // per-attempt reseed: deterministic, but transient injected
            // faults do not repeat across rounds.
            let mut fault = self.ladder.fault;
            fault.seed = fault
                .seed
                .wrapping_add(job_id.wrapping_mul(0x9e37_79b9))
                .wrapping_add(round as u64 * 64);

            let round_start = Instant::now();
            let answer = if self.shards > 1 {
                self.sharded_round(graph, round, fault, &mut attempts)
            } else {
                self.ladder_round(graph, trace, round, fault, &mut attempts)
            };
            let cert = match answer {
                Ok(cert) => cert,
                Err(e) => {
                    last_error = e;
                    continue;
                }
            };
            let elapsed_ms = round_start.elapsed().as_millis() as u64;
            if let Some(deadline_ms) = self.deadline_ms.filter(|&d| elapsed_ms > d) {
                last_error = EclError::Timeout {
                    elapsed_ms,
                    deadline_ms,
                };
                attempts.push(attempt(round, cert.backend, Some(&last_error)));
                continue;
            }
            if !cert.in_trail {
                attempts.push(attempt(round, cert.backend.clone(), None));
            }
            return Some(JobOutcome {
                result: Ok(cert),
                rounds: round,
                attempts,
            });
        }
        Some(JobOutcome {
            result: Err(last_error),
            rounds: self.retries,
            attempts,
        })
    }

    /// One walk down the breaker-filtered ladder.
    fn ladder_round(
        &self,
        graph: &CsrGraph,
        trace: Option<TraceCtx>,
        round: u32,
        fault: FaultPlan,
        attempts: &mut Vec<AttemptReport>,
    ) -> Result<Certified, EclError> {
        let mut cfg = self.ladder.clone();
        cfg.fault = fault;
        cfg.trace = trace;

        // Serial is the rung of last resort and is never gated — a job
        // must always be able to finish on the slowest correct backend.
        let mut stages = Vec::with_capacity(cfg.stages.len());
        let mut denied: Option<Backend> = None;
        for &backend in &self.ladder.stages {
            let admission = if backend == Backend::Serial {
                Admission::Allow
            } else {
                self.breakers.admit(backend)
            };
            match admission {
                Admission::Allow => stages.push(backend),
                Admission::Deny => denied = Some(backend),
                // CPU backends have no cheap probe; the job itself is
                // the probe.
                Admission::Probe if backend != Backend::GpuSim => stages.push(backend),
                Admission::Probe => {
                    // Half-open: health-probe the simulated device under
                    // the job's fault plan before trusting it with real
                    // work.
                    let mut device = Gpu::new(cfg.profile.clone());
                    device.set_fault_plan(cfg.fault);
                    device.set_watchdog(cfg.watchdog);
                    match device.health_probe() {
                        Ok(()) => stages.push(backend),
                        Err(_) => {
                            self.feed_breaker(backend, false);
                            denied = Some(backend);
                        }
                    }
                }
            }
        }
        cfg.stages = stages;
        if cfg.stages.is_empty() {
            // Every configured backend is gated. Only possible when the
            // ladder was configured without a Serial rung.
            let e = EclError::CircuitOpen {
                backend: denied.map_or("all", |b| b.name()).to_string(),
            };
            attempts.push(attempt(round, "none".to_string(), Some(&e)));
            return Err(e);
        }

        match ladder::run_with_fallback(graph, &cfg) {
            Ok(out) => {
                for a in &out.attempts {
                    let error = match &a.outcome {
                        AttemptOutcome::Failed { error } => Some(error),
                        AttemptOutcome::Certified { .. } => None,
                    };
                    self.feed_breaker(a.backend, error.is_none());
                    attempts.push(AttemptReport {
                        attempt: a.attempt,
                        ..attempt(round, a.backend.name().to_string(), error)
                    });
                }
                Ok(Certified {
                    labels: out.result.labels,
                    backend: out.backend.name().to_string(),
                    components: out.certificate.num_components,
                    in_trail: true,
                })
            }
            Err(e) => {
                // An exhausted ladder returns no trail, so charge the
                // breakers for every stage it was offered.
                for &b in &cfg.stages {
                    self.feed_breaker(b, false);
                }
                let last = cfg.stages.last().map_or("none", |b| b.name());
                attempts.push(attempt(round, last.to_string(), Some(&e)));
                Err(e)
            }
        }
    }

    /// One sharded run; the breakers stay out of it.
    fn sharded_round(
        &self,
        graph: &CsrGraph,
        round: u32,
        fault: FaultPlan,
        attempts: &mut Vec<AttemptReport>,
    ) -> Result<Certified, EclError> {
        let shard_cfg = ecl_shard::ShardConfig {
            shards: self.shards,
            // The degraded ladder keeps the default stages, attempts and
            // an untraced context, whatever the pool's own ladder says.
            ladder: LadderConfig {
                cc: self.ladder.cc,
                profile: self.ladder.profile.clone(),
                fault,
                watchdog: self.ladder.watchdog,
                exec: self.ladder.exec,
                threads: self.ladder.threads,
                recorder: self.recorder().cloned(),
                ..LadderConfig::default()
            },
            ..ecl_shard::ShardConfig::default()
        };
        let backend = format!("sharded:{}", self.shards);
        match ecl_shard::run_sharded(graph, &shard_cfg) {
            Ok(out) => Ok(Certified {
                labels: out.result.labels,
                backend: if out.report.degraded {
                    format!("{backend}(degraded)")
                } else {
                    backend
                },
                components: out.certificate.num_components,
                in_trail: false,
            }),
            Err(e) => {
                attempts.push(attempt(round, backend, Some(&e)));
                Err(e)
            }
        }
    }

    /// The pool's recorder, when recording is actually enabled.
    pub(crate) fn recorder(&self) -> Option<&Recorder> {
        self.ladder.recorder.as_ref().filter(|r| r.is_enabled())
    }

    /// Feeds one outcome to `backend`'s breaker. A state change becomes
    /// a `breaker:<backend>` trace instant and an
    /// `engine.breaker_transitions` count; a trip open also becomes a
    /// `breaker-open` flight note and postmortem dump. The before/after
    /// snapshots are racy under concurrent workers — acceptable for an
    /// observability signal; the breaker itself stays authoritative.
    fn feed_breaker(&self, backend: Backend, success: bool) {
        let (before, trips_before, ..) = self.breakers.snapshot(backend);
        if success {
            self.breakers.record_success(backend);
        } else {
            self.breakers.record_failure(backend);
        }
        let (after, trips, failures, _) = self.breakers.snapshot(backend);
        if before != after {
            if let Some(rec) = self.recorder() {
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
        if trips > trips_before {
            if let Some(f) = &self.flight {
                f.instant(
                    "jobs",
                    "breaker-open",
                    &format!(
                        "backend={} state={} trips={trips} failures={failures}",
                        backend.name(),
                        after.name()
                    ),
                );
                if let Some(dir) = &self.flight_dir {
                    let _ = f.dump_to(dir, "breaker-open");
                }
            }
        }
    }
}
