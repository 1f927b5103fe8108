//! Fault-tolerant batch job engine for certified connected-components
//! runs.
//!
//! The rest of the workspace answers "run CC on *one* graph and prove
//! the answer" — the ladder in [`ecl_cc::ladder`] already degrades
//! gracefully when the simulated GPU misbehaves. This crate answers the
//! operational question one level up: run *hundreds* of CC jobs through
//! that ladder, on a machine that can lose its GPU mid-batch and a
//! process that can be `SIGKILL`ed mid-write, without losing work or
//! producing a byte of uncertified output.
//!
//! The moving parts, each in its own module:
//!
//! * [`queue`] — bounded MPMC job queue: backpressure by default,
//!   reject-with-[`QueueFull`](ecl_cc::EclError::QueueFull) admission
//!   control on request.
//! * [`backoff`] — deterministic seeded exponential backoff with equal
//!   jitter between retry rounds; reproducible per `(seed, job,
//!   attempt)` so batch runs replay exactly.
//! * [`breaker`] — per-backend circuit breakers
//!   (closed → open → half-open); a persistently failing GPU is skipped
//!   after a few trips and probed back in with the simulator's health
//!   probe, while jobs keep flowing down the CPU rungs.
//! * [`journal`] — crash-safe progress: an fsync'd append-only journal
//!   plus write-temp-then-rename result files, so a killed batch resumes
//!   from its last completed job and produces byte-identical results.
//! * [`spec`] — jobs-file parsing and deterministic graph specs.
//! * [`rounds`] — one job's certified retry rounds (backoff, fault-seed
//!   perturbation, breaker-filtered ladder or sharded run, deadline),
//!   shared by the batch engine and the server's `SUBMIT` workers.
//! * [`engine`] — the worker pool tying it all together.
//! * [`report`] — machine-readable batch report (hand-rolled JSON, like
//!   the bench harness: the workspace builds offline and std-only).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod breaker;
pub mod engine;
pub mod journal;
pub mod queue;
pub mod report;
pub mod rounds;
pub mod spec;

pub use backoff::BackoffPolicy;
pub use breaker::{Admission, BreakerConfig, BreakerState};
pub use engine::{labels_to_bytes, run_batch, EngineConfig};
pub use report::{BatchReport, JobReport, JobStatus};
pub use rounds::Rounds;
pub use spec::{parse_jobs, GraphSpec, JobSpec};
