//! Graceful-degradation fallback ladder.
//!
//! Production pipelines cannot afford a wrong answer, but they *can*
//! afford a slower one. The ladder runs ECL-CC on the fastest available
//! backend first and walks down on failure:
//!
//! ```text
//! simulated GPU  →  multicore CPU  →  serial
//! ```
//!
//! Every stage's output is certified by the independent checker in
//! [`ecl_verify`] *before* it is accepted — a backend that silently
//! produces a wrong labeling (not just one that crashes) is treated as
//! failed and the ladder degrades. Each stage is additionally isolated
//! with [`std::panic::catch_unwind`], so a panicking backend cannot take
//! the process down with it.
//!
//! A stage is retried once (configurable) before degrading; GPU retries
//! perturb the fault-plan seed so a transient injected fault does not
//! deterministically repeat, mirroring how real transient faults behave.

use crate::config::EclConfig;
use crate::error::EclError;
use crate::result::CcResult;
use crate::{gpu, parallel, serial};
use ecl_gpu_sim::{DeviceProfile, ExecMode, FaultPlan, Gpu};
use ecl_graph::CsrGraph;
use ecl_verify::Certificate;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One rung of the ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// ECL-CC's kernels on the SIMT simulator: five launches, or seven
    /// under sampling.
    GpuSim,
    /// The OpenMP-style port on the workspace thread pool.
    ParallelCpu,
    /// Plain sequential ECL-CC — the rung of last resort.
    Serial,
}

impl Backend {
    /// Short stable name for logs and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::GpuSim => "gpu-sim",
            Backend::ParallelCpu => "parallel-cpu",
            Backend::Serial => "serial",
        }
    }
}

/// How the ladder should run.
#[derive(Clone, Debug)]
pub struct LadderConfig {
    /// Algorithm configuration shared by every backend.
    pub cc: EclConfig,
    /// Stages to try, in order. Defaults to GPU → parallel → serial.
    pub stages: Vec<Backend>,
    /// Attempts per stage before degrading (≥ 1). Defaults to 2:
    /// try, retry once, degrade.
    pub attempts_per_stage: usize,
    /// Threads for the parallel-CPU stage.
    pub threads: usize,
    /// Device profile for the GPU stage.
    pub profile: DeviceProfile,
    /// Fault plan installed on the simulated GPU (tests and demos inject
    /// faults here; production uses [`FaultPlan::none`]).
    pub fault: FaultPlan,
    /// Per-kernel cycle budget for the GPU watchdog, if any.
    pub watchdog: Option<u64>,
    /// Read by nothing: the simulator has one execution mode. Kept
    /// because the benchmark's `jobs` workload sets it; the next
    /// benchmark change drops that line and then this field.
    pub exec: ExecMode,
    /// Observability recorder. When present and enabled, the ladder
    /// emits one wall-clock span per attempt (the attempt chain) and the
    /// GPU stage forwards the recorder to the simulated device for
    /// kernel spans. `None` (the default) records nothing.
    pub recorder: Option<ecl_obs::Recorder>,
    /// Request-scoped trace context. When present, every attempt span is
    /// a child of this context (`trace_id`/`span`/`parent` args) and the
    /// GPU stage forwards a per-attempt child context to the device so
    /// kernel spans hang off the attempt — one connected tree per
    /// request in the Chrome export. `None` leaves spans untagged.
    pub trace: Option<ecl_obs::TraceCtx>,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            cc: EclConfig::default(),
            stages: vec![Backend::GpuSim, Backend::ParallelCpu, Backend::Serial],
            attempts_per_stage: 2,
            threads: 4,
            profile: DeviceProfile::test_tiny(),
            fault: FaultPlan::none(),
            watchdog: None,
            exec: ExecMode::Serial,
            recorder: None,
            trace: None,
        }
    }
}

/// Record of one attempt, kept for every attempt the ladder made — the
/// audit trail of how the final answer was reached.
#[derive(Clone, Debug)]
pub struct StageAttempt {
    /// Which backend ran.
    pub backend: Backend,
    /// 1-based attempt number within that stage.
    pub attempt: usize,
    /// What happened.
    pub outcome: AttemptOutcome,
}

/// Outcome of a single attempt.
#[derive(Clone, Debug)]
pub enum AttemptOutcome {
    /// The backend's labeling passed certification.
    Certified {
        /// Component count established by the certificate.
        num_components: usize,
    },
    /// The backend failed: structured error, contained panic, or a
    /// labeling rejected by the checker. The full [`EclError`] is kept
    /// (not a flattened message) so the originating kernel name and
    /// cycle counts survive into reports.
    Failed {
        /// The structured failure.
        error: EclError,
    },
}

impl AttemptOutcome {
    /// Human-readable failure reason; `None` for certified outcomes.
    pub fn reason(&self) -> Option<String> {
        match self {
            AttemptOutcome::Certified { .. } => None,
            AttemptOutcome::Failed { error } => Some(error.to_string()),
        }
    }
}

/// A certified answer, plus the trail of attempts that produced it.
#[derive(Clone, Debug)]
pub struct LadderOutcome {
    /// The accepted (certified) labeling.
    pub result: CcResult,
    /// The certificate the checker issued for it.
    pub certificate: Certificate,
    /// The backend whose answer was accepted.
    pub backend: Backend,
    /// Every attempt made, in order, including failures.
    pub attempts: Vec<StageAttempt>,
}

/// Runs the fallback ladder: each stage in `cfg.stages` is attempted up
/// to `cfg.attempts_per_stage` times; the first labeling that passes
/// certification is returned.
///
/// When [`EclConfig::sampling`] is set the whole ladder first runs with
/// the adaptive pipeline; if *every* stage of that pass fails
/// certification, the ladder re-runs every stage with sampling disabled
/// (the full-pass algorithm) before giving up, and the audit trail keeps
/// the attempts of both passes. Only if the final pass also exhausts
/// does this return [`EclError::Exhausted`].
pub fn run_with_fallback(g: &CsrGraph, cfg: &LadderConfig) -> Result<LadderOutcome, EclError> {
    let mut attempts: Vec<StageAttempt> = Vec::new();
    let mut last_error: Option<EclError> = None;

    if let Some(out) = run_pass(g, cfg, &cfg.cc, &mut attempts, &mut last_error) {
        return Ok(out);
    }
    if cfg.cc.sampling.is_some() {
        // Adaptive pass exhausted on every rung: degrade the *algorithm*,
        // not just the backend, and walk the ladder again without
        // sampling.
        let mut cc = cfg.cc;
        cc.sampling = None;
        if let Some(out) = run_pass(g, cfg, &cc, &mut attempts, &mut last_error) {
            return Ok(out);
        }
    }

    Err(EclError::Exhausted {
        attempts: attempts.len(),
        last: last_error.map(Box::new),
    })
}

/// One full walk down the ladder under a fixed algorithm configuration.
/// Appends every attempt to `attempts`; returns the certified outcome or
/// `None` when every stage exhausted its tries.
fn run_pass(
    g: &CsrGraph,
    cfg: &LadderConfig,
    cc: &EclConfig,
    attempts: &mut Vec<StageAttempt>,
    last_error: &mut Option<EclError>,
) -> Option<LadderOutcome> {
    for &backend in &cfg.stages {
        for attempt in 1..=cfg.attempts_per_stage.max(1) {
            let span_start = cfg
                .recorder
                .as_ref()
                .filter(|r| r.is_enabled())
                .map(|r| r.now_us());
            // Each attempt is its own hop in the request's span tree;
            // the GPU stage hands this child context to the device so
            // kernel spans become the attempt's children.
            let attempt_ctx = cfg.trace.map(|t| t.child());
            let produced = run_stage(g, cfg, cc, backend, attempt, attempt_ctx);
            let error = match produced {
                Ok(result) => match ecl_verify::certify(g, &result.labels) {
                    Ok(certificate) => {
                        emit_attempt_span(
                            cfg,
                            backend,
                            attempt,
                            span_start,
                            attempt_ctx,
                            Ok(certificate.num_components),
                        );
                        attempts.push(StageAttempt {
                            backend,
                            attempt,
                            outcome: AttemptOutcome::Certified {
                                num_components: certificate.num_components,
                            },
                        });
                        return Some(LadderOutcome {
                            result,
                            certificate,
                            backend,
                            attempts: std::mem::take(attempts),
                        });
                    }
                    Err(ve) => EclError::Verification(ve),
                },
                Err(e) => e,
            };
            emit_attempt_span(cfg, backend, attempt, span_start, attempt_ctx, Err(&error));
            attempts.push(StageAttempt {
                backend,
                attempt,
                outcome: AttemptOutcome::Failed {
                    error: error.clone(),
                },
            });
            *last_error = Some(error);
        }
    }
    None
}

/// Records one ladder attempt as a wall-clock span on the engine
/// timeline, with the outcome (certified component count or failure
/// reason) attached as span args. No-op when recording is off.
fn emit_attempt_span(
    cfg: &LadderConfig,
    backend: Backend,
    attempt: usize,
    span_start: Option<u64>,
    ctx: Option<ecl_obs::TraceCtx>,
    outcome: Result<usize, &EclError>,
) {
    let (Some(rec), Some(start)) = (cfg.recorder.as_ref(), span_start) else {
        return;
    };
    let dur = rec.now_us().saturating_sub(start);
    let mut ev = ecl_obs::TraceEvent::span(
        &format!("ladder:{}", backend.name()),
        "ladder",
        ecl_obs::PID_ENGINE,
        0,
        start,
        dur,
    )
    .arg_u64("attempt", attempt as u64);
    if let (Some(ctx), Some(parent)) = (ctx, cfg.trace) {
        ev = ecl_obs::tag_span(ev, &ctx, Some(parent.span_id));
    }
    ev = match outcome {
        Ok(num_components) => ev
            .arg_str("outcome", "certified")
            .arg_u64("num_components", num_components as u64),
        Err(error) => ev
            .arg_str("outcome", "failed")
            .arg_str("error", &error.to_string()),
    };
    rec.record(ev);
    rec.add_metric("ladder.attempts", 1.0);
    match outcome {
        Ok(_) => rec.add_metric("ladder.certified", 1.0),
        Err(_) => rec.add_metric("ladder.failed", 1.0),
    }
}

/// Runs one backend attempt, containing panics at the stage boundary.
/// Returns the raw (uncertified) labeling or the structured failure —
/// watchdog trips and memory faults keep their kernel name and cycle
/// counts instead of being flattened into a message.
fn run_stage(
    g: &CsrGraph,
    cfg: &LadderConfig,
    cc: &EclConfig,
    backend: Backend,
    attempt: usize,
    attempt_ctx: Option<ecl_obs::TraceCtx>,
) -> Result<CcResult, EclError> {
    match backend {
        Backend::GpuSim => {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                // Fresh device per attempt: after a watchdog abort or
                // memory fault, device state is indeterminate by contract.
                let mut device = Gpu::new(cfg.profile.clone());
                let mut plan = cfg.fault;
                // Retries reseed the plan so a transient injected fault
                // does not repeat deterministically.
                plan.seed = plan.seed.wrapping_add(attempt as u64 - 1);
                device.set_fault_plan(plan);
                device.set_watchdog(cfg.watchdog);
                device.set_recorder(cfg.recorder.clone());
                device.set_trace_ctx(attempt_ctx);
                gpu::try_run(&mut device, g, cc).map(|(r, _)| r)
            }));
            match caught {
                Ok(Ok(result)) => Ok(result),
                Ok(Err(e)) => Err(e),
                Err(payload) => Err(EclError::StagePanicked {
                    stage: backend.name().to_string(),
                    detail: panic_message(&payload),
                }),
            }
        }
        Backend::ParallelCpu => {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                parallel::run(g, cfg.threads.max(1), cc)
            }));
            caught.map_err(|p| EclError::StagePanicked {
                stage: backend.name().to_string(),
                detail: panic_message(&p),
            })
        }
        Backend::Serial => {
            let caught = catch_unwind(AssertUnwindSafe(|| serial::run(g, cc)));
            caught.map_err(|p| EclError::StagePanicked {
                stage: backend.name().to_string(),
                detail: panic_message(&p),
            })
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::generate;

    #[test]
    fn healthy_ladder_accepts_gpu_first_try() {
        let g = generate::gnm_random(200, 600, 5);
        let out = run_with_fallback(&g, &LadderConfig::default()).unwrap();
        assert_eq!(out.backend, Backend::GpuSim);
        assert_eq!(out.attempts.len(), 1);
        assert!(matches!(
            out.attempts[0].outcome,
            AttemptOutcome::Certified { .. }
        ));
        assert_eq!(out.certificate.num_components, out.result.num_components());
    }

    #[test]
    fn watchdog_starvation_degrades_to_cpu() {
        // A 1-cycle budget trips on the very first charge, every attempt:
        // the GPU stage can never succeed, so the ladder must degrade and
        // still return a certified answer.
        let g = generate::disjoint_cliques(3, 10);
        let cfg = LadderConfig {
            watchdog: Some(1),
            ..LadderConfig::default()
        };
        let out = run_with_fallback(&g, &cfg).unwrap();
        assert_eq!(out.backend, Backend::ParallelCpu);
        assert_eq!(out.certificate.num_components, 3);
        // Audit trail: two failed GPU attempts, then the accepted one.
        assert_eq!(out.attempts.len(), 3);
        for a in &out.attempts[..2] {
            assert_eq!(a.backend, Backend::GpuSim);
            match &a.outcome {
                AttemptOutcome::Failed { error } => {
                    assert!(error.to_string().contains("watchdog"), "error: {error}");
                    // The structured chain keeps the kernel that tripped
                    // and its cycle accounting.
                    assert!(error.kernel_name().is_some(), "kernel name lost: {error:?}");
                    let (spent, budget) = error.watchdog_cycles().unwrap();
                    assert_eq!(budget, 1);
                    assert!(spent > budget);
                }
                other => panic!("expected failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn serial_only_ladder_works() {
        let g = generate::cycle(40);
        let cfg = LadderConfig {
            stages: vec![Backend::Serial],
            ..LadderConfig::default()
        };
        let out = run_with_fallback(&g, &cfg).unwrap();
        assert_eq!(out.backend, Backend::Serial);
        assert_eq!(out.certificate.num_components, 1);
    }

    #[test]
    fn empty_stage_list_exhausts() {
        let g = generate::path(5);
        let cfg = LadderConfig {
            stages: vec![],
            ..LadderConfig::default()
        };
        assert!(matches!(
            run_with_fallback(&g, &cfg),
            Err(EclError::Exhausted { attempts: 0, .. })
        ));
    }

    #[test]
    fn sampling_ladder_certifies_and_matches_baseline_labels() {
        let g = generate::kronecker(10, 8, 6);
        let cfg = LadderConfig {
            cc: EclConfig::with_sampling(2),
            ..LadderConfig::default()
        };
        let out = run_with_fallback(&g, &cfg).unwrap();
        assert_eq!(out.backend, Backend::GpuSim);
        assert_eq!(out.attempts.len(), 1);
        let base = run_with_fallback(&g, &LadderConfig::default()).unwrap();
        assert_eq!(out.result.labels, base.result.labels);
    }

    #[test]
    fn sampling_pass_exhaustion_retries_without_sampling() {
        // GPU-only ladder with an impossible watchdog: the adaptive pass
        // exhausts, then the ladder must walk again with sampling off —
        // visible as twice the attempts in the audit trail.
        let g = generate::disjoint_cliques(3, 10);
        let cfg = LadderConfig {
            cc: EclConfig::with_sampling(2),
            stages: vec![Backend::GpuSim],
            watchdog: Some(1),
            ..LadderConfig::default()
        };
        match run_with_fallback(&g, &cfg) {
            Err(EclError::Exhausted { attempts, .. }) => assert_eq!(attempts, 4),
            other => panic!("expected exhaustion, got {other:?}"),
        }
        // And with a CPU rung available, the adaptive pass succeeds there
        // before the algorithm fallback is ever needed.
        let cfg = LadderConfig {
            cc: EclConfig::with_sampling(2),
            watchdog: Some(1),
            ..LadderConfig::default()
        };
        let out = run_with_fallback(&g, &cfg).unwrap();
        assert_eq!(out.backend, Backend::ParallelCpu);
        assert_eq!(out.certificate.num_components, 3);
    }

    #[test]
    fn faulty_gpu_still_yields_certified_answer() {
        // Heavy fault injection: whatever happens on the GPU rung, the
        // ladder's answer must be certified-correct.
        let g = generate::gnm_random(150, 400, 9);
        let cfg = LadderConfig {
            fault: FaultPlan::everything(0xfa11),
            watchdog: Some(2_000_000),
            ..LadderConfig::default()
        };
        let out = run_with_fallback(&g, &cfg).unwrap();
        assert_eq!(
            out.certificate.num_components,
            ecl_graph::stats::count_components(&g)
        );
    }
}
