//! Property tests for the fault-tolerant batch engine: kill-and-resume
//! determinism, and breaker-mediated completion with a dead GPU.

use ecl_cc::ladder::Backend;
use ecl_cc::LadderConfig;
use ecl_engine::{parse_jobs, run_batch, BreakerConfig, EngineConfig, JobSpec, JobStatus};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const JOBS: &str = "\
ring      cycle:1200
cliques   cliques:4:25
rand-a    gnm:2000:6000:7
star      star:900
grid      grid:30:35
rand-b    gnm:1500:3000:3
rmat      rmat:8:8:5
path      path:1100
";

fn jobs() -> Vec<JobSpec> {
    parse_jobs(JOBS).unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ecl_engine_batch_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn read_results(dir: &Path, n: u64) -> HashMap<u64, Vec<u8>> {
    (0..n)
        .map(|id| {
            let path = ecl_engine::journal::result_path(dir, id);
            (
                id,
                std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
            )
        })
        .collect()
}

/// The headline resume property: for EVERY possible kill point, a run
/// killed after k completed jobs and then resumed produces byte-identical
/// certified result files to an uninterrupted run, and the final report
/// is complete with the resumed jobs accounted for.
#[test]
fn kill_anywhere_then_resume_is_byte_identical() {
    let jobs = jobs();
    let n = jobs.len() as u64;

    // Uninterrupted reference run.
    let ref_dir = tmpdir("ref");
    let cfg = EngineConfig {
        workers: 2,
        journal_path: Some(ref_dir.join("batch.journal")),
        results_dir: Some(ref_dir.join("results")),
        ..EngineConfig::default()
    };
    let report = run_batch(&jobs, &cfg).unwrap();
    assert!(report.is_complete(), "reference run incomplete: {report:?}");
    let reference = read_results(&cfg.results_dir.clone().unwrap(), n);

    for kill_after in 1..jobs.len() {
        let dir = tmpdir(&format!("kill{kill_after}"));
        let killed_cfg = EngineConfig {
            workers: 2,
            journal_path: Some(dir.join("batch.journal")),
            results_dir: Some(dir.join("results")),
            kill_after_jobs: Some(kill_after),
            ..EngineConfig::default()
        };
        let killed = run_batch(&jobs, &killed_cfg).unwrap();
        assert!(killed.aborted, "kill_after={kill_after} did not abort");
        assert!(!killed.is_complete());

        // Resume with a fresh config (no kill switch), same journal.
        let resumed_cfg = EngineConfig {
            resume: true,
            kill_after_jobs: None,
            ..killed_cfg.clone()
        };
        let resumed = run_batch(&jobs, &resumed_cfg).unwrap();
        assert!(
            resumed.is_complete(),
            "resume after kill_after={kill_after} incomplete: {resumed:?}"
        );
        // At least the journaled jobs must have been recovered, not rerun.
        assert!(
            resumed.resumed() >= kill_after,
            "kill_after={kill_after}: only {} jobs resumed",
            resumed.resumed()
        );
        assert_eq!(resumed.done() + resumed.resumed(), jobs.len());

        let after = read_results(&resumed_cfg.results_dir.clone().unwrap(), n);
        for id in 0..n {
            assert_eq!(
                after[&id], reference[&id],
                "kill_after={kill_after}: job {id} result differs from uninterrupted run"
            );
        }
    }
}

/// Resuming against a different jobs file must be refused — the journal
/// pins a digest of the job list.
#[test]
fn resume_rejects_changed_jobs_file() {
    let dir = tmpdir("digest");
    let cfg = EngineConfig {
        workers: 1,
        journal_path: Some(dir.join("batch.journal")),
        results_dir: Some(dir.join("results")),
        ..EngineConfig::default()
    };
    let jobs = jobs();
    run_batch(&jobs, &cfg).unwrap();

    let other = parse_jobs("ring cycle:1200\nextra path:10\n").unwrap();
    let resume_cfg = EngineConfig {
        resume: true,
        ..cfg
    };
    let err = run_batch(&other, &resume_cfg).unwrap_err();
    assert!(err.contains("different job list"), "got: {err}");
}

/// A tampered result file is detected by its digest on resume and the
/// job reruns instead of trusting the corrupted bytes.
#[test]
fn resume_reruns_tampered_result() {
    let dir = tmpdir("tamper");
    let cfg = EngineConfig {
        workers: 1,
        journal_path: Some(dir.join("batch.journal")),
        results_dir: Some(dir.join("results")),
        ..EngineConfig::default()
    };
    let jobs = jobs();
    run_batch(&jobs, &cfg).unwrap();

    let victim = ecl_engine::journal::result_path(&dir.join("results"), 2);
    let good = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, b"0 999\n").unwrap();

    let resume_cfg = EngineConfig {
        resume: true,
        ..cfg
    };
    let report = run_batch(&jobs, &resume_cfg).unwrap();
    assert!(report.is_complete());
    // Job 2 was demoted to pending and rerun...
    let rerun = report.jobs.iter().find(|j| j.id == 2).unwrap();
    assert_eq!(rerun.status.name(), "done", "tampered job must rerun");
    // ...and its rewritten bytes match the original certified answer.
    assert_eq!(std::fs::read(&victim).unwrap(), good);
}

/// The breaker property: with a GPU that can never succeed (1-cycle
/// watchdog trips on every kernel), the GPU breaker opens after the
/// configured failure threshold, later jobs skip the GPU entirely, and
/// every job still completes certified on a CPU rung — zero lost jobs.
#[test]
fn dead_gpu_trips_breaker_and_batch_completes_on_cpu() {
    let jobs = jobs();
    let mut cfg = EngineConfig {
        workers: 1, // serial workers: deterministic failure accounting
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 3_600_000, // never half-opens within the test
            half_open_successes: 1,
        },
        ..EngineConfig::default()
    };
    cfg.ladder.watchdog = Some(1);

    let report = run_batch(&jobs, &cfg).unwrap();
    assert!(report.is_complete(), "jobs lost: {report:?}");
    assert_eq!(report.done(), jobs.len());

    // Every job completed on a CPU backend.
    for job in &report.jobs {
        let backend = job.backend.as_deref().unwrap();
        assert_ne!(backend, Backend::GpuSim.name(), "job {} on GPU", job.id);
    }

    // The GPU breaker tripped and is open; its failures are recorded.
    let gpu = report
        .breakers
        .iter()
        .find(|b| b.backend == Backend::GpuSim.name())
        .unwrap();
    assert_eq!(gpu.state, "open");
    assert!(gpu.trips >= 1, "breaker never tripped");
    assert!(gpu.failures >= 2);
    assert_eq!(report.total_trips(), gpu.trips);

    // Once open, jobs stop offering the GPU: the attempt trail of the
    // later jobs contains no GPU attempts at all.
    let last = report.jobs.iter().max_by_key(|j| j.id).unwrap();
    assert!(
        last.attempts
            .iter()
            .all(|a| a.backend != Backend::GpuSim.name()),
        "late job still attempted the tripped GPU: {:?}",
        last.attempts
    );

    // The structured error chain survived into the report: some recorded
    // GPU failure names the kernel that tripped the watchdog.
    let named_kernel = report.jobs.iter().flat_map(|j| &j.attempts).any(|a| {
        a.error
            .as_ref()
            .is_some_and(|e| e.kernel.is_some() && e.kind.contains("watchdog"))
    });
    assert!(named_kernel, "no attempt kept the originating kernel name");
}

/// A half-open breaker probes the backend and closes again once the
/// fault clears: first batch (dead GPU) trips it, second batch (healthy
/// GPU, zero cooldown) probes and recovers.
#[test]
fn breaker_recovers_after_fault_clears() {
    let jobs = parse_jobs("a cycle:300\nb cliques:2:15\nc path:400\nd gnm:500:1500:1\n").unwrap();
    let mut cfg = EngineConfig {
        workers: 1,
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 0, // immediately half-open
            half_open_successes: 1,
        },
        ..EngineConfig::default()
    };
    // One retry round, dead GPU: trips the breaker, then half-open probes
    // (the device health probe) keep failing, so jobs run on CPU.
    cfg.ladder.watchdog = Some(1);
    cfg.ladder.attempts_per_stage = 1;
    let report = run_batch(&jobs, &cfg).unwrap();
    assert!(report.is_complete());
    let gpu = report
        .breakers
        .iter()
        .find(|b| b.backend == Backend::GpuSim.name())
        .unwrap();
    assert!(gpu.trips >= 1);

    // Fault cleared: a fresh batch with the same breaker tuning runs the
    // probe, succeeds, and the GPU serves jobs again.
    cfg.ladder.watchdog = None;
    let report = run_batch(&jobs, &cfg).unwrap();
    assert!(report.is_complete());
    assert!(
        report
            .jobs
            .iter()
            .all(|j| j.backend.as_deref() == Some(Backend::GpuSim.name())),
        "healthy GPU not used: {report:?}"
    );
}

/// A per-round deadline no run can meet: each round's certified answer
/// arrives late and is discarded, so the job fails `timeout` after
/// `retries + 1` rounds, each leaving one timeout attempt in the trail.
#[test]
fn missed_deadline_fails_every_round_with_timeout() {
    let jobs = parse_jobs("big gnm:200000:600000:1\n").unwrap();
    let cfg = EngineConfig {
        workers: 1,
        deadline_ms: Some(0),
        ladder: LadderConfig {
            stages: vec![Backend::Serial],
            ..LadderConfig::default()
        },
        ..EngineConfig::default()
    };
    let report = run_batch(&jobs, &cfg).unwrap();
    let job = &report.jobs[0];
    assert_eq!(job.status, JobStatus::Failed, "{job:?}");
    assert_eq!(job.error.as_ref().unwrap().kind, "timeout");
    assert_eq!(job.retries, cfg.retries);
    let timeouts: Vec<u32> = job
        .attempts
        .iter()
        .filter(|a| a.error.as_ref().is_some_and(|e| e.kind == "timeout"))
        .map(|a| a.round)
        .collect();
    assert_eq!(timeouts, (0..=cfg.retries).collect::<Vec<_>>());
}

/// Admission control: a queue of capacity 1 with rejection enabled and a
/// single slow consumer must reject some jobs with `queue-full`, and the
/// report must say so.
#[test]
fn admission_control_rejects_when_full() {
    // One worker, capacity 1, and jobs that take long enough that the
    // producer outpaces the consumer.
    let jobs = jobs();
    let cfg = EngineConfig {
        workers: 1,
        queue_capacity: 1,
        reject_when_full: true,
        ..EngineConfig::default()
    };
    let report = run_batch(&jobs, &cfg).unwrap();
    // Either everything squeaked through (fast machine) or the rejected
    // jobs are reported as failed with the queue-full kind — never lost.
    let accounted = report.done() + report.failed();
    assert_eq!(accounted, jobs.len(), "jobs lost: {report:?}");
    assert_eq!(report.queue_rejections, report.failed());
    for j in &report.jobs {
        if j.status.name() == "failed" {
            assert_eq!(j.error.as_ref().unwrap().kind, "queue-full");
        }
    }
}

/// Sharded batch execution: `shards_per_job > 1` routes every job through
/// the multi-device coordinator, yet the persisted result files are
/// byte-identical to a single-device batch — which is what lets a killed
/// sharded run resume against a serial journal and vice versa.
#[test]
fn sharded_batch_results_byte_identical_to_single_device() {
    let jobs = jobs();
    let n = jobs.len() as u64;

    let ref_dir = tmpdir("shard_ref");
    let cfg = EngineConfig {
        workers: 2,
        results_dir: Some(ref_dir.join("results")),
        ..EngineConfig::default()
    };
    let report = run_batch(&jobs, &cfg).unwrap();
    assert!(report.is_complete());
    let reference = read_results(&cfg.results_dir.clone().unwrap(), n);

    for shards in [2usize, 3] {
        let dir = tmpdir(&format!("shard{shards}"));
        let mut cfg = EngineConfig {
            workers: 2,
            shards_per_job: shards,
            journal_path: Some(dir.join("batch.journal")),
            results_dir: Some(dir.join("results")),
            ..EngineConfig::default()
        };
        // Interconnect chaos on top: retransmission must not leak into
        // the persisted bytes.
        cfg.ladder.fault = ecl_gpu_sim::FaultPlan::shard_chaos(11);
        let report = run_batch(&jobs, &cfg).unwrap();
        assert!(report.is_complete(), "shards={shards}: {report:?}");
        for j in &report.jobs {
            let backend = j.backend.as_deref().unwrap_or("none");
            assert!(
                backend.starts_with(&format!("sharded:{shards}")),
                "job {} ran on {backend}, not sharded",
                j.name
            );
        }
        let got = read_results(&cfg.results_dir.clone().unwrap(), n);
        assert_eq!(got, reference, "shards={shards} changed result bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// A batch journaled by a sharded run resumes cleanly into a
/// single-device engine: the digests cover label bytes only, so the
/// resumed engine accepts every sharded entry as-is.
#[test]
fn sharded_journal_resumes_on_single_device_engine() {
    let jobs = jobs();
    let dir = tmpdir("shard_resume");
    let killed_cfg = EngineConfig {
        workers: 1,
        shards_per_job: 4,
        journal_path: Some(dir.join("batch.journal")),
        results_dir: Some(dir.join("results")),
        kill_after_jobs: Some(3),
        ..EngineConfig::default()
    };
    let killed = run_batch(&jobs, &killed_cfg).unwrap();
    assert!(killed.aborted);

    let resumed_cfg = EngineConfig {
        workers: 2,
        shards_per_job: 1,
        resume: true,
        journal_path: Some(dir.join("batch.journal")),
        results_dir: Some(dir.join("results")),
        ..EngineConfig::default()
    };
    let report = run_batch(&jobs, &resumed_cfg).unwrap();
    assert!(report.is_complete(), "{report:?}");
    let resumed: Vec<_> = report
        .jobs
        .iter()
        .filter(|j| j.status.name() == "resumed")
        .collect();
    assert!(
        resumed.len() >= 3,
        "sharded journal entries not honored: {report:?}"
    );
    assert!(resumed
        .iter()
        .any(|j| j.backend.as_deref().unwrap_or("").starts_with("sharded:4")));
    let _ = std::fs::remove_dir_all(&dir);
}
