//! `jobs`: `ecl_engine::run_batch` over a seeded mix of power-law and
//! mesh jobs, with `nproc` workers, journal and results directory on,
//! the fallback ladder on the Titan X profile and serial simulator
//! execution. The simulated GPU, `core::gpu`, the ladder and the engine
//! queue and journal do most of the work; the CPU kernels only run if a
//! GPU rung fails.
//!
//! The batch repeats until the measurement time is up (each batch in a
//! fresh directory); `op_ms` is the median batch wall time and
//! `op_cpu_ms` the process CPU time per batch. The traced run adds two
//! replays of the same jobs through the layers' public functions: the
//! simulator and certifier job by job, and the engine's per-job steps
//! (ladder, result file, journal record) on `nproc` threads.

use crate::host;
use crate::inputs;
use crate::stats::{median, overhead_pct, parallel_residual};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use ecl_cc::ladder::{self, LadderConfig};
use ecl_cc::{gpu, serial, EclConfig};
use ecl_engine::journal::{self, JournalEntry, JournalWriter};
use ecl_engine::{labels_to_bytes, run_batch, EngineConfig, JobSpec, JobStatus};
use ecl_gpu_sim::{DeviceProfile, ExecMode, Gpu};
use ecl_graph::CsrGraph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Builds of the job graphs per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Batches run even when the measurement time is shorter.
const MIN_BATCHES: usize = 3;
/// Simulated kernels in launch order, with their cycle metrics.
const KERNELS: [(&str, &str); 5] = [
    ("init", "gpu.kernel.init.cycles"),
    ("compute1", "gpu.kernel.compute1.cycles"),
    ("compute2", "gpu.kernel.compute2.cycles"),
    ("compute3", "gpu.kernel.compute3.cycles"),
    ("finalize", "gpu.kernel.finalize.cycles"),
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ladder_config(threads: usize) -> LadderConfig {
    LadderConfig {
        threads,
        profile: DeviceProfile::titan_x(),
        exec: ExecMode::Serial,
        ..LadderConfig::default()
    }
}

/// The serial ECL-CC answer for one job: result-file bytes and
/// component count.
struct Expected {
    bytes: Vec<u8>,
    components: usize,
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let workers = host::nproc();
    let jobs = inputs::job_mix(args.seed);

    let mut setup_ms = Vec::new();
    let mut graphs: Vec<CsrGraph> = Vec::new();
    for _ in 0..SETUP_REPS {
        graphs.clear();
        let (built, d) = tracer.time("graph.generate", None, || {
            jobs.iter()
                .map(|j| j.graph.build())
                .collect::<Result<Vec<_>, _>>()
        });
        graphs = built?;
        setup_ms.push(ms(d));
    }
    let batch_edges: usize = graphs.iter().map(|g| g.num_edges()).sum();
    let expected: Vec<Expected> = graphs
        .iter()
        .map(|g| {
            let r = serial::run(g, &EclConfig::default());
            Expected {
                components: r.num_components(),
                bytes: labels_to_bytes(&r.labels),
            }
        })
        .collect();
    out.notes.push(format!(
        "batch: {} jobs, {} undirected edges, specs {}",
        jobs.len(),
        batch_edges,
        jobs.iter()
            .map(|j| j.graph.canonical())
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let mut batch_ms: Vec<f64> = Vec::new();
    let mut plain_ms: Vec<f64> = Vec::new();
    let mut traced_ms: Vec<f64> = Vec::new();
    let mut retries = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let cpu_start = host::process_cpu_s("self");
    while batch_ms.len() < MIN_BATCHES || Instant::now() < deadline {
        let traced = tracer.enabled() && batch_ms.len() % 2 == 1;
        let dir = args.work_dir.join(format!("jobs-{}", batch_ms.len()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = EngineConfig {
            workers,
            ladder: ladder_config(workers),
            journal_path: Some(dir.join("batch.journal")),
            results_dir: Some(dir.join("results")),
            ..EngineConfig::default()
        };
        let start = Instant::now();
        let report = run_batch(&jobs, &cfg);
        let wall = start.elapsed();
        if traced {
            tracer.record("engine.run_batch", start, wall, None, 0);
        }
        let report = report?;
        out.attempted += jobs.len() as u64;
        retries += report.total_retries();
        // One check per job: done, serial ECL-CC's component count, and
        // a result file byte-identical to the serial labels.
        for (job, exp) in jobs.iter().zip(&expected) {
            let rep = report.jobs.iter().find(|r| r.id == job.id);
            let file = std::fs::read(journal::result_path(&dir.join("results"), job.id));
            let ok = rep.is_some_and(|r| {
                r.status == JobStatus::Done && r.components == Some(exp.components)
            }) && file.as_deref().ok() == Some(exp.bytes.as_slice());
            out.check(ok, || {
                format!(
                    "job {}: {:?} (serial ECL-CC {} components), result file {}",
                    job.name,
                    rep.map(|r| (r.status.name(), r.components)),
                    exp.components,
                    if file.is_ok() { "read" } else { "missing" }
                )
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
        (if traced {
            &mut traced_ms
        } else {
            &mut plain_ms
        })
        .push(ms(wall));
        batch_ms.push(ms(wall));
    }

    let cpu_per_batch_ms = (host::process_cpu_s("self") - cpu_start) * 1e3 / batch_ms.len() as f64;
    let batch_wall_ms = median(&batch_ms).unwrap_or(0.0);
    out.metrics
        .insert("setup_s", median(&setup_ms).unwrap_or(0.0) / 1e3);
    out.metrics.insert("op_ms", batch_wall_ms);
    out.metrics.insert("op_cpu_ms", cpu_per_batch_ms);
    out.metrics
        .insert("run.peak_rss_mb", host::peak_rss_mb("self"));
    out.metrics.insert("engine.retries", retries as f64);
    out.metrics
        .insert("graph.generate_ms", median(&setup_ms).unwrap_or(0.0));
    out.metrics.insert(
        "graph.vertices",
        graphs.iter().map(|g| g.num_vertices()).sum::<usize>() as f64,
    );
    out.metrics.insert("graph.edges", batch_edges as f64);
    out.metrics.insert(
        "graph.csr_bytes",
        graphs
            .iter()
            .map(|g| std::mem::size_of_val(g.offsets()) + std::mem::size_of_val(g.adjacency()))
            .sum::<usize>() as f64,
    );
    out.metrics.insert("run.round_ms", batch_wall_ms);
    out.notes.push(format!(
        "{} batches on {workers} workers; median batch {batch_wall_ms:.1} ms \
         ({:.2} M certified job edges/s), CPU per batch {cpu_per_batch_ms:.1} ms, {retries} retries; \
         per-batch ms {:?}",
        batch_ms.len(),
        batch_edges as f64 / (batch_wall_ms / 1e3) / 1e6,
        batch_ms
            .iter()
            .map(|b| b.round() as u64)
            .collect::<Vec<_>>()
    ));

    if tracer.enabled() {
        out.metrics.insert(
            "trace.overhead_pct",
            overhead_pct(
                median(&traced_ms).unwrap_or(0.0),
                median(&plain_ms).unwrap_or(0.0),
            ),
        );
        let (sim_ms, certify_ms) = replay_simulator(&graphs, &expected, &mut out, tracer);
        let (ladder_ms, write_ms, record_ms) =
            replay_engine(&jobs, &graphs, &expected, workers, args, &mut out, tracer)?;
        // Busy times summed over the workers, against the e2e batch wall.
        // The engine builds each job's graph from its spec inside the
        // batch, so the job-graph build time is one of the parts.
        let build_ms = median(&setup_ms).unwrap_or(0.0);
        let residual = parallel_residual(
            batch_wall_ms,
            &[build_ms, ladder_ms, write_ms, record_ms],
            workers,
        );
        out.metrics.insert("engine.residual_ms", residual);
        out.metrics.insert("run.residual_ms", residual);
        out.notes.push(format!(
            "layers per batch: sim {sim_ms:.1} ms, certify {certify_ms:.1} ms (job by job); \
             graph build {build_ms:.1} ms, ladder {ladder_ms:.1} ms, result files {write_ms:.1} ms, journal {record_ms:.1} ms \
             (summed over {workers} workers); residual {residual:.1} ms of the batch wall"
        ));
    }
    Ok(out)
}

/// Runs every job's graph through the simulated Titan X and the
/// certifier, job by job; sets the `gpu.*`, `gpu-sim.*` and `verify.*`
/// metrics and returns (simulator ms, certify ms) per batch. Re-runs the
/// first job to check that every simulated count repeats exactly.
fn replay_simulator(
    graphs: &[CsrGraph],
    expected: &[Expected],
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> (f64, f64) {
    let cfg = EclConfig::default();
    let simulate = |g: &CsrGraph| {
        let mut device = Gpu::new(DeviceProfile::titan_x());
        gpu::try_run(&mut device, g, &cfg)
    };
    let (mut sim_ms, mut certify_ms, mut cycles, mut l2r, mut l2w) = (0.0, 0.0, 0u64, 0u64, 0u64);
    let mut kernel_cycles = [0u64; KERNELS.len()];
    let mut first_stats = None;
    for (i, (g, exp)) in graphs.iter().zip(expected).enumerate() {
        out.attempted += 2;
        let (res, d) = tracer.time("gpu.sim", None, || simulate(g));
        sim_ms += ms(d);
        let (r, st) = match res {
            Ok(x) => x,
            Err(e) => {
                out.check(false, || format!("job {i}: simulator: {e}"));
                continue;
            }
        };
        out.check(labels_to_bytes(&r.labels) == exp.bytes, || {
            format!("job {i}: simulated labels differ from serial labels")
        });
        let (cert, d) = tracer.time("verify.certify", None, || ecl_verify::certify(g, &r.labels));
        certify_ms += ms(d);
        out.check(cert.is_ok(), || {
            format!("job {i}: simulated labels not certified")
        });
        cycles += st.total_cycles();
        l2r += st.l2_reads();
        l2w += st.l2_writes();
        for (k, (name, _)) in KERNELS.iter().enumerate() {
            kernel_cycles[k] += st.kernel(name).map_or(0, |s| s.cycles);
        }
        if i == 0 {
            first_stats = Some(st.to_json());
        }
    }
    if let Some(first) = first_stats {
        out.attempted += 1;
        let again = simulate(&graphs[0]).ok().map(|(_, st)| st.to_json());
        out.check(again.as_ref() == Some(&first), || {
            "job 0: simulated counts differ between two runs".to_string()
        });
    }
    let edges: usize = graphs.iter().map(|g| g.num_edges()).sum();
    out.metrics.insert("gpu.sim_ms", sim_ms);
    out.metrics.insert("gpu.cycles", cycles as f64);
    for (k, (_, metric)) in KERNELS.iter().enumerate() {
        out.metrics.insert(metric, kernel_cycles[k] as f64);
    }
    out.metrics.insert("gpu.l2_reads", l2r as f64);
    out.metrics.insert("gpu.l2_writes", l2w as f64);
    out.metrics.insert(
        "gpu-sim.host_ns_per_cycle",
        sim_ms * 1e6 / cycles.max(1) as f64,
    );
    out.metrics
        .insert("gpu-sim.sim_meps", edges as f64 / (sim_ms / 1e3) / 1e6);
    out.metrics.insert("verify.certify_ms", certify_ms);
    out.metrics.insert(
        "verify.share_of_certified",
        certify_ms / (sim_ms + certify_ms),
    );
    (sim_ms, certify_ms)
}

/// Replays the engine's per-job steps on `workers` threads: the ladder,
/// the atomic result-file write and the fsync'd journal record. Sets the
/// `core.ladder.*` and `engine.*` busy times and returns them (ms summed
/// over the batch).
fn replay_engine(
    jobs: &[JobSpec],
    graphs: &[CsrGraph],
    expected: &[Expected],
    workers: usize,
    args: &Args,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(f64, f64, f64), String> {
    let dir = args.work_dir.join("jobs-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let results = dir.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let journal_path = dir.join("batch.journal");
    let writer = JournalWriter::create(&journal_path, 0, jobs.len())
        .map_err(|e| format!("{}: {e}", journal_path.display()))?;
    let writer = Mutex::new(writer);
    let next = AtomicUsize::new(0);
    let cfg = ladder_config(workers);

    /// One job's replay: timings and what went wrong, if anything.
    struct JobTimes {
        job: usize,
        ladder: (Instant, Duration),
        write: (Instant, Duration),
        record: (Instant, Duration),
        attempts: usize,
        error: Option<String>,
        tid: usize,
    }

    let run_one = |job: usize, tid: usize| -> JobTimes {
        let g = &graphs[job];
        let t = Instant::now();
        let outcome = ladder::run_with_fallback(g, &cfg);
        let ladder_t = (t, t.elapsed());
        let mut times = JobTimes {
            job,
            ladder: ladder_t,
            write: (t, Duration::ZERO),
            record: (t, Duration::ZERO),
            attempts: 0,
            error: None,
            tid,
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                times.error = Some(format!("ladder: {e}"));
                return times;
            }
        };
        times.attempts = outcome.attempts.len();
        let bytes = labels_to_bytes(&outcome.result.labels);
        if bytes != expected[job].bytes {
            times.error = Some("ladder labels differ from serial labels".to_string());
        }
        let t = Instant::now();
        let written = journal::write_atomic(&journal::result_path(&results, job as u64), &bytes);
        times.write = (t, t.elapsed());
        if let Err(e) = written {
            times.error = Some(format!("result file: {e}"));
            return times;
        }
        let entry = JournalEntry {
            job_id: job as u64,
            backend: outcome.backend.name().to_string(),
            components: outcome.certificate.num_components,
            retries: 0,
            digest: journal::fnv1a(&bytes),
        };
        let mut w = writer
            .lock()
            .expect("journal writer lock poisoned by a panic");
        let t = Instant::now();
        let recorded = w.record(&entry);
        times.record = (t, t.elapsed());
        if let Err(e) = recorded {
            times.error = Some(format!("journal: {e}"));
        }
        times
    };

    let start = Instant::now();
    let all: Vec<JobTimes> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|tid| {
                let next = &next;
                let run_one = &run_one;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        if job >= jobs.len() {
                            return mine;
                        }
                        mine.push(run_one(job, tid));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let replay_wall = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    let (mut ladder_ms, mut write_ms, mut record_ms, mut attempts) = (0.0, 0.0, 0.0, 0usize);
    for jt in &all {
        out.attempted += 1;
        out.check(jt.error.is_none(), || {
            format!(
                "replay job {}: {}",
                jt.job,
                jt.error.clone().unwrap_or_default()
            )
        });
        ladder_ms += ms(jt.ladder.1);
        write_ms += ms(jt.write.1);
        record_ms += ms(jt.record.1);
        attempts += jt.attempts;
        tracer.record(
            "core.ladder.run",
            jt.ladder.0,
            jt.ladder.1,
            None,
            jt.tid + 1,
        );
        tracer.record(
            "engine.write_atomic",
            jt.write.0,
            jt.write.1,
            None,
            jt.tid + 1,
        );
        tracer.record(
            "engine.journal_record",
            jt.record.0,
            jt.record.1,
            None,
            jt.tid + 1,
        );
    }
    out.check(all.len() == jobs.len(), || "replay lost jobs".to_string());
    out.metrics.insert("core.ladder.run_ms", ladder_ms);
    out.metrics.insert("core.ladder.attempts", attempts as f64);
    out.metrics.insert("engine.write_atomic_ms", write_ms);
    out.metrics.insert("engine.journal_record_ms", record_ms);
    out.notes.push(format!(
        "engine replay: {:.1} ms wall, {attempts} ladder attempts for {} jobs",
        ms(replay_wall),
        jobs.len()
    ));
    Ok((ladder_ms, write_ms, record_ms))
}
