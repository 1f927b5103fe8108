//! Seeded end-to-end and per-layer benchmark of the repository's three
//! hot stacks: the CPU ECL-CC kernels (`social`, `road`), the simulated
//! GPU behind the certified job path (`jobs`), and the serve request
//! path (`serve-mixed`). See README.md for the why of each workload.
//!
//! Usage: `perfbench --workload W --seed N --seconds S --trace 0|1
//! --ecl-cc PATH --work-dir DIR`. The last stdout line is the JSON
//! result; the lines before it are a human-readable report of the run.

mod graphs;
mod host;
mod inputs;
mod jobs;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names, in the order of `BENCHMARK.json`.
pub const WORKLOADS: &[&str] = &["social", "road", "jobs", "serve-mixed"];

/// End-to-end metrics: name and unit. Every workload reports all of
/// them, each for its own unit of work (see README.md): a round of the
/// four CC calls (`social`, `road`), a batch (`jobs`), a request
/// (`serve-mixed`).
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("op_ms", "ms"), ("op_cpu_ms", "ms")];

/// Per-layer metrics of the traced run: name and unit. Every traced run
/// reports all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_ms", "ms"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("graph.csr_bytes", "bytes"),
    ("core.serial.run_ms", "ms"),
    ("core.parallel.run_ms", "ms"),
    ("core.parallel.edges_processed", "count"),
    ("core.parallel.hooks", "count"),
    ("core.parallel.speedup_vs_serial", "x"),
    ("core.sampling.run_ms", "ms"),
    ("core.sampling.edges_inspected", "count"),
    ("core.sampling.skipped_vertices", "count"),
    ("core.sampling.inspected_frac", "ratio"),
    ("verify.certify_ms", "ms"),
    ("verify.share_of_certified", "ratio"),
    ("gpu.sim_ms", "ms"),
    ("gpu.cycles", "cycles"),
    ("gpu.kernel.init.cycles", "cycles"),
    ("gpu.kernel.compute1.cycles", "cycles"),
    ("gpu.kernel.compute2.cycles", "cycles"),
    ("gpu.kernel.compute3.cycles", "cycles"),
    ("gpu.kernel.finalize.cycles", "cycles"),
    ("gpu.l2_reads", "count"),
    ("gpu.l2_writes", "count"),
    ("gpu-sim.host_ns_per_cycle", "ns"),
    ("gpu-sim.sim_meps", "Medges/s"),
    ("core.ladder.run_ms", "ms"),
    ("core.ladder.attempts", "count"),
    ("engine.journal_record_ms", "ms"),
    ("engine.write_atomic_ms", "ms"),
    ("engine.residual_ms", "ms"),
    ("engine.retries", "count"),
    ("serve.protocol.parse_ns", "ns"),
    ("serve.state.add_us", "us"),
    ("serve.wal.append_us", "us"),
    ("serve.state.snapshot_ms", "ms"),
    ("serve.snapshots", "count"),
    ("core.incremental.add_ns", "ns"),
    ("core.incremental.conn_ns", "ns"),
    ("serve.server.residual_us", "us"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.rps", "1/s"),
    ("serve.add_p50_us", "us"),
    ("serve.add_p99_us", "us"),
    ("serve.conn_p50_us", "us"),
    ("serve.conn_p99_us", "us"),
    ("serve.add_samples", "count"),
    ("serve.conn_samples", "count"),
    ("run.round_ms", "ms"),
    ("run.residual_ms", "ms"),
    ("run.ops_failed_frac", "ratio"),
    ("run.peak_rss_mb", "MiB"),
    ("trace.overhead_pct", "%"),
    ("host.nproc", "count"),
    ("host.steal_pct", "%"),
    ("host.loadgen_cpu_pct", "%"),
];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// The `ecl-cc` binary the serve workload starts.
    pub ecl_cc: PathBuf,
    /// Working directory for journals, results, server state and traces.
    pub work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--ecl-cc" | "--work-dir" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (social, road, jobs, serve-mixed)"
        ));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        ecl_cc: PathBuf::from(get("--ecl-cc")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (CC runs, certifications, jobs, requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong answer.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a correctness check on an already-counted operation; a
    /// failed check fails the operation and the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(args: &Args, out: &Outcome) -> String {
    let mut metrics = Vec::new();
    let mut emit = |name: &str, unit: &str| {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    };
    if args.trace {
        for (name, unit) in PER_LAYER {
            emit(name, unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            emit(name, unit);
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.errors.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let probe = host::NoiseProbe::start();
    let mut tracer = trace::Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "social" => graphs::run(graphs::Kind::Social, &args, &mut tracer),
        "road" => graphs::run(graphs::Kind::Road, &args, &mut tracer),
        "jobs" => jobs::run(&args, &mut tracer),
        _ => serve::run(&args, &mut tracer),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let noise = probe.finish();
    out.metrics.insert("host.nproc", host::nproc() as f64);
    out.metrics.insert("host.steal_pct", noise.steal_pct);
    out.metrics
        .insert("host.loadgen_cpu_pct", noise.loadgen_cpu_pct);
    out.metrics.insert(
        "run.ops_failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if args.trace {
        // One file per workload, overwritten by the next traced run, so
        // repeated runs do not pile up traces.
        let path = args.work_dir.join(format!("trace-{}.json", args.workload));
        match tracer.write_chrome(&path) {
            Ok(()) => out.notes.push(format!(
                "trace: {} spans in {}",
                tracer.len(),
                path.display()
            )),
            Err(e) => out
                .notes
                .push(format!("trace: not written ({}: {e})", path.display())),
        }
    }

    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} rev={} steal={:.2}% loadgen_cpu={:.1}%",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        host::git_rev(),
        noise.steal_pct,
        noise.loadgen_cpu_pct
    );
    for line in &out.notes {
        println!("# {line}");
    }
    for e in &out.errors {
        println!("# FAILED: {e}");
    }
    println!("{}", result_line(&args, &out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, key: &str) -> Vec<String> {
        // The metric lists in BENCHMARK.json are flat arrays of objects
        // whose first key is "name".
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("array end");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layer);
        assert_eq!(names_in(&json, "workloads"), WORKLOADS);
    }

    #[test]
    fn args_are_validated() {
        let ok: Vec<String> = [
            "--workload",
            "road",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
            "--ecl-cc",
            "x",
            "--work-dir",
            "w",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&ok).expect("valid");
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("road", 3, true));
        let mut bad = ok.clone();
        bad[1] = "nope".into();
        assert!(parse_args(&bad).is_err());
        let mut bad = ok.clone();
        bad[7] = "2".into();
        assert!(parse_args(&bad).is_err());
        assert!(parse_args(&ok[..10]).is_err());
    }

    #[test]
    fn result_line_reports_every_end_to_end_metric() {
        let args = parse_args(
            &[
                "--workload",
                "jobs",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--ecl-cc",
                "x",
                "--work-dir",
                "w",
            ]
            .map(String::from),
        )
        .expect("valid");
        let mut out = Outcome::default();
        out.attempted += 8;
        out.metrics.insert("op_ms", 5.25);
        out.metrics.insert("setup_s", 0.5);
        out.metrics.insert("op_cpu_ms", 9.5);
        out.metrics.insert("run.peak_rss_mb", 100.0);
        out.metrics.insert("run.round_ms", 5.0);
        let line = result_line(&args, &out);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"op_ms\": {\"value\": 5.25, \"unit\": \"ms\"}, \
             \"op_cpu_ms\": {\"value\": 9.5, \"unit\": \"ms\"}}}"
        );
        out.check(false, || "x".into());
        assert!(result_line(&args, &out).starts_with("{\"correct\": false"));
    }
}
