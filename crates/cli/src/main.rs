//! The `ecl-cc` command-line tool. See `lib.rs` for the implementation.

use ecl_cc::SamplingConfig;
use ecl_cc_cli::{
    generate_catalog, parse_label_file, read_graph, run_algorithm, run_algorithm_cfg,
    run_gpu_observed, run_ladder_obs, write_graph, Format, ALGORITHMS,
};
use ecl_gpu_sim::FaultPlan;
use ecl_obs::{Recorder, TraceEvent, PID_ENGINE};
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "\
usage: ecl-cc <command> [args]

commands:
  components <file> [--algo NAME|auto] [--threads N] [--format F] [--labels OUT]
             [--watchdog CYCLES] [--fault-plan SPEC]
             [--trace FILE] [--stats] [--shards N] [--shard-chaos SPEC]
             [--shard-ckpt DIR] [--crash-budget N] [--sampling K]
      label connected components (default algo: parallel); `--algo auto`
      runs the fallback ladder (simulated GPU -> multicore CPU -> serial),
      certifying each stage's output and degrading on failure; --watchdog
      sets the GPU stage's per-kernel cycle budget; --fault-plan installs
      an injection plan on the simulated GPU (gpu/auto only): none,
      cas-storm[:SEED], slow-memory[:SEED], scheduler-chaos[:SEED],
      everything[:SEED], or custom `seed=N,cas=PERMILLE,mem=PERMILLE/CYC,shuffle`;
      --trace FILE writes a Chrome trace (kernel + ladder spans);
      --stats prints per-kernel cycles and parent-path-length stats
      (gpu algo only); --shards N edge-cuts the graph across N simulated
      devices (overriding --algo) with min-label exchange rounds over a
      fault-injected interconnect — --shard-chaos SPEC takes the same
      fault-plan grammar plus drop=/corrupt=/crash= and the
      shard-chaos[:SEED] preset, --shard-ckpt DIR persists crash-safe
      round checkpoints, --crash-budget N (default 1) bounds tolerated
      device crashes before degrading to the single-device ladder;
      --sampling K enables the adaptive work-efficient variant (hook the
      first K neighbors, short-circuit the giant component, finish the
      rest) on serial/parallel/gpu/auto/sharded runs — labels stay
      byte-identical and certified; with --algo auto the ladder tries
      sampling on every rung first and re-walks without it only if the
      whole adaptive pass fails certification
  batch --jobs FILE [--workers N] [--queue N] [--deadline-ms MS] [--retries N]
        [--journal FILE] [--resume FILE] [--results DIR] [--report FILE]
        [--fault-plan SPEC] [--watchdog CYCLES] [--threads N] [--reject-full]
        [--breaker-threshold N] [--breaker-cooldown-ms MS] [--breaker-probes N]
        [--kill-after N] [--shards N] [--trace FILE]
        [--sampling K]
      run a batch of CC jobs (one `<name> <graph-spec>` per line in FILE)
      through the certified fallback ladder on a worker pool, with
      retry/backoff, per-backend circuit breakers, and a crash-safe
      journal; --resume continues a killed run from its journal;
      the machine-readable JSON report goes to --report or stdout;
      --kill-after N simulates SIGKILL after N completed jobs (testing);
      --shards N runs every job sharded across N simulated devices;
      --trace FILE writes a Chrome trace (job, ladder, kernel spans,
      breaker transitions, queue depth)
  serve --dir DIR [--addr HOST:PORT] [--vertices N] [--resume]
        [--max-conns N] [--idle-timeout-ms MS] [--snapshot-every N]
        [--workers N] [--queue N] [--deadline-ms MS] [--metrics FILE]
        [--metrics-every SECS] [--trace FILE] [--flight-dir DIR]
        [--no-telemetry] [--debug-poison-after N] [--threads N]
      run the connectivity-as-a-service TCP server (ECL/1 line protocol:
      ADD/CONN/COMP/STATS/METRICS/SUBMIT/JOB/PING/QUIT/SHUTDOWN); every
      acknowledged ADD is fsync'd to a write-ahead log in --dir before
      the OK, with periodic digest-pinned snapshots, so a SIGKILL'd
      server restarts with --resume to the exact acknowledged edge set;
      prints `listening on ADDR` once bound (use port 0 for ephemeral);
      SUBMIT routes batch jobs onto the engine's bounded queue with
      circuit breakers and certified fallback, mints a trace id per
      request, and replies `OK job=N trace=HEX`; METRICS [1s|10s|60s]
      returns the ecl-metrics-v2 exposition (latency histograms +
      sliding-window p50/p90/p99/QPS); --metrics-every writes it to
      DIR/metrics.prom periodically; --metrics FILE writes it, plus the
      recorder totals (ecl_engine_*, ecl_ladder_*, ecl_sim_*), on drain;
      --trace exports the Chrome trace on drain; a panic, WAL poisoning, watchdog abort, or breaker trip
      dumps a flight-recorder postmortem.json into --flight-dir
      (default --dir); --debug-poison-after N force-poisons the WAL
      after N durable edges (CI fault injection)
  profile [FILE] [--graph NAME]... [--device titan-x|k40] [--scale S]
          [--trace FILE] [--metrics FILE] [--report]
          [--validate]
      run ECL-CC on the simulated GPU with full instrumentation and
      regenerate the paper's cache-locality table (Table 3), per-phase
      cycle breakdown (and Table 4 path lengths) as a text report;
      --trace writes Chrome-trace JSON, --metrics the ecl-metrics-v2
      exposition of the recorder totals; --validate re-parses both
      against their schemas (CI gate);
      default input is a bundled quick set of paper graphs
  verify <file> [--labels FILE | --algo NAME] [--threads N] [--format F]
         [--sampling K]
      certify a labeling with the independent O(n+m) checker: edge
      consistency, representative fixpoints, component count vs BFS
  stats <file> [--format F]
      print the graph's Table-2 statistics
  generate <catalog-name> -o <file> [--scale tiny|bench|large] [--format F]
      write a synthetic stand-in for one of the paper's inputs
  convert <in> <out> [--in-format F] [--out-format F]
      transcode between graph formats (.el .gr .mtx .ecl)
  compare <file> [--threads N] [--format F]
      run every algorithm, verify agreement, report times
  list
      list algorithms and catalog graphs
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print!("{USAGE}");
        return;
    }
    if let Err(e) = dispatch(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// The `--flags` that `cmd`'s USAGE entry lists: every `--` token on its
/// synopsis, i.e. the command line and its deeper-indented continuation
/// lines (descriptions are indented six spaces). `None` for a command
/// USAGE does not know.
fn usage_flags(cmd: &str) -> Option<Vec<&'static str>> {
    let mut lines = USAGE.lines().skip_while(|l| {
        l.strip_prefix("  ")
            .and_then(|rest| rest.strip_prefix(cmd))
            .is_none_or(|rest| !(rest.is_empty() || rest.starts_with(' ')))
    });
    let head = lines.next()?;
    let synopsis = std::iter::once(head).chain(lines.take_while(|l| l.starts_with("       ")));
    Some(
        synopsis
            .flat_map(str::split_whitespace)
            .map(|t| t.trim_start_matches('['))
            .filter(|t| t.starts_with("--"))
            .map(|t| t.trim_end_matches([']', '.']))
            .collect(),
    )
}

/// Fails on the first `--flag` that `cmd`'s USAGE entry does not list,
/// so a misspelled or retired flag is an error instead of silently
/// running with defaults.
fn check_flags(cmd: &str, args: &[String]) -> Result<(), String> {
    let Some(known) = usage_flags(cmd) else {
        return Ok(());
    };
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        Some(bad) => Err(format!("unknown flag '{bad}' for {cmd}")),
        None => Ok(()),
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn fmt_flag(args: &[String], name: &str) -> Result<Option<Format>, String> {
    match flag(args, name) {
        None => Ok(None),
        Some(v) => Format::from_name(&v)
            .map(Some)
            .ok_or_else(|| format!("unknown format '{v}'")),
    }
}

fn positional(args: &[String], n: usize) -> Result<PathBuf, String> {
    args.iter()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .filter(|a| {
            // Drop values that follow a flag.
            let idx = args.iter().position(|x| x == *a).unwrap();
            idx == 0 || !args[idx - 1].starts_with("--")
        })
        .nth(n)
        .map(PathBuf::from)
        .ok_or_else(|| format!("missing argument {}", n + 1))
}

fn dispatch(args: &[String]) -> Result<(), String> {
    check_flags(&args[0], &args[1..])?;
    let threads: usize = flag(args, "--threads")
        .map(|t| t.parse().map_err(|e| format!("--threads: {e}")))
        .transpose()?
        .unwrap_or_else(ecl_parallel::default_threads);
    // Adaptive sampling: --sampling K hooks only the first K neighbors,
    // short-circuits the giant component, then finishes the remainder.
    let sampling: Option<SamplingConfig> = flag(args, "--sampling")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|e| format!("--sampling: {e} (expected neighbor count K)"))
        })
        .transpose()?
        .map(SamplingConfig::with_k);
    match args[0].as_str() {
        "components" => {
            let path = positional(args, 0)?;
            let algo = flag(args, "--algo").unwrap_or_else(|| "parallel".into());
            let watchdog: Option<u64> = flag(args, "--watchdog")
                .map(|w| w.parse().map_err(|e| format!("--watchdog: {e}")))
                .transpose()?;
            let shards: Option<usize> = flag(args, "--shards")
                .map(|v| v.parse().map_err(|e| format!("--shards: {e}")))
                .transpose()?;
            let shard_chaos = match flag(args, "--shard-chaos") {
                Some(spec) => {
                    if shards.is_none() {
                        return Err("--shard-chaos needs --shards N".into());
                    }
                    Some(FaultPlan::parse(&spec).map_err(|e| format!("--shard-chaos: {e}"))?)
                }
                None => None,
            };
            let fault = match flag(args, "--fault-plan") {
                Some(spec) => {
                    if algo != "auto" && algo != "gpu" && shards.is_none() {
                        return Err(format!(
                            "--fault-plan targets the simulated GPU; it needs \
                             --algo gpu, --algo auto, or --shards N (got '{algo}')"
                        ));
                    }
                    FaultPlan::parse(&spec).map_err(|e| format!("--fault-plan: {e}"))?
                }
                None => FaultPlan::none(),
            };
            let g = read_graph(&path, fmt_flag(args, "--format")?)?;
            let trace_out = flag(args, "--trace");
            let want_stats = args.iter().any(|a| a == "--stats");
            if want_stats && algo != "gpu" {
                return Err(format!(
                    "--stats reads per-kernel and path-length statistics from \
                     the simulated GPU; it needs --algo gpu (got '{algo}')"
                ));
            }
            let recorder = trace_out.as_ref().map(|_| Recorder::new());
            let t = Instant::now();
            let (r, how, gpu_stats) = if let Some(n) = shards {
                let ckpt = flag(args, "--shard-ckpt").map(PathBuf::from);
                let budget: u32 = flag(args, "--crash-budget")
                    .map(|v| v.parse().map_err(|e| format!("--crash-budget: {e}")))
                    .transpose()?
                    .unwrap_or(1);
                let plan = shard_chaos.unwrap_or(fault);
                let out = ecl_cc_cli::run_sharded_obs(
                    &g,
                    n,
                    threads,
                    watchdog,
                    plan,
                    ckpt,
                    budget,
                    recorder.clone(),
                    sampling,
                )?;
                let rep = &out.report;
                eprintln!(
                    "sharded: {} devices, {} rounds to fixpoint, {} shared vertices, \
                     {} frames ({} retransmits), {} exchange bytes, {} crashes \
                     ({} shards recovered){}",
                    rep.shards,
                    rep.rounds,
                    rep.shared_vertices,
                    rep.exchange.frames_sent,
                    rep.exchange.retransmits,
                    rep.exchange.bytes_sent,
                    rep.device_crashes,
                    rep.shards_recovered,
                    if rep.degraded {
                        "; degraded to single-device ladder"
                    } else {
                        ""
                    }
                );
                let how = if rep.degraded {
                    format!("sharded:{n}(degraded)")
                } else {
                    format!("sharded:{n}")
                };
                (out.result, how, None)
            } else if algo == "auto" {
                let out = run_ladder_obs(&g, threads, watchdog, fault, recorder.clone(), sampling)?;
                for a in &out.attempts {
                    if let Some(reason) = a.outcome.reason() {
                        eprintln!(
                            "  {}#{}: failed ({reason}); degrading",
                            a.backend.name(),
                            a.attempt
                        );
                    }
                }
                (out.result, format!("auto:{}", out.backend.name()), None)
            } else if algo == "gpu"
                && (watchdog.is_some()
                    || flag(args, "--fault-plan").is_some()
                    || want_stats
                    || recorder.is_some())
            {
                let (r, stats) =
                    run_gpu_observed(&g, fault, watchdog, want_stats, recorder.clone(), sampling)?;
                let how = if flag(args, "--fault-plan").is_some() {
                    "gpu(fault-injected)".to_string()
                } else {
                    "gpu".to_string()
                };
                (r, how, Some(stats))
            } else {
                let span_start = recorder.as_ref().map(Recorder::now_us);
                let r = run_algorithm_cfg(&algo, &g, threads, sampling)?;
                if let (Some(rec), Some(start)) = (&recorder, span_start) {
                    rec.record(TraceEvent::span(
                        &format!("components:{algo}"),
                        "components",
                        PID_ENGINE,
                        0,
                        start,
                        rec.now_us().saturating_sub(start),
                    ));
                }
                (r, algo.clone(), None)
            };
            let elapsed = t.elapsed();
            ecl_verify::certify(&g, &r.labels).map_err(|e| format!("verification failed: {e}"))?;
            println!(
                "{}: {} vertices, {} edges, {} components ({how}, {:.2} ms, certified)",
                path.display(),
                g.num_vertices(),
                g.num_edges(),
                r.num_components(),
                elapsed.as_secs_f64() * 1e3
            );
            let sizes = r.component_sizes();
            println!(
                "largest component: {} vertices ({:.1}%)",
                sizes.first().copied().unwrap_or(0),
                100.0 * sizes.first().copied().unwrap_or(0) as f64 / g.num_vertices().max(1) as f64
            );
            if want_stats {
                if let Some(stats) = &gpu_stats {
                    println!("kernel cycles:");
                    for k in &stats.kernels {
                        println!("  {:<14} {:>12}", k.name, k.cycles);
                    }
                    println!("  {:<14} {:>12}", "total", stats.total_cycles());
                    if let Some(p) = &stats.path_lengths {
                        println!(
                            "parent path lengths: {} samples, avg {:.2}, max {}",
                            p.samples,
                            p.average(),
                            p.max
                        );
                    }
                    if let Some(s) = &stats.sampling {
                        println!(
                            "sampling: {} edges inspected of {} ({:.1}% reduction), \
                             {} of {} vertices skipped ({:.1}%)",
                            s.edges_inspected(),
                            ecl_cc::sampling::baseline_edges_inspected(&g),
                            100.0 * s.reduction_vs(ecl_cc::sampling::baseline_edges_inspected(&g)),
                            s.skipped_vertices,
                            s.vertices,
                            100.0 * s.skip_fraction()
                        );
                    }
                }
            }
            if let (Some(out), Some(rec)) = (&trace_out, &recorder) {
                let md = [("tool".to_string(), "ecl-cc components".to_string())];
                std::fs::write(out, rec.chrome_trace_json(&md))
                    .map_err(|e| format!("{out}: {e}"))?;
                eprintln!("trace written to {out}");
            }
            if let Some(out) = flag(args, "--labels") {
                std::fs::write(&out, ecl_engine::labels_to_bytes(&r.labels))
                    .map_err(|e| format!("{out}: {e}"))?;
                println!("labels written to {out}");
            }
            Ok(())
        }
        "batch" => {
            let jobs_file = flag(args, "--jobs").ok_or("batch needs --jobs <file>")?;
            let text =
                std::fs::read_to_string(&jobs_file).map_err(|e| format!("{jobs_file}: {e}"))?;
            let jobs = ecl_engine::parse_jobs(&text)?;

            let mut cfg = ecl_engine::EngineConfig {
                ladder: ecl_cc::LadderConfig {
                    threads,
                    ..ecl_cc::LadderConfig::default()
                },
                ..ecl_engine::EngineConfig::default()
            };
            let parse_u64 = |name: &str| -> Result<Option<u64>, String> {
                flag(args, name)
                    .map(|v| v.parse().map_err(|e| format!("{name}: {e}")))
                    .transpose()
            };
            if let Some(w) = parse_u64("--workers")? {
                cfg.workers = w.max(1) as usize;
            }
            if let Some(q) = parse_u64("--queue")? {
                cfg.queue_capacity = q.max(1) as usize;
            }
            cfg.deadline_ms = parse_u64("--deadline-ms")?;
            if let Some(r) = parse_u64("--retries")? {
                cfg.retries = r as u32;
            }
            cfg.ladder.watchdog = parse_u64("--watchdog")?;
            cfg.ladder.cc.sampling = sampling;
            if let Some(spec) = flag(args, "--fault-plan") {
                cfg.ladder.fault =
                    FaultPlan::parse(&spec).map_err(|e| format!("--fault-plan: {e}"))?;
            }
            if let Some(t) = parse_u64("--breaker-threshold")? {
                cfg.breaker.failure_threshold = t.max(1) as u32;
            }
            if let Some(c) = parse_u64("--breaker-cooldown-ms")? {
                cfg.breaker.cooldown_ms = c;
            }
            if let Some(p) = parse_u64("--breaker-probes")? {
                cfg.breaker.half_open_successes = p.max(1) as u32;
            }
            if let Some(k) = parse_u64("--kill-after")? {
                cfg.kill_after_jobs = Some(k as usize);
            }
            if let Some(s) = parse_u64("--shards")? {
                cfg.shards_per_job = s.max(1) as usize;
            }
            cfg.reject_when_full = args.iter().any(|a| a == "--reject-full");
            if let Some(j) = flag(args, "--journal") {
                cfg.journal_path = Some(PathBuf::from(j));
            }
            if let Some(j) = flag(args, "--resume") {
                cfg.journal_path = Some(PathBuf::from(j));
                cfg.resume = true;
            }
            if let Some(d) = flag(args, "--results") {
                cfg.results_dir = Some(PathBuf::from(d));
            }

            let trace_out = flag(args, "--trace");
            let recorder = trace_out.as_ref().map(|_| Recorder::new());
            if let Some(rec) = &recorder {
                cfg.ladder.recorder = Some(rec.clone());
            }

            let report = ecl_engine::run_batch(&jobs, &cfg)?;
            if let (Some(out), Some(rec)) = (&trace_out, &recorder) {
                let md = [("tool".to_string(), "ecl-cc batch".to_string())];
                std::fs::write(out, rec.chrome_trace_json(&md))
                    .map_err(|e| format!("{out}: {e}"))?;
                eprintln!("trace written to {out}");
            }
            let json = report.to_json();
            match flag(args, "--report") {
                Some(out) => {
                    std::fs::write(&out, &json).map_err(|e| format!("{out}: {e}"))?;
                    eprintln!("report written to {out}");
                }
                None => println!("{json}"),
            }
            eprintln!(
                "batch: {}/{} jobs done ({} resumed, {} failed), {} retries, \
                 {} breaker trips, {:.1} ms",
                report.done() + report.resumed(),
                report.expected_jobs,
                report.resumed(),
                report.failed(),
                report.total_retries(),
                report.total_trips(),
                report.total_ms
            );
            if report.aborted {
                return Err("batch aborted before completion (resume from the journal)".into());
            }
            if !report.is_complete() {
                return Err(format!("{} job(s) failed; see report", report.failed()));
            }
            Ok(())
        }
        "serve" => {
            let dir = flag(args, "--dir").ok_or("serve needs --dir <state-dir>")?;
            let parse_u64 = |name: &str| -> Result<Option<u64>, String> {
                flag(args, name)
                    .map(|v| v.parse().map_err(|e| format!("{name}: {e}")))
                    .transpose()
            };
            let mut cfg = ecl_serve::ServeConfig {
                dir: PathBuf::from(dir),
                resume: args.iter().any(|a| a == "--resume"),
                ..ecl_serve::ServeConfig::default()
            };
            if let Some(a) = flag(args, "--addr") {
                cfg.addr = a;
            }
            if let Some(n) = parse_u64("--vertices")? {
                cfg.vertices = n as usize;
            }
            if let Some(n) = parse_u64("--max-conns")? {
                cfg.max_conns = n.max(1) as usize;
            }
            if let Some(ms) = parse_u64("--idle-timeout-ms")? {
                cfg.idle_timeout_ms = ms.max(1);
            }
            if let Some(n) = parse_u64("--snapshot-every")? {
                cfg.snapshot_every = n;
            }
            if let Some(w) = parse_u64("--workers")? {
                cfg.jobs.workers = w.max(1) as usize;
            }
            if let Some(q) = parse_u64("--queue")? {
                cfg.jobs.queue_capacity = q.max(1) as usize;
            }
            cfg.jobs.deadline_ms = parse_u64("--deadline-ms")?;
            cfg.jobs.ladder.threads = threads;
            if let Some(m) = flag(args, "--metrics") {
                cfg.metrics_path = Some(PathBuf::from(m));
                cfg.recorder = Recorder::new();
            }
            if let Some(n) = parse_u64("--metrics-every")? {
                cfg.metrics_every = n;
            }
            if let Some(t) = flag(args, "--trace") {
                cfg.trace_path = Some(PathBuf::from(t));
                cfg.recorder = Recorder::new();
            }
            if let Some(d) = flag(args, "--flight-dir") {
                cfg.flight_dir = Some(PathBuf::from(d));
            }
            if let Some(n) = parse_u64("--debug-poison-after")? {
                cfg.poison_wal_after = n;
            }
            cfg.telemetry = !args.iter().any(|a| a == "--no-telemetry");
            let server = ecl_serve::Server::start(cfg)?;
            // The harness (and ci.sh) parse this line for the ephemeral
            // port, so it goes to stdout and is flushed immediately.
            println!("listening on {}", server.local_addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            server.join()?;
            eprintln!("serve: drained cleanly");
            Ok(())
        }
        "profile" => ecl_cc_cli::profile::run_profile(args),
        "verify" => {
            let path = positional(args, 0)?;
            let g = read_graph(&path, fmt_flag(args, "--format")?)?;
            let (labels, source) = match flag(args, "--labels") {
                Some(file) => {
                    let text =
                        std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
                    (parse_label_file(&text, g.num_vertices())?, file)
                }
                None => {
                    let algo = flag(args, "--algo").unwrap_or_else(|| "parallel".into());
                    let r = run_algorithm_cfg(&algo, &g, threads, sampling)?;
                    (r.labels, format!("algorithm `{algo}`"))
                }
            };
            match ecl_verify::certify(&g, &labels) {
                Ok(cert) => {
                    println!(
                        "OK: {source} certifies on {} ({} vertices, {} edges checked, \
                         {} components)",
                        path.display(),
                        cert.num_vertices,
                        cert.edges_checked,
                        cert.num_components
                    );
                    Ok(())
                }
                Err(e) => Err(format!("certification FAILED for {source}: {e}")),
            }
        }
        "stats" => {
            let path = positional(args, 0)?;
            let g = read_graph(&path, fmt_flag(args, "--format")?)?;
            let s = ecl_graph::stats::graph_stats(&g);
            println!("vertices:       {}", s.vertices);
            println!("directed edges: {}", s.directed_edges);
            println!(
                "degree min/avg/max: {} / {:.1} / {}",
                s.dmin, s.davg, s.dmax
            );
            println!("components:     {}", s.components);
            Ok(())
        }
        "generate" => {
            let name = positional(args, 0)?;
            let out = flag(args, "-o").ok_or("generate needs -o <file>")?;
            let scale = flag(args, "--scale").unwrap_or_else(|| "bench".into());
            let g = generate_catalog(name.to_str().unwrap_or_default(), &scale)?;
            write_graph(&g, &PathBuf::from(&out), fmt_flag(args, "--format")?)?;
            println!(
                "wrote {} ({} vertices, {} edges)",
                out,
                g.num_vertices(),
                g.num_edges()
            );
            Ok(())
        }
        "convert" => {
            let input = positional(args, 0)?;
            let output = positional(args, 1)?;
            let g = read_graph(&input, fmt_flag(args, "--in-format")?)?;
            write_graph(&g, &output, fmt_flag(args, "--out-format")?)?;
            println!("converted {} -> {}", input.display(), output.display());
            Ok(())
        }
        "compare" => {
            let path = positional(args, 0)?;
            let g = read_graph(&path, fmt_flag(args, "--format")?)?;
            println!(
                "{}: {} vertices, {} edges — running {} algorithms",
                path.display(),
                g.num_vertices(),
                g.num_edges(),
                ALGORITHMS.len()
            );
            let reference = run_algorithm("serial", &g, threads)?;
            let mut disagree = Vec::new();
            for &name in ALGORITHMS {
                let t = Instant::now();
                match run_algorithm(name, &g, threads) {
                    Ok(r) => {
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let agree = ecl_graph::stats::canonicalize_labels(&r.labels)
                            == ecl_graph::stats::canonicalize_labels(&reference.labels);
                        println!(
                            "  {name:<11} {ms:>9.2} ms  {} components  {}",
                            r.num_components(),
                            if agree { "agrees" } else { "DISAGREES" }
                        );
                        if !agree {
                            disagree.push(name);
                        }
                    }
                    Err(e) => println!("  {name:<11} n/a ({e})"),
                }
            }
            if disagree.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "{} of {} algorithms disagree with serial: {}",
                    disagree.len(),
                    ALGORITHMS.len(),
                    disagree.join(", ")
                ))
            }
        }
        "list" => {
            println!("algorithms: {}", ALGORITHMS.join(", "));
            println!("catalog graphs:");
            for pg in ecl_graph::catalog::PaperGraph::ALL {
                let i = pg.info();
                println!("  {:<18} {} ({})", i.name, i.class, i.paper_vertices);
            }
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<(), String> {
        dispatch(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn usage_flags_cover_synopsis_continuations() {
        let components = usage_flags("components").unwrap();
        for f in [
            "--algo",
            "--format",
            "--fault-plan",
            "--shard-chaos",
            "--sampling",
        ] {
            assert!(components.contains(&f), "{f} missing from {components:?}");
        }
        assert!(usage_flags("batch").unwrap().contains(&"--sampling"));
        assert!(usage_flags("profile").unwrap().contains(&"--graph"));
        assert!(usage_flags("list").unwrap().is_empty());
        assert!(usage_flags("nope").is_none());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = run(&["components", "g.el", "--algo", "gpu", "--sim-wokers", "4"]).unwrap_err();
        assert_eq!(err, "unknown flag '--sim-wokers' for components");
        let err = run(&["components", "g.el", "--sched", "static"]).unwrap_err();
        assert_eq!(err, "unknown flag '--sched' for components");
        for cmd in ["components", "batch", "serve", "profile", "verify"] {
            let err = run(&[cmd, "x", "--sim-workers", "2"]).unwrap_err();
            assert_eq!(err, format!("unknown flag '--sim-workers' for {cmd}"));
        }
        let err = run(&["batch", "--jobs", "j.txt", "--sched", "steal"]).unwrap_err();
        assert_eq!(err, "unknown flag '--sched' for batch");
        // A flag valid for one command is still unknown to another.
        let err = run(&["stats", "g.el", "--shards", "2"]).unwrap_err();
        assert_eq!(err, "unknown flag '--shards' for stats");
    }
}
