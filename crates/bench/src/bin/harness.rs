//! Regenerates the paper's tables and figures.
//!
//! ```text
//! harness [EXPERIMENT ...] [--scale tiny|bench|large] [--threads N]
//!         [--verify] [--json FILE] [--trace FILE]
//!
//! Experiments:
//!   table2  fig7  fig8  table3  table4  fig9  fig10
//!   table5  table6  table7  table8  table9  table10  fig17
//!   micro       (simulator hot-path microbenchmarks)
//!   serve       (TCP server load + chaos + SIGKILL/resume; writes
//!                BENCH_serve.json or the --json path; --fault-plan
//!                picks the chaos mix, default serve-chaos:1)
//!   sharded     (multi-device shard matrix: clean / shard-chaos /
//!                device-crash recovery, byte-identity gated; writes
//!                BENCH_sharded.json or the --json path)
//!   adaptive    (neighbor-sampling + giant-component short-circuit vs
//!                full-pass ECL-CC: edges inspected, skip fraction,
//!                wall-clock and sim-cycle speedups, byte-identity
//!                gated; writes BENCH_adaptive.json or the --json path)
//!   telemetry   (live-telemetry gates: recording overhead <= 3%,
//!                histogram-vs-exact percentiles, SUBMIT trace-tree
//!                connectivity, forced-fault postmortem validation;
//!                writes BENCH_telemetry.json or the --json path)
//!   internals   (= fig7 fig8 table3 table4 fig9 fig10)
//!   all         (everything)
//! ```
//!
//! Absolute GPU numbers are simulated cycles converted at the device
//! clock; CPU numbers are host wall-clock. The paper's figures are all
//! *normalized* ratios, which is what these tables reproduce.

use ecl_bench::experiments as exp;
use ecl_gpu_sim::DeviceProfile;
use ecl_graph::catalog::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Bench;
    let mut threads: Option<usize> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut verify = false;
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut fault_plan = ecl_gpu_sim::FaultPlan::serve_chaos(1);

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("tiny") => Scale::Tiny,
                    Some("bench") => Scale::Bench,
                    Some("large") => Scale::Large,
                    other => {
                        eprintln!("unknown scale {other:?} (tiny|bench|large)");
                        std::process::exit(2);
                    }
                };
            }
            "--threads" => {
                threads = it.next().and_then(|s| s.parse().ok());
                if threads.is_none() {
                    eprintln!("--threads needs a number");
                    std::process::exit(2);
                }
            }
            "--verify" => verify = true,
            "--json" => {
                json_path = it.next().cloned();
                if json_path.is_none() {
                    eprintln!("--json needs a file path");
                    std::process::exit(2);
                }
            }
            "--fault-plan" => {
                fault_plan = match it.next() {
                    Some(spec) => match ecl_gpu_sim::FaultPlan::parse(spec) {
                        Ok(p) => p,
                        Err(e) => {
                            eprintln!("--fault-plan: {e}");
                            std::process::exit(2);
                        }
                    },
                    None => {
                        eprintln!("--fault-plan needs a spec (e.g. serve-chaos:1)");
                        std::process::exit(2);
                    }
                };
            }
            "--trace" => {
                trace_path = it.next().cloned();
                if trace_path.is_none() {
                    eprintln!("--trace needs a file path");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: harness [EXPERIMENT ...] [--scale tiny|bench|large] [--threads N]"
                );
                println!("               [--verify] [--json FILE] [--trace FILE]");
                println!(
                    "experiments: table1 table2 fig7 fig8 table3 table4 fig9 fig10 table5 table6"
                );
                println!(
                    "             table7 table8 table9 table10 fig17 ordering micro \
                     serve sharded adaptive telemetry internals all"
                );
                println!("--fault-plan SPEC seeds the serve chaos mix (default serve-chaos:1)");
                println!("--verify certifies every code's labels with the independent checker");
                println!("         (outside the timed region) and emits JSON records; --json");
                println!("         chooses the output file (default bench-verify.json)");
                println!("--trace FILE writes a Chrome trace (chrome://tracing) with one");
                println!("         wall-clock span per experiment");
                return;
            }
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        selected.push("all".into());
    }

    let host_threads = ecl_parallel::default_threads();
    // The paper's two CPU hosts expose 40 (E5-2687W, HT) and 12 (X5690)
    // hardware threads; oversubscription on a smaller host still exercises
    // the same scheduling paths.
    let t_big = threads.unwrap_or_else(|| host_threads.max(8));
    let t_small = threads.unwrap_or_else(|| (host_threads.max(8) / 3).max(2));

    let titan = DeviceProfile::titan_x();
    let k40 = DeviceProfile::k40();

    let expand = |name: &str| -> Vec<&'static str> {
        match name {
            "internals" => vec!["fig7", "fig8", "table3", "table4", "fig9", "fig10"],
            "all" => vec![
                "table1", "table2", "fig7", "fig8", "table3", "table4", "fig9", "fig10", "table5",
                "table6", "table7", "table8", "table9", "table10", "fig17", "ordering",
            ],
            "table1" => vec!["table1"],
            "table2" => vec!["table2"],
            "fig7" => vec!["fig7"],
            "fig8" => vec!["fig8"],
            "table3" => vec!["table3"],
            "table4" => vec!["table4"],
            "fig9" => vec!["fig9"],
            "fig10" => vec!["fig10"],
            "table5" | "fig11" => vec!["table5"],
            "table6" | "fig12" => vec!["table6"],
            "table7" | "fig13" => vec!["table7"],
            "table8" | "fig14" => vec!["table8"],
            "table9" | "fig15" => vec!["table9"],
            "table10" | "fig16" => vec!["table10"],
            "fig17" => vec!["fig17"],
            "ordering" => vec!["ordering"],
            "batch" => vec!["batch"],
            "serve" => vec!["serve"],
            "sharded" => vec!["sharded"],
            "adaptive" => vec!["adaptive"],
            "telemetry" => vec!["telemetry"],
            "micro" => vec!["micro"],
            other => {
                eprintln!("unknown experiment '{other}' (see --help)");
                std::process::exit(2);
            }
        }
    };

    let todo: Vec<&str> = selected.iter().flat_map(|s| expand(s)).collect();
    println!(
        "# ECL-CC reproduction harness — scale {scale:?}, host threads {host_threads}, \
         CPU configs: {t_big} / {t_small} threads"
    );
    let recorder = trace_path.as_ref().map(|_| ecl_obs::Recorder::new());
    let mut records: Vec<ecl_bench::report::BenchRecord> = Vec::new();
    let mut json_consumed = false;
    for item in todo {
        let span_start = recorder.as_ref().map(|r| r.now_us());
        match item {
            "table1" => exp::table1(),
            "table2" => exp::table2(scale),
            "fig7" => exp::fig7(scale, &titan),
            "fig8" => exp::fig8(scale, &titan),
            "table3" => exp::table3(scale, &titan),
            "table4" => exp::table4(scale, &titan),
            "fig9" => exp::fig9(scale, &titan),
            "fig10" => exp::fig10(scale, &titan),
            "table5" => exp::gpu_comparison(scale, &titan),
            "table6" => exp::gpu_comparison(scale, &k40),
            "table7" => exp::cpu_parallel_comparison(scale, t_big, "Table 7 / Fig. 13"),
            "table8" => exp::cpu_parallel_comparison(scale, t_small, "Table 8 / Fig. 14"),
            "table9" => exp::serial_comparison(scale, "Table 9 / Fig. 15"),
            "table10" => {
                exp::serial_comparison(scale, "Table 10 / Fig. 16 (same host; see EXPERIMENTS.md)")
            }
            "fig17" => exp::fig17(scale, t_big),
            "ordering" => exp::ordering(scale, &titan),
            "batch" => records.extend(exp::batch_throughput(t_big)),
            "micro" => records.extend(ecl_bench::microbench::hot_paths()),
            "serve" => {
                // Writes its own summary JSON (greppable pass/fail
                // fields), so it consumes --json instead of feeding the
                // shared BenchRecord report.
                let path = json_path.as_deref().unwrap_or("BENCH_serve.json");
                ecl_bench::serve_load::serve_load(scale, fault_plan, path);
                json_consumed = true;
            }
            "sharded" => {
                // Same own-JSON pattern as `serve`: the experiment is its
                // own pass/fail gate and summary writer.
                let path = json_path.as_deref().unwrap_or("BENCH_sharded.json");
                ecl_bench::shard_bench::sharded(scale, fault_plan, path);
                json_consumed = true;
            }
            "adaptive" => {
                // Own-JSON pattern again: byte-identity + edge-reduction
                // gate for the neighbor-sampling variant.
                let path = json_path.as_deref().unwrap_or("BENCH_adaptive.json");
                ecl_bench::adaptive_bench::adaptive(scale, path);
                json_consumed = true;
            }
            "telemetry" => {
                // Own-JSON pattern: recording-overhead, histogram
                // accuracy, trace-tree, and flight-recorder gates.
                let path = json_path.as_deref().unwrap_or("BENCH_telemetry.json");
                ecl_bench::telemetry_bench::telemetry(path);
                json_consumed = true;
            }
            _ => unreachable!(),
        }
        if let (Some(r), Some(start)) = (&recorder, span_start) {
            r.record(
                ecl_obs::TraceEvent::span(
                    &format!("experiment:{item}"),
                    "experiment",
                    ecl_obs::PID_ENGINE,
                    0,
                    start,
                    r.now_us().saturating_sub(start),
                )
                .arg_str("scale", &format!("{scale:?}")),
            );
        }
    }

    if let (Some(path), Some(r)) = (&trace_path, &recorder) {
        let md = [("tool".to_string(), "harness".to_string())];
        if let Err(e) = std::fs::write(path, r.chrome_trace_json(&md)) {
            eprintln!("error writing trace {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote Chrome trace to {path}");
    }

    // `--verify` (or a bare `--json` with nothing else producing records)
    // runs the certification sweep; `--json` writes whatever records the
    // selected experiments produced.
    if verify || (json_path.is_some() && records.is_empty() && !json_consumed) {
        records.extend(exp::verify_sweep(scale, t_big, &titan));
    }
    if (verify || (json_path.is_some() && !json_consumed)) && !records.is_empty() {
        let path = json_path.unwrap_or_else(|| "bench-verify.json".to_string());
        let failed = records
            .iter()
            .filter(|r| r.verified.as_ref().is_some_and(|v| !v.pass))
            .count();
        match ecl_bench::report::write_report(&path, &records) {
            Ok(()) => println!(
                "\nwrote {} records to {path} ({failed} failed certification)",
                records.len()
            ),
            Err(e) => {
                eprintln!("error writing {path}: {e}");
                std::process::exit(1);
            }
        }
        if failed > 0 {
            std::process::exit(1);
        }
    }
}
