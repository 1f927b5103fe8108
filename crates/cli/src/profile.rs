//! The `profile` subcommand: runs ECL-CC on the simulated GPU with the
//! observability recorder attached and regenerates the paper's
//! cache-locality table (Table 3), the per-phase cycle breakdown
//! (§4.5), and the parent-path-length table (Table 4) as a text report,
//! plus a Chrome-trace JSON export and an `ecl-metrics-v2` exposition
//! of the recorder's metric totals.
//!
//! ```text
//! profile [FILE] [--graph NAME]... [--device titan-x|k40]
//!         [--scale tiny|bench|large]
//!         [--trace FILE] [--metrics FILE] [--report] [--validate]
//! ```
//!
//! With no input, a bundled quick set of paper graphs is profiled.
//! `--validate` re-parses both artifacts just written (the trace against
//! `ecl-trace-v1`, the metrics with `parse_expo`) and fails the command
//! if either does not conform — the CI hook.

use ecl_cc::EclConfig;
use ecl_gpu_sim::{DeviceProfile, Gpu};
use ecl_graph::CsrGraph;
use ecl_obs::report::{CacheRow, PathRow, PhaseRow};
use ecl_obs::{Recorder, TraceEvent, PID_ENGINE};

/// Everything the profile run produced for one graph.
struct GraphProfile {
    cache: CacheRow,
    phases: PhaseRow,
    paths: Option<PathRow>,
}

/// Profiles one graph on a fresh device and returns its report rows.
/// The device's trace timeline starts at `origin`; the end position is
/// written back so the next graph's spans do not overlap.
fn profile_graph(
    name: &str,
    g: &CsrGraph,
    profile: &DeviceProfile,
    recorder: &Recorder,
    origin: &mut u64,
) -> Result<GraphProfile, String> {
    let mut device = Gpu::new(profile.clone());
    device.set_recorder(Some(recorder.clone()));
    device.set_timeline_origin(*origin);
    let cfg = EclConfig {
        record_path_lengths: true,
        ..EclConfig::default()
    };
    let wall_start = recorder.now_us();
    let (result, stats) = ecl_cc::gpu::run(&mut device, g, &cfg);
    ecl_verify::certify(g, &result.labels).map_err(|e| format!("{name}: {e}"))?;
    recorder.record(
        TraceEvent::span(
            &format!("profile:{name}"),
            "profile",
            PID_ENGINE,
            0,
            wall_start,
            recorder.now_us().saturating_sub(wall_start),
        )
        .arg_u64("vertices", g.num_vertices() as u64)
        .arg_u64("edges", g.num_edges() as u64)
        .arg_u64("total_cycles", stats.total_cycles()),
    );
    *origin = device.timeline_cycles();

    let l1 = device.l1_stats();
    let l2 = device.l2_stats();
    let dram: u64 = stats.kernels.iter().map(|k| k.dram_transactions).sum();
    Ok(GraphProfile {
        cache: CacheRow {
            graph: name.to_string(),
            l1_read_hit_pct: 100.0 * l1.read_hit_ratio(),
            l2_read_hit_pct: 100.0 * l2.read_hit_ratio(),
            l2_reads: l2.read_accesses,
            l2_writes: l2.write_accesses,
            dram,
        },
        phases: PhaseRow {
            graph: name.to_string(),
            phases: stats
                .kernels
                .iter()
                .map(|k| (k.name.clone(), k.cycles))
                .collect(),
            total_cycles: stats.total_cycles(),
        },
        paths: stats.path_lengths.map(|p| PathRow {
            graph: name.to_string(),
            samples: p.samples,
            avg: p.average(),
            max: p.max as u64,
        }),
    })
}

/// Runs the `profile` subcommand. `args` is the full argument list
/// including the `profile` token itself.
pub fn run_profile(args: &[String]) -> Result<(), String> {
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let profile = match flag("--device").as_deref() {
        None | Some("titan-x") => DeviceProfile::titan_x(),
        Some("k40") => DeviceProfile::k40(),
        Some(other) => return Err(format!("--device: unknown device '{other}' (titan-x|k40)")),
    };
    let scale = flag("--scale").unwrap_or_else(|| "tiny".into());

    // Input selection: an explicit graph file, any number of --graph
    // catalog names, or (default) the bundled quick set.
    let mut graphs: Vec<(String, CsrGraph)> = Vec::new();
    let file_args: Vec<&String> = args
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(i, a)| !a.starts_with("--") && !args[i - 1].starts_with("--"))
        .map(|(_, a)| a)
        .collect();
    for f in &file_args {
        let path = std::path::PathBuf::from(f);
        let g = crate::read_graph(&path, None)?;
        graphs.push((f.to_string(), g));
    }
    for (i, a) in args.iter().enumerate() {
        if a == "--graph" {
            let name = args
                .get(i + 1)
                .ok_or("--graph needs a catalog graph name")?;
            graphs.push((name.clone(), crate::generate_catalog(name, &scale)?));
        }
    }
    if graphs.is_empty() {
        for name in [
            "2d-2e20.sym",
            "europe_osm",
            "rmat16.sym",
            "soc-LiveJournal1",
        ] {
            graphs.push((name.to_string(), crate::generate_catalog(name, &scale)?));
        }
    }

    let recorder = Recorder::new();
    let mut cache_rows = Vec::new();
    let mut phase_rows = Vec::new();
    let mut path_rows = Vec::new();
    let mut origin = 0u64;
    for (name, g) in &graphs {
        let gp = profile_graph(name, g, &profile, &recorder, &mut origin)?;
        cache_rows.push(gp.cache);
        phase_rows.push(gp.phases);
        path_rows.extend(gp.paths);
    }

    let report =
        ecl_obs::report::profile_report(profile.name, &cache_rows, &phase_rows, &path_rows);
    // The text report is the default output; --trace/--metrics add the
    // machine-readable artifacts next to it.
    if args.iter().any(|a| a == "--report")
        || (flag("--trace").is_none() && flag("--metrics").is_none())
    {
        print!("{report}");
    }

    let trace_out = flag("--trace");
    let metrics_out = flag("--metrics");
    if let Some(path) = &trace_out {
        let md = [
            ("tool".to_string(), "ecl-cc profile".to_string()),
            ("device".to_string(), profile.name.to_string()),
        ];
        std::fs::write(path, recorder.chrome_trace_json(&md))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace written to {path}");
    }
    let mut metrics = ecl_obs::Expo::new();
    metrics.recorder(&recorder);
    let metrics_doc = metrics.finish();
    if let Some(path) = &metrics_out {
        std::fs::write(path, &metrics_doc).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("metrics written to {path}");
    }

    if args.iter().any(|a| a == "--validate") {
        let trace_json = match &trace_out {
            Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
            None => recorder.chrome_trace_json(&[]),
        };
        let summary = ecl_obs::validate_chrome_trace(&trace_json)
            .map_err(|e| format!("trace validation failed: {e}"))?;
        let doc = match &metrics_out {
            Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
            None => metrics_doc,
        };
        let metric_count = ecl_obs::parse_expo(&doc)
            .map_err(|e| format!("metrics validation failed: {e}"))?
            .len();
        if summary.spans == 0 {
            return Err("trace validation failed: no kernel spans recorded".into());
        }
        eprintln!(
            "validated: {} events ({} spans, {} instants, {} counters), {} metrics",
            summary.events, summary.spans, summary.instants, summary.counters, metric_count
        );
    }
    Ok(())
}
