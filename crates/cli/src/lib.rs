//! Implementation of the `ecl-cc` command-line tool (thin `main` in
//! `main.rs`; everything testable lives here).
//!
//! Subcommands:
//!
//! * `components <file>` — label the components of a graph file,
//! * `stats <file>` — print the Table 2 row for a graph file,
//! * `generate <catalog-name> -o <file>` — write a catalog stand-in,
//! * `convert <in> <out>` — transcode between graph formats,
//! * `compare <file>` — run every algorithm on the input and report
//!   agreement and timings.
//!
//! Formats are inferred from extensions: `.el`/`.txt` edge list, `.gr`
//! DIMACS, `.mtx` Matrix Market, `.ecl` binary CSR.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ecl_cc::{CcResult, EclConfig, SamplingConfig};
use ecl_gpu_sim::{DeviceProfile, FaultPlan, Gpu};
use ecl_graph::{io, CsrGraph};
use std::path::Path;

pub mod profile;

/// Graph file formats the CLI reads and writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Whitespace edge list (`u v` per line).
    EdgeList,
    /// DIMACS `.gr`.
    Dimacs,
    /// Matrix Market coordinate.
    MatrixMarket,
    /// ECLCSR01 binary.
    Binary,
    /// Galois binary `.gr` (version 1).
    GaloisGr,
}

impl Format {
    /// Infers the format from a file extension; `None` if unknown.
    pub fn from_path(path: &Path) -> Option<Format> {
        match path.extension()?.to_str()? {
            "el" | "txt" | "edges" => Some(Format::EdgeList),
            "gr" | "dimacs" => Some(Format::Dimacs),
            "mtx" | "mm" => Some(Format::MatrixMarket),
            "ecl" | "bin" => Some(Format::Binary),
            "sgr" | "vgr" => Some(Format::GaloisGr),
            _ => None,
        }
    }

    /// Parses an explicit `--format` value.
    pub fn from_name(name: &str) -> Option<Format> {
        match name {
            "edgelist" | "el" => Some(Format::EdgeList),
            "dimacs" | "gr" => Some(Format::Dimacs),
            "matrixmarket" | "mtx" => Some(Format::MatrixMarket),
            "binary" | "ecl" => Some(Format::Binary),
            "galois" | "sgr" => Some(Format::GaloisGr),
            _ => None,
        }
    }
}

/// Reads a graph file in the given (or inferred) format.
pub fn read_graph(path: &Path, format: Option<Format>) -> Result<CsrGraph, String> {
    let format = format
        .or_else(|| Format::from_path(path))
        .ok_or_else(|| format!("cannot infer format of {}; pass --format", path.display()))?;
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let reader = std::io::BufReader::new(file);
    let res = match format {
        Format::EdgeList => io::read_edge_list(reader),
        Format::Dimacs => io::read_dimacs(reader),
        Format::MatrixMarket => io::read_matrix_market(reader),
        Format::Binary => io::read_binary(reader),
        Format::GaloisGr => io::read_galois_gr(reader),
    };
    res.map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a graph file in the given (or inferred) format.
pub fn write_graph(g: &CsrGraph, path: &Path, format: Option<Format>) -> Result<(), String> {
    let format = format
        .or_else(|| Format::from_path(path))
        .ok_or_else(|| format!("cannot infer format of {}; pass --format", path.display()))?;
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut writer = std::io::BufWriter::new(file);
    let res = match format {
        Format::EdgeList => io::write_edge_list(g, &mut writer),
        Format::Binary => io::write_binary(g, &mut writer),
        Format::GaloisGr => io::write_galois_gr(g, &mut writer),
        Format::Dimacs => {
            use std::io::Write;
            (|| {
                writeln!(writer, "c written by ecl-cc")?;
                writeln!(
                    writer,
                    "p sp {} {}",
                    g.num_vertices(),
                    g.num_directed_edges()
                )?;
                for (u, v) in g.directed_edges() {
                    writeln!(writer, "a {} {} 1", u + 1, v + 1)?;
                }
                Ok(())
            })()
        }
        Format::MatrixMarket => {
            use std::io::Write;
            (|| {
                writeln!(writer, "%%MatrixMarket matrix coordinate pattern symmetric")?;
                writeln!(
                    writer,
                    "{} {} {}",
                    g.num_vertices(),
                    g.num_vertices(),
                    g.num_edges()
                )?;
                for (u, v) in g.edges() {
                    writeln!(writer, "{} {}", v + 1, u + 1)?;
                }
                Ok(())
            })()
        }
    };
    res.map_err(|e: std::io::Error| format!("{}: {e}", path.display()))
}

/// Algorithms selectable via `--algo`.
pub const ALGORITHMS: &[&str] = &[
    "serial",
    "parallel",
    "gpu",
    "soman",
    "groute",
    "gunrock",
    "irgl",
    "bfscc",
    "label-prop",
    "bfscc-hybrid",
    "afforest",
    "multistep",
    "crono",
    "galois",
    "ndhybrid",
    "dfs",
    "bfs",
    "igraph",
    "unionfind",
];

/// Runs the named algorithm; `Err` on unknown names or refusals.
pub fn run_algorithm(name: &str, g: &CsrGraph, threads: usize) -> Result<CcResult, String> {
    run_algorithm_cfg(name, g, threads, None)
}

/// [`run_algorithm`] with an optional adaptive-sampling configuration.
/// Sampling applies to the three ECL-CC
/// implementations (`serial`, `parallel`, `gpu`); requesting it with a
/// baseline algorithm is an error — the baselines have no sampling
/// variant, and silently ignoring the flag would invalidate comparisons.
/// `afforest` is itself parallel ECL-CC with sampling at K = 2, so it
/// takes no `--sampling` either.
pub fn run_algorithm_cfg(
    name: &str,
    g: &CsrGraph,
    threads: usize,
    sampling: Option<SamplingConfig>,
) -> Result<CcResult, String> {
    if sampling.is_some() && !matches!(name, "serial" | "parallel" | "gpu") {
        return Err(format!(
            "--sampling is only supported by the ECL-CC algorithms (serial, parallel, gpu), not '{name}'"
        ));
    }
    let cfg = EclConfig {
        sampling,
        ..EclConfig::default()
    };
    let gpu_run = |f: fn(&mut Gpu, &CsrGraph) -> ecl_baselines::gpu::GpuBaselineRun| {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        f(&mut gpu, g).result
    };
    Ok(match name {
        "serial" => ecl_cc::serial::run(g, &cfg),
        "parallel" => ecl_cc::parallel::run(g, threads, &cfg),
        "gpu" => {
            let mut gpu = Gpu::new(DeviceProfile::titan_x());
            ecl_cc::gpu::run(&mut gpu, g, &cfg).0
        }
        "soman" => gpu_run(ecl_baselines::gpu::soman::run),
        "groute" => gpu_run(ecl_baselines::gpu::groute::run),
        "gunrock" => gpu_run(ecl_baselines::gpu::gunrock::run),
        "irgl" => gpu_run(ecl_baselines::gpu::irgl::run),
        "bfscc" => ecl_baselines::cpu::bfscc::run(g, threads),
        "bfscc-hybrid" => ecl_baselines::cpu::bfscc::run_direction_optimizing(g, threads),
        "afforest" => ecl_cc::parallel::run(g, threads, &EclConfig::with_sampling(2)),
        "label-prop" => ecl_baselines::cpu::label_prop::run(g, threads),
        "multistep" => ecl_baselines::cpu::multistep::run(g, threads),
        "crono" => ecl_baselines::cpu::crono::run(g, threads)
            .ok_or("crono: input exceeds the n x dmax memory model")?,
        "galois" => ecl_baselines::cpu::galois_async::run(g, threads),
        "ndhybrid" => ecl_baselines::cpu::ndhybrid::run(g, threads),
        "dfs" => ecl_baselines::serial::dfs_cc(g),
        "bfs" => ecl_baselines::serial::bfs_cc(g),
        "igraph" => ecl_baselines::serial::igraph_cc(g),
        "unionfind" => ecl_baselines::serial::unionfind_cc(g),
        other => {
            return Err(format!(
                "unknown algorithm '{other}' (try: {})",
                ALGORITHMS.join(", ")
            ))
        }
    })
}

/// Runs the graceful-degradation fallback ladder (simulated GPU →
/// multicore CPU → serial), certifying each stage's output before
/// acceptance. `watchdog` is the optional per-kernel cycle budget for the
/// GPU stage; `fault` is installed on the simulated device (use
/// [`FaultPlan::none`] for a healthy run). The ladder emits one
/// wall-clock span per attempt to `recorder` and forwards it to the
/// simulated GPU for kernel spans; with `sampling` set it tries the
/// adaptive pipeline on every rung first, re-walking the ladder without
/// sampling only if the whole adaptive pass fails certification.
pub fn run_ladder_obs(
    g: &CsrGraph,
    threads: usize,
    watchdog: Option<u64>,
    fault: FaultPlan,
    recorder: Option<ecl_obs::Recorder>,
    sampling: Option<SamplingConfig>,
) -> Result<ecl_cc::LadderOutcome, String> {
    let cfg = ecl_cc::LadderConfig {
        cc: EclConfig {
            sampling,
            ..EclConfig::default()
        },
        threads,
        watchdog,
        fault,
        profile: DeviceProfile::titan_x(),
        recorder,
        ..ecl_cc::LadderConfig::default()
    };
    ecl_cc::ladder::run_with_fallback(g, &cfg).map_err(|e| e.to_string())
}

/// Runs sharded multi-device ECL-CC: the graph is edge-cut across
/// `shards` simulated devices, each solves locally, and min-label
/// exchange rounds over the fault-injected interconnect reconcile the
/// shared vertices to a certified, byte-identical-to-serial labeling.
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_obs(
    g: &CsrGraph,
    shards: usize,
    threads: usize,
    watchdog: Option<u64>,
    fault: FaultPlan,
    checkpoint_dir: Option<std::path::PathBuf>,
    crash_budget: u32,
    recorder: Option<ecl_obs::Recorder>,
    sampling: Option<SamplingConfig>,
) -> Result<ecl_shard::ShardOutcome, String> {
    let cfg = ecl_shard::ShardConfig {
        shards,
        ladder: ecl_cc::LadderConfig {
            cc: EclConfig {
                sampling,
                ..EclConfig::default()
            },
            threads,
            watchdog,
            fault,
            profile: DeviceProfile::titan_x(),
            recorder,
            ..ecl_cc::LadderConfig::default()
        },
        checkpoint_dir,
        crash_budget,
        ..ecl_shard::ShardConfig::default()
    };
    ecl_shard::run_sharded(g, &cfg).map_err(|e| e.to_string())
}

/// Runs ECL-CC on the simulated GPU and returns the run statistics
/// alongside the labeling. `record_paths` enables the Table 4
/// parent-path-length probes; `recorder` (when enabled) receives
/// per-kernel spans and simulator metrics.
pub fn run_gpu_observed(
    g: &CsrGraph,
    fault: FaultPlan,
    watchdog: Option<u64>,
    record_paths: bool,
    recorder: Option<ecl_obs::Recorder>,
    sampling: Option<SamplingConfig>,
) -> Result<(CcResult, ecl_cc::gpu::GpuRunStats), String> {
    let mut gpu = Gpu::new(DeviceProfile::titan_x());
    gpu.set_fault_plan(fault);
    gpu.set_watchdog(watchdog);
    gpu.set_recorder(recorder);
    let cfg = EclConfig {
        record_path_lengths: record_paths,
        sampling,
        ..EclConfig::default()
    };
    ecl_cc::gpu::try_run(&mut gpu, g, &cfg).map_err(|e| e.to_string())
}

/// Parses a label file of `vertex label` lines (the format written by
/// `components --labels`) into a dense label array for an `n`-vertex
/// graph. Vertices may appear in any order; each must appear exactly once.
pub fn parse_label_file(text: &str, n: usize) -> Result<Vec<u32>, String> {
    let mut labels = vec![0u32; n];
    // Every `u32` is a legal label, so listed vertices get their own bits.
    let mut listed = vec![0u64; n.div_ceil(64)];
    let mut seen = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (v, l) = match (it.next(), it.next(), it.next()) {
            (Some(v), Some(l), None) => (v, l),
            _ => return Err(format!("line {}: expected `vertex label`", lineno + 1)),
        };
        let v: usize = v
            .parse()
            .map_err(|e| format!("line {}: bad vertex: {e}", lineno + 1))?;
        let l: u32 = l
            .parse()
            .map_err(|e| format!("line {}: bad label: {e}", lineno + 1))?;
        if v >= n {
            return Err(format!(
                "line {}: vertex {v} out of range (n = {n})",
                lineno + 1
            ));
        }
        let (word, bit) = (v / 64, 1u64 << (v % 64));
        if listed[word] & bit != 0 {
            return Err(format!("line {}: vertex {v} listed twice", lineno + 1));
        }
        listed[word] |= bit;
        labels[v] = l;
        seen += 1;
    }
    if seen != n {
        return Err(format!("label file covers {seen} of {n} vertices"));
    }
    Ok(labels)
}

/// Resolves a catalog graph name (Table 2 name) and scale string.
pub fn generate_catalog(name: &str, scale: &str) -> Result<CsrGraph, String> {
    use ecl_graph::catalog::{PaperGraph, Scale};
    let scale = match scale {
        "tiny" => Scale::Tiny,
        "bench" => Scale::Bench,
        "large" => Scale::Large,
        other => return Err(format!("unknown scale '{other}' (tiny|bench|large)")),
    };
    let pg = PaperGraph::ALL
        .iter()
        .find(|p| p.info().name == name)
        .ok_or_else(|| {
            let names: Vec<_> = PaperGraph::ALL.iter().map(|p| p.info().name).collect();
            format!("unknown graph '{name}' (available: {})", names.join(", "))
        })?;
    Ok(pg.generate(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_inference() {
        assert_eq!(Format::from_path(Path::new("a.el")), Some(Format::EdgeList));
        assert_eq!(Format::from_path(Path::new("a.gr")), Some(Format::Dimacs));
        assert_eq!(
            Format::from_path(Path::new("a.mtx")),
            Some(Format::MatrixMarket)
        );
        assert_eq!(Format::from_path(Path::new("a.ecl")), Some(Format::Binary));
        assert_eq!(Format::from_path(Path::new("a.xyz")), None);
        assert_eq!(Format::from_path(Path::new("noext")), None);
        assert_eq!(Format::from_name("edgelist"), Some(Format::EdgeList));
        assert_eq!(Format::from_name("nope"), None);
    }

    #[test]
    fn file_roundtrip_all_formats() {
        let g = ecl_graph::generate::gnm_random(60, 150, 1);
        let dir = std::env::temp_dir().join("ecl_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        for ext in ["el", "gr", "mtx", "ecl", "sgr"] {
            let path = dir.join(format!("g.{ext}"));
            write_graph(&g, &path, None).unwrap();
            let g2 = read_graph(&path, None).unwrap();
            // Edge sets must match (edge list may drop trailing isolated
            // vertices; this graph has none with high probability).
            assert_eq!(
                g.edges().collect::<Vec<_>>(),
                g2.edges().collect::<Vec<_>>(),
                "{ext}"
            );
        }
    }

    #[test]
    fn every_algorithm_runs() {
        let g = ecl_graph::generate::gnm_random(120, 300, 2);
        let reference =
            ecl_graph::stats::canonicalize_labels(&ecl_graph::stats::reference_labels(&g));
        for &name in ALGORITHMS {
            let r = run_algorithm(name, &g, 2).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                ecl_graph::stats::canonicalize_labels(&r.labels),
                reference,
                "{name}"
            );
        }
    }

    #[test]
    fn label_file_roundtrip() {
        let labels = parse_label_file("0 0\n1 0\n2 2\n", 3).unwrap();
        assert_eq!(labels, vec![0, 0, 2]);
        // Order-insensitive, comments and blanks skipped.
        let labels = parse_label_file("# hdr\n2 2\n\n0 0\n1 0\n", 3).unwrap();
        assert_eq!(labels, vec![0, 0, 2]);
        assert!(parse_label_file("0 0\n", 2).is_err(), "missing vertex");
        assert!(parse_label_file("0 0\n0 1\n", 1).is_err(), "duplicate");
        assert!(parse_label_file("5 0\n", 1).is_err(), "out of range");
        assert!(parse_label_file("a b\n", 1).is_err(), "garbage");
        assert!(parse_label_file("0 1 2\n", 1).is_err(), "extra column");
    }

    #[test]
    fn label_file_duplicate_of_max_label_is_caught() {
        // `u32::MAX` is a legal (if out-of-range) label: listing vertex 0
        // with it and then again must blame the repeat, not the vertex the
        // file leaves out.
        let text = "0 4294967295\n1 0\n2 0\n3 0\n4 0\n0 0\n";
        assert_eq!(
            parse_label_file(text, 6),
            Err("line 6: vertex 0 listed twice".to_string())
        );
    }

    #[test]
    fn ladder_from_cli_certifies() {
        let g = ecl_graph::generate::disjoint_cliques(3, 5);
        let out = run_ladder_obs(&g, 2, None, FaultPlan::none(), None, None).unwrap();
        assert_eq!(out.certificate.num_components, 3);
    }

    #[test]
    fn sampling_algorithms_match_baseline_labels() {
        let g = ecl_graph::generate::kronecker(9, 8, 2);
        let want = run_algorithm("serial", &g, 1).unwrap().labels;
        for algo in ["serial", "parallel", "gpu"] {
            let r = run_algorithm_cfg(algo, &g, 2, Some(SamplingConfig::with_k(2)))
                .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert_eq!(r.labels, want, "{algo}");
        }
    }

    #[test]
    fn sampling_rejected_for_baselines() {
        let g = ecl_graph::generate::path(10);
        let err = run_algorithm_cfg("bfscc", &g, 1, Some(SamplingConfig::default())).unwrap_err();
        assert!(err.contains("--sampling"), "{err}");
    }

    #[test]
    fn unknown_algorithm_rejected() {
        let g = ecl_graph::generate::path(4);
        assert!(run_algorithm("quantum", &g, 1).is_err());
    }

    #[test]
    fn catalog_generation() {
        let g = generate_catalog("rmat16.sym", "tiny").unwrap();
        assert!(g.num_vertices() > 0);
        assert!(generate_catalog("nope", "tiny").is_err());
        assert!(generate_catalog("rmat16.sym", "huge").is_err());
    }
}
