//! One driver per table/figure of the paper's evaluation (§5). Each
//! function prints the regenerated rows; EXPERIMENTS.md records a captured
//! run against the paper's numbers.

use crate::report::{BenchRecord, VerifyOutcome};
use crate::runners::{run_gpu_code, try_run_gpu_code, CPU_PAR_CODES, GPU_CODES, SERIAL_CODES};
use crate::{geomean, median_time_ms, paper_graphs, print_table};
use ecl_cc::{EclConfig, FiniKind, InitKind, JumpKind};
use ecl_gpu_sim::{DeviceProfile, Gpu};
use ecl_graph::catalog::Scale;
use ecl_graph::CsrGraph;

fn gpu_cycles(profile: &DeviceProfile, g: &CsrGraph, cfg: &EclConfig) -> u64 {
    let mut gpu = Gpu::new(profile.clone());
    let (r, s) = ecl_cc::gpu::run(&mut gpu, g, cfg);
    r.verify(g).expect("ECL-CC GPU produced a wrong labeling");
    s.total_cycles()
}

/// Table 1: the connected-components codes under evaluation — the
/// workspace's counterpart of the paper's code inventory.
pub fn table1() {
    let rows = vec![
        vec!["GPU", "parallel", "ECL-CC", "ecl-cc::gpu (this work)"],
        vec!["GPU", "parallel", "Groute", "ecl-baselines::gpu::groute"],
        vec!["GPU", "parallel", "Gunrock", "ecl-baselines::gpu::gunrock"],
        vec!["GPU", "parallel", "IrGL", "ecl-baselines::gpu::irgl"],
        vec!["GPU", "parallel", "Soman", "ecl-baselines::gpu::soman"],
        vec!["CPU", "parallel", "CRONO", "ecl-baselines::cpu::crono"],
        vec![
            "CPU",
            "parallel",
            "ECL-CComp",
            "ecl-cc::parallel (this work)",
        ],
        vec![
            "CPU",
            "parallel",
            "Galois",
            "ecl-baselines::cpu::galois_async",
        ],
        vec![
            "CPU",
            "parallel",
            "Ligra+ BFSCC",
            "ecl-baselines::cpu::bfscc",
        ],
        vec![
            "CPU",
            "parallel",
            "Ligra+ Comp",
            "ecl-baselines::cpu::label_prop",
        ],
        vec![
            "CPU",
            "parallel",
            "Multistep",
            "ecl-baselines::cpu::multistep",
        ],
        vec![
            "CPU",
            "parallel",
            "ndHybrid",
            "ecl-baselines::cpu::ndhybrid",
        ],
        vec!["CPU", "serial", "Boost", "ecl-baselines::serial::dfs_cc"],
        vec!["CPU", "serial", "ECL-CCser", "ecl-cc::serial (this work)"],
        vec![
            "CPU",
            "serial",
            "Galois",
            "ecl-baselines::serial::unionfind_cc",
        ],
        vec![
            "CPU",
            "serial",
            "igraph",
            "ecl-baselines::serial::igraph_cc",
        ],
        vec!["CPU", "serial", "Lemon", "ecl-baselines::serial::bfs_cc"],
        vec![
            "CPU",
            "parallel",
            "Afforest*",
            "ecl-cc::parallel with --sampling 2 (beyond paper)",
        ],
        vec![
            "CPU",
            "parallel",
            "BFSCC-hybrid*",
            "ecl-baselines::cpu::bfscc::run_direction_optimizing (beyond paper)",
        ],
    ];
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|r| r.into_iter().map(String::from).collect())
        .collect();
    print_table(
        "Table 1 — the connected-components codes we evaluate",
        &["Device", "Ser/Par", "Name", "Module"],
        &rows,
    );
}

/// Table 2: the input graphs and their statistics (stand-in scale).
pub fn table2(scale: Scale) {
    let mut rows = Vec::new();
    for (name, g) in paper_graphs(scale) {
        let s = ecl_graph::stats::graph_stats(&g);
        rows.push(vec![
            name.to_string(),
            s.vertices.to_string(),
            s.directed_edges.to_string(),
            s.dmin.to_string(),
            format!("{:.1}", s.davg),
            s.dmax.to_string(),
            s.components.to_string(),
        ]);
    }
    print_table(
        &format!("Table 2 — input graphs ({scale:?} scale stand-ins)"),
        &["Graph", "Vertices", "Edges*", "dmin", "davg", "dmax", "CCs"],
        &rows,
    );
}

fn ablation<T: Copy>(
    title: &str,
    scale: Scale,
    profile: &DeviceProfile,
    variants: &[(&str, T)],
    baseline_idx: usize,
    mk: impl Fn(T) -> EclConfig,
) {
    let graphs = paper_graphs(scale);
    let mut rows = Vec::new();
    let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for (name, g) in &graphs {
        let cycles: Vec<u64> = variants
            .iter()
            .map(|&(_, v)| gpu_cycles(profile, g, &mk(v)))
            .collect();
        let base = cycles[baseline_idx] as f64;
        let mut row = vec![name.to_string()];
        for (i, &c) in cycles.iter().enumerate() {
            let rel = c as f64 / base;
            per_variant[i].push(rel);
            row.push(format!("{rel:.2}"));
        }
        rows.push(row);
    }
    let mut gm = vec!["geomean".to_string()];
    for v in &per_variant {
        gm.push(format!("{:.2}", geomean(v)));
    }
    rows.push(gm);
    let mut header = vec!["Graph"];
    header.extend(variants.iter().map(|&(n, _)| n));
    print_table(title, &header, &rows);
}

/// Fig. 7: runtime of the three initialization variants relative to Init3.
pub fn fig7(scale: Scale, profile: &DeviceProfile) {
    ablation(
        &format!(
            "Fig. 7 — initialization variants, {} (runtime / Init3)",
            profile.name
        ),
        scale,
        profile,
        &[
            ("Init1", InitKind::VertexId),
            ("Init2", InitKind::MinNeighbor),
            ("Init3", InitKind::FirstSmaller),
        ],
        2,
        EclConfig::with_init,
    );
}

/// Fig. 8: runtime of the four pointer-jumping variants relative to Jump4.
pub fn fig8(scale: Scale, profile: &DeviceProfile) {
    ablation(
        &format!(
            "Fig. 8 — pointer-jumping variants, {} (runtime / Jump4)",
            profile.name
        ),
        scale,
        profile,
        &[
            ("Jump1", JumpKind::Multiple),
            ("Jump2", JumpKind::Single),
            ("Jump3", JumpKind::None),
            ("Jump4", JumpKind::Intermediate),
        ],
        3,
        EclConfig::with_jump,
    );
}

/// Fig. 9: runtime of the three finalization variants relative to Fini3.
///
/// Reports both total-runtime ratios (the paper's metric) and
/// finalize-kernel-only ratios: on the simulator the computation phase
/// leaves paths so short that finalization is a tiny share of the total,
/// so the kernel-local columns carry the visible signal.
pub fn fig9(scale: Scale, profile: &DeviceProfile) {
    let variants = [
        ("Fini1", FiniKind::Intermediate),
        ("Fini2", FiniKind::Multiple),
        ("Fini3", FiniKind::Single),
    ];
    let graphs = paper_graphs(scale);
    let mut rows = Vec::new();
    let mut rel_total: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut rel_kernel: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for (name, g) in &graphs {
        let stats: Vec<(u64, u64)> = variants
            .iter()
            .map(|&(_, f)| {
                let mut gpu = Gpu::new(profile.clone());
                let (r, s) = ecl_cc::gpu::run(&mut gpu, g, &EclConfig::with_fini(f));
                r.verify(g).unwrap();
                let fin = s.kernel("finalize").map_or(1, |k| k.cycles).max(1);
                (s.total_cycles().max(1), fin)
            })
            .collect();
        let (bt, bk) = stats[2];
        let mut row = vec![name.to_string()];
        for (i, &(t, _)) in stats.iter().enumerate() {
            let r = t as f64 / bt as f64;
            rel_total[i].push(r);
            row.push(format!("{r:.2}"));
        }
        for (i, &(_, k)) in stats.iter().enumerate() {
            let r = k as f64 / bk as f64;
            rel_kernel[i].push(r);
            row.push(format!("{r:.2}"));
        }
        rows.push(row);
    }
    let mut gm = vec!["geomean".to_string()];
    for v in rel_total.iter().chain(rel_kernel.iter()) {
        gm.push(format!("{:.2}", geomean(v)));
    }
    rows.push(gm);
    print_table(
        &format!(
            "Fig. 9 — finalization variants, {} (total & finalize-kernel runtime / Fini3)",
            profile.name
        ),
        &[
            "Graph", "tot F1", "tot F2", "tot F3", "krn F1", "krn F2", "krn F3",
        ],
        &rows,
    );
}

/// Table 3: whole-run L2 read/write accesses of Jump1/2/3 relative to
/// Jump4.
pub fn table3(scale: Scale, profile: &DeviceProfile) {
    let variants = [
        ("Jump1", JumpKind::Multiple),
        ("Jump2", JumpKind::Single),
        ("Jump3", JumpKind::None),
        ("Jump4", JumpKind::Intermediate),
    ];
    let graphs = paper_graphs(scale);
    let mut rows = Vec::new();
    let mut rel_reads: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut rel_writes: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for (name, g) in &graphs {
        let stats: Vec<(u64, u64)> = variants
            .iter()
            .map(|&(_, v)| {
                let mut gpu = Gpu::new(profile.clone());
                let (r, s) = ecl_cc::gpu::run(&mut gpu, g, &EclConfig::with_jump(v));
                r.verify(g).unwrap();
                (s.l2_reads().max(1), s.l2_writes().max(1))
            })
            .collect();
        let (br, bw) = stats[3];
        let mut row = vec![name.to_string()];
        for (i, &(rd, _)) in stats[..3].iter().enumerate() {
            let rr = rd as f64 / br as f64;
            rel_reads[i].push(rr);
            row.push(format!("{rr:.2}"));
        }
        for (i, &(_, wr)) in stats[..3].iter().enumerate() {
            let rw = wr as f64 / bw as f64;
            rel_writes[i].push(rw);
            row.push(format!("{rw:.2}"));
        }
        rows.push(row);
    }
    let mut gm = vec!["geomean".to_string()];
    for v in &rel_reads {
        gm.push(format!("{:.2}", geomean(v)));
    }
    for v in &rel_writes {
        gm.push(format!("{:.2}", geomean(v)));
    }
    rows.push(gm);
    print_table(
        &format!("Table 3 — L2 accesses relative to Jump4, {}", profile.name),
        &[
            "Graph", "rd J1", "rd J2", "rd J3", "wr J1", "wr J2", "wr J3",
        ],
        &rows,
    );
}

/// Table 4: average and maximum parent-path lengths observed during the
/// computation phase.
pub fn table4(scale: Scale, profile: &DeviceProfile) {
    let graphs = paper_graphs(scale);
    let mut rows = Vec::new();
    for (name, g) in &graphs {
        let mut gpu = Gpu::new(profile.clone());
        let cfg = EclConfig {
            record_path_lengths: true,
            ..Default::default()
        };
        let (r, s) = ecl_cc::gpu::run(&mut gpu, g, &cfg);
        r.verify(g).unwrap();
        let p = s.path_lengths.expect("probe enabled");
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", p.average()),
            p.max.to_string(),
        ]);
    }
    print_table(
        "Table 4 — observed path lengths during computation",
        &["Graph", "Avg path", "Max path"],
        &rows,
    );
}

/// Fig. 10: per-kernel share of the total ECL-CC runtime.
pub fn fig10(scale: Scale, profile: &DeviceProfile) {
    let graphs = paper_graphs(scale);
    let mut rows = Vec::new();
    let mut shares: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for (name, g) in &graphs {
        let mut gpu = Gpu::new(profile.clone());
        let (r, s) = ecl_cc::gpu::run(&mut gpu, g, &EclConfig::default());
        r.verify(g).unwrap();
        let total = s.total_cycles().max(1) as f64;
        let mut row = vec![name.to_string()];
        for (i, k) in s.kernels.iter().enumerate() {
            let share = 100.0 * k.cycles as f64 / total;
            shares[i].push(share);
            row.push(format!("{share:.1}%"));
        }
        rows.push(row);
    }
    let mut avg = vec!["mean".to_string()];
    for v in &shares {
        avg.push(format!(
            "{:.1}%",
            v.iter().sum::<f64>() / v.len().max(1) as f64
        ));
    }
    rows.push(avg);
    print_table(
        &format!("Fig. 10 — kernel runtime breakdown, {}", profile.name),
        &[
            "Graph", "init", "compute1", "compute2", "compute3", "finalize",
        ],
        &rows,
    );
}

/// Tables 5/6 + Figs. 11/12: absolute simulated runtimes of the five GPU
/// codes, plus each baseline's slowdown relative to ECL-CC.
pub fn gpu_comparison(scale: Scale, profile: &DeviceProfile) {
    let graphs = paper_graphs(scale);
    let mut rows = Vec::new();
    let mut rel: Vec<Vec<f64>> = vec![Vec::new(); GPU_CODES.len() - 1];
    for (name, g) in &graphs {
        let times: Vec<f64> = GPU_CODES
            .iter()
            .map(|&(_, r)| run_gpu_code(r, profile, g))
            .collect();
        let mut row = vec![name.to_string()];
        for &t in &times {
            row.push(format!("{t:.2}"));
        }
        for (i, &t) in times[1..].iter().enumerate() {
            let ratio = t / times[0];
            rel[i].push(ratio);
            row.push(format!("{ratio:.2}x"));
        }
        rows.push(row);
    }
    let mut gm = vec!["geomean".to_string(), String::new()];
    gm.extend(std::iter::repeat_n(String::new(), GPU_CODES.len() - 1));
    for v in &rel {
        gm.push(format!("{:.2}x", geomean(v)));
    }
    rows.push(gm);
    let table_no = if profile.name == "K40" {
        "Table 6 / Fig. 12"
    } else {
        "Table 5 / Fig. 11"
    };
    print_table(
        &format!(
            "{table_no} — GPU codes, {} (simulated ms; rel = code/ECL-CC)",
            profile.name
        ),
        &[
            "Graph",
            "ECL-CC",
            "Groute",
            "Gunrock",
            "IrGL",
            "Soman",
            "relGroute",
            "relGunrock",
            "relIrGL",
            "relSoman",
        ],
        &rows,
    );
}

/// Tables 7/8 + Figs. 13/14: parallel CPU codes at a given thread count
/// (the paper's two hosts ran 40 and 12 hardware threads).
pub fn cpu_parallel_comparison(scale: Scale, threads: usize, label: &str) {
    let graphs = paper_graphs(scale);
    let mut rows = Vec::new();
    let mut rel: Vec<Vec<f64>> = vec![Vec::new(); CPU_PAR_CODES.len() - 1];
    for (name, g) in &graphs {
        let mut times: Vec<Option<f64>> = Vec::new();
        for &(code_name, r) in &CPU_PAR_CODES {
            match r(g, threads) {
                Some(res) => {
                    res.verify(g).unwrap_or_else(|e| panic!("{code_name}: {e}"));
                    let t = median_time_ms(|| {
                        let _ = std::hint::black_box(r(g, threads));
                    });
                    times.push(Some(t));
                }
                None => times.push(None),
            }
        }
        let base = times[0].expect("ECL-CComp always runs");
        let mut row = vec![name.to_string()];
        for t in &times {
            row.push(t.map_or("n/a".into(), |t| format!("{t:.2}")));
        }
        for (i, t) in times[1..].iter().enumerate() {
            if let Some(t) = t {
                rel[i].push(t / base);
            }
        }
        rows.push(row);
    }
    let mut gm = vec!["geomean rel".to_string(), String::new()];
    for v in &rel {
        gm.push(if v.is_empty() {
            "n/a".into()
        } else {
            format!("{:.2}x", geomean(v))
        });
    }
    rows.push(gm);
    print_table(
        &format!("{label} — parallel CPU codes, {threads} threads (ms; geomean rel to ECL-CComp)"),
        &[
            "Graph",
            "ECL-CComp",
            "BFSCC",
            "Comp",
            "CRONO",
            "ndHybrid",
            "Multistep",
            "Galois",
        ],
        &rows,
    );
}

/// Tables 9/10 + Figs. 15/16: serial CPU codes.
pub fn serial_comparison(scale: Scale, label: &str) {
    let graphs = paper_graphs(scale);
    let mut rows = Vec::new();
    let mut rel: Vec<Vec<f64>> = vec![Vec::new(); SERIAL_CODES.len() - 1];
    for (name, g) in &graphs {
        let times: Vec<f64> = SERIAL_CODES
            .iter()
            .map(|&(code_name, r)| {
                r(g).verify(g)
                    .unwrap_or_else(|e| panic!("{code_name}: {e}"));
                median_time_ms(|| {
                    let _ = std::hint::black_box(r(g));
                })
            })
            .collect();
        let mut row = vec![name.to_string()];
        for &t in &times {
            row.push(format!("{t:.2}"));
        }
        for (i, &t) in times[1..].iter().enumerate() {
            rel[i].push(t / times[0]);
        }
        rows.push(row);
    }
    let mut gm = vec!["geomean rel".to_string(), String::new()];
    for v in &rel {
        gm.push(format!("{:.2}x", geomean(v)));
    }
    rows.push(gm);
    print_table(
        &format!("{label} — serial CPU codes (ms; geomean rel to ECL-CCser)"),
        &["Graph", "ECL-CCser", "Galois", "Boost", "Lemon", "igraph"],
        &rows,
    );
}

/// Beyond the paper: vertex-ordering sensitivity. §5.1 observes that
/// europe_osm "is particularly sensitive to the order in which the
/// vertices are processed"; this experiment runs GPU ECL-CC on the same
/// graphs under four renumberings and reports runtime and observed path
/// lengths per ordering.
pub fn ordering(scale: Scale, profile: &DeviceProfile) {
    use ecl_graph::transform;
    let targets = [
        ecl_graph::catalog::PaperGraph::EuropeOsm,
        ecl_graph::catalog::PaperGraph::UsaRoadUsa,
        ecl_graph::catalog::PaperGraph::Rmat16,
    ];
    let mut rows = Vec::new();
    for pg in targets {
        let base = pg.generate(scale);
        let n = base.num_vertices();
        let orderings: Vec<(&str, ecl_graph::CsrGraph)> = vec![
            ("natural", base.clone()),
            (
                "random",
                transform::permute(&base, &transform::random_permutation(n, 42)),
            ),
            (
                "reversed",
                transform::permute(&base, &transform::reverse_permutation(n)),
            ),
            (
                "bfs",
                transform::permute(&base, &transform::bfs_permutation(&base)),
            ),
        ];
        let cfg = EclConfig {
            record_path_lengths: true,
            ..Default::default()
        };
        let baseline = {
            let mut gpu = Gpu::new(profile.clone());
            let (r, s) = ecl_cc::gpu::run(&mut gpu, &base, &cfg);
            r.verify(&base).unwrap();
            s.total_cycles() as f64
        };
        for (oname, g) in &orderings {
            let mut gpu = Gpu::new(profile.clone());
            let (r, s) = ecl_cc::gpu::run(&mut gpu, g, &cfg);
            r.verify(g).unwrap();
            let p = s.path_lengths.unwrap();
            rows.push(vec![
                format!("{} / {}", pg.info().name, oname),
                format!("{:.2}", s.total_cycles() as f64 / baseline),
                format!("{:.2}", p.average()),
                p.max.to_string(),
            ]);
        }
    }
    print_table(
        &format!(
            "Ordering sensitivity (beyond paper), {} — runtime / natural order",
            profile.name
        ),
        &["Graph / ordering", "Rel time", "Avg path", "Max path"],
        &rows,
    );
}

/// Fig. 17: geometric-mean runtime of every code, normalized to GPU
/// ECL-CC on the Titan X profile.
///
/// Caveat (documented in EXPERIMENTS.md): GPU times are simulated cycles
/// converted at the device clock while CPU times are host wall-clock, so
/// the *cross-family* ratios mix a simulator with real silicon. Ratios
/// within each family are directly comparable.
pub fn fig17(scale: Scale, threads: usize) {
    let graphs = paper_graphs(scale);
    let titan = DeviceProfile::titan_x();

    // Per-graph baseline: GPU ECL-CC simulated ms.
    let base: Vec<f64> = graphs
        .iter()
        .map(|(_, g)| run_gpu_code(GPU_CODES[0].1, &titan, g))
        .collect();

    // Each entry holds per-graph ratios to the baseline, aligned by graph
    // index (None where a code cannot handle the input — the paper notes
    // the same averaging artifact for CRONO).
    let mut entries: Vec<(String, Vec<f64>)> = Vec::new();
    for &(name, r) in &GPU_CODES {
        let ratios: Vec<f64> = graphs
            .iter()
            .enumerate()
            .map(|(i, (_, g))| run_gpu_code(r, &titan, g) / base[i])
            .collect();
        entries.push((format!("GPU {name}"), ratios));
    }
    for &(name, r) in &CPU_PAR_CODES {
        let ratios: Vec<f64> = graphs
            .iter()
            .enumerate()
            .filter_map(|(i, (_, g))| {
                r(g, threads)?;
                let t = median_time_ms(|| {
                    let _ = std::hint::black_box(r(g, threads));
                });
                Some(t / base[i])
            })
            .collect();
        entries.push((format!("parCPU {name}"), ratios));
    }
    for &(name, r) in &SERIAL_CODES {
        let ratios: Vec<f64> = graphs
            .iter()
            .enumerate()
            .map(|(i, (_, g))| {
                median_time_ms(|| {
                    let _ = std::hint::black_box(r(g));
                }) / base[i]
            })
            .collect();
        entries.push((format!("serCPU {name}"), ratios));
    }

    let mut rows = Vec::new();
    for (name, ratios) in &entries {
        rows.push(vec![name.clone(), format!("{:.2}x", geomean(ratios))]);
    }
    print_table(
        &format!("Fig. 17 — geomean runtime relative to GPU ECL-CC ({threads} CPU threads)"),
        &["Code", "Geomean rel"],
        &rows,
    );
}

/// `--verify` sweep: runs every code (GPU, parallel CPU, serial) on the
/// quick graph set, certifies each labeling with the independent checker
/// *outside* the timed region, and returns machine-readable records for
/// JSON emission. Prints a summary table as it goes.
pub fn verify_sweep(scale: Scale, threads: usize, profile: &DeviceProfile) -> Vec<BenchRecord> {
    let graphs = crate::quick_graphs(scale);
    let mut records = Vec::new();
    let mut rows = Vec::new();

    let push = |records: &mut Vec<BenchRecord>,
                rows: &mut Vec<Vec<String>>,
                graph: &str,
                code: String,
                time_ms: f64,
                simulated: bool,
                outcome: VerifyOutcome| {
        rows.push(vec![
            graph.to_string(),
            code.clone(),
            format!("{time_ms:.2}"),
            if outcome.pass {
                format!("certified ({} components)", outcome.components)
            } else {
                format!("FAILED: {}", outcome.detail)
            },
        ]);
        records.push(BenchRecord {
            experiment: "verify-sweep".into(),
            graph: graph.to_string(),
            code,
            time_ms,
            simulated,
            verified: Some(outcome),
            device: if simulated {
                profile.name.to_string()
            } else {
                "host".into()
            },
        });
    };

    let certify = |g: &CsrGraph, labels: &[u32]| match ecl_verify::certify(g, labels) {
        Ok(c) => VerifyOutcome {
            pass: true,
            components: c.num_components,
            detail: String::new(),
        },
        Err(e) => VerifyOutcome {
            pass: false,
            components: 0,
            detail: e.to_string(),
        },
    };

    for (gname, g) in &graphs {
        for &(cname, r) in &GPU_CODES {
            match try_run_gpu_code(r, profile, g) {
                Ok(run) => push(
                    &mut records,
                    &mut rows,
                    gname,
                    format!("GPU {cname}"),
                    run.ms,
                    true,
                    VerifyOutcome {
                        pass: true,
                        components: run.certificate.num_components,
                        detail: String::new(),
                    },
                ),
                Err(e) => push(
                    &mut records,
                    &mut rows,
                    gname,
                    format!("GPU {cname}"),
                    f64::NAN,
                    true,
                    VerifyOutcome {
                        pass: false,
                        components: 0,
                        detail: e,
                    },
                ),
            }
        }
        for &(cname, r) in &CPU_PAR_CODES {
            let Some(first) = r(g, threads) else { continue };
            let t = median_time_ms(|| {
                let _ = std::hint::black_box(r(g, threads));
            });
            push(
                &mut records,
                &mut rows,
                gname,
                format!("parCPU {cname}"),
                t,
                false,
                certify(g, &first.labels),
            );
        }
        for &(cname, r) in &SERIAL_CODES {
            let first = r(g);
            let t = median_time_ms(|| {
                let _ = std::hint::black_box(r(g));
            });
            push(
                &mut records,
                &mut rows,
                gname,
                format!("serCPU {cname}"),
                t,
                false,
                certify(g, &first.labels),
            );
        }
    }

    print_table(
        "Verification sweep — every code certified outside the timed region",
        &["Graph", "Code", "ms", "Certification"],
        &rows,
    );
    records
}

/// `batch` experiment: throughput of the fault-tolerant batch engine at
/// several worker counts, on a fixed deterministic job mix, plus one
/// degraded configuration where the simulated GPU is dead (1-cycle
/// watchdog) and every job must route through the tripped breaker down
/// the CPU rungs. Returns machine-readable records for `--json`.
pub fn batch_throughput(threads: usize) -> Vec<BenchRecord> {
    use ecl_engine::{run_batch, EngineConfig, GraphSpec, JobSpec};

    let specs = [
        "cycle:4000",
        "cliques:6:40",
        "gnm:6000:18000:3",
        "star:3000",
        "grid:60:60",
        "rmat:10:8:5",
        "gnm:4000:8000:9",
        "path:5000",
        "kronecker:9:6:2",
        "cliques:3:80",
        "cycle:2500",
        "gnm:5000:15000:4",
    ];
    let jobs: Vec<JobSpec> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| JobSpec {
            id: i as u64,
            name: format!("job{i}"),
            graph: GraphSpec::parse(s).expect("static spec"),
        })
        .collect();

    let mut records = Vec::new();
    let mut rows = Vec::new();
    let mut run = |code: String, cfg: &EngineConfig| {
        let report = run_batch(&jobs, cfg).expect("batch setup");
        assert!(report.is_complete(), "batch must complete: {code}");
        let jobs_per_s = report.jobs.len() as f64 / (report.total_ms / 1e3);
        rows.push(vec![
            code.clone(),
            format!("{:.1}", report.total_ms),
            format!("{jobs_per_s:.1}"),
            format!("{}", report.total_retries()),
            format!("{}", report.total_trips()),
        ]);
        records.push(BenchRecord {
            experiment: "batch-throughput".into(),
            graph: format!("{}-job-mix", jobs.len()),
            code,
            time_ms: report.total_ms,
            simulated: false,
            verified: None,
            device: cfg.ladder.profile.name.to_string(),
        });
    };

    for workers in [1usize, 2, 4] {
        let mut cfg = EngineConfig {
            workers,
            ..EngineConfig::default()
        };
        cfg.ladder.threads = threads.clamp(1, 4);
        run(format!("workers={workers}"), &cfg);
    }
    // Degraded: GPU dead on arrival, breaker trips, CPU rungs carry the
    // batch. Throughput should stay the same order of magnitude.
    let mut cfg = EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    };
    cfg.ladder.threads = threads.clamp(1, 4);
    cfg.ladder.watchdog = Some(1);
    cfg.breaker.cooldown_ms = 3_600_000;
    run("workers=4,gpu-dead".into(), &cfg);

    print_table(
        "Batch engine throughput — certified jobs through the fallback ladder",
        &["Config", "total ms", "jobs/s", "retries", "breaker trips"],
        &rows,
    );
    records
}
