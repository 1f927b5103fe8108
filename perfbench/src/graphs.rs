//! `social` and `road`: the CPU ECL-CC kernels on a power-law graph and
//! on a high-diameter road mesh.
//!
//! A round runs serial, parallel (`nproc` threads), certification of the
//! parallel labels, and parallel with `--sampling 2`, in that fixed
//! order; rounds repeat until the measurement time is up and every call
//! time is the median over rounds. `op_ms` is the sum of the four call
//! medians and `op_cpu_ms` the process CPU time per round. The traced
//! run alternates plain rounds with traced ones (a span around each
//! call) and takes the work counters from two runs of the instrumented
//! parallel kernel after the rounds.

use crate::host;
use crate::inputs;
use crate::stats::{clean_median, median, overhead_pct, residual};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use ecl_cc::{parallel, sampling, serial, EclConfig, SampleStats};
use ecl_graph::CsrGraph;
use std::time::{Duration, Instant};

/// Which graph class.
#[derive(Clone, Copy)]
pub enum Kind {
    /// `preferential_attachment(2^20, 8, seed)`.
    Social,
    /// `road_network(1400, 1400, 0.2, 1.0, seed)`.
    Road,
}

/// Graph builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rounds run even when the measurement time is shorter.
const MIN_ROUNDS: usize = 4;
/// Sampling depth, as `--sampling 2`.
const SAMPLING_K: usize = 2;

fn build(kind: Kind, seed: u64) -> CsrGraph {
    match kind {
        Kind::Social => inputs::social_graph(inputs::SOCIAL_VERTICES, seed),
        Kind::Road => inputs::road_graph(inputs::ROAD_SIDE, seed),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Timings of one round: milliseconds and the CPU ticks the host stole
/// during each call.
struct Round {
    serial: (f64, u64),
    parallel: (f64, u64),
    certify: (f64, u64),
    sampling: (f64, u64),
    wall: f64,
}

/// Runs the workload.
pub fn run(kind: Kind, args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let threads = host::nproc();

    let mut setup_ms = Vec::new();
    let mut graph = None;
    for _ in 0..SETUP_REPS {
        drop(graph.take());
        let (g, d) = tracer.time("graph.generate", None, || build(kind, args.seed));
        setup_ms.push(ms(d));
        graph = Some(g);
    }
    let g = graph.expect("at least one setup rep");
    let edges = g.num_edges() as f64;
    let csr_bytes = std::mem::size_of_val(g.offsets()) + std::mem::size_of_val(g.adjacency());
    out.notes.push(format!(
        "graph: {} vertices, {} undirected edges, {:.1} MiB CSR",
        g.num_vertices(),
        g.num_edges(),
        csr_bytes as f64 / (1 << 20) as f64
    ));

    let cfg = EclConfig::default();
    let scfg = EclConfig::with_sampling(SAMPLING_K);
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<f64> = Vec::new();
    let mut plain_rounds: Vec<f64> = Vec::new();
    let mut sample_stats: Option<SampleStats> = None;
    let mut components: Option<usize> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let cpu_start = host::process_cpu_s("self");

    while rounds.len() < MIN_ROUNDS || Instant::now() < deadline {
        // Traced runs alternate plain and traced rounds so both see the
        // same drift in host noise.
        let traced = tracer.enabled() && rounds.len() % 2 == 1;
        let round_start = Instant::now();
        let root = if traced {
            tracer.record("round", round_start, Duration::ZERO, None, 0)
        } else {
            None
        };
        // Each call is bracketed by reads of the host's steal counter, so
        // that calls the hypervisor interrupted can be told apart.
        let begin = || (host::cpu_steal_total().0, Instant::now());
        let end = |tracer: &mut Tracer, name: &'static str, (steal, start): (u64, Instant)| {
            let d = start.elapsed();
            let stolen = host::cpu_steal_total().0.saturating_sub(steal);
            if traced {
                tracer.record(name, start, d, root, 0);
            }
            (ms(d), stolen)
        };

        let t = begin();
        let s = serial::run(&g, &cfg);
        let serial_t = end(tracer, "core.serial.run", t);

        let t = begin();
        let p = parallel::run(&g, threads, &cfg);
        let parallel_t = end(tracer, "core.parallel.run", t);

        let t = begin();
        let cert = ecl_verify::certify(&g, &p.labels);
        let certify_t = end(tracer, "verify.certify", t);

        let t = begin();
        let (q, st) = sampling::run_parallel(&g, threads, &scfg);
        let sampling_t = end(tracer, "core.sampling.run", t);

        out.attempted += 4;
        out.check(s.labels == p.labels, || {
            "serial and parallel labels differ".to_string()
        });
        out.check(q.labels == p.labels, || {
            "sampling and parallel labels differ".to_string()
        });
        match cert {
            Ok(c) => {
                let expected = *components.get_or_insert(c.num_components);
                out.check(c.num_components == expected, || {
                    format!(
                        "certified {} components, earlier {expected}",
                        c.num_components
                    )
                });
            }
            Err(e) => out.check(false, || format!("certify: {e}")),
        }
        match sample_stats {
            None => sample_stats = Some(st),
            Some(first) => out.check(first == st, || {
                format!("sampling stats {st:?} != {first:?} in an earlier round")
            }),
        }

        let wall = round_start.elapsed();
        if let Some(r) = root {
            tracer.close(r, wall);
        }
        (if traced {
            &mut traced_rounds
        } else {
            &mut plain_rounds
        })
        .push(ms(wall));
        rounds.push(Round {
            serial: serial_t,
            parallel: parallel_t,
            certify: certify_t,
            sampling: sampling_t,
            wall: ms(wall),
        });
    }

    let cpu_per_round_ms = (host::process_cpu_s("self") - cpu_start) * 1e3 / rounds.len() as f64;

    if tracer.enabled() {
        // The work counters come from the instrumented kernel, run twice
        // outside the timed rounds: its shared atomic tallies slow the
        // kernel itself, which would distort the timed parallel figure.
        let ((p0, first), _) = tracer.time("core.parallel.run_instrumented", None, || {
            parallel::run_instrumented(&g, threads, &cfg)
        });
        let ((p, second), _) = tracer.time("core.parallel.run_instrumented", None, || {
            parallel::run_instrumented(&g, threads, &cfg)
        });
        out.attempted += 2;
        out.check(p.labels == p0.labels, || {
            "instrumented parallel labels differ between runs".to_string()
        });
        out.check(first.edges_processed == second.edges_processed, || {
            format!(
                "parallel edges_processed {} then {}",
                first.edges_processed, second.edges_processed
            )
        });
        out.metrics.insert(
            "core.parallel.edges_processed",
            second.edges_processed as f64,
        );
        out.metrics
            .insert("core.parallel.hooks", second.hooks as f64);
    }

    // Each call time is the median over the rounds in which the host stole no
    // CPU tick during that call (when at least MIN_CLEAN such rounds
    // exist), so that hypervisor preemption does not set the figure.
    let clean =
        |f: fn(&Round) -> (f64, u64)| clean_median(&rounds.iter().map(f).collect::<Vec<_>>());
    let (serial_ms, serial_n) = clean(|r| r.serial);
    let (parallel_ms, parallel_n) = clean(|r| r.parallel);
    let (certify_ms, _) = clean(|r| r.certify);
    let (sampling_ms, sampling_n) = clean(|r| r.sampling);
    let (certified_ms, certified_n) =
        clean(|r| (r.parallel.0 + r.certify.0, r.parallel.1 + r.certify.1));
    let med =
        |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);

    out.metrics
        .insert("setup_s", median(&setup_ms).unwrap_or(0.0) / 1e3);
    out.metrics
        .insert("op_ms", serial_ms + parallel_ms + certify_ms + sampling_ms);
    out.metrics.insert("op_cpu_ms", cpu_per_round_ms);
    out.metrics
        .insert("run.peak_rss_mb", host::peak_rss_mb("self"));

    let st = sample_stats.unwrap_or_default();
    out.metrics
        .insert("graph.generate_ms", median(&setup_ms).unwrap_or(0.0));
    out.metrics
        .insert("graph.vertices", g.num_vertices() as f64);
    out.metrics.insert("graph.edges", edges);
    out.metrics.insert("graph.csr_bytes", csr_bytes as f64);
    out.metrics.insert("core.serial.run_ms", serial_ms);
    out.metrics.insert("core.parallel.run_ms", parallel_ms);
    out.metrics
        .insert("core.parallel.speedup_vs_serial", serial_ms / parallel_ms);
    out.metrics.insert("core.sampling.run_ms", sampling_ms);
    out.metrics
        .insert("core.sampling.edges_inspected", st.edges_inspected() as f64);
    out.metrics
        .insert("core.sampling.skipped_vertices", st.skipped_vertices as f64);
    out.metrics.insert(
        "core.sampling.inspected_frac",
        st.edges_inspected() as f64 / sampling::baseline_edges_inspected(&g) as f64,
    );
    out.metrics.insert("verify.certify_ms", certify_ms);
    out.metrics
        .insert("verify.share_of_certified", certify_ms / certified_ms);
    let round_ms = med(|r| r.wall);
    out.metrics.insert("run.round_ms", round_ms);
    out.metrics.insert(
        "run.residual_ms",
        med(|r| {
            residual(
                r.wall,
                &[r.serial.0, r.parallel.0, r.certify.0, r.sampling.0],
            )
        }),
    );
    if tracer.enabled() {
        out.metrics.insert(
            "trace.overhead_pct",
            overhead_pct(
                median(&traced_rounds).unwrap_or(0.0),
                median(&plain_rounds).unwrap_or(0.0),
            ),
        );
    }
    out.notes.push(format!(
        "{} rounds; median ms over steal-free rounds: serial {serial_ms:.2} (n={serial_n}), \
         parallel {parallel_ms:.2} (n={parallel_n}, {threads} threads), sampling {sampling_ms:.2} \
         (n={sampling_n}), parallel+certify {certified_ms:.2} (n={certified_n}); round {round_ms:.2}, \
         CPU per round {cpu_per_round_ms:.2}",
        rounds.len()
    ));
    out.notes.push(format!(
        "per-round ms serial {:?} parallel {:?} certified {:?} sampling {:?}",
        rounds
            .iter()
            .map(|r| r.serial.0.round() as u64)
            .collect::<Vec<_>>(),
        rounds
            .iter()
            .map(|r| r.parallel.0.round() as u64)
            .collect::<Vec<_>>(),
        rounds
            .iter()
            .map(|r| (r.parallel.0 + r.certify.0).round() as u64)
            .collect::<Vec<_>>(),
        rounds
            .iter()
            .map(|r| r.sampling.0.round() as u64)
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "sampling k={SAMPLING_K}: {} of {} adjacency entries inspected, {} vertices skipped",
        st.edges_inspected(),
        sampling::baseline_edges_inspected(&g),
        st.skipped_vertices
    ));
    Ok(out)
}
