//! Adaptive work-efficient ECL-CC: neighbor sampling plus a
//! giant-component short-circuit (Sutton & Ben-Nun's two-phase scheme,
//! as popularized by Afforest).
//!
//! The baseline computation phase inspects every directed adjacency
//! entry. On real-world graphs the overwhelming majority of those
//! inspections merge vertices that are *already* in the same (giant)
//! component. The adaptive variant splits the computation phase in two:
//!
//! 1. **Sample hook** — hook only the first *K* neighbors of every
//!    vertex (no direction filter), then compress so every vertex points
//!    at its partial-forest root.
//! 2. **Probe + final pass** — estimate the most common root from a
//!    fixed-size probe over the compressed labels, then process the
//!    *remaining* adjacency (`K..degree`) of every vertex **not** labeled
//!    with that giant root. Skipped vertices are provably connected to
//!    the giant root already (labels only propagate along real edges), so
//!    their remaining edges cannot change the partition.
//!
//! Correctness (the standard Afforest argument): for any edge `(v, u)`,
//! either some endpoint is non-skipped — then that endpoint scans its
//! full adjacency across the two phases (entries `0..K` in the sample
//! pass, `K..` in the final pass, *both directions*, i.e. without the
//! baseline's `v > u` filter) and the edge is hooked — or both endpoints
//! are skipped, in which case both are already in the giant root's tree.
//! Min-wins hooking then makes the final labels **byte-identical** to
//! the baseline: the root of every union-find tree is the component
//! minimum, which is exactly the label the baseline converges to.
//!
//! The skip test is evaluated against an immutable snapshot of the
//! compressed labels, not the live parent array, so the skip set — and
//! with it the `edges_inspected` counter — is a deterministic function
//! of the graph across the serial, parallel, and simulated-GPU paths.
//!
//! The CPU phases are the shared `crate::pipeline` body; this module
//! holds the counters, the probe and the two counter-returning entry
//! points.

use crate::config::EclConfig;
use crate::result::CcResult;
use ecl_graph::{CsrGraph, Vertex};
use ecl_parallel::Schedule;
use std::collections::HashMap;

/// Work counters from one adaptive run, proving (or disproving) the
/// reduction. All fields are deterministic for a given graph and
/// [`SamplingConfig`] — identical across serial, parallel, and sim-GPU.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Vertices in the input graph.
    pub vertices: u64,
    /// Adjacency entries scanned by the sample-hook pass
    /// (`Σ min(K, degree)`)
    pub sampled_edges: u64,
    /// Adjacency entries scanned by the remaining-edge pass
    /// (`Σ over non-skipped vertices of max(degree − K, 0)`).
    pub final_edges: u64,
    /// Vertices short-circuited by the giant-root test.
    pub skipped_vertices: u64,
    /// The estimated giant root, when the probe found one.
    pub giant_root: Option<Vertex>,
}

impl SampleStats {
    /// Total adjacency entries inspected across both compute passes.
    pub fn edges_inspected(&self) -> u64 {
        self.sampled_edges + self.final_edges
    }

    /// Fraction of vertices skipped by the short-circuit.
    pub fn skip_fraction(&self) -> f64 {
        if self.vertices == 0 {
            0.0
        } else {
            self.skipped_vertices as f64 / self.vertices as f64
        }
    }

    /// Fractional reduction in edge inspections vs a baseline count
    /// (1.0 = all work skipped, 0.0 = no reduction).
    pub fn reduction_vs(&self, baseline: u64) -> f64 {
        if baseline == 0 {
            0.0
        } else {
            1.0 - self.edges_inspected() as f64 / baseline as f64
        }
    }

    /// Serializes the counters as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = ecl_obs::json::Obj::new()
            .u64("vertices", self.vertices)
            .u64("sampled_edges", self.sampled_edges)
            .u64("final_edges", self.final_edges)
            .u64("edges_inspected", self.edges_inspected())
            .u64("skipped_vertices", self.skipped_vertices)
            .f64("skip_fraction", self.skip_fraction());
        if let Some(g) = self.giant_root {
            o = o.u64("giant_root", g as u64);
        }
        o.build()
    }
}

/// Adjacency entries the *baseline* computation phase scans: every
/// directed edge is loaded once to evaluate the `v > u` filter. This is
/// the denominator for [`SampleStats::reduction_vs`].
pub fn baseline_edges_inspected(g: &CsrGraph) -> u64 {
    g.num_directed_edges() as u64
}

/// Estimates the most common root from `probe` evenly spaced vertices of
/// a compressed label array. Ties break toward the smaller label, so the
/// estimate is deterministic. `None` on empty input or a zero probe.
pub fn estimate_giant(labels: &[Vertex], probe: usize) -> Option<Vertex> {
    let n = labels.len();
    if n == 0 || probe == 0 {
        return None;
    }
    let samples = probe.min(n);
    let mut counts: HashMap<Vertex, usize> = HashMap::new();
    for i in 0..samples {
        // Evenly spaced, deterministic probe positions.
        let v = (i * n) / samples;
        *counts.entry(labels[v]).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(label, count)| (count, std::cmp::Reverse(label)))
        .map(|(label, _)| label)
}

/// Computes the deterministic work counters implied by a compressed
/// post-sample snapshot: which vertices the final pass skips and how many
/// adjacency entries each pass scans. Shared by the serial, parallel, and
/// sim-GPU paths so all three report identical numbers.
pub(crate) fn stats_from_snapshot(
    g: &CsrGraph,
    k: usize,
    snapshot: &[Vertex],
    giant: Option<Vertex>,
) -> SampleStats {
    let mut stats = SampleStats {
        vertices: g.num_vertices() as u64,
        giant_root: giant,
        ..SampleStats::default()
    };
    for v in g.vertices() {
        let deg = g.degree(v);
        stats.sampled_edges += deg.min(k) as u64;
        if giant == Some(snapshot[v as usize]) {
            stats.skipped_vertices += 1;
        } else {
            stats.final_edges += deg.saturating_sub(k) as u64;
        }
    }
    stats
}

/// `cfg` with sampling switched on (at the default depth if unset).
fn sampled(cfg: &EclConfig) -> EclConfig {
    EclConfig {
        sampling: Some(cfg.sampling.unwrap_or_default()),
        ..*cfg
    }
}

/// Serial adaptive ECL-CC. Uses `cfg.sampling` (defaulting if unset) and
/// returns the labeling — byte-identical to [`crate::serial::run`] —
/// plus the work counters.
pub fn run_serial(g: &CsrGraph, cfg: &EclConfig) -> (CcResult, SampleStats) {
    let (r, stats) = crate::serial::run_counted(g, &sampled(cfg));
    (r, stats.unwrap_or_default())
}

/// Parallel adaptive ECL-CC on the workspace thread pool (guided
/// schedule, like [`crate::parallel::run`]).
pub fn run_parallel(g: &CsrGraph, threads: usize, cfg: &EclConfig) -> (CcResult, SampleStats) {
    let (r, stats) = crate::parallel::run_counted(g, threads, &sampled(cfg), Schedule::GUIDED, &());
    (r, stats.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FiniKind, InitKind, SamplingConfig};
    use ecl_graph::{generate, stats};
    use ecl_unionfind::concurrent::JumpKind;

    fn corpus() -> Vec<(&'static str, CsrGraph)> {
        vec![
            ("path", generate::path(300)),
            ("cycle", generate::cycle(128)),
            ("star", generate::star(500)),
            ("cliques", generate::disjoint_cliques(6, 9)),
            ("grid", generate::grid2d(17, 23)),
            ("gnm", generate::gnm_random(800, 2400, 3)),
            (
                "rmat",
                generate::rmat(10, 8, generate::RmatParams::GALOIS, 5),
            ),
            ("kron", generate::kronecker(10, 8, 7)),
            ("road", generate::road_network(25, 25, 0.3, 1.0, 9)),
            ("road-30", generate::road_network(30, 30, 0.3, 1.0, 4)),
            ("gnm-sparse", generate::gnm_random(400, 900, 7)),
            ("gnm-mid", generate::gnm_random(600, 1800, 11)),
            ("gnm-dense", generate::gnm_random(800, 2000, 11)),
            (
                "rmat-9",
                generate::rmat(9, 6, generate::RmatParams::GALOIS, 3),
            ),
            ("empty", ecl_graph::GraphBuilder::new(0).build()),
            ("isolated", ecl_graph::GraphBuilder::new(17).build()),
        ]
    }

    #[test]
    fn serial_labels_byte_identical_to_baseline() {
        for (name, g) in corpus() {
            let baseline = crate::serial::run(&g, &EclConfig::default());
            for kk in [1, 2, 4] {
                let cfg = EclConfig::with_sampling(kk);
                let (r, stats) = run_serial(&g, &cfg);
                assert_eq!(r.labels, baseline.labels, "{name} k={kk}");
                assert!(
                    stats.edges_inspected() <= baseline_edges_inspected(&g),
                    "{name} k={kk}: {} > baseline {}",
                    stats.edges_inspected(),
                    baseline_edges_inspected(&g)
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial_labels_and_counters() {
        for (name, g) in corpus() {
            let cfg = EclConfig::with_sampling(2);
            let (rs, ss) = run_serial(&g, &cfg);
            for threads in [1, 4, 8] {
                let (rp, sp) = run_parallel(&g, threads, &cfg);
                assert_eq!(rp.labels, rs.labels, "{name} x{threads}");
                // The snapshot-based skip set makes the counters
                // deterministic, not just the labels.
                assert_eq!(sp, ss, "{name} x{threads}");
            }
        }
    }

    #[test]
    fn strict_reduction_on_powerlaw_graphs() {
        for (name, g) in [
            (
                "rmat",
                generate::rmat(11, 8, generate::RmatParams::GALOIS, 5),
            ),
            ("kron", generate::kronecker(11, 8, 7)),
        ] {
            let (_, stats) = run_serial(&g, &EclConfig::with_sampling(2));
            let base = baseline_edges_inspected(&g);
            assert!(
                stats.edges_inspected() < base,
                "{name}: no strict reduction ({} vs {base})",
                stats.edges_inspected()
            );
            assert!(stats.skipped_vertices > 0, "{name}: nothing skipped");
        }
    }

    #[test]
    fn variants_stay_byte_identical() {
        let g = generate::gnm_random(600, 1800, 11);
        for init in [
            InitKind::VertexId,
            InitKind::MinNeighbor,
            InitKind::FirstSmaller,
        ] {
            let cfg = EclConfig {
                sampling: Some(SamplingConfig::with_k(2)),
                ..EclConfig::with_init(init)
            };
            let plain = EclConfig::with_init(init);
            let (r, _) = run_serial(&g, &cfg);
            assert_eq!(r.labels, crate::serial::run(&g, &plain).labels, "{init:?}");
        }
        for jump in [
            JumpKind::Multiple,
            JumpKind::Single,
            JumpKind::None,
            JumpKind::Intermediate,
        ] {
            let cfg = EclConfig {
                sampling: Some(SamplingConfig::with_k(2)),
                ..EclConfig::with_jump(jump)
            };
            let plain = EclConfig::with_jump(jump);
            let (r, _) = run_serial(&g, &cfg);
            assert_eq!(r.labels, crate::serial::run(&g, &plain).labels, "{jump:?}");
        }
    }

    #[test]
    fn every_variant_depth_and_mode_matches_reference() {
        // Init × Jump × Fini (36) × sampling {off, k=1, k=2} × {serial,
        // pool at 1 thread, pool at 4 threads}, all through the one
        // pipeline body.
        for (name, g) in corpus() {
            let want = stats::reference_labels(&g);
            for init in [
                InitKind::VertexId,
                InitKind::MinNeighbor,
                InitKind::FirstSmaller,
            ] {
                for jump in [
                    JumpKind::Multiple,
                    JumpKind::Single,
                    JumpKind::None,
                    JumpKind::Intermediate,
                ] {
                    for fini in [FiniKind::Intermediate, FiniKind::Multiple, FiniKind::Single] {
                        for sampling in [None, Some(1), Some(2)] {
                            let cfg = EclConfig {
                                init,
                                jump,
                                fini,
                                sampling: sampling.map(SamplingConfig::with_k),
                                ..EclConfig::default()
                            };
                            let at = format!("{name} {cfg:?}");
                            let serial = crate::serial::run(&g, &cfg);
                            assert_eq!(serial.labels, want, "{at} serial");
                            for threads in [1, 4] {
                                let r = crate::parallel::run(&g, threads, &cfg);
                                assert_eq!(r.labels, want, "{at} x{threads}");
                            }
                            if sampling.is_none() {
                                continue;
                            }
                            let (rs, ss) = run_serial(&g, &cfg);
                            assert_eq!(rs.labels, serial.labels, "{at} run_serial");
                            for threads in [1, 4] {
                                let (rp, sp) = run_parallel(&g, threads, &cfg);
                                assert_eq!(rp.labels, want, "{at} run_parallel x{threads}");
                                assert_eq!(sp, ss, "{at} stats x{threads}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn giant_estimate_is_deterministic_mode() {
        // 70% of labels are 3, the rest unique: the probe must find 3.
        let mut labels: Vec<Vertex> = (0..100).map(|v| if v % 10 < 7 { 3 } else { v }).collect();
        assert_eq!(estimate_giant(&labels, 64), Some(3));
        // Tie between labels 0 and 1 breaks toward the smaller.
        labels = vec![0, 0, 1, 1];
        assert_eq!(estimate_giant(&labels, 4), Some(0));
        assert_eq!(estimate_giant(&[], 64), None);
        assert_eq!(estimate_giant(&[5], 0), None);
    }

    #[test]
    fn stats_json_shape() {
        let (_, stats) = run_serial(&generate::kronecker(9, 8, 3), &EclConfig::with_sampling(2));
        let j = stats.to_json();
        let v = ecl_obs::json::parse(&j).unwrap();
        assert!(v.get("edges_inspected").and_then(|x| x.as_u64()).is_some());
        assert!(v.get("skip_fraction").and_then(|x| x.as_f64()).is_some());
    }
}
