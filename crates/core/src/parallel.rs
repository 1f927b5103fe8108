//! ECL-CC_OMP — the paper's parallel CPU port: the same three phases as
//! the GPU code, each an OpenMP-style `parallel for schedule(guided)` over
//! the vertices, with the lock-free atomic parent array from
//! `ecl-unionfind` (gcc's `__sync_val_compare_and_swap` becomes
//! `AtomicU32::compare_exchange`). No worklist, a single computation
//! function (§3). The phases are the shared `crate::pipeline` body, the
//! same one [`crate::serial`] runs.

use crate::config::EclConfig;
use crate::pipeline::{self, PhaseCounters, Sweep, Tally};
use crate::result::CcResult;
use crate::sampling::SampleStats;
use ecl_graph::{CsrGraph, Vertex};
use ecl_parallel::{parallel_for, Schedule};
use ecl_unionfind::AtomicParents;
use std::sync::atomic::Ordering;

/// Runs parallel ECL-CC with `threads` workers under `cfg` (with
/// adaptive sampling when `cfg.sampling` is set).
pub fn run(g: &CsrGraph, threads: usize, cfg: &EclConfig) -> CcResult {
    run_with_schedule(g, threads, Schedule::GUIDED, cfg)
}

/// Same as [`run`] but with an explicit loop schedule (used by the
/// scheduling ablation bench; the paper uses guided).
pub fn run_with_schedule(
    g: &CsrGraph,
    threads: usize,
    schedule: Schedule,
    cfg: &EclConfig,
) -> CcResult {
    run_counted(g, threads, cfg, schedule, &()).0
}

/// The parallel body behind every entry point: the shared pipeline over
/// one atomic parent array, allocated once. The identity values `new`
/// pre-fills are overwritten by the init phase, exactly the GPU init
/// kernel's behaviour.
pub(crate) fn run_counted(
    g: &CsrGraph,
    threads: usize,
    cfg: &EclConfig,
    schedule: Schedule,
    tally: &impl Tally,
) -> (CcResult, Option<SampleStats>) {
    let parents = AtomicParents::new(g.num_vertices());
    let pool = Pool {
        parents: &parents,
        threads,
        schedule,
    };
    let stats = pipeline::run(g, cfg, &pool, tally);
    (CcResult::new(parents.snapshot()), stats)
}

/// The parallel sweep: an OpenMP-style `parallel for` over the vertices.
struct Pool<'a> {
    parents: &'a AtomicParents,
    threads: usize,
    schedule: Schedule,
}

impl Sweep for Pool<'_> {
    type Store = AtomicParents;

    fn store(&self) -> &AtomicParents {
        self.parents
    }

    #[inline]
    fn each(&self, f: impl Fn(&AtomicParents, Vertex) + Sync) {
        let parents = self.parents;
        parallel_for(self.threads, parents.len(), self.schedule, move |v| {
            f(parents, v as Vertex)
        });
    }
}

/// Per-run work counters for the ablation benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelRunStats {
    /// Edges processed by the hooking passes (one direction only on the
    /// full pass; the sampled and remaining ranges with `cfg.sampling`).
    pub edges_processed: u64,
    /// Hook invocations where the representatives differed.
    pub hooks: u64,
}

/// Instrumented variant of [`run`] that also reports work counters. It
/// runs the same pipeline as [`run`] — only the counter hand differs — so
/// the instrumented path cannot drift from the real one.
pub fn run_instrumented(
    g: &CsrGraph,
    threads: usize,
    cfg: &EclConfig,
) -> (CcResult, ParallelRunStats) {
    let counters = PhaseCounters::default();
    let (r, _) = run_counted(g, threads, cfg, Schedule::GUIDED, &counters);
    (
        r,
        ParallelRunStats {
            edges_processed: counters.edges.load(Ordering::Relaxed),
            hooks: counters.hooks.load(Ordering::Relaxed),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EclConfig, FiniKind, InitKind};
    use ecl_graph::generate;
    use ecl_unionfind::concurrent::JumpKind;

    fn check(g: &CsrGraph, threads: usize, cfg: &EclConfig) {
        let r = run(g, threads, cfg);
        r.verify(g)
            .unwrap_or_else(|e| panic!("{cfg:?} x{threads}: {e}"));
        for (v, &l) in r.labels.iter().enumerate() {
            assert_eq!(r.labels[l as usize], l, "vertex {v} label not a root");
        }
    }

    #[test]
    fn matches_reference_on_varied_graphs() {
        let cfg = EclConfig::default();
        for g in [
            generate::path(1000),
            generate::star(1000),
            generate::disjoint_cliques(10, 20),
            generate::gnm_random(2000, 6000, 1),
            generate::rmat(11, 8, generate::RmatParams::GALOIS, 2),
            generate::road_network(40, 40, 0.3, 1.0, 3),
        ] {
            check(&g, 4, &cfg);
        }
    }

    #[test]
    fn single_thread_degenerates_gracefully() {
        let g = generate::gnm_random(500, 1200, 9);
        check(&g, 1, &EclConfig::default());
    }

    #[test]
    fn many_threads_small_graph() {
        let g = generate::cycle(10);
        check(&g, 16, &EclConfig::default());
    }

    #[test]
    fn all_variants_verify() {
        let g = generate::gnm_random(800, 2000, 11);
        for init in [
            InitKind::VertexId,
            InitKind::MinNeighbor,
            InitKind::FirstSmaller,
        ] {
            check(&g, 4, &EclConfig::with_init(init));
        }
        for jump in [
            JumpKind::Multiple,
            JumpKind::Single,
            JumpKind::None,
            JumpKind::Intermediate,
        ] {
            check(&g, 4, &EclConfig::with_jump(jump));
        }
        for fini in [FiniKind::Intermediate, FiniKind::Multiple, FiniKind::Single] {
            check(&g, 4, &EclConfig::with_fini(fini));
        }
    }

    #[test]
    fn schedules_all_verify() {
        let g = generate::rmat(10, 8, generate::RmatParams::GALOIS, 5);
        for s in [
            Schedule::Static,
            Schedule::Dynamic { chunk: 32 },
            Schedule::Guided { min_chunk: 16 },
        ] {
            let r = run_with_schedule(&g, 4, s, &EclConfig::default());
            r.verify(&g).unwrap();
        }
    }

    #[test]
    fn repeated_runs_same_partition() {
        // Racy internals, deterministic outcome: the partition (and with
        // min-wins hooking even the labels) must be identical across runs.
        let g = generate::kronecker(10, 8, 6);
        let a = run(&g, 8, &EclConfig::default());
        for _ in 0..5 {
            let b = run(&g, 8, &EclConfig::default());
            assert_eq!(a.labels, b.labels);
        }
    }

    #[test]
    fn instrumented_honours_fini_variants() {
        // The old hand-inlined instrumented pipeline hard-coded Multiple
        // jumping in finalize; sharing the phase code means every variant
        // must now produce the same labels as the plain run.
        let g = generate::rmat(9, 6, generate::RmatParams::GALOIS, 17);
        for fini in [FiniKind::Intermediate, FiniKind::Multiple, FiniKind::Single] {
            let cfg = EclConfig::with_fini(fini);
            let (r, _) = run_instrumented(&g, 4, &cfg);
            assert_eq!(r.labels, run(&g, 4, &cfg).labels, "{fini:?}");
        }
    }

    #[test]
    fn instrumented_counts_each_edge_once() {
        let g = generate::gnm_random(300, 800, 13);
        let (r, stats) = run_instrumented(&g, 4, &EclConfig::default());
        r.verify(&g).unwrap();
        assert_eq!(stats.edges_processed as usize, g.num_edges());
        // Hooks happen on a subset of edges (Init3 pre-merges chains).
        assert!(stats.hooks <= stats.edges_processed);
        assert!(stats.hooks > 0);
    }
}
