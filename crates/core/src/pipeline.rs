//! The ECL-CC body, written once over a [`ParentStore`] (§3): init →
//! hook → finalize, or with `cfg.sampling` init → sample-hook → compress
//! → snapshot/probe → remaining-edge hook → finalize.
//!
//! What differs between ECL-CC_SER and ECL-CC_OMP is only how a phase
//! visits the vertices ([`Sweep`]) and the store's hook: [`crate::serial`]
//! loops over a `[Cell<u32>]` with a plain-store hook,
//! [`crate::parallel`] runs a `parallel_for` over
//! [`AtomicParents`](ecl_unionfind::AtomicParents) with the Fig. 6 CAS
//! hook. The per-vertex closures take the store as an argument, so they
//! are `Sync` for both.

use crate::config::{EclConfig, FiniKind, InitKind};
use crate::sampling::{estimate_giant, stats_from_snapshot, SampleStats};
use ecl_graph::{CsrGraph, Vertex};
use ecl_unionfind::concurrent::JumpKind;
use ecl_unionfind::ParentStore;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a phase visits the vertices of a parent store.
pub(crate) trait Sweep {
    /// The parent store the phases read and write.
    type Store: ParentStore + ?Sized;

    /// The store itself (read between phases).
    fn store(&self) -> &Self::Store;

    /// Calls `f(store, v)` once for every vertex `v`.
    fn each(&self, f: impl Fn(&Self::Store, Vertex) + Sync);
}

/// Where the hooking passes report their work: edges processed and hooks
/// where the two representatives differed.
pub(crate) trait Tally: Sync {
    /// Adds one vertex's counts.
    fn add(&self, edges: u64, hooks: u64);
}

/// No tally. A generic parameter rather than an `Option`, so the
/// uncounted kernels compile the per-edge counting away.
impl Tally for () {
    #[inline]
    fn add(&self, _: u64, _: u64) {}
}

/// Shared atomic work tallies for the instrumented run.
#[derive(Default)]
pub(crate) struct PhaseCounters {
    pub(crate) edges: AtomicU64,
    pub(crate) hooks: AtomicU64,
}

impl Tally for PhaseCounters {
    fn add(&self, edges: u64, hooks: u64) {
        self.edges.fetch_add(edges, Ordering::Relaxed);
        self.hooks.fetch_add(hooks, Ordering::Relaxed);
    }
}

/// Runs the whole pipeline over `sweep`'s store, which holds one entry
/// per vertex of `g`. Returns the sampling counters when `cfg.sampling`
/// is set.
pub(crate) fn run<S: Sweep + ?Sized>(
    g: &CsrGraph,
    cfg: &EclConfig,
    sweep: &S,
    tally: &impl Tally,
) -> Option<SampleStats> {
    let (init, jump) = (cfg.init, cfg.jump);
    sweep.each(|p, v| p.set(v, init_label(g, v, init)));

    let stats = match cfg.sampling {
        // The paper's full pass: every undirected edge once, in the
        // `v > u` direction only.
        None => {
            sweep.each(|p, v| hook_edges(p, v, g.neighbors(v), jump, |u| v > u, tally));
            None
        }
        Some(scfg) => {
            // Hook the first K neighbors of every vertex. No direction
            // filter: the correctness argument needs each non-skipped
            // vertex to cover its own full adjacency.
            let k = scfg.k.max(1);
            sweep.each(|p, v| {
                let nbrs = g.neighbors(v);
                hook_edges(p, v, &nbrs[..k.min(nbrs.len())], jump, |_| true, tally)
            });

            // Compress, then freeze the snapshot the skip test (and the
            // work accounting) runs against. With min-wins hooking the
            // roots do not depend on interleaving, so the snapshot is
            // identical in every execution mode.
            finalize(sweep, FiniKind::Single);
            let store = sweep.store();
            let snapshot: Vec<Vertex> = (0..g.num_vertices() as Vertex)
                .map(|v| store.get(v))
                .collect();
            let giant = estimate_giant(&snapshot, scfg.probe);
            let stats = stats_from_snapshot(g, k, &snapshot, giant);

            // Remaining edges of every vertex not in the giant root's tree.
            let snapshot = &snapshot;
            sweep.each(|p, v| {
                if giant != Some(snapshot[v as usize]) {
                    let nbrs = g.neighbors(v);
                    hook_edges(p, v, &nbrs[k.min(nbrs.len())..], jump, |_| true, tally);
                }
            });
            Some(stats)
        }
    };

    finalize(sweep, cfg.fini);
    stats
}

/// The per-vertex initial label for each Init variant.
#[inline]
pub(crate) fn init_label(g: &CsrGraph, v: Vertex, init: InitKind) -> Vertex {
    match init {
        InitKind::VertexId => v,
        InitKind::MinNeighbor => g.neighbors(v).iter().copied().min().map_or(v, |m| m.min(v)),
        InitKind::FirstSmaller => g.neighbors(v).iter().copied().find(|&u| u < v).unwrap_or(v),
    }
}

/// Hooks `v` with every neighbor in `nbrs` that `keep` admits (min-wins)
/// and reports the work to `tally`.
#[inline]
fn hook_edges<P: ParentStore + ?Sized>(
    p: &P,
    v: Vertex,
    nbrs: &[Vertex],
    jump: JumpKind,
    keep: impl Fn(Vertex) -> bool,
    tally: &impl Tally,
) {
    let mut v_rep = p.find_with(v, jump);
    let (mut edges, mut hooks) = (0u64, 0u64);
    for &u in nbrs {
        if keep(u) {
            edges += 1;
            let u_rep = p.find_with(u, jump);
            hooks += u64::from(u_rep != v_rep);
            v_rep = p.hook(v_rep, u_rep);
        }
    }
    tally.add(edges, hooks);
}

/// Short-circuits every parent to its representative per `fini`. Hooking
/// is over, so the root is final and the plain store cannot be lost.
fn finalize<S: Sweep + ?Sized>(sweep: &S, fini: FiniKind) {
    sweep.each(|p, v| match fini {
        FiniKind::Single => p.set(v, p.find_naive(v)),
        FiniKind::Intermediate => p.set(v, p.find_repres(v)),
        FiniKind::Multiple => {
            let _ = p.find_with(v, JumpKind::Multiple);
        }
    });
}
