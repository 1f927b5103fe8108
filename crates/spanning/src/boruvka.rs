//! Parallel Borůvka on the lock-free concurrent union-find.
//!
//! Each round, every component selects its lightest incident edge with a
//! packed-word atomic minimum (`weight << 32 | edge_index`, unique per
//! edge so ties break deterministically), then the winners are hooked
//! through [`ecl_unionfind::AtomicParents`]. Components at least halve
//! per round, so there are at most `log2 n` rounds.

use crate::weights::weighted_edges;
use crate::Forest;
use ecl_graph::CsrGraph;
use ecl_parallel::{parallel_for, Schedule};
use ecl_unionfind::{AtomicParents, ParentStore};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Minimum spanning forest by parallel Borůvka with `threads` workers.
pub fn run(g: &CsrGraph, threads: usize) -> Forest {
    let n = g.num_vertices();
    let edges = weighted_edges(g);
    let m = edges.len();
    let parents = AtomicParents::new(n);
    let picked: Vec<AtomicBool> = (0..m).map(|_| AtomicBool::new(false)).collect();
    let best: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        assert!(rounds <= 64, "Boruvka exceeded log2(n) rounds");

        // --- reset the per-component records --------------------------
        {
            let best = &best;
            parallel_for(threads, n, Schedule::Static, move |v| {
                best[v].store(u64::MAX, Ordering::Relaxed);
            });
        }

        // --- each edge bids on both endpoint components ----------------
        {
            let best = &best;
            let parents = &parents;
            let edges = &edges;
            parallel_for(threads, m, Schedule::Guided { min_chunk: 64 }, move |i| {
                let (u, v, w) = edges[i];
                let ru = parents.find_repres(u);
                let rv = parents.find_repres(v);
                if ru != rv {
                    let key = ((w as u64) << 32) | i as u64;
                    best[ru as usize].fetch_min(key, Ordering::Relaxed);
                    best[rv as usize].fetch_min(key, Ordering::Relaxed);
                }
            });
        }

        // --- hook each component's winning edge ------------------------
        let merged = std::sync::atomic::AtomicUsize::new(0);
        {
            let best = &best;
            let parents = &parents;
            let edges = &edges;
            let picked = &picked;
            let merged = &merged;
            parallel_for(threads, n, Schedule::Guided { min_chunk: 64 }, move |r| {
                let key = best[r].load(Ordering::Relaxed);
                if key == u64::MAX {
                    return;
                }
                let i = (key & 0xffff_ffff) as usize;
                let (u, v, _) = edges[i];
                let ru = parents.find_repres(u);
                let rv = parents.find_repres(v);
                // Claim the edge only if *this* call performed the link —
                // two components can nominate the same edge, and distinct
                // edges between the same component pair must not both
                // enter the forest.
                let (_, linked) = parents.hook_linked(ru, rv);
                if linked {
                    let was = picked[i].swap(true, Ordering::Relaxed);
                    debug_assert!(!was, "edge {i} linked twice");
                    merged.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        if merged.load(Ordering::Relaxed) == 0 {
            break;
        }
    }

    let mut forest = Vec::new();
    let mut total = 0u64;
    for (i, p) in picked.iter().enumerate() {
        if p.load(Ordering::Relaxed) {
            let (u, v, w) = edges[i];
            forest.push((u, v));
            total += w as u64;
        }
    }
    forest.sort_unstable();
    Forest {
        edges: forest,
        total_weight: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal;
    use ecl_graph::generate;
    use ecl_unionfind::Compression;

    #[test]
    fn matches_kruskal_weight() {
        for g in [
            generate::path(200),
            generate::complete(20),
            generate::disjoint_cliques(5, 8),
            generate::gnm_random(400, 1200, 3),
            generate::grid2d(14, 14),
            generate::rmat(8, 6, generate::RmatParams::GALOIS, 4),
        ] {
            let k = kruskal::run(&g, Compression::Halving);
            let b = run(&g, 4);
            b.validate(&g).unwrap();
            assert_eq!(b.total_weight, k.total_weight);
            assert_eq!(b.edges.len(), k.edges.len());
        }
    }

    #[test]
    fn single_thread_works() {
        let g = generate::gnm_random(200, 500, 7);
        let b = run(&g, 1);
        b.validate(&g).unwrap();
    }

    #[test]
    fn deterministic_across_runs() {
        // Unique packed keys make even the edge *set* deterministic.
        let g = generate::kronecker(8, 6, 9);
        let a = run(&g, 8);
        let b = run(&g, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_edgeless() {
        assert!(run(&ecl_graph::GraphBuilder::new(0).build(), 4)
            .edges
            .is_empty());
        let f = run(&ecl_graph::GraphBuilder::new(5).build(), 4);
        assert!(f.edges.is_empty());
        assert_eq!(f.total_weight, 0);
    }
}
