//! ndHybrid-style connected components (Shun, Dhulipala, Blelloch — SPAA
//! 2014), as described in the paper's §2: "runs multiple concurrent BFSs
//! to generate low-diameter partitions of the graph. Then it contracts
//! each partition into a single vertex, relabels the vertices and edges
//! between partitions, and recursively performs the same operations on the
//! resulting graph."
//!
//! This implementation keeps that two-level structure (it is the
//! "practical simplification" documented in DESIGN.md): a staggered
//! multi-source BFS partitions the graph into low-diameter clusters, the
//! cut edges between clusters are contracted through a union-find, and
//! the cluster representatives' labels are pushed back down. Staggering —
//! admitting a geometrically growing number of new BFS sources each round,
//! as in Miller–Peng–Xu decomposition — bounds the number of
//! level-synchronous rounds even on high-diameter inputs.

use super::parallel_expand;
use ecl_cc::CcResult;
use ecl_graph::{CsrGraph, Vertex};
use ecl_parallel::{parallel_for, Schedule};
use ecl_unionfind::{AtomicParents, ParentStore};
use std::sync::atomic::{AtomicU32, Ordering};

const UNSET: u32 = u32::MAX;

/// Runs the hybrid LDD + contraction CC with `threads` workers.
pub fn run(g: &CsrGraph, threads: usize) -> CcResult {
    let n = g.num_vertices();
    if n == 0 {
        return CcResult::new(Vec::new());
    }
    // --- phase 1: staggered multi-source BFS partition -------------------
    let cluster: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNSET)).collect();
    let mut frontier: Vec<Vertex> = Vec::new();
    let mut next_source: usize = 0;
    let mut batch: usize = 1;
    while !frontier.is_empty() || next_source < n {
        // Admit the next batch of unclaimed vertices as fresh sources.
        let mut admitted = 0;
        while admitted < batch && next_source < n {
            let s = next_source as Vertex;
            next_source += 1;
            if cluster[s as usize]
                .compare_exchange(UNSET, s, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                frontier.push(s);
                admitted += 1;
            }
        }
        batch = batch.saturating_mul(2);
        if frontier.is_empty() {
            continue;
        }
        let cluster_ref = &cluster;
        frontier = parallel_expand(threads, &frontier, move |v, push| {
            let cv = cluster_ref[v as usize].load(Ordering::Relaxed);
            for &u in g.neighbors(v) {
                if cluster_ref[u as usize]
                    .compare_exchange(UNSET, cv, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    push.push(u);
                }
            }
        });
    }

    // --- phase 2: contract cut edges through a union-find ----------------
    let parents = AtomicParents::new(n);
    {
        let parents = &parents;
        let cluster_ref = &cluster;
        parallel_for(threads, n, Schedule::Dynamic { chunk: 128 }, move |v| {
            let v = v as Vertex;
            let cv = cluster_ref[v as usize].load(Ordering::Relaxed);
            for &u in g.neighbors(v) {
                if v > u {
                    let cu = cluster_ref[u as usize].load(Ordering::Relaxed);
                    if cu != cv {
                        parents.unite(cu, cv);
                    }
                }
            }
        });
    }

    // --- phase 3: push contracted labels back down ------------------------
    let labels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    {
        let parents = &parents;
        let cluster_ref = &cluster;
        let labels_ref = &labels;
        parallel_for(threads, n, Schedule::Static, move |v| {
            let c = cluster_ref[v].load(Ordering::Relaxed);
            labels_ref[v].store(parents.find_naive(c), Ordering::Relaxed);
        });
    }
    CcResult::new(labels.into_iter().map(AtomicU32::into_inner).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::test_support::test_graphs;

    #[test]
    fn verifies_on_all_shapes() {
        for (name, g) in test_graphs() {
            let r = run(&g, 4);
            r.verify(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn deep_path_bounded_rounds() {
        // Staggered sources must not degrade to n BFS levels.
        let g = ecl_graph::generate::path(20_000);
        let r = run(&g, 4);
        r.verify(&g).unwrap();
    }

    #[test]
    fn many_components() {
        let g = ecl_graph::generate::disjoint_cliques(25, 8);
        let r = run(&g, 4);
        assert_eq!(r.num_components(), 25);
    }

    #[test]
    fn empty_graph() {
        assert!(run(&ecl_graph::GraphBuilder::new(0).build(), 2)
            .labels
            .is_empty());
    }
}
