//! Afforest (Sutton, Ben-Nun, Barak — IPDPS 2018): the contemporaneous
//! successor to ECL-CC's generation of union-find CC codes, included as an
//! extension beyond the paper's comparison set.
//!
//! Afforest's insight: real-world graphs have one giant component, so (1)
//! link only a small fixed *neighbor-sample* of each vertex's edges
//! first, (2) identify the most frequent representative — almost
//! certainly the giant component — by sampling vertices, and (3) process
//! the remaining edges only for vertices **outside** that component,
//! skipping the vast majority of the edge list.

use ecl_cc::CcResult;
use ecl_graph::{CsrGraph, Vertex};
use ecl_parallel::{parallel_for, Schedule};
use ecl_unionfind::{AtomicParents, ParentStore};

/// Edges per vertex linked in the sampling phase (the paper's default).
const NEIGHBOR_ROUNDS: usize = 2;
/// Vertices sampled to identify the giant component.
const SAMPLE_SIZE: usize = 1024;

/// Runs Afforest with `threads` workers.
pub fn run(g: &CsrGraph, threads: usize) -> CcResult {
    let n = g.num_vertices();
    let parents = AtomicParents::new(n);

    // --- phase 1: link a sample of each vertex's first edges -----------
    for round in 0..NEIGHBOR_ROUNDS {
        let parents = &parents;
        parallel_for(threads, n, Schedule::Guided { min_chunk: 128 }, move |v| {
            let v = v as Vertex;
            if let Some(&u) = g.neighbors(v).get(round) {
                parents.unite(v, u);
            }
        });
    }

    // --- phase 2: find the most frequent component by sampling ----------
    let giant = most_frequent_root(&parents, n);

    // --- phase 3: finish the remaining edges, skipping the giant --------
    {
        let parents = &parents;
        parallel_for(threads, n, Schedule::Guided { min_chunk: 64 }, move |v| {
            let v = v as Vertex;
            if parents.find_repres(v) == giant {
                return; // already in the giant component: skip its edges
            }
            for &u in g.neighbors(v).iter().skip(NEIGHBOR_ROUNDS) {
                parents.unite(v, u);
            }
        });
    }

    // --- finalize --------------------------------------------------------
    {
        let parents = &parents;
        parallel_for(threads, n, Schedule::Static, move |v| {
            let v = v as Vertex;
            let root = parents.find_naive(v);
            parents.set(v, root);
        });
    }
    CcResult::new(parents.snapshot())
}

/// Approximates the most common representative by probing a fixed,
/// deterministic sample of vertices.
fn most_frequent_root(parents: &AtomicParents, n: usize) -> Vertex {
    if n == 0 {
        return 0;
    }
    let mut counts: std::collections::HashMap<Vertex, usize> = std::collections::HashMap::new();
    let stride = (n / SAMPLE_SIZE).max(1);
    let mut v = 0usize;
    while v < n {
        *counts.entry(parents.find_repres(v as Vertex)).or_insert(0) += 1;
        v += stride;
    }
    counts
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .map(|(r, _)| r)
        .unwrap_or(0)
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
    fn skipping_preserves_correctness_with_many_components() {
        // The skip heuristic must not lose small components.
        let g = ecl_graph::generate::disjoint_cliques(30, 7);
        let r = run(&g, 4);
        r.verify(&g).unwrap();
        assert_eq!(r.num_components(), 30);
    }

    #[test]
    fn giant_component_case() {
        let g = ecl_graph::generate::preferential_attachment(3000, 4, 9);
        let r = run(&g, 4);
        r.verify(&g).unwrap();
        assert_eq!(r.num_components(), 1);
    }

    #[test]
    fn matches_ecl_labels() {
        let g = ecl_graph::generate::gnm_random(600, 1500, 13);
        assert_eq!(run(&g, 4).labels, ecl_cc::connected_components(&g).labels);
    }

    #[test]
    fn empty_graph() {
        assert!(run(&ecl_graph::GraphBuilder::new(0).build(), 2)
            .labels
            .is_empty());
    }
}
