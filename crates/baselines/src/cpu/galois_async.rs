//! Galois' asynchronous connected components (paper §2): every edge is
//! added once to a concurrent union-find; only one of the two directed
//! copies of each undirected edge is processed; unions and finds run
//! concurrently with a restricted form of pointer jumping. This is the
//! closest ancestor of ECL-CC's computation phase — what ECL-CC adds on
//! top is the enhanced initialization and the GPU-specific machinery.

use ecl_cc::CcResult;
use ecl_graph::CsrGraph;
use ecl_parallel::{parallel_for, Schedule};
use ecl_unionfind::{AtomicParents, ParentStore};

/// Runs Galois-style asynchronous union-find CC with `threads` workers.
pub fn run(g: &CsrGraph, threads: usize) -> CcResult {
    let n = g.num_vertices();
    // Plain vertex-ID initialization (no ECL-CC enhanced init).
    let parents = AtomicParents::new(n);
    {
        let parents = &parents;
        parallel_for(threads, n, Schedule::Dynamic { chunk: 64 }, move |v| {
            let v = v as u32;
            for &u in g.neighbors(v) {
                if v > u {
                    // Restricted pointer jumping: path halving inside find.
                    parents.unite(u, v);
                }
            }
        });
    }
    // Flatten for the final labels.
    {
        let parents = &parents;
        parallel_for(threads, n, Schedule::Dynamic { chunk: 256 }, move |v| {
            let v = v as u32;
            let root = parents.find_naive(v);
            parents.set(v, root);
        });
    }
    CcResult::new(parents.snapshot())
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
    fn matches_ecl_labels() {
        // Same min-wins convention → identical labels, not just partition.
        let g = ecl_graph::generate::gnm_random(500, 1300, 5);
        let ours = run(&g, 4);
        let ecl = ecl_cc::connected_components(&g);
        assert_eq!(ours.labels, ecl.labels);
    }

    #[test]
    fn repeated_runs_identical() {
        let g = ecl_graph::generate::kronecker(9, 8, 7);
        let a = run(&g, 8);
        let b = run(&g, 8);
        assert_eq!(a.labels, b.labels);
    }
}
