//! Serial Kruskal on the workspace union-find, the single-threaded
//! `[Cell<u32>]` [`ParentStore`].
//!
//! The pointer-jumping variant is a parameter so the paper's closing
//! claim — intermediate pointer jumping (Jump4) speeds up union-find
//! clients like Kruskal — can be measured directly across Jump1–4
//! (`benches/spanning.rs` in `ecl-bench` sweeps it).

use crate::weights::weighted_edges;
use crate::Forest;
use ecl_graph::CsrGraph;
use ecl_unionfind::{JumpKind, ParentStore};
use std::cell::Cell;

/// Minimum spanning forest by Kruskal's algorithm, finding with the
/// given pointer-jumping variant.
pub fn run(g: &CsrGraph, jump: JumpKind) -> Forest {
    let mut edges = weighted_edges(g);
    edges.sort_unstable_by_key(|&(u, v, w)| (w, u, v));
    let mut parent: Vec<u32> = (0..g.num_vertices() as u32).collect();
    let ds = Cell::from_mut(&mut parent[..]).as_slice_of_cells();
    let mut forest = Vec::new();
    let mut total = 0u64;
    for (u, v, w) in edges {
        if ds.unite_with(u, v, jump) {
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
    use ecl_graph::generate;

    #[test]
    fn forest_is_valid_on_varied_graphs() {
        for g in [
            generate::path(50),
            generate::complete(12),
            generate::disjoint_cliques(4, 6),
            generate::gnm_random(200, 600, 1),
            generate::grid2d(9, 9),
        ] {
            let f = run(&g, JumpKind::Intermediate);
            f.validate(&g).unwrap();
            assert_eq!(
                f.num_trees(g.num_vertices()),
                ecl_graph::stats::count_components(&g)
            );
        }
    }

    #[test]
    fn compression_choice_does_not_change_weight() {
        let g = generate::gnm_random(300, 900, 2);
        let reference = run(&g, JumpKind::None);
        reference.validate(&g).unwrap();
        for jump in JumpKind::ALL {
            // Same edges (and so the same weight): the jump variant only
            // moves pointers, never a representative.
            assert_eq!(run(&g, jump), reference, "{jump:?}");
        }
    }

    #[test]
    fn tree_on_tree_input_selects_every_edge() {
        let g = generate::binary_tree(31);
        let f = run(&g, JumpKind::Intermediate);
        assert_eq!(f.edges.len(), 30);
    }

    #[test]
    fn brute_force_weight_on_tiny_graph() {
        // K4 with deterministic weights: check against explicit minimum.
        let g = generate::complete(4);
        let f = run(&g, JumpKind::Intermediate);
        assert_eq!(f.edges.len(), 3);
        // Exhaustively check every spanning tree of K4 (16 of them).
        let all: Vec<(u32, u32, u32)> = crate::weights::weighted_edges(&g);
        let mut best = u64::MAX;
        for a in 0..all.len() {
            for b in (a + 1)..all.len() {
                for c in (b + 1)..all.len() {
                    let picks = [all[a], all[b], all[c]];
                    let mut parent: Vec<u32> = (0..4).collect();
                    let ds = Cell::from_mut(&mut parent[..]).as_slice_of_cells();
                    let mut ok = true;
                    let mut w = 0u64;
                    for &(u, v, wt) in &picks {
                        ok &= ds.unite(u, v);
                        w += wt as u64;
                    }
                    if ok {
                        best = best.min(w);
                    }
                }
            }
        }
        assert_eq!(f.total_weight, best);
    }

    #[test]
    fn empty_and_edgeless() {
        let f = run(&ecl_graph::GraphBuilder::new(0).build(), JumpKind::Multiple);
        assert!(f.edges.is_empty());
        let f = run(&ecl_graph::GraphBuilder::new(9).build(), JumpKind::Multiple);
        assert!(f.edges.is_empty());
        assert_eq!(f.num_trees(9), 9);
    }
}
