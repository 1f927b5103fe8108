//! Spanning forests on the ECL union-find.
//!
//! The paper's conclusion proposes exactly this extension: "Intermediate
//! pointer jumping … should be able to accelerate other GPU algorithms
//! that are based on union find, such as Kruskal's algorithm for finding
//! the minimum spanning tree of a graph." This crate builds minimum
//! spanning forests (MSF — one tree per connected component) three ways:
//!
//! * [`kruskal`] — serial Kruskal on the `[Cell<u32>]`
//!   [`ecl_unionfind::ParentStore`], taking the pointer-jumping variant
//!   (Jump1–4) as a parameter so the paper's claim (intermediate pointer
//!   jumping accelerates union-find clients) is directly benchmarkable,
//! * [`boruvka`] — parallel Borůvka on the lock-free
//!   [`ecl_unionfind::AtomicParents`], selecting each component's
//!   lightest edge with packed-word atomic minima,
//! * [`gpu_boruvka`] — Borůvka on the SIMT simulator, reusing the
//!   warp-vector `find` from `ecl-cc`.
//!
//! Edge weights come from [`weights::edge_weight`], a deterministic hash
//! of the endpoints — synthetic but fixed, so all three algorithms (and
//! repeated runs) agree on the forest weight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boruvka;
pub mod gpu_boruvka;
pub mod kruskal;
pub mod weights;

use ecl_graph::Vertex;
use ecl_unionfind::ParentStore;

/// A spanning forest: the selected edges and their total weight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Forest {
    /// Selected edges, as `(u, v)` with `u < v`, sorted.
    pub edges: Vec<(Vertex, Vertex)>,
    /// Sum of the selected edges' weights.
    pub total_weight: u64,
}

impl Forest {
    /// Number of trees this forest spans, given the graph's vertex count:
    /// `n - |edges|`.
    pub fn num_trees(&self, n: usize) -> usize {
        n - self.edges.len()
    }

    /// Checks structural validity against `g`: every edge exists in `g`,
    /// no cycles, and the forest connects exactly the components of `g`.
    pub fn validate(&self, g: &ecl_graph::CsrGraph) -> Result<(), String> {
        let mut parent: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let ds = std::cell::Cell::from_mut(&mut parent[..]).as_slice_of_cells();
        for &(u, v) in &self.edges {
            if !g.has_edge(u, v) {
                return Err(format!("forest edge ({u},{v}) not in graph"));
            }
            if !ds.unite(u, v) {
                return Err(format!("forest edge ({u},{v}) closes a cycle"));
            }
        }
        if ds.count_sets() != ecl_graph::stats::count_components(g) {
            return Err(format!(
                "forest spans {} trees but graph has {} components",
                ds.count_sets(),
                ecl_graph::stats::count_components(g)
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_trees_arithmetic() {
        let f = Forest {
            edges: vec![(0, 1), (1, 2)],
            total_weight: 5,
        };
        assert_eq!(f.num_trees(5), 3);
    }

    #[test]
    fn validate_catches_cycles() {
        let g = ecl_graph::generate::complete(3);
        let f = Forest {
            edges: vec![(0, 1), (0, 2), (1, 2)],
            total_weight: 0,
        };
        assert!(f.validate(&g).unwrap_err().contains("cycle"));
    }

    #[test]
    fn validate_catches_foreign_edges() {
        let g = ecl_graph::generate::path(4);
        let f = Forest {
            edges: vec![(0, 3)],
            total_weight: 0,
        };
        assert!(f.validate(&g).unwrap_err().contains("not in graph"));
    }

    #[test]
    fn validate_catches_underspanning() {
        let g = ecl_graph::generate::path(4);
        let f = Forest {
            edges: vec![(0, 1)],
            total_weight: 0,
        };
        assert!(f.validate(&g).unwrap_err().contains("trees"));
    }
}
