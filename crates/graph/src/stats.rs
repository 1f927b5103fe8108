//! Graph statistics matching the columns of the paper's Table 2:
//! vertex/edge counts, dmin/davg/dmax, and the number of connected
//! components (computed with a plain serial BFS used as ground truth by
//! every algorithm's verification).

use crate::{CsrGraph, Vertex};

/// The Table 2 row for one graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of directed adjacency entries (the paper's `Edges*` column).
    pub directed_edges: usize,
    /// Minimum degree.
    pub dmin: usize,
    /// Average degree.
    pub davg: f64,
    /// Maximum degree.
    pub dmax: usize,
    /// Number of connected components.
    pub components: usize,
}

/// Computes the Table 2 statistics for `g`.
pub fn graph_stats(g: &CsrGraph) -> GraphStats {
    GraphStats {
        vertices: g.num_vertices(),
        directed_edges: g.num_directed_edges(),
        dmin: g.min_degree(),
        davg: g.avg_degree(),
        dmax: g.max_degree(),
        components: count_components(g),
    }
}

/// Ground-truth component labeling via iterative BFS: returns one label per
/// vertex, where the label is the smallest vertex ID in its component.
///
/// This is the reference every parallel/GPU implementation in the workspace
/// is verified against (after canonicalization), mirroring how "all ECL-CC
/// implementations verify the solution at the end of the run by comparing
/// it to the solution of the serial code" (§4).
pub fn reference_labels(g: &CsrGraph) -> Vec<Vertex> {
    let n = g.num_vertices();
    let mut label = vec![Vertex::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n as Vertex {
        if label[s as usize] != Vertex::MAX {
            continue;
        }
        label[s as usize] = s;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if label[w as usize] == Vertex::MAX {
                    label[w as usize] = s;
                    queue.push_back(w);
                }
            }
        }
    }
    label
}

/// Number of connected components.
pub fn count_components(g: &CsrGraph) -> usize {
    let labels = reference_labels(g);
    labels
        .iter()
        .enumerate()
        .filter(|&(i, &l)| l == i as Vertex)
        .count()
}

/// Canonicalizes an arbitrary component labeling so two labelings that
/// induce the same partition compare equal: each vertex's label becomes the
/// smallest vertex ID sharing its original label.
///
/// Panics if `labels.len() != n` is violated by the caller (length is the
/// only structural requirement).
pub fn canonicalize_labels(labels: &[Vertex]) -> Vec<Vertex> {
    let n = labels.len();
    let mut first: std::collections::HashMap<Vertex, Vertex> = std::collections::HashMap::new();
    let mut out = vec![0 as Vertex; n];
    for (i, &l) in labels.iter().enumerate() {
        let e = first.entry(l).or_insert(i as Vertex);
        out[i] = *e;
    }
    out
}

/// Histogram of component sizes, sorted descending. Useful for the
/// examples and for asserting generator component structure.
pub fn component_sizes(g: &CsrGraph) -> Vec<usize> {
    let labels = reference_labels(g);
    let mut counts: std::collections::HashMap<Vertex, usize> = std::collections::HashMap::new();
    for &l in &labels {
        *counts.entry(l).or_insert(0) += 1;
    }
    let mut sizes: Vec<usize> = counts.into_values().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn stats_of_grid() {
        let s = graph_stats(&generate::grid2d(10, 10));
        assert_eq!(s.vertices, 100);
        assert_eq!(s.dmin, 2);
        assert_eq!(s.dmax, 4);
        assert_eq!(s.components, 1);
        assert_eq!(s.directed_edges, 2 * (9 * 10 * 2));
    }

    #[test]
    fn components_of_cliques() {
        let g = generate::disjoint_cliques(7, 4);
        assert_eq!(count_components(&g), 7);
        assert_eq!(component_sizes(&g), vec![4; 7]);
    }

    #[test]
    fn isolated_vertices_are_components() {
        let g = crate::builder::from_edges(5, &[(0, 1)]);
        assert_eq!(count_components(&g), 4);
    }

    #[test]
    fn reference_labels_are_min_ids() {
        let g = generate::disjoint_cliques(2, 3);
        assert_eq!(reference_labels(&g), vec![0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn canonicalize_is_partition_invariant() {
        // Same partition, different representative choices.
        let a = vec![9, 9, 7, 7, 9];
        let b = vec![2, 2, 0, 0, 2];
        assert_eq!(canonicalize_labels(&a), canonicalize_labels(&b));
    }

    #[test]
    fn empty_graph_stats() {
        let g = crate::GraphBuilder::new(0).build();
        let s = graph_stats(&g);
        assert_eq!(s.vertices, 0);
        assert_eq!(s.components, 0);
    }
}
