//! Edge-list → clean CSR normalization.
//!
//! The paper (§4) preprocesses its inputs: "Where necessary, we modified the
//! graphs to eliminate loops and multiple edges between the same two
//! vertices. We added any missing back edges to make the graphs undirected."
//! [`GraphBuilder`] performs exactly that normalization.

use crate::{CsrGraph, Edge, Vertex};

/// Accumulates raw (possibly dirty) edges and produces a clean undirected
/// [`CsrGraph`].
///
/// Accepted input may contain self-loops (dropped), duplicate edges in
/// either or both directions (collapsed), and vertices mentioned only as
/// endpoints (the vertex count grows to cover them).
///
/// ```
/// use ecl_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(0);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, other direction
/// b.add_edge(2, 2); // self-loop, dropped
/// b.add_edge(3, 1);
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    /// Canonical pairs packed as `min << 32 | max`, so sorting the keys
    /// sorts the pairs by (smaller endpoint, larger endpoint).
    keys: Vec<u64>,
}

#[inline]
fn pack(u: Vertex, v: Vertex) -> u64 {
    ((u.min(v) as u64) << 32) | u.max(v) as u64
}

#[inline]
fn unpack(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, key as u32 as usize)
}

impl GraphBuilder {
    /// Creates a builder for a graph with at least `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            keys: Vec::new(),
        }
    }

    /// Creates a builder with capacity for `edges` edge insertions.
    pub fn with_capacity(num_vertices: usize, edges: usize) -> Self {
        GraphBuilder {
            num_vertices,
            keys: Vec::with_capacity(edges),
        }
    }

    /// Adds an undirected edge; direction and duplicates are irrelevant.
    /// Self-loops are silently dropped at build time.
    #[inline]
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) {
        self.num_vertices = self.num_vertices.max(u as usize + 1).max(v as usize + 1);
        self.keys.push(pack(u, v));
    }

    /// Adds every edge from an iterator.
    pub fn extend_edges(&mut self, it: impl IntoIterator<Item = Edge>) {
        for (u, v) in it {
            self.add_edge(u, v);
        }
    }

    /// Ensures the graph has at least `n` vertices even if the trailing ones
    /// are isolated.
    pub fn ensure_vertices(&mut self, n: usize) {
        self.num_vertices = self.num_vertices.max(n);
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of raw (pre-normalization) edge insertions so far.
    pub fn num_raw_edges(&self) -> usize {
        self.keys.len()
    }

    /// Normalizes and produces the CSR graph: drops self-loops, dedupes,
    /// symmetrizes, and sorts each adjacency list ascending.
    ///
    /// The lists come out sorted without a per-list sort. The deduplicated
    /// keys are in (smaller, larger) order, and the scatter makes two
    /// passes over them. The first appends each pair's smaller endpoint to
    /// the larger endpoint's list, and the second appends the larger
    /// endpoint to the smaller endpoint's list. So vertex `x` first
    /// receives its neighbours below `x`, in ascending order because the
    /// keys are sorted by their smaller endpoint, then its neighbours
    /// above `x`, ascending because keys sharing the smaller endpoint `x`
    /// are sorted by their larger one.
    pub fn build(mut self) -> CsrGraph {
        let n = self.num_vertices;
        self.keys.retain(|&k| {
            let (u, v) = unpack(k);
            u != v
        });
        self.keys.sort_unstable();
        self.keys.dedup();

        let mut offsets = vec![0usize; n + 1];
        for &k in &self.keys {
            let (u, v) = unpack(k);
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0 as Vertex; self.keys.len() * 2];
        for &k in &self.keys {
            let (u, v) = unpack(k);
            adj[cursor[v]] = u as Vertex;
            cursor[v] += 1;
        }
        for &k in &self.keys {
            let (u, v) = unpack(k);
            adj[cursor[u]] = v as Vertex;
            cursor[u] += 1;
        }
        CsrGraph::from_parts_unchecked(offsets, adj)
    }
}

/// Convenience: build a clean graph straight from an edge slice.
pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(num_vertices, edges.len());
    b.extend_edges(edges.iter().copied());
    b.ensure_vertices(num_vertices);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Pcg32;

    /// The straightforward build: tuple pairs, one interleaved scatter of
    /// both directions, then a sort of every list. The differential test
    /// holds [`GraphBuilder::build`] to its output byte for byte.
    fn reference_build(num_vertices: usize, raw: &[Edge]) -> CsrGraph {
        let mut n = num_vertices;
        let mut edges: Vec<Edge> = Vec::with_capacity(raw.len());
        for &(u, v) in raw {
            n = n.max(u as usize + 1).max(v as usize + 1);
            edges.push(if u <= v { (u, v) } else { (v, u) });
        }
        edges.retain(|&(u, v)| u != v);
        edges.sort_unstable();
        edges.dedup();

        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0 as Vertex; edges.len() * 2];
        for &(u, v) in &edges {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        for v in 0..n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        CsrGraph::from_parts_unchecked(offsets, adj)
    }

    /// A seeded dirty edge list over `0..span`: self-loops, duplicates in
    /// both orientations, and endpoints drawn from a narrow range so that
    /// lists collide often.
    fn dirty_edges(span: u32, m: usize, rng: &mut Pcg32) -> Vec<Edge> {
        let mut edges: Vec<Edge> = Vec::with_capacity(m);
        while edges.len() < m {
            let u = rng.below(span);
            match rng.below(8) {
                0 => edges.push((u, u)),
                1 if !edges.is_empty() => {
                    let (a, b) = edges[rng.below_usize(edges.len())];
                    edges.push((b, a));
                }
                2 if !edges.is_empty() => {
                    let e = edges[rng.below_usize(edges.len())];
                    edges.push(e);
                }
                _ => edges.push((u, rng.below(span))),
            }
        }
        edges
    }

    #[test]
    fn build_matches_reference_on_dirty_edge_lists() {
        let mut rng = Pcg32::new(0xB111D);
        for &(span, m) in &[
            (1u32, 0usize),
            (1, 5),
            (2, 7),
            (5, 40),
            (64, 300),
            (1000, 4000),
            (1 << 20, 5000),
        ] {
            for trailing in [0usize, 1, 17] {
                let edges = dirty_edges(span, m, &mut rng);
                let declared = if m == 0 {
                    trailing
                } else {
                    trailing + span as usize
                };
                let got = from_edges(declared, &edges);
                let want = reference_build(declared, &edges);
                assert_eq!(
                    (got.offsets(), got.adjacency()),
                    (want.offsets(), want.adjacency()),
                    "span {span}, {m} raw edges, {trailing} trailing isolated"
                );
            }
        }
    }

    #[test]
    fn dedup_and_loops() {
        let g = from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 2), (3, 2)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[3]);
    }

    #[test]
    fn grows_vertex_count_from_endpoints() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(5, 9);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 1);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn isolated_vertices_preserved() {
        let mut b = GraphBuilder::new(100);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn adjacency_sorted() {
        let g = from_edges(5, &[(3, 0), (3, 4), (3, 1), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
    }

    #[test]
    fn empty_build() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        let g = GraphBuilder::new(7).build();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn only_self_loops_yields_edgeless() {
        let g = from_edges(3, &[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn symmetry_holds() {
        let g = from_edges(6, &[(0, 3), (2, 5), (1, 4), (4, 2)]);
        for (u, v) in g.directed_edges() {
            assert!(g.has_edge(v, u));
        }
    }
}
