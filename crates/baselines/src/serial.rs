//! Serial CPU baselines (the paper's §5.4: Boost, Lemon, igraph, and
//! serial Galois).

use ecl_cc::CcResult;
use ecl_graph::{CsrGraph, Vertex};
use ecl_unionfind::{JumpKind, ParentStore};
use std::cell::Cell;

const UNSET: u32 = u32::MAX;

/// Boost-style CC: depth-first search from every unvisited vertex with an
/// explicit stack. Like `boost::connected_components` (which runs
/// `depth_first_search` with a component-recording visitor), it maintains
/// BGL's tri-state **color map** alongside the component map — the extra
/// property-map traffic is part of what the paper measures when it
/// benchmarks Boost.
pub fn dfs_cc(g: &CsrGraph) -> CcResult {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = g.num_vertices();
    let mut labels = vec![UNSET; n];
    let mut color = vec![WHITE; n];
    let mut stack: Vec<Vertex> = Vec::new();
    for s in 0..n as Vertex {
        if color[s as usize] != WHITE {
            continue;
        }
        color[s as usize] = GRAY;
        labels[s as usize] = s;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if color[u as usize] == WHITE {
                    color[u as usize] = GRAY;
                    labels[u as usize] = s;
                    stack.push(u);
                }
            }
            color[v as usize] = BLACK;
        }
    }
    CcResult::new(labels)
}

/// Lemon-style CC: breadth-first search per unvisited vertex. LEMON's
/// `connectedComponents` iterates arcs through the graph's arc-ID
/// indirection (`OutArcIt` yields an arc whose target is then looked up),
/// modeled here by walking adjacency via explicit edge offsets instead of
/// a direct neighbor slice.
pub fn bfs_cc(g: &CsrGraph) -> CcResult {
    let n = g.num_vertices();
    let mut labels = vec![UNSET; n];
    let mut queue = std::collections::VecDeque::new();
    let adjacency = g.adjacency();
    for s in 0..n as Vertex {
        if labels[s as usize] != UNSET {
            continue;
        }
        labels[s as usize] = s;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            // Arc-iterator style: walk arc IDs, then resolve each target.
            let mut arc = g.neighbor_start(v);
            let end = g.neighbor_end(v);
            while arc != end {
                let u = adjacency[arc];
                if labels[u as usize] == UNSET {
                    labels[u as usize] = s;
                    queue.push_back(u);
                }
                arc += 1;
            }
        }
    }
    CcResult::new(labels)
}

/// igraph-style CC: DFS reachability plus the bookkeeping igraph's
/// `igraph_clusters` performs on top — dense membership and component-size
/// vectors and a compaction pass renumbering components `0..k` (the extra
/// passes are why igraph trails Boost in the paper's Tables 9–10).
pub fn igraph_cc(g: &CsrGraph) -> CcResult {
    let n = g.num_vertices();
    let mut membership = vec![UNSET; n];
    let mut stack: Vec<Vertex> = Vec::new();
    let mut num_components: u32 = 0;
    for s in 0..n as Vertex {
        if membership[s as usize] != UNSET {
            continue;
        }
        let comp = num_components;
        num_components += 1;
        membership[s as usize] = comp;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if membership[u as usize] == UNSET {
                    membership[u as usize] = comp;
                    stack.push(u);
                }
            }
        }
    }
    // igraph's csize computation: one more pass over the membership.
    let mut csize = vec![0usize; num_components as usize];
    for &c in &membership {
        csize[c as usize] += 1;
    }
    // Convert dense component numbers back to representative labels (first
    // vertex of each component) so the result type matches the others.
    let mut first = vec![UNSET; num_components as usize];
    for (v, &c) in membership.iter().enumerate() {
        if first[c as usize] == UNSET {
            first[c as usize] = v as u32;
        }
    }
    let labels = membership.iter().map(|&c| first[c as usize]).collect();
    let _ = csize;
    CcResult::new(labels)
}

/// Galois-serial-style CC: one pass of union-find over the edges (each
/// undirected edge once) with full path compression (Jump1), then a
/// flatten.
pub fn unionfind_cc(g: &CsrGraph) -> CcResult {
    let mut parent: Vec<u32> = (0..g.num_vertices() as u32).collect();
    let ds = Cell::from_mut(&mut parent[..]).as_slice_of_cells();
    for v in g.vertices() {
        for &u in g.neighbors(v) {
            if v > u {
                ds.unite_with(v, u, JumpKind::Multiple);
            }
        }
    }
    ds.flatten();
    CcResult::new(parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::{generate, stats};

    type SerialFn = fn(&CsrGraph) -> CcResult;
    const ALL: [(&str, SerialFn); 4] = [
        ("dfs", dfs_cc as SerialFn),
        ("bfs", bfs_cc as SerialFn),
        ("igraph", igraph_cc as SerialFn),
        ("unionfind", unionfind_cc as SerialFn),
    ];

    #[test]
    fn all_verify_on_varied_graphs() {
        let graphs = [
            generate::path(300),
            generate::star(200),
            generate::disjoint_cliques(7, 6),
            generate::gnm_random(500, 1200, 1),
            generate::rmat(9, 6, generate::RmatParams::GALOIS, 2),
            ecl_graph::GraphBuilder::new(25).build(),
        ];
        for g in &graphs {
            for (name, f) in ALL {
                let r = f(g);
                r.verify(g).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }

    #[test]
    fn all_agree_with_reference_labels() {
        // All four use first-vertex/min-vertex representatives.
        let g = generate::disjoint_cliques(4, 5);
        let expected = stats::reference_labels(&g);
        for (name, f) in ALL {
            assert_eq!(f(&g).labels, expected, "{name}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = ecl_graph::GraphBuilder::new(0).build();
        for (_, f) in ALL {
            assert!(f(&g).labels.is_empty());
        }
    }

    #[test]
    fn deep_path_no_stack_overflow() {
        // Explicit stacks/queues must survive a 100k-deep graph.
        let g = generate::path(100_000);
        for (name, f) in ALL {
            f(&g).verify(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
