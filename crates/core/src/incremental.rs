//! Incremental (streaming) connected components.
//!
//! The paper's computation phase is completely asynchronous: each edge is
//! hooked exactly once, and queries tolerate concurrent hooking thanks to
//! the benign-race arguments of §3. That makes the same machinery a
//! natural **online** structure — edges can arrive one at a time, from
//! many threads, with connectivity queries interleaved — which none of
//! the batch codes the paper compares against support. This module
//! packages that capability.

use crate::error::EclError;
use crate::result::CcResult;
use ecl_graph::Vertex;
use ecl_unionfind::{AtomicParents, ParentStore};
use std::sync::atomic::{AtomicU64, Ordering};

/// A lock-free streaming connected-components structure.
///
/// All operations are safe to call concurrently from any number of
/// threads: [`add_edge`](Self::add_edge) hooks through the paper's Fig. 6
/// CAS loop, and [`connected`](Self::connected)/[`component`](Self::component)
/// use the Fig. 5 find with intermediate pointer jumping, so queries keep
/// compressing paths even in read-heavy workloads.
///
/// ```
/// use ecl_cc::incremental::IncrementalCc;
/// let cc = IncrementalCc::new(5);
/// assert!(!cc.connected(0, 2));
/// cc.add_edge(0, 1);
/// cc.add_edge(1, 2);
/// assert!(cc.connected(0, 2));
/// assert_eq!(cc.num_components(), 3); // {0,1,2} {3} {4}
/// ```
#[derive(Debug)]
pub struct IncrementalCc {
    parents: AtomicParents,
    /// Number of successful links so far (components = n - links).
    links: AtomicU64,
}

impl IncrementalCc {
    /// `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        IncrementalCc {
            parents: AtomicParents::new(n),
            links: AtomicU64::new(0),
        }
    }

    /// Rebuilds a structure from a previously captured parent array (the
    /// crash-safe snapshot path). Every entry must satisfy
    /// `parents[v] <= v` — the strictly-decreasing-chain invariant the
    /// hooking discipline maintains, which every traversal relies on for
    /// termination. The link count is recomputed from the root count, so
    /// [`num_components`](Self::num_components) is immediately exact.
    pub fn from_parents(parents: Vec<Vertex>) -> Result<Self, EclError> {
        let n = parents.len();
        for (v, &p) in parents.iter().enumerate() {
            if p as usize > v {
                return Err(EclError::InvalidVertex { vertex: p, len: n });
            }
        }
        let roots = parents
            .iter()
            .enumerate()
            .filter(|&(v, &p)| p as usize == v)
            .count();
        Ok(IncrementalCc {
            parents: AtomicParents::from_vec(parents),
            links: AtomicU64::new((n - roots) as u64),
        })
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True if the structure tracks no vertices.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Inserts the undirected edge `{u, v}`. Returns `true` if the edge
    /// joined two previously-disconnected components.
    ///
    /// Idempotent: re-inserting an edge (or any edge within one
    /// component) returns `false` and changes nothing.
    pub fn add_edge(&self, u: Vertex, v: Vertex) -> bool {
        let ru = self.parents.find_repres(u);
        let rv = self.parents.find_repres(v);
        let (_, linked) = self.parents.hook_linked(ru, rv);
        if linked {
            self.links.fetch_add(1, Ordering::Relaxed);
        }
        linked
    }

    /// True if `u` and `v` are currently in the same component.
    ///
    /// Under concurrent insertion the answer is linearizable with respect
    /// to completed `add_edge` calls: edges fully inserted before the
    /// query are always observed.
    pub fn connected(&self, u: Vertex, v: Vertex) -> bool {
        // Standard concurrent-union-find query loop: if the two finds
        // disagree, re-check that u's representative is still a root; a
        // changed root means a concurrent union interleaved and the find
        // must be retried.
        loop {
            let ru = self.parents.find_repres(u);
            let rv = self.parents.find_repres(v);
            if ru == rv {
                return true;
            }
            if self.parents.get(ru) == ru {
                return false;
            }
        }
    }

    /// Current component representative of `v` (the smallest vertex ID in
    /// its component once no insertions are in flight).
    pub fn component(&self, v: Vertex) -> Vertex {
        self.parents.find_repres(v)
    }

    /// Fallible [`add_edge`](Self::add_edge) for untrusted input: vertex
    /// IDs are validated against the structure's range before any index,
    /// so a bad request yields [`EclError::InvalidVertex`] instead of a
    /// panic. Internal callers with known-good IDs keep the infallible
    /// API.
    pub fn try_add_edge(&self, u: Vertex, v: Vertex) -> Result<bool, EclError> {
        self.check(u)?;
        self.check(v)?;
        Ok(self.add_edge(u, v))
    }

    /// Fallible [`connected`](Self::connected) for untrusted input.
    pub fn try_connected(&self, u: Vertex, v: Vertex) -> Result<bool, EclError> {
        self.check(u)?;
        self.check(v)?;
        Ok(self.connected(u, v))
    }

    /// Fallible [`component`](Self::component) for untrusted input.
    pub fn try_component(&self, v: Vertex) -> Result<Vertex, EclError> {
        self.check(v)?;
        Ok(self.component(v))
    }

    #[inline]
    fn check(&self, v: Vertex) -> Result<(), EclError> {
        if (v as usize) < self.len() {
            Ok(())
        } else {
            Err(EclError::InvalidVertex {
                vertex: v,
                len: self.len(),
            })
        }
    }

    /// Current number of components (`n - successful links`). Exact when
    /// no insertions are in flight; otherwise a linearizable snapshot.
    pub fn num_components(&self) -> usize {
        self.len() - self.links.load(Ordering::Relaxed) as usize
    }

    /// A racy copy of the current parent array. Each entry is a valid
    /// parent pointer (any value ever stored keeps its path to the
    /// representative), so the copy is always a well-formed forest even
    /// while insertions are in flight — the property the crash-safe
    /// snapshot path in `ecl-serve` relies on.
    pub fn parents_snapshot(&self) -> Vec<Vertex> {
        self.parents.snapshot()
    }

    /// Freezes the structure into a final labeling (flattens every path).
    pub fn finish(self) -> CcResult {
        for v in 0..self.parents.len() as Vertex {
            let root = self.parents.find_naive(v);
            self.parents.set(v, root);
        }
        CcResult::new(self.parents.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::generate;

    #[test]
    fn basic_connectivity() {
        let cc = IncrementalCc::new(6);
        assert_eq!(cc.num_components(), 6);
        assert!(cc.add_edge(0, 1));
        assert!(cc.add_edge(2, 3));
        assert!(!cc.connected(0, 2));
        assert!(cc.add_edge(1, 2));
        assert!(cc.connected(0, 3));
        assert_eq!(cc.num_components(), 3);
    }

    #[test]
    fn add_edge_idempotent() {
        let cc = IncrementalCc::new(4);
        assert!(cc.add_edge(0, 1));
        assert!(!cc.add_edge(0, 1));
        assert!(!cc.add_edge(1, 0));
        assert_eq!(cc.num_components(), 3);
    }

    #[test]
    fn self_edge_is_noop() {
        let cc = IncrementalCc::new(3);
        assert!(!cc.add_edge(1, 1));
        assert_eq!(cc.num_components(), 3);
    }

    #[test]
    fn finish_matches_batch_run() {
        let g = generate::gnm_random(500, 1200, 23);
        let cc = IncrementalCc::new(g.num_vertices());
        for (u, v) in g.edges() {
            cc.add_edge(u, v);
        }
        let streamed = cc.finish();
        let batch = crate::connected_components(&g);
        assert_eq!(streamed.labels, batch.labels);
    }

    #[test]
    fn concurrent_insertions_and_queries() {
        let g = generate::kronecker(10, 8, 31);
        let cc = IncrementalCc::new(g.num_vertices());
        let edges: Vec<_> = g.edges().collect();
        let cc_ref = &cc;
        let edges_ref = &edges;
        ecl_parallel::parallel_for(
            8,
            edges.len(),
            ecl_parallel::Schedule::Dynamic { chunk: 16 },
            move |i| {
                let (u, v) = edges_ref[i];
                cc_ref.add_edge(u, v);
                // Interleave queries with insertions: a just-inserted
                // edge's endpoints must be connected.
                assert!(cc_ref.connected(u, v));
            },
        );
        let result = cc.finish();
        result.verify(&g).unwrap();
    }

    #[test]
    fn link_count_equals_spanning_forest_size() {
        let g = generate::disjoint_cliques(7, 9);
        let cc = IncrementalCc::new(g.num_vertices());
        let links = g.edges().filter(|&(u, v)| cc.add_edge(u, v)).count();
        assert_eq!(links, g.num_vertices() - 7);
        assert_eq!(cc.num_components(), 7);
    }

    #[test]
    fn empty_structure() {
        let cc = IncrementalCc::new(0);
        assert!(cc.is_empty());
        assert_eq!(cc.num_components(), 0);
        assert!(cc.finish().labels.is_empty());
    }

    #[test]
    fn try_api_rejects_out_of_range_vertices() {
        let cc = IncrementalCc::new(4);
        for bad in [
            cc.try_add_edge(0, 4),
            cc.try_add_edge(4, 0),
            cc.try_connected(9, 1),
            cc.try_connected(1, 9),
            cc.try_component(4).map(|_| false),
        ] {
            match bad {
                Err(EclError::InvalidVertex { len: 4, .. }) => {}
                other => panic!("expected InvalidVertex, got {other:?}"),
            }
        }
        // Nothing was mutated by the rejected calls.
        assert_eq!(cc.num_components(), 4);
        // In-range requests behave exactly like the infallible API.
        assert!(cc.try_add_edge(0, 1).unwrap());
        assert!(!cc.try_add_edge(1, 0).unwrap());
        assert!(cc.try_connected(0, 1).unwrap());
        assert_eq!(cc.try_component(1).unwrap(), 0);
    }

    #[test]
    fn from_parents_roundtrips_and_validates() {
        let cc = IncrementalCc::new(6);
        cc.add_edge(0, 1);
        cc.add_edge(2, 3);
        cc.add_edge(1, 2);
        let snap = cc.parents_snapshot();
        let restored = IncrementalCc::from_parents(snap).unwrap();
        assert_eq!(restored.num_components(), cc.num_components());
        assert!(restored.connected(0, 3));
        assert!(!restored.connected(0, 4));
        // An upward-pointing parent breaks the decreasing-chain
        // invariant and must be refused.
        match IncrementalCc::from_parents(vec![0, 2, 2]) {
            Err(EclError::InvalidVertex { vertex: 2, len: 3 }) => {}
            other => panic!("expected InvalidVertex, got {other:?}"),
        }
    }
}
