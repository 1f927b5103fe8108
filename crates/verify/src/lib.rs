//! Certifying verification for connected-components results.
//!
//! Every CC implementation in the workspace returns a per-vertex label
//! array. This crate checks such an array against the input graph in
//! O(n + m) with its own, independent serial BFS as ground truth — it
//! shares no code with the algorithms under test, so a bug in the
//! lock-free union-find (or in the GPU simulator underneath it) cannot
//! also hide the evidence.
//!
//! Certification sits on the critical path of every delivered labeling
//! (the fallback ladder certifies inside each job's wall time), so the
//! label checks take one streaming pass over the vertices, and the
//! ground truth is a direction-optimizing BFS (Beamer, Asanović &
//! Patterson, SC'12). Its bottom-up steps rely on the `CsrGraph`
//! invariant that every edge is stored in both directions; on a
//! low-diameter giant component they read about a tenth of the
//! adjacency, and on a mesh the BFS stays top-down.
//!
//! The two never read each other's results, so they run at once on
//! every core `std::thread::available_parallelism` reports: the BFS on
//! one scoped thread, and the vertex pass in chunks of 2^14 vertices
//! claimed from a shared cursor by the calling thread, the other
//! helpers, and the BFS thread once its count is done. Chunk findings
//! are reduced in chunk order, so the witness a failing run returns is
//! the one a serial scan finds first, whatever the thread count.
//!
//! The checker is *certifying* in the Mehlhorn sense: a passing run
//! returns a [`Certificate`] stating the facts that were established,
//! and a failing run returns a [`VerifyError`] pinpointing a concrete
//! witness (an edge whose endpoints disagree, a label that is not its
//! own representative, a parent pointer forming a cycle, …) that a human
//! or a test harness can re-check directly.
//!
//! Three layers of checks:
//!
//! * [`certify`] — labels form a valid partition into connected
//!   components (edge consistency + representative fixpoints + component
//!   count against BFS ground truth).
//! * [`certify_canonical`] — additionally, every label is the *minimum*
//!   vertex ID of its component (the invariant of the paper's min-wins
//!   hooking family).
//! * [`validate_forest`] / [`validate_star`] — structural checks on raw
//!   union-find parent arrays: an acyclic forest (legal any time after
//!   the compute phase) and a perfect star (required after finalize).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ecl_graph::{CsrGraph, Vertex};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

#[cfg(test)]
mod oracle;

/// A concrete witness of an invalid labeling or parent array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The label array's length differs from the vertex count.
    LengthMismatch {
        /// Vertices in the graph.
        expected: usize,
        /// Labels supplied.
        got: usize,
    },
    /// A label names a vertex outside the graph.
    LabelOutOfRange {
        /// The offending vertex.
        vertex: Vertex,
        /// Its out-of-range label.
        label: Vertex,
    },
    /// `labels[labels[v]] != labels[v]`: a label that is not its own
    /// representative, so "label" does not name a component.
    NotRepresentative {
        /// The offending vertex.
        vertex: Vertex,
        /// Its label.
        label: Vertex,
        /// The label of the label (≠ `label`).
        label_of_label: Vertex,
    },
    /// An edge whose endpoints carry different labels (the labeling
    /// splits a connected component).
    EdgeSplit {
        /// Edge endpoint.
        u: Vertex,
        /// Edge endpoint.
        v: Vertex,
        /// `labels[u]`.
        label_u: Vertex,
        /// `labels[v]`.
        label_v: Vertex,
    },
    /// The number of distinct labels disagrees with the BFS ground truth
    /// (with edge consistency already established, a smaller count means
    /// separate components were merged).
    ComponentCountMismatch {
        /// Count from the independent BFS.
        expected: usize,
        /// Distinct labels found.
        got: usize,
    },
    /// A vertex whose label is not the minimum vertex ID of its
    /// component (only checked by [`certify_canonical`]).
    NotCanonical {
        /// The offending vertex.
        vertex: Vertex,
        /// Its label.
        label: Vertex,
        /// The true component minimum.
        component_min: Vertex,
    },
    /// A parent entry naming a vertex outside the array.
    ParentOutOfRange {
        /// The offending vertex.
        vertex: Vertex,
        /// Its out-of-range parent.
        parent: Vertex,
    },
    /// Following parent pointers from `vertex` never reaches a root.
    ParentCycle {
        /// A vertex on (or leading into) the cycle.
        vertex: Vertex,
    },
    /// `parent[parent[v]] != parent[v]` after finalize: the forest is
    /// not a perfect star.
    NotStar {
        /// The offending vertex.
        vertex: Vertex,
        /// Its parent.
        parent: Vertex,
        /// The parent's parent (≠ `parent`).
        grandparent: Vertex,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            VerifyError::LengthMismatch { expected, got } => {
                write!(f, "label array has {got} entries for {expected} vertices")
            }
            VerifyError::LabelOutOfRange { vertex, label } => {
                write!(f, "vertex {vertex} carries out-of-range label {label}")
            }
            VerifyError::NotRepresentative {
                vertex,
                label,
                label_of_label,
            } => write!(
                f,
                "label {label} of vertex {vertex} is not a representative \
                 (labels[{label}] = {label_of_label})"
            ),
            VerifyError::EdgeSplit {
                u,
                v,
                label_u,
                label_v,
            } => write!(
                f,
                "edge ({u}, {v}) crosses labels: {label_u} vs {label_v} — a component was split"
            ),
            VerifyError::ComponentCountMismatch { expected, got } => write!(
                f,
                "{got} distinct labels but BFS ground truth finds {expected} components"
            ),
            VerifyError::NotCanonical {
                vertex,
                label,
                component_min,
            } => write!(
                f,
                "vertex {vertex} labeled {label}, but its component's minimum is {component_min}"
            ),
            VerifyError::ParentOutOfRange { vertex, parent } => {
                write!(f, "parent[{vertex}] = {parent} is out of range")
            }
            VerifyError::ParentCycle { vertex } => {
                write!(f, "parent pointers from vertex {vertex} form a cycle")
            }
            VerifyError::NotStar {
                vertex,
                parent,
                grandparent,
            } => write!(
                f,
                "parent[{vertex}] = {parent} is not a root (parent[{parent}] = {grandparent}); \
                 forest is not a star"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The facts established by a passing [`certify`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Vertices checked.
    pub num_vertices: usize,
    /// Undirected edges whose endpoint labels were compared.
    pub edges_checked: usize,
    /// Components found (equal for the labeling and the BFS ground
    /// truth).
    pub num_components: usize,
    /// Whether the stronger canonical (component-minimum) invariant was
    /// also established.
    pub canonical: bool,
}

/// Certifies that `labels` is a valid connected-components labeling of
/// `g`: every edge's endpoints carry equal labels, every used label is
/// its own representative, and the component count matches an
/// independent serial BFS. O(n + m) work, O(n) space.
///
/// The BFS runs on its own thread while the vertex pass is spread over
/// the remaining cores in chunks; with one core nothing is spawned. The
/// returned `Result`, witness included, is the same at every thread
/// count.
pub fn certify(g: &CsrGraph, labels: &[Vertex]) -> Result<Certificate, VerifyError> {
    certify_inner(g, labels, false)
}

/// [`certify`], plus the min-wins family's canonical invariant: every
/// vertex's label is the minimum vertex ID in its component.
pub fn certify_canonical(g: &CsrGraph, labels: &[Vertex]) -> Result<Certificate, VerifyError> {
    certify_inner(g, labels, true)
}

fn certify_inner(
    g: &CsrGraph,
    labels: &[Vertex],
    canonical: bool,
) -> Result<Certificate, VerifyError> {
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    certify_chunked(g, labels, canonical, threads, CHUNK)
}

/// Vertices per chunk of the vertex pass.
const CHUNK: usize = 1 << 14;

/// One chunk's findings from the vertex pass.
#[derive(Default)]
struct Scan {
    /// The chunk's first range or representative failure; the scan stops
    /// there, so the fields below cover only the vertices before it.
    fatal: Option<VerifyError>,
    /// Vertices labeled with themselves.
    fixpoints: usize,
    /// The chunk's first edge split, in `CsrGraph::edges` order.
    split: Option<VerifyError>,
    /// The chunk's first vertex labeled above itself.
    above: Option<usize>,
}

/// Scans the vertices `range`: labels in range, each used label a fixpoint
/// of the labeling (so distinct labels biject with the classes they
/// name), and labels constant across every edge `(u, w)` with `u < w`.
fn scan(g: &CsrGraph, labels: &[Vertex], range: Range<usize>) -> Scan {
    let n = labels.len();
    let mut found = Scan::default();
    for v in range {
        let l = labels[v];
        if (l as usize) >= n {
            found.fatal = Some(VerifyError::LabelOutOfRange {
                vertex: v as Vertex,
                label: l,
            });
            break;
        }
        let ll = labels[l as usize];
        if ll != l {
            found.fatal = Some(VerifyError::NotRepresentative {
                vertex: v as Vertex,
                label: l,
                label_of_label: ll,
            });
            break;
        }
        if l as usize == v {
            found.fixpoints += 1;
        } else if l as usize > v && found.above.is_none() {
            found.above = Some(v);
        }
        if found.split.is_none() {
            let u = v as Vertex;
            if let Some(&w) = g
                .neighbors(u)
                .iter()
                .find(|&&w| w > u && labels[w as usize] != l)
            {
                found.split = Some(VerifyError::EdgeSplit {
                    u,
                    v: w,
                    label_u: l,
                    label_v: labels[w as usize],
                });
            }
        }
    }
    found
}

/// [`certify_inner`] on `threads` threads with `chunk` vertices per
/// chunk. The vertex pass and the BFS ground truth never read each
/// other's results, so they run at once: one thread counts components
/// and then joins the others in claiming chunks from a shared cursor.
/// Findings are reduced in chunk order, so the `Result` does not depend
/// on `threads`, `chunk` or the schedule.
fn certify_chunked(
    g: &CsrGraph,
    labels: &[Vertex],
    canonical: bool,
    threads: usize,
    chunk: usize,
) -> Result<Certificate, VerifyError> {
    let n = g.num_vertices();
    if labels.len() != n {
        return Err(VerifyError::LengthMismatch {
            expected: n,
            got: labels.len(),
        });
    }
    let chunks = n.div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let drain = || {
        let mut scans = Vec::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                return scans;
            }
            scans.push((c, scan(g, labels, c * chunk..n.min((c + 1) * chunk))));
        }
    };
    // More than one drainer per chunk would only idle.
    let threads = threads.min(chunks + 1);
    if threads <= 1 {
        let components = || bfs_component_count(g).0;
        return reduce(g, labels, canonical, drain(), chunks, components);
    }
    let (scans, components) = std::thread::scope(|s| {
        let bfs = s.spawn(|| (bfs_component_count(g).0, drain()));
        let helpers: Vec<_> = (2..threads).map(|_| s.spawn(drain)).collect();
        let mut scans = drain();
        for h in helpers {
            scans.extend(h.join().expect("vertex pass thread panicked"));
        }
        let (components, rest) = bfs.join().expect("ground truth thread panicked");
        scans.extend(rest);
        (scans, components)
    });
    reduce(g, labels, canonical, scans, chunks, || components)
}

/// Joins the chunk findings in chunk order, which is the priority order
/// of one serial pass: the first range or representative failure, then
/// the first edge split, then the component count against the ground
/// truth, then (canonical only) the first vertex labeled above itself.
fn reduce(
    g: &CsrGraph,
    labels: &[Vertex],
    canonical: bool,
    mut scans: Vec<(usize, Scan)>,
    chunks: usize,
    components: impl FnOnce() -> usize,
) -> Result<Certificate, VerifyError> {
    scans.sort_unstable_by_key(|&(c, _)| c);
    assert!(
        scans.iter().map(|&(c, _)| c).eq(0..chunks),
        "vertex pass must scan every chunk exactly once"
    );
    let mut scans: Vec<Scan> = scans.into_iter().map(|(_, s)| s).collect();
    if let Some(e) = scans.iter_mut().find_map(|s| s.fatal.take()) {
        return Err(e);
    }
    if let Some(e) = scans.iter_mut().find_map(|s| s.split.take()) {
        return Err(e);
    }

    // With edge consistency established, label classes can only be
    // unions of whole components, so count equality with the independent
    // BFS proves the partitions are identical.
    let num_components = components();
    let fixpoints = scans.iter().map(|s| s.fixpoints).sum();
    if fixpoints != num_components {
        return Err(VerifyError::ComponentCountMismatch {
            expected: num_components,
            got: fixpoints,
        });
    }

    // With the partition proven, every label is a member of its own class.
    // The first vertex labeled above itself is then the first non-canonical
    // vertex, and its component's minimum is itself: a smaller member of
    // its class, or an earlier non-canonical vertex, would be an earlier
    // vertex labeled above itself.
    if canonical {
        if let Some(v) = scans.iter().find_map(|s| s.above) {
            return Err(VerifyError::NotCanonical {
                vertex: v as Vertex,
                label: labels[v],
                component_min: v as Vertex,
            });
        }
    }

    Ok(Certificate {
        num_vertices: g.num_vertices(),
        edges_checked: g.num_edges(),
        num_components,
        canonical,
    })
}

/// Switch thresholds of the direction-optimizing BFS (Beamer, Asanović &
/// Patterson, SC'12): go bottom-up when the frontier's edges times `ALPHA`
/// exceed the unexplored edges, and back top-down when the frontier's
/// vertices times `BETA` fall below the vertex count.
const ALPHA: usize = 14;
const BETA: usize = 24;

fn is_set(bits: &[u64], v: usize) -> bool {
    bits[v / 64] >> (v % 64) & 1 != 0
}

fn set(bits: &mut [u64], v: usize) {
    bits[v / 64] |= 1 << (v % 64);
}

fn clear(bits: &mut [u64], v: usize) {
    bits[v / 64] &= !(1 << (v % 64));
}

/// Counts the connected components of `g` with a serial
/// direction-optimizing BFS from each unvisited vertex in increasing
/// order, independent of `ecl_graph::stats` and every algorithm under
/// test. Returns the count and the number of adjacency entries read.
///
/// A top-down step expands every frontier vertex's adjacency list. A
/// bottom-up step instead scans each unvisited vertex's list and stops at
/// the first frontier member, so on a low-diameter giant component it
/// reads a small fraction of the adjacency. A step goes bottom-up only
/// while the frontier grows, and returns top-down only once it shrinks:
/// on a mesh the frontier never carries enough edges, and every step
/// stays top-down.
fn bfs_component_count(g: &CsrGraph) -> (usize, usize) {
    let n = g.num_vertices();
    let (offsets, adj) = (g.offsets(), g.adjacency());
    let degree = |v: usize| offsets[v + 1] - offsets[v];
    let mut visited = vec![0u64; n.div_ceil(64)];
    // Bits past `n` read as visited, so bottom-up steps never scan them.
    if !n.is_multiple_of(64) {
        visited[n / 64] = !0 << (n % 64);
    }
    let mut in_frontier = vec![0u64; visited.len()];
    let (mut frontier, mut next) = (Vec::new(), Vec::new());
    // Adjacency entries of the unvisited vertices and the frontier.
    let mut unexplored = adj.len();
    let (mut components, mut entries_read) = (0usize, 0usize);
    for start in 0..n {
        if is_set(&visited, start) {
            continue;
        }
        components += 1;
        set(&mut visited, start);
        frontier.clear();
        frontier.push(start as Vertex);
        let (mut bottom_up, mut prev_len) = (false, 0);
        while !frontier.is_empty() {
            let len = frontier.len();
            bottom_up = if bottom_up {
                !(len < prev_len && len * BETA < n)
            } else {
                len > prev_len && {
                    let frontier_edges: usize = frontier.iter().map(|&u| degree(u as usize)).sum();
                    frontier_edges * ALPHA > unexplored
                }
            };
            prev_len = len;
            next.clear();
            if bottom_up {
                for &u in &frontier {
                    set(&mut in_frontier, u as usize);
                    unexplored -= degree(u as usize);
                }
                // Every vertex below `start` is visited already, and fully
                // visited words are skipped whole.
                for word in start / 64..visited.len() {
                    let mut unvisited = !visited[word];
                    while unvisited != 0 {
                        let v = word * 64 + unvisited.trailing_zeros() as usize;
                        unvisited &= unvisited - 1;
                        let nbrs = &adj[offsets[v]..offsets[v + 1]];
                        // `CsrGraph`'s edge set is symmetric: a frontier
                        // member in v's list is an edge from the frontier
                        // to v, so v joins the next frontier.
                        match nbrs.iter().position(|&w| is_set(&in_frontier, w as usize)) {
                            Some(i) => {
                                entries_read += i + 1;
                                set(&mut visited, v);
                                next.push(v as Vertex);
                            }
                            None => entries_read += nbrs.len(),
                        }
                    }
                }
                for &u in &frontier {
                    clear(&mut in_frontier, u as usize);
                }
            } else {
                for &u in &frontier {
                    let nbrs = g.neighbors(u);
                    entries_read += nbrs.len();
                    unexplored -= nbrs.len();
                    for &w in nbrs {
                        if !is_set(&visited, w as usize) {
                            set(&mut visited, w as usize);
                            next.push(w);
                        }
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
    }
    (components, entries_read)
}

/// Validates that `parents` is an acyclic forest: every entry in range
/// and every chain of parent pointers reaching a root (`parent[r] == r`).
/// This is the legal state of the union-find array at *any* point after
/// initialization — the compute phase may leave arbitrary tree depths.
/// O(n) via path memoization. Returns the number of roots.
pub fn validate_forest(parents: &[Vertex]) -> Result<usize, VerifyError> {
    let n = parents.len();
    // 0 = unvisited, 1 = on the current path, 2 = proven to reach a root.
    let mut state = vec![0u8; n];
    let mut path: Vec<usize> = Vec::new();
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        path.clear();
        let mut v = start;
        loop {
            let p = parents[v];
            if (p as usize) >= n {
                return Err(VerifyError::ParentOutOfRange {
                    vertex: v as Vertex,
                    parent: p,
                });
            }
            match state[v] {
                1 => {
                    return Err(VerifyError::ParentCycle {
                        vertex: v as Vertex,
                    })
                }
                2 => break,
                _ => {}
            }
            state[v] = 1;
            path.push(v);
            if p as usize == v {
                break; // root
            }
            v = p as usize;
        }
        for &u in &path {
            state[u] = 2;
        }
    }
    let roots = parents
        .iter()
        .enumerate()
        .filter(|&(v, &p)| p as usize == v)
        .count();
    Ok(roots)
}

/// Validates that `parents` is a perfect star forest — every parent is a
/// root (`parent[parent[v]] == parent[v]`) — the state finalize must
/// leave so labels can be read off in one hop. Returns the number of
/// stars (= components).
pub fn validate_star(parents: &[Vertex]) -> Result<usize, VerifyError> {
    let n = parents.len();
    let mut stars = 0usize;
    for (v, &p) in parents.iter().enumerate() {
        if (p as usize) >= n {
            return Err(VerifyError::ParentOutOfRange {
                vertex: v as Vertex,
                parent: p,
            });
        }
        let pp = parents[p as usize];
        if pp != p {
            return Err(VerifyError::NotStar {
                vertex: v as Vertex,
                parent: p,
                grandparent: pp,
            });
        }
        if p as usize == v {
            stars += 1;
        }
    }
    Ok(stars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::generate::{self, Pcg32};

    fn labels_of(g: &CsrGraph) -> Vec<Vertex> {
        ecl_graph::stats::reference_labels(g)
    }

    #[test]
    fn accepts_correct_labelings() {
        for g in [
            generate::path(50),
            generate::cycle(33),
            generate::disjoint_cliques(5, 6),
            generate::gnm_random(120, 300, 3),
            ecl_graph::GraphBuilder::new(0).build(),
            ecl_graph::GraphBuilder::new(7).build(),
        ] {
            let labels = labels_of(&g);
            let cert = certify_canonical(&g, &labels).expect("reference labeling must certify");
            assert_eq!(cert.num_vertices, g.num_vertices());
            assert_eq!(cert.edges_checked, g.num_edges());
            assert!(cert.canonical);
        }
    }

    #[test]
    fn rejects_wrong_length() {
        let g = generate::path(10);
        assert!(matches!(
            certify(&g, &[0; 9]),
            Err(VerifyError::LengthMismatch {
                expected: 10,
                got: 9
            })
        ));
    }

    #[test]
    fn rejects_split_component() {
        let g = generate::path(10);
        let mut labels = labels_of(&g);
        // Split the path in half: a real edge now crosses labels.
        for l in labels.iter_mut().skip(5) {
            *l = 5;
        }
        assert!(matches!(
            certify(&g, &labels),
            Err(VerifyError::EdgeSplit { .. })
        ));
    }

    #[test]
    fn rejects_merged_components() {
        let g = generate::disjoint_cliques(4, 5); // 4 cliques of 5
        let labels = vec![0; g.num_vertices()];
        // All-zero labels are edge-consistent and representative-consistent
        // but merge four components into one: only the BFS cross-check can
        // catch this.
        assert!(matches!(
            certify(&g, &labels),
            Err(VerifyError::ComponentCountMismatch {
                expected: 4,
                got: 1
            })
        ));
    }

    #[test]
    fn rejects_non_representative_labels() {
        let g = generate::path(4);
        // 1 is not a fixpoint: labels[1] = 0.
        let labels = vec![0, 0, 1, 1];
        assert!(matches!(
            certify(&g, &labels),
            Err(VerifyError::NotRepresentative { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_label() {
        let g = generate::path(3);
        assert!(matches!(
            certify(&g, &[0, 9, 0]),
            Err(VerifyError::LabelOutOfRange {
                vertex: 1,
                label: 9
            })
        ));
    }

    #[test]
    fn rejects_non_canonical_but_valid_partition() {
        let g = generate::disjoint_cliques(2, 3); // {0,1,2} and {3,4,5}
        let labels = vec![0, 0, 0, 4, 4, 4]; // valid partition, wrong minima
                                             // labels[3] = 4 and labels[4] = 4: 4 is a fixpoint, so plain
                                             // certify accepts…
        certify(&g, &labels).expect("partition itself is valid");
        // …while the canonical check pins the minimum.
        assert!(matches!(
            certify_canonical(&g, &labels),
            Err(VerifyError::NotCanonical {
                vertex: 3,
                label: 4,
                component_min: 3
            })
        ));
    }

    #[test]
    fn forest_validation() {
        // A legal mid-compute forest: chains, not stars.
        assert_eq!(validate_forest(&[0, 0, 1, 2, 4, 4]), Ok(2));
        // A perfect star set.
        assert_eq!(validate_star(&[0, 0, 0, 3, 3]), Ok(2));
        // Chains are forests but not stars.
        assert!(matches!(
            validate_star(&[0, 0, 1, 2]),
            Err(VerifyError::NotStar { .. })
        ));
        // A 2-cycle is neither.
        assert!(matches!(
            validate_forest(&[1, 0]),
            Err(VerifyError::ParentCycle { .. })
        ));
        // Out-of-range parents are caught in both.
        assert!(matches!(
            validate_forest(&[5]),
            Err(VerifyError::ParentOutOfRange { .. })
        ));
        assert!(matches!(
            validate_star(&[5]),
            Err(VerifyError::ParentOutOfRange { .. })
        ));
        // Empty arrays are trivially valid.
        assert_eq!(validate_forest(&[]), Ok(0));
        assert_eq!(validate_star(&[]), Ok(0));
    }

    /// A seeded corpus covering every graph shape the workspace generates.
    fn corpus(seed: u64) -> Vec<CsrGraph> {
        let mut rng = Pcg32::new(seed);
        let n = 2 + rng.below_usize(300);
        vec![
            generate::path(1 + rng.below_usize(80)),
            generate::cycle(3 + rng.below_usize(80)),
            generate::disjoint_cliques(1 + rng.below_usize(8), 1 + rng.below_usize(7)),
            generate::gnm_random(n, rng.below_usize(2 * n), seed),
            generate::rmat(6 + rng.below(3), 4, generate::RmatParams::GALOIS, seed),
            generate::road_network(
                2 + rng.below_usize(20),
                2 + rng.below_usize(20),
                0.3,
                rng.f64(),
                seed,
            ),
            ecl_graph::GraphBuilder::new(0).build(),
            ecl_graph::GraphBuilder::new(1 + rng.below_usize(20)).build(),
        ]
    }

    /// Applies one seeded corruption of the kind `kind` to `labels`.
    fn corrupt(labels: &mut [Vertex], kind: u32, rng: &mut Pcg32) {
        let n = labels.len();
        if n == 0 {
            return;
        }
        let v = rng.below_usize(n);
        let rep = labels[v];
        let class: Vec<usize> = (0..n).filter(|&x| labels[x] == rep).collect();
        match kind {
            // Single-label flip.
            0 => labels[v] = rng.below_usize(n) as Vertex,
            // Out-of-range label.
            1 => labels[v] = (n + rng.below_usize(3)) as Vertex,
            // A label that is not a fixpoint, where one exists.
            2 => {
                if let Some(u) = (0..n).find(|&u| labels[u] as usize != u) {
                    labels[v] = u as Vertex;
                }
            }
            // Split a class: a random subset takes a new member as label.
            3 => {
                let new_rep = class[rng.below_usize(class.len())];
                for &x in &class {
                    if x == new_rep || rng.chance(0.5) {
                        labels[x] = new_rep as Vertex;
                    }
                }
            }
            // Merge two classes.
            4 => {
                let other = labels[rng.below_usize(n)];
                for &x in &class {
                    labels[x] = other;
                }
            }
            // Relabel a class to one of its members, usually not its minimum.
            _ => {
                let new_rep = class[rng.below_usize(class.len())] as Vertex;
                for &x in &class {
                    labels[x] = new_rep;
                }
            }
        }
    }

    #[test]
    fn one_pass_checker_matches_three_pass_oracle() {
        let (mut cases, mut rejections) = (0usize, 0usize);
        let mut kinds_seen = std::collections::HashSet::new();
        for seed in 0..60 {
            let mut rng = Pcg32::new(1000 + seed);
            for g in corpus(seed) {
                let truth = labels_of(&g);
                for trial in 0..24 {
                    let mut labels = truth.clone();
                    // A third of the trials start from a valid non-canonical
                    // labeling; every trial but the first stacks 1–2
                    // corruptions.
                    if trial % 3 == 1 {
                        corrupt(&mut labels, 5, &mut rng);
                    }
                    if trial > 0 {
                        for _ in 0..1 + rng.below(2) {
                            let kind = rng.below(6);
                            corrupt(&mut labels, kind, &mut rng);
                        }
                    }
                    for canonical in [false, true] {
                        let want = oracle::certify_three_pass(&g, &labels, canonical);
                        // Small chunks put witnesses in later chunks, so
                        // the chunk-order reduction decides the winner.
                        for chunk in [1, 7, 64] {
                            for threads in 1..=3 {
                                let got = certify_chunked(&g, &labels, canonical, threads, chunk);
                                assert_eq!(
                                    got, want,
                                    "seed {seed}, trial {trial}, chunk {chunk}, \
                                     {threads} threads, {labels:?}"
                                );
                            }
                        }
                        cases += 1;
                        if let Err(e) = want {
                            rejections += 1;
                            kinds_seen.insert(std::mem::discriminant(&e));
                        }
                    }
                }
            }
        }
        assert!(
            cases >= 20_000 && rejections >= cases / 2,
            "{rejections}/{cases}"
        );
        // Range, representative, split, count and canonical witnesses.
        assert_eq!(kinds_seen.len(), 5);
    }

    #[test]
    fn earliest_chunk_witness_wins_at_every_thread_count() {
        // Two power-law components of 2^15 vertices: four default chunks,
        // the second component's minimum opening chunk 2.
        let a = generate::preferential_attachment(1 << 15, 8, 1);
        let b = generate::preferential_attachment(1 << 15, 8, 2);
        let g = disjoint_union(&a, &b);
        let truth = labels_of(&g);
        let n = g.num_vertices() as Vertex;
        let (early, late) = (20_000usize, 40_000usize);
        assert_eq!((early / CHUNK, late / CHUNK), (1, 2));
        assert!(
            truth.iter().all(|&l| l == 0 || l == 1 << 15),
            "two components, the second opening chunk 2"
        );
        let plant = |edits: &[(usize, Vertex)]| {
            let mut labels = truth.clone();
            for &(v, l) in edits {
                labels[v] = l;
            }
            labels
        };
        let cases = [
            // Two range/representative failures, either order of kinds.
            plant(&[(early, n), (late, late as Vertex + 1)]),
            plant(&[(early, early as Vertex + 1), (late, n)]),
            // Splits opened in two chunks; a later fatal outranks them.
            plant(&[(early, early as Vertex), (late, late as Vertex)]),
            plant(&[(early, early as Vertex), (late, n)]),
            // Each component relabeled to a later member of its own.
            truth
                .iter()
                .map(|&l| if l == 0 { early } else { late } as Vertex)
                .collect(),
        ];
        for labels in &cases {
            for canonical in [false, true] {
                let want = oracle::certify_three_pass(&g, labels, canonical);
                for threads in 1..=3 {
                    let got = certify_chunked(&g, labels, canonical, threads, CHUNK);
                    assert_eq!(got, want, "canonical {canonical}, {threads} threads");
                }
            }
        }
        let at = |labels: &[Vertex]| certify_chunked(&g, labels, false, 3, CHUNK);
        assert!(matches!(
            at(&cases[0]),
            Err(VerifyError::LabelOutOfRange { vertex: 20_000, .. })
        ));
        assert!(matches!(
            at(&cases[1]),
            Err(VerifyError::NotRepresentative { vertex: 20_000, .. })
        ));
        assert!(matches!(at(&cases[2]), Err(VerifyError::EdgeSplit { .. })));
        assert!(matches!(
            at(&cases[3]),
            Err(VerifyError::LabelOutOfRange { vertex: 40_000, .. })
        ));
        assert!(matches!(
            certify_chunked(&g, &cases[4], true, 3, CHUNK),
            Err(VerifyError::NotCanonical { vertex: 0, .. })
        ));
    }

    fn disjoint_union(a: &CsrGraph, b: &CsrGraph) -> CsrGraph {
        let shift = a.num_vertices() as Vertex;
        let mut builder = ecl_graph::GraphBuilder::new(a.num_vertices() + b.num_vertices());
        builder.extend_edges(a.edges());
        builder.extend_edges(b.edges().map(|(u, v)| (u + shift, v + shift)));
        builder.build()
    }

    /// The share of directed adjacency entries the ground truth reads,
    /// after checking its count against the reference labeling.
    fn read_fraction(g: &CsrGraph) -> f64 {
        let (components, read) = bfs_component_count(g);
        assert_eq!(components, ecl_graph::stats::count_components(g));
        read as f64 / g.num_directed_edges() as f64
    }

    #[test]
    fn ground_truth_reads_a_fraction_of_low_diameter_giants() {
        // Plain BFS reads every entry; bottom-up steps must cut that.
        let social = generate::preferential_attachment(1 << 14, 8, 1);
        assert!(read_fraction(&social) < 0.25);
        // A giant component beside many isolated vertices.
        let kron = generate::kronecker(12, 8, 1);
        assert!(ecl_graph::stats::count_components(&kron) > 1000);
        assert!(read_fraction(&kron) < 0.25);
        // Two disjoint giants, each traversed bottom-up. The first giant's
        // bottom-up steps scan every vertex of the second without a hit,
        // so the reads stay near one pass rather than a fraction.
        let a = generate::preferential_attachment(1 << 13, 8, 2);
        let b = generate::preferential_attachment(1 << 13, 8, 3);
        assert!(read_fraction(&disjoint_union(&a, &b)) < 1.3);
    }

    #[test]
    fn ground_truth_stays_top_down_on_meshes() {
        // A bottom-up step on a mesh rescans every unvisited vertex.
        for g in [
            generate::road_network(64, 64, 0.2, 1.0, 1),
            generate::road_network(400, 400, 0.2, 1.0, 2),
            generate::grid2d(64, 64),
        ] {
            assert!(read_fraction(&g) <= 1.3);
        }
    }

    #[test]
    fn error_messages_carry_witnesses() {
        let e = VerifyError::EdgeSplit {
            u: 3,
            v: 4,
            label_u: 0,
            label_v: 4,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('4'));
    }
}
