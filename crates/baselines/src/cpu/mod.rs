//! Parallel CPU baselines, all on the workspace thread pool
//! (`ecl-parallel`) and the shared CSR graph, so runtime differences
//! against ECL-CC_OMP reflect the algorithms.

pub mod bfscc;
pub mod crono;
pub mod galois_async;
pub mod label_prop;
pub mod ligra_compressed;
pub mod multistep;
pub mod ndhybrid;

use ecl_graph::Vertex;
use ecl_parallel::counters::WorkCounter;
use ecl_parallel::parallel_for_teams;
use std::sync::Mutex;

/// Expands one frontier in parallel: `visit(v, push)` is called for every
/// `v` in `frontier`; everything pushed becomes the next frontier.
///
/// Threads claim chunks of the frontier and buffer their discoveries in
/// thread-local vectors that are concatenated at the end of the level —
/// the local-worklist scheme the paper attributes to Multistep ("to
/// minimize overheads, each thread uses a local worklist, which are merged
/// at the end of each iteration").
pub(crate) fn parallel_expand<F>(threads: usize, frontier: &[Vertex], visit: F) -> Vec<Vertex>
where
    F: Fn(Vertex, &mut Vec<Vertex>) + Sync,
{
    if frontier.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1);
    if threads == 1 || frontier.len() < 256 {
        let mut next = Vec::new();
        for &v in frontier {
            visit(v, &mut next);
        }
        return next;
    }
    let counter = WorkCounter::new();
    let results: Vec<Mutex<Vec<Vertex>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    parallel_for_teams(threads, |tid| {
        let mut local = Vec::new();
        while let Some((s, e)) = counter.claim(64, frontier.len()) {
            for &v in &frontier[s..e] {
                visit(v, &mut local);
            }
        }
        *results[tid].lock().unwrap() = local;
    });
    let mut next = Vec::new();
    for r in results {
        next.append(&mut r.into_inner().unwrap());
    }
    next
}

#[cfg(test)]
pub(crate) mod test_support {
    use ecl_graph::{generate, CsrGraph};

    /// Shared test-graph set for the CPU baselines.
    pub fn test_graphs() -> Vec<(&'static str, CsrGraph)> {
        vec![
            ("path", generate::path(500)),
            ("star", generate::star(300)),
            ("cliques", generate::disjoint_cliques(8, 7)),
            ("grid", generate::grid2d(20, 20)),
            ("random", generate::gnm_random(600, 1500, 1)),
            (
                "rmat",
                generate::rmat(9, 6, generate::RmatParams::GALOIS, 2),
            ),
            ("road", generate::road_network(20, 20, 0.2, 1.0, 3)),
            ("singletons", ecl_graph::GraphBuilder::new(40).build()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_visits_every_frontier_vertex() {
        let frontier: Vec<Vertex> = (0..1000).collect();
        let next = parallel_expand(4, &frontier, |v, push| {
            if v % 2 == 0 {
                push.push(v * 2);
            }
        });
        let mut sorted = next.clone();
        sorted.sort_unstable();
        let expected: Vec<Vertex> = (0..1000).filter(|v| v % 2 == 0).map(|v| v * 2).collect();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn expand_empty_frontier() {
        let next = parallel_expand(4, &[], |_, push| push.push(0));
        assert!(next.is_empty());
    }

    #[test]
    fn expand_small_frontier_sequential_path() {
        let next = parallel_expand(8, &[1, 2, 3], |v, push| push.push(v + 10));
        assert_eq!(next, vec![11, 12, 13]);
    }
}
