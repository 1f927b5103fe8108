//! The three-pass checker `certify` replaced, kept as a differential
//! oracle: a representative scan, an edge scan, and a queue-order BFS
//! that fills a per-vertex component minimum. Every `Result` it returns,
//! certificate or witness, must equal the one-pass checker's.

use super::{Certificate, VerifyError};
use ecl_graph::{CsrGraph, Vertex};

pub(crate) fn certify_three_pass(
    g: &CsrGraph,
    labels: &[Vertex],
    canonical: bool,
) -> Result<Certificate, VerifyError> {
    let n = g.num_vertices();
    if labels.len() != n {
        return Err(VerifyError::LengthMismatch {
            expected: n,
            got: labels.len(),
        });
    }
    for v in 0..n {
        let l = labels[v];
        if (l as usize) >= n {
            return Err(VerifyError::LabelOutOfRange {
                vertex: v as Vertex,
                label: l,
            });
        }
        let ll = labels[l as usize];
        if ll != l {
            return Err(VerifyError::NotRepresentative {
                vertex: v as Vertex,
                label: l,
                label_of_label: ll,
            });
        }
    }
    let mut edges_checked = 0usize;
    for (u, v) in g.edges() {
        let (lu, lv) = (labels[u as usize], labels[v as usize]);
        if lu != lv {
            return Err(VerifyError::EdgeSplit {
                u,
                v,
                label_u: lu,
                label_v: lv,
            });
        }
        edges_checked += 1;
    }
    let (num_components, component_min) = bfs_component_min(g);
    let distinct = labels
        .iter()
        .enumerate()
        .filter(|&(v, &l)| l as usize == v)
        .count();
    if distinct != num_components {
        return Err(VerifyError::ComponentCountMismatch {
            expected: num_components,
            got: distinct,
        });
    }
    if canonical {
        for (v, (&l, &min)) in labels.iter().zip(&component_min).enumerate() {
            if l != min {
                return Err(VerifyError::NotCanonical {
                    vertex: v as Vertex,
                    label: l,
                    component_min: min,
                });
            }
        }
    }
    Ok(Certificate {
        num_vertices: n,
        edges_checked,
        num_components,
        canonical,
    })
}

/// Queue-order BFS from each unvisited vertex in increasing order:
/// the component count and each vertex's component minimum.
fn bfs_component_min(g: &CsrGraph) -> (usize, Vec<Vertex>) {
    let n = g.num_vertices();
    let mut component_min = vec![u32::MAX; n];
    let mut queue: Vec<Vertex> = Vec::new();
    let mut num_components = 0usize;
    for start in 0..n {
        if component_min[start] != u32::MAX {
            continue;
        }
        num_components += 1;
        let min = start as Vertex;
        component_min[start] = min;
        queue.clear();
        queue.push(min);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &w in g.neighbors(u) {
                if component_min[w as usize] == u32::MAX {
                    component_min[w as usize] = min;
                    queue.push(w);
                }
            }
        }
    }
    (num_components, component_min)
}
