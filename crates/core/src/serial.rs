//! ECL-CC_SER — the paper's serial CPU implementation (§3, last
//! paragraph): same three phases and intermediate pointer jumping as the
//! GPU code, but no atomics and no do-while retry loop (a plain store
//! cannot fail), and no worklist. The phases are the shared
//! `crate::pipeline` body over a `[Cell<u32>]` parent store.

use crate::config::EclConfig;
use crate::pipeline::{self, Sweep};
use crate::result::CcResult;
use crate::sampling::SampleStats;
use ecl_graph::{CsrGraph, Vertex};
use std::cell::Cell;

/// Runs serial ECL-CC under `cfg` (with adaptive sampling when
/// `cfg.sampling` is set) and returns the labeling.
pub fn run(g: &CsrGraph, cfg: &EclConfig) -> CcResult {
    run_counted(g, cfg).0
}

/// [`run`] plus the sampling counters when `cfg.sampling` is set.
pub(crate) fn run_counted(g: &CsrGraph, cfg: &EclConfig) -> (CcResult, Option<SampleStats>) {
    let mut parent = vec![0 as Vertex; g.num_vertices()];
    let cells = Cell::from_mut(&mut parent[..]).as_slice_of_cells();
    let stats = pipeline::run(g, cfg, cells, &());
    (CcResult::new(parent), stats)
}

/// The serial sweep: a plain loop over the vertices.
impl Sweep for [Cell<Vertex>] {
    type Store = [Cell<Vertex>];

    fn store(&self) -> &Self::Store {
        self
    }

    #[inline]
    fn each(&self, f: impl Fn(&Self::Store, Vertex) + Sync) {
        for v in 0..self.len() as Vertex {
            f(self, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EclConfig, FiniKind, InitKind};
    use crate::pipeline::init_label;
    use ecl_graph::{generate, stats};
    use ecl_unionfind::concurrent::JumpKind;

    fn check(g: &CsrGraph, cfg: &EclConfig) {
        let r = run(g, cfg);
        r.verify(g).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        // Labels must already be representatives: flat parent array.
        for (v, &l) in r.labels.iter().enumerate() {
            assert_eq!(r.labels[l as usize], l, "vertex {v} label not a root");
        }
    }

    #[test]
    fn default_on_varied_shapes() {
        let cfg = EclConfig::default();
        check(&generate::path(100), &cfg);
        check(&generate::cycle(100), &cfg);
        check(&generate::star(100), &cfg);
        check(&generate::disjoint_cliques(5, 10), &cfg);
        check(&generate::binary_tree(127), &cfg);
        check(&generate::grid2d(17, 23), &cfg);
        check(&generate::gnm_random(500, 700, 1), &cfg);
        check(
            &generate::rmat(10, 8, generate::RmatParams::GALOIS, 2),
            &cfg,
        );
    }

    #[test]
    fn empty_and_singleton() {
        let cfg = EclConfig::default();
        let r = run(&ecl_graph::GraphBuilder::new(0).build(), &cfg);
        assert_eq!(r.labels.len(), 0);
        let r = run(&ecl_graph::GraphBuilder::new(1).build(), &cfg);
        assert_eq!(r.labels, vec![0]);
    }

    #[test]
    fn all_init_variants_agree() {
        let g = generate::gnm_random(400, 900, 7);
        for init in [
            InitKind::VertexId,
            InitKind::MinNeighbor,
            InitKind::FirstSmaller,
        ] {
            check(&g, &EclConfig::with_init(init));
        }
    }

    #[test]
    fn all_jump_variants_agree() {
        let g = generate::rmat(9, 6, generate::RmatParams::GALOIS, 3);
        for jump in JumpKind::ALL {
            check(&g, &EclConfig::with_jump(jump));
        }
    }

    #[test]
    fn all_fini_variants_agree() {
        let g = generate::road_network(30, 30, 0.3, 1.0, 4);
        for fini in [FiniKind::Intermediate, FiniKind::Multiple, FiniKind::Single] {
            check(&g, &EclConfig::with_fini(fini));
        }
    }

    #[test]
    fn labels_are_component_minimums() {
        let g = generate::disjoint_cliques(4, 5);
        let r = run(&g, &EclConfig::default());
        assert_eq!(r.labels, stats::reference_labels(&g));
    }

    #[test]
    fn component_count_matches_reference() {
        let g = generate::kronecker(10, 8, 5);
        let r = run(&g, &EclConfig::default());
        assert_eq!(r.num_components(), stats::count_components(&g));
    }

    #[test]
    fn init3_picks_first_smaller_not_minimum() {
        // Vertex 3's adjacency is sorted: [1, 2]; first smaller is 1.
        let g = ecl_graph::builder::from_edges(4, &[(3, 2), (3, 1)]);
        assert_eq!(init_label(&g, 3, InitKind::FirstSmaller), 1);
        assert_eq!(init_label(&g, 3, InitKind::MinNeighbor), 1);
        assert_eq!(init_label(&g, 3, InitKind::VertexId), 3);
        assert_eq!(
            init_label(&g, 1, InitKind::FirstSmaller),
            1,
            "no smaller neighbor"
        );
    }
}
