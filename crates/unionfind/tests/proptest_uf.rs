//! Model-based property tests: both parent stores, under every
//! pointer-jumping variant, are checked against a trivially-correct
//! partition model over random operation sequences.
//!
//! Random sequences come from the workspace's deterministic PCG32 stream
//! (fixed seeds) so the suite runs hermetically with no external
//! property-testing framework and is exactly reproducible.

use ecl_graph::generate::Pcg32;
use ecl_unionfind::{AtomicParents, JumpKind, ParentStore};
use std::cell::Cell;

/// The reference model: partition kept as a label vector where merging
/// rewrites all labels (O(n) per union, obviously correct).
#[derive(Clone)]
struct Model {
    label: Vec<u32>,
}

impl Model {
    fn new(n: usize) -> Self {
        Model {
            label: (0..n as u32).collect(),
        }
    }

    fn union(&mut self, a: u32, b: u32) {
        let (la, lb) = (self.label[a as usize], self.label[b as usize]);
        if la != lb {
            let keep = la.min(lb);
            let kill = la.max(lb);
            for l in &mut self.label {
                if *l == kill {
                    *l = keep;
                }
            }
        }
    }

    fn same(&self, a: u32, b: u32) -> bool {
        self.label[a as usize] == self.label[b as usize]
    }

    fn count(&self) -> usize {
        let mut ls: Vec<u32> = self.label.clone();
        ls.sort_unstable();
        ls.dedup();
        ls.len()
    }
}

/// Random (n, union-pairs) workload, mirroring the old proptest strategy:
/// 2..48 vertices, 0..120 operations.
fn ops(rng: &mut Pcg32) -> (usize, Vec<(u32, u32)>) {
    let n = 2 + rng.below(46) as usize;
    let len = rng.below(120) as usize;
    let pairs = (0..len)
        .map(|_| (rng.below(n as u32), rng.below(n as u32)))
        .collect();
    (n, pairs)
}

#[test]
fn sequential_matches_model() {
    let mut rng = Pcg32::new(0x5e9);
    for _ in 0..64 {
        let (n, pairs) = ops(&mut rng);
        for jump in JumpKind::ALL {
            let mut parent: Vec<u32> = (0..n as u32).collect();
            let ds = Cell::from_mut(&mut parent[..]).as_slice_of_cells();
            let mut model = Model::new(n);
            for &(a, b) in &pairs {
                let linked = ds.unite_with(a, b, jump);
                assert_eq!(linked, !model.same(a, b), "{jump:?}");
                model.union(a, b);
                // Spot-check connectivity after every operation.
                assert_eq!(ds.find_with(a, jump), ds.find_with(b, jump));
            }
            assert_eq!(ds.count_sets(), model.count(), "{jump:?}");
            // After a flatten, labels equal component minima.
            ds.flatten();
            for v in 0..n as u32 {
                let min = (0..n as u32).filter(|&u| model.same(u, v)).min().unwrap();
                assert_eq!(parent[v as usize], min, "{jump:?}");
            }
        }
    }
}

#[test]
fn concurrent_matches_model() {
    let mut rng = Pcg32::new(0xc0c);
    for _ in 0..64 {
        let (n, pairs) = ops(&mut rng);
        let par = AtomicParents::new(n);
        let mut model = Model::new(n);
        // Apply unions from 4 threads (chunked round-robin), model serially
        // — the final partition must agree regardless of interleaving.
        let pairs_ref = &pairs;
        let par_ref = &par;
        ecl_parallel::parallel_for(
            4,
            pairs.len(),
            ecl_parallel::Schedule::Dynamic { chunk: 2 },
            move |i| {
                let (a, b) = pairs_ref[i];
                par_ref.unite(a, b);
            },
        );
        for &(a, b) in &pairs {
            model.union(a, b);
        }
        assert_eq!(par.count_sets(), model.count());
        for v in 0..n as u32 {
            let min = (0..n as u32).filter(|&u| model.same(u, v)).min().unwrap();
            assert_eq!(par.find_repres(v), min);
        }
    }
}

/// Each link reduces the set count by exactly one, on either store.
fn links_count_merges<P: ParentStore + ?Sized>(store: &P, pairs: &[(u32, u32)]) {
    let links = pairs.iter().filter(|&&(a, b)| store.unite(a, b)).count();
    assert_eq!(store.count_sets(), store.len() - links);
}

#[test]
fn hook_linked_counts_merges_exactly() {
    let mut rng = Pcg32::new(0x400c);
    for _ in 0..64 {
        let (n, pairs) = ops(&mut rng);
        links_count_merges(&AtomicParents::new(n), &pairs);
        let mut parent: Vec<u32> = (0..n as u32).collect();
        links_count_merges(Cell::from_mut(&mut parent[..]).as_slice_of_cells(), &pairs);
    }
}

#[test]
fn parent_ids_never_increase() {
    // The decreasing-parent invariant underpinning all the lock-free
    // correctness arguments.
    let mut rng = Pcg32::new(0xdec);
    for _ in 0..64 {
        let (n, pairs) = ops(&mut rng);
        let par = AtomicParents::new(n);
        for &(a, b) in &pairs {
            par.unite(a, b);
            for v in 0..n as u32 {
                assert!(par.get(v) <= v, "parent[{}] = {} increased", v, par.get(v));
            }
        }
    }
}
