//! The workspace's one disjoint-set (union-find) structure: a parent
//! array behind the [`ParentStore`] trait, with the paper's Fig. 5
//! `find_repres`, the Fig. 6 min-wins hook and the four pointer-jumping
//! variants of §5.1 ([`JumpKind`]) written once as provided methods.
//!
//! Two stores implement it:
//!
//! * `[Cell<u32>]` — the single-threaded store with a plain-store hook,
//!   used by serial ECL-CC, Kruskal, the `unionfind` baseline and
//!   spanning-forest validation;
//! * [`AtomicParents`] — the lock-free store at the heart of parallel
//!   ECL-CC: an `AtomicU32` parent per vertex, benign-race finds and a
//!   CAS-retry hook.
//!
//! Both store *parent pointers*; a vertex whose parent is itself is a
//! representative. Hooking makes the **smaller vertex ID** win, so the
//! final partition (and each set's representative, its minimum) never
//! depends on hooking order. A chain of parents is a "path"; compression
//! shortens paths without ever changing any vertex's representative.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;

pub use concurrent::{AtomicParents, JumpKind, ParentStore};

mod seq {
    use crate::ParentStore;
    use std::cell::Cell;

    /// The single-threaded store: a plain-store hook, since no other
    /// thread can move a representative between the find and the store.
    /// Build one over a `Vec` with
    /// `Cell::from_mut(&mut v[..]).as_slice_of_cells()`.
    impl ParentStore for [Cell<u32>] {
        #[inline]
        fn get(&self, v: u32) -> u32 {
            self[v as usize].get()
        }

        #[inline]
        fn set(&self, v: u32, p: u32) {
            self[v as usize].set(p);
        }

        fn len(&self) -> usize {
            <[Cell<u32>]>::len(self)
        }

        #[inline]
        fn hook_linked(&self, u_rep: u32, v_rep: u32) -> (u32, bool) {
            if u_rep == v_rep {
                return (u_rep, false);
            }
            let (hi, lo) = (u_rep.max(v_rep), u_rep.min(v_rep));
            self.set(hi, lo);
            (lo, true)
        }
    }

    #[cfg(test)]
    mod tests {
        use crate::{JumpKind, ParentStore};
        use std::cell::Cell;

        fn store(parent: &mut [u32]) -> &[Cell<u32>] {
            Cell::from_mut(parent).as_slice_of_cells()
        }

        /// The chain `9 -> 8 -> ... -> 0`.
        fn chain() -> Vec<u32> {
            (0..10u32).map(|v| v.saturating_sub(1)).collect()
        }

        /// Unites each pair, finding with `jump`, then flattens (the CC
        /// codes' finalization). Returns whether each union linked.
        fn run(parent: &mut [u32], pairs: &[(u32, u32)], jump: JumpKind) -> Vec<bool> {
            let ds = store(parent);
            let linked = pairs.iter().map(|&(a, b)| ds.unite_with(a, b, jump));
            let linked = linked.collect();
            ds.flatten();
            linked
        }

        #[test]
        fn singletons_initially() {
            let mut p: Vec<u32> = (0..5).collect();
            assert_eq!(store(&mut p).count_sets(), 5);
        }

        #[test]
        fn union_find_basics_all_strategies() {
            for j in JumpKind::ALL {
                let mut p: Vec<u32> = (0..10).collect();
                let linked = run(&mut p, &[(1, 2), (3, 4), (2, 1), (2, 3)], j);
                assert_eq!(linked, [true, true, false, true], "{j:?}");
                assert_eq!(store(&mut p).count_sets(), 7, "{j:?}");
            }
        }

        #[test]
        fn representative_is_minimum_after_flatten() {
            for j in JumpKind::ALL {
                let mut p: Vec<u32> = (0..8).collect();
                run(&mut p, &[(7, 5), (5, 3), (3, 6)], j);
                assert_eq!(p, [0, 1, 2, 3, 4, 3, 3, 3], "{j:?}");
            }
        }

        #[test]
        fn strategies_agree_on_partition() {
            let pairs: Vec<(u32, u32)> = (0..200u32)
                .map(|i| ((i * 7) % 50, (i * 13 + 1) % 50))
                .collect();
            let mut want: Vec<u32> = (0..50).collect();
            run(&mut want, &pairs, JumpKind::None);
            for j in JumpKind::ALL {
                let mut p: Vec<u32> = (0..50).collect();
                run(&mut p, &pairs, j);
                assert_eq!(p, want, "{j:?}");
            }
        }

        #[test]
        fn halving_shortens_paths() {
            let mut p = chain();
            let ds = store(&mut p);
            assert_eq!(ds.find_repres(9), 0);
            assert!(ds.path_length(9) <= 5, "halving should roughly halve");
            // Iterating find drives the path to length 1.
            for _ in 0..3 {
                ds.find_repres(9);
            }
            assert!(ds.path_length(9) <= 1);
        }

        #[test]
        fn full_compression_flattens_in_one_find() {
            let mut p = chain();
            store(&mut p).find_with(9, JumpKind::Multiple);
            assert!(p.iter().all(|&r| r == 0));
        }

        #[test]
        fn no_compression_leaves_paths() {
            let mut p = chain();
            assert_eq!(store(&mut p).find_with(9, JumpKind::None), 0);
            assert_eq!(p, chain());
        }

        #[test]
        fn splitting_advances_all_elements() {
            // Fig. 5's loop is path splitting: every element on the path
            // now points at its former grandparent.
            let mut p = chain();
            assert_eq!(store(&mut p).find_repres(9), 0);
            let want: Vec<u32> = (0..10u32).map(|v| v.saturating_sub(2)).collect();
            assert_eq!(p, want);
        }

        #[test]
        fn empty_structure() {
            let ds = store(&mut []);
            assert!(ds.is_empty());
            assert_eq!(ds.count_sets(), 0);
        }

        #[test]
        fn flatten_idempotent() {
            let mut p: Vec<u32> = (0..20).collect();
            let pairs: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
            run(&mut p, &pairs, JumpKind::Intermediate);
            assert!(p.iter().all(|&r| r == 0));
            run(&mut p, &[], JumpKind::Intermediate);
            assert!(p.iter().all(|&r| r == 0));
        }
    }
}
