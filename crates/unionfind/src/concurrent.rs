//! The [`ParentStore`] union-find (paper §3, Figs. 5 and 6) and its
//! lock-free store, the data structure at the core of ECL-CC.
//!
//! [`AtomicParents`]' parent array is a slice of `AtomicU32`. All plain loads and stores
//! use `Relaxed` ordering: every value ever stored in a parent cell is a
//! valid vertex ID whose path still leads to the representative, so the
//! algorithm tolerates arbitrarily stale values — the "benign data races"
//! the paper proves safe in §3. No thread ever publishes other memory
//! through a parent pointer, so no acquire/release pairing is needed for
//! correctness; the final synchronization point is the thread join at the
//! end of each parallel phase, which is sequentially consistent.

use std::sync::atomic::{AtomicU32, Ordering};

/// Pointer-jumping variants of the find (paper §5.1, Fig. 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JumpKind {
    /// Jump1: multiple pointer jumping — two traversals, every element on
    /// the path ends up pointing at the representative.
    Multiple,
    /// Jump2: single pointer jumping — only the starting vertex is
    /// re-pointed at the representative.
    Single,
    /// Jump3: no pointer jumping — pure traversal.
    None,
    /// Jump4: intermediate pointer jumping (path halving) — the ECL-CC
    /// default and the paper's Fig. 5.
    Intermediate,
}

impl JumpKind {
    /// Jump1–4, in the paper's order.
    pub const ALL: [JumpKind; 4] = [Self::Multiple, Self::Single, Self::None, Self::Intermediate];
}

/// A parent array: the one union-find of the workspace. `get`, `set`,
/// `len` and `hook_linked` are the store's own; the finds, hooks and
/// helpers are written once on top of them, so the single-threaded
/// `[Cell<u32>]` and the lock-free [`AtomicParents`] share every pointer
/// jump.
///
/// Hooking always makes smaller IDs win, so parent chains strictly
/// decrease: every find terminates even while other threads modify the
/// array, and the representative of a set is its minimum element.
pub trait ParentStore {
    /// Current parent of `v` (a racy snapshot on a shared store).
    fn get(&self, v: u32) -> u32;

    /// Overwrites `v`'s parent. Used by initialization and finalization,
    /// and by finds to shorten a path; during hooking use
    /// [`Self::hook`] instead.
    fn set(&self, v: u32, p: u32);

    /// Number of elements.
    fn len(&self) -> usize;

    /// True if the store has no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Given two endpoints' representatives, links the larger under the
    /// smaller. Returns the representative that won and whether **this
    /// call** performed the link. Because parent links always point to
    /// strictly smaller IDs, a link provably merges two previously
    /// distinct sets — spanning-forest and incremental clients use the
    /// flag to claim an edge (exactly one claimant per merge).
    fn hook_linked(&self, u_rep: u32, v_rep: u32) -> (u32, bool);

    /// [`Self::hook_linked`] without the flag: the paper's Fig. 6 hook.
    #[inline]
    fn hook(&self, u_rep: u32, v_rep: u32) -> u32 {
        self.hook_linked(u_rep, v_rep).0
    }

    /// The paper's Fig. 5 `find_repres`: walks to the representative while
    /// halving the path (each visited element is made to skip its
    /// successor with a single racy-but-benign word store).
    #[inline]
    fn find_repres(&self, v: u32) -> u32 {
        let mut par = self.get(v);
        if par != v {
            let mut prev = v;
            loop {
                let next = self.get(par);
                if par <= next {
                    break;
                }
                // Benign race: overwrites one valid parent with another
                // valid (closer) one; a lost update only costs work.
                self.set(prev, next);
                prev = par;
                par = next;
            }
        }
        par
    }

    /// Traversal without compression (Jump3).
    #[inline]
    fn find_naive(&self, v: u32) -> u32 {
        let mut cur = v;
        loop {
            let p = self.get(cur);
            if p >= cur {
                return cur;
            }
            cur = p;
        }
    }

    /// Find with a selectable pointer-jumping variant (for the Fig. 8
    /// ablation). Always inlined: the hooking loops call it twice per
    /// edge, and inlining lets the compiler hoist the `kind` match out of
    /// those loops.
    #[inline(always)]
    fn find_with(&self, v: u32, kind: JumpKind) -> u32 {
        match kind {
            JumpKind::Intermediate => self.find_repres(v),
            JumpKind::None => self.find_naive(v),
            JumpKind::Single => {
                let root = self.find_naive(v);
                if root != v {
                    self.set(v, root);
                }
                root
            }
            JumpKind::Multiple => {
                let root = self.find_naive(v);
                // Second traversal: point every element at the root. Only
                // elements above the root are re-pointed: a concurrent hook
                // can lead the path below `root`, and pointing a smaller
                // vertex at `root` would break the decreasing chains.
                let mut cur = v;
                while cur > root {
                    let next = self.get(cur);
                    self.set(cur, root);
                    cur = next;
                }
                root
            }
        }
    }

    /// One full edge step: finds both endpoints' representatives with
    /// the given pointer-jumping variant and hooks them. Returns `true`
    /// if this call merged two sets.
    #[inline]
    fn unite_with(&self, u: u32, v: u32, kind: JumpKind) -> bool {
        let ru = self.find_with(u, kind);
        let rv = self.find_with(v, kind);
        self.hook_linked(ru, rv).1
    }

    /// [`Self::unite_with`] under the ECL-CC default, Jump4.
    #[inline]
    fn unite(&self, u: u32, v: u32) -> bool {
        self.unite_with(u, v, JumpKind::Intermediate)
    }

    /// Points every element at its representative (the CC codes'
    /// finalization). Call only while no other thread hooks.
    fn flatten(&self) {
        for v in 0..self.len() as u32 {
            self.set(v, self.find_naive(v));
        }
    }

    /// Number of representatives in the current state.
    fn count_sets(&self) -> usize {
        (0..self.len() as u32).filter(|&v| self.get(v) == v).count()
    }

    /// Path length from `v` to its representative in the current state
    /// (0 if `v` is a representative).
    fn path_length(&self, v: u32) -> usize {
        let mut cur = v;
        let mut len = 0;
        loop {
            let p = self.get(cur);
            if p >= cur {
                return len;
            }
            len += 1;
            cur = p;
        }
    }
}

/// A concurrent disjoint-set forest with lock-free find and hook.
#[derive(Debug)]
pub struct AtomicParents {
    parent: Box<[AtomicU32]>,
}

impl ParentStore for AtomicParents {
    #[inline]
    fn get(&self, v: u32) -> u32 {
        self.parent[v as usize].load(Ordering::Relaxed)
    }

    #[inline]
    fn set(&self, v: u32, p: u32) {
        self.parent[v as usize].store(p, Ordering::Relaxed);
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    /// The paper's Fig. 6 hooking: a CAS retry loop. The representatives
    /// may be stale; a failed CAS returns the stale one's current parent,
    /// and the loop retries with it exactly as the CUDA code does.
    #[inline]
    fn hook_linked(&self, mut u_rep: u32, mut v_rep: u32) -> (u32, bool) {
        loop {
            if u_rep == v_rep {
                return (u_rep, false);
            }
            let (hi, lo) = (u_rep.max(v_rep), u_rep.min(v_rep));
            match self.parent[hi as usize].compare_exchange(
                hi,
                lo,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (lo, true),
                Err(actual) => (u_rep, v_rep) = (actual, lo),
            }
        }
    }
}

impl AtomicParents {
    /// `n` singleton sets (`parent[v] = v`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        AtomicParents {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Builds from an explicit initial parent array (ECL-CC's enhanced
    /// initialization produces one). Every entry must be `< n`.
    pub fn from_vec(parent: Vec<u32>) -> Self {
        let n = parent.len() as u32;
        assert!(parent.iter().all(|&p| p < n), "parent out of range");
        AtomicParents {
            parent: parent.into_iter().map(AtomicU32::new).collect(),
        }
    }

    /// Snapshot of the parent array (call only between parallel phases).
    pub fn snapshot(&self) -> Vec<u32> {
        self.parent
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .collect()
    }

    /// The final parent array, reusing this store's allocation (the
    /// atomics share `u32`'s layout, so no copy is made).
    pub fn into_vec(self) -> Vec<u32> {
        self.parent
            .into_vec()
            .into_iter()
            .map(AtomicU32::into_inner)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_parallel::{parallel_for, parallel_for_teams, Schedule};
    use std::cell::Cell;

    #[test]
    fn sequential_semantics() {
        let p = AtomicParents::new(10);
        p.unite(3, 7);
        p.unite(7, 9);
        assert_eq!(p.find_repres(9), 3);
        assert_eq!(p.find_repres(7), 3);
        assert_eq!(p.find_repres(0), 0);
        assert_eq!(p.count_sets(), 8);
        assert!(!p.unite(9, 3), "already one set");
        let empty = AtomicParents::new(0);
        assert!(empty.is_empty());
        assert_eq!(empty.count_sets(), 0);
    }

    #[test]
    fn into_vec_keeps_the_allocation() {
        let p = AtomicParents::from_vec(vec![0, 0, 1, 3]);
        let (snap, addr) = (p.snapshot(), p.parent.as_ptr() as usize);
        let parents = p.into_vec();
        assert_eq!(parents, snap);
        assert_eq!(parents.as_ptr() as usize, addr, "copied, not reused");
    }

    #[test]
    fn hook_smaller_wins() {
        let p = AtomicParents::new(10);
        assert_eq!(p.hook(8, 2), 2);
        assert_eq!(p.get(8), 2);
        assert_eq!(p.hook(2, 8), 2, "same set now");
    }

    #[test]
    fn hook_retries_on_stale_rep() {
        let p = AtomicParents::new(10);
        p.hook(5, 1); // parent[5] = 1
                      // Caller holds the stale belief that 5 is still a representative.
        let winner = p.hook(5, 3);
        assert_eq!(winner, 1, "retry must chase 5 -> 1 and hook 3 under 1");
        assert_eq!(p.find_repres(3), 1);
    }

    #[test]
    fn all_jump_kinds_find_same_root() {
        for kind in JumpKind::ALL {
            let p = AtomicParents::from_vec(vec![0, 0, 1, 2, 3, 4, 5, 6]);
            assert_eq!(p.find_with(7, kind), 0, "{kind:?}");
            // The plain store shares the provided finds: same root, same
            // pointer jumps.
            let mut plain = vec![0, 0, 1, 2, 3, 4, 5, 6];
            let cells = Cell::from_mut(&mut plain[..]).as_slice_of_cells();
            assert_eq!(cells.find_with(7, kind), 0, "{kind:?}");
            assert_eq!(plain, p.snapshot(), "{kind:?}");
        }
    }

    #[test]
    fn multiple_jump_never_repoints_below_the_root() {
        // Another thread hooks the root 2 under 0 and compresses 4 -> 0
        // between the two traversals of `find_with(4, Multiple)`.
        struct Racy {
            p: AtomicParents,
            gets: Cell<u32>,
        }
        impl ParentStore for Racy {
            fn get(&self, v: u32) -> u32 {
                self.gets.set(self.gets.get() + 1);
                if self.gets.get() == 3 {
                    self.p.hook(2, 0);
                    self.p.set(4, 0);
                }
                self.p.get(v)
            }
            fn set(&self, v: u32, p: u32) {
                self.p.set(v, p);
            }
            fn len(&self) -> usize {
                self.p.len()
            }
            fn hook_linked(&self, u_rep: u32, v_rep: u32) -> (u32, bool) {
                self.p.hook_linked(u_rep, v_rep)
            }
        }
        let s = Racy {
            p: AtomicParents::from_vec(vec![0, 1, 2, 3, 2]),
            gets: Cell::new(0),
        };
        assert_eq!(s.find_with(4, JumpKind::Multiple), 2);
        assert_eq!(s.p.get(0), 0, "the new root must stay a root");
        assert_eq!(s.p.find_naive(4), 0);
    }

    #[test]
    fn multiple_jump_flattens_whole_path() {
        let p = AtomicParents::from_vec(vec![0, 0, 1, 2, 3, 4, 5, 6]);
        p.find_with(7, JumpKind::Multiple);
        for v in 1..8 {
            assert_eq!(p.get(v), 0);
        }
    }

    #[test]
    fn single_jump_only_moves_start() {
        let p = AtomicParents::from_vec(vec![0, 0, 1, 2, 3]);
        p.find_with(4, JumpKind::Single);
        assert_eq!(p.get(4), 0);
        assert_eq!(p.get(3), 2, "middle untouched");
    }

    #[test]
    fn none_jump_changes_nothing() {
        let before = vec![0, 0, 1, 2, 3];
        let p = AtomicParents::from_vec(before.clone());
        p.find_with(4, JumpKind::None);
        assert_eq!(p.snapshot(), before);
    }

    #[test]
    fn intermediate_halves() {
        let p = AtomicParents::from_vec(vec![0, 0, 1, 2, 3, 4, 5, 6]);
        p.find_repres(7);
        assert!(p.path_length(7) <= 4);
    }

    #[test]
    fn concurrent_unions_form_correct_partition() {
        // 4 chains of 1000 vertices united by many threads concurrently;
        // every thread processes an interleaved share of the edges.
        let n = 4000u32;
        let p = AtomicParents::new(n as usize);
        let edges: Vec<(u32, u32)> = (0..n - 4).map(|i| (i, i + 4)).collect();
        let edges_ref = &edges;
        let p_ref = &p;
        parallel_for(8, edges.len(), Schedule::Dynamic { chunk: 7 }, move |i| {
            let (a, b) = edges_ref[i];
            p_ref.unite(a, b);
        });
        for v in 0..n {
            assert_eq!(p.find_repres(v), v % 4, "vertex {v}");
        }
        assert_eq!(p.count_sets(), 4);
    }

    #[test]
    fn concurrent_stress_same_target() {
        // All threads hammer unions onto the same pair of sets.
        let p = AtomicParents::new(1000);
        let p_ref = &p;
        parallel_for_teams(8, move |tid| {
            for i in 0..999u32 {
                p_ref.unite(i, i + 1);
                let _ = p_ref.find_repres(999 - (i % 500) - tid as u32 % 3);
            }
        });
        assert_eq!(p.count_sets(), 1);
        for v in 0..1000 {
            assert_eq!(p.find_repres(v), 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_vec_validates() {
        AtomicParents::from_vec(vec![0, 100]);
    }
}
