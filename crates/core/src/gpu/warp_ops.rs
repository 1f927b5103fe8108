//! Warp-vector union-find primitives shared by the simulated-GPU CC
//! kernels (ECL-CC's and the baselines').
//!
//! These are the device-side counterparts of `ecl_unionfind::concurrent`:
//! the same Fig. 5 / Fig. 6 logic, expressed lane-wise under an active
//! mask so divergence and coalescing are simulated faithfully.

use ecl_gpu_sim::{DevicePtr, Lanes, Mask, WarpCtx};
use ecl_unionfind::concurrent::JumpKind;

/// Per-lane `find` over the device parent array with the selected
/// pointer-jumping flavour. Inactive lanes return 0.
pub fn warp_find(
    w: &mut WarpCtx,
    parent: DevicePtr,
    v: &Lanes,
    mask: Mask,
    jump: JumpKind,
) -> Lanes {
    match jump {
        JumpKind::Intermediate => warp_find_intermediate(w, parent, v, mask),
        JumpKind::None => warp_walk(w, parent, v, mask),
        JumpKind::Single => {
            let root = warp_walk(w, parent, v, mask);
            // One store per lane that actually moved.
            let moved = mask & root.ne_mask(v);
            w.store(parent, v, &root, moved);
            root
        }
        JumpKind::Multiple => {
            let root = warp_walk(w, parent, v, mask);
            // Second traversal: repoint every element above the root at
            // it (a concurrent hook on another SM can lead a path below).
            let mut cur = *v;
            let mut active = mask & cur.gt(&root);
            while active.any() {
                let next = w.load(parent, &cur, active);
                w.store(parent, &cur, &root, active);
                cur.assign_masked(&next, active);
                active &= cur.gt(&root);
                w.alu(2);
            }
            root
        }
    }
}

/// The paper's Fig. 5 in warp-vector form: every active lane halves its
/// own path while walking it; the warp iterates until its slowest lane
/// reaches a representative (lockstep divergence cost).
pub fn warp_find_intermediate(w: &mut WarpCtx, parent: DevicePtr, v: &Lanes, mask: Mask) -> Lanes {
    let mut par = w.load(parent, v, mask);
    let mut prev = *v;
    // Lanes whose parent is themselves are already done.
    let mut running = mask & par.ne_mask(v);
    while running.any() {
        let next = w.load(parent, &par, running);
        // Continue only where par > next (still descending).
        let cont = running & par.gt(&next);
        if cont.none() {
            break;
        }
        // parent[prev] = next — the benign-race halving store.
        w.store(parent, &prev, &next, cont);
        prev.assign_masked(&par, cont);
        par.assign_masked(&next, cont);
        running = cont;
        w.alu(3);
    }
    par
}

/// Pure traversal (Jump3): walk to the representative without writing.
pub fn warp_walk(w: &mut WarpCtx, parent: DevicePtr, v: &Lanes, mask: Mask) -> Lanes {
    let mut cur = *v;
    let mut running = mask;
    while running.any() {
        let p = w.load(parent, &cur, running);
        // A representative satisfies parent(x) >= x (== in practice).
        let cont = running & p.lt(&cur);
        cur.assign_masked(&p, cont);
        running = cont;
        w.alu(2);
    }
    cur
}

/// The paper's Fig. 6 hooking in warp-vector form: each active lane links
/// the larger of its two representatives under the smaller with a CAS
/// retry loop. Returns the merged representative per lane and the mask of
/// lanes whose own CAS performed a link. Because parent links always
/// point to strictly smaller IDs, each successful CAS provably merges two
/// distinct components — spanning-forest kernels use the mask to claim
/// edges (exactly one claimant per merge, even under weight ties).
pub fn warp_hook(
    w: &mut WarpCtx,
    parent: DevicePtr,
    u_rep_in: &Lanes,
    v_rep_in: &Lanes,
    mask: Mask,
) -> (Lanes, Mask) {
    let mut u_rep = *u_rep_in;
    let mut v_rep = *v_rep_in;
    let mut linked = Mask::NONE;
    let mut repeat = mask & u_rep.ne_mask(&v_rep);
    while repeat.any() {
        let v_less = repeat & v_rep.lt(&u_rep);
        let u_less = repeat & !v_less;
        // if (v_rep < u_rep) atomicCAS(&parent[u_rep], u_rep, v_rep)
        let ret1 = w.atomic_cas(parent, &u_rep, &u_rep, &v_rep, v_less);
        let fail1 = v_less & ret1.ne_mask(&u_rep);
        u_rep.assign_masked(&ret1, fail1);
        // else atomicCAS(&parent[v_rep], v_rep, u_rep)
        let ret2 = w.atomic_cas(parent, &v_rep, &v_rep, &u_rep, u_less);
        let fail2 = u_less & ret2.ne_mask(&v_rep);
        v_rep.assign_masked(&ret2, fail2);
        linked |= (v_less & !fail1) | (u_less & !fail2);
        repeat = (fail1 | fail2) & u_rep.ne_mask(&v_rep);
        w.alu(4);
    }
    // Merged representative: the smaller of the two (equal where hooked).
    let merged = u_rep.min_lanes(&v_rep);
    (merged.select(&Lanes::default(), mask), linked)
}

/// Untimed probe of the parent-path length of each active lane's vertex
/// (Table 4 instrumentation). Returns per-lane lengths.
pub fn probe_path_lengths(w: &WarpCtx, parent: DevicePtr, v: &Lanes, mask: Mask) -> Lanes {
    let mut out = Lanes::default();
    for lane in mask.iter() {
        let mut cur = v.get(lane);
        let mut len = 0u32;
        loop {
            let p = w.peek(parent, cur);
            if p >= cur {
                break;
            }
            len += 1;
            cur = p;
        }
        out.set(lane, len);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_gpu_sim::{DeviceProfile, Gpu};

    fn chain_gpu(n: u32) -> (Gpu, DevicePtr) {
        // parent[i] = i - 1 (vertex 0 is the representative).
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let data: Vec<u32> = (0..n).map(|i| i.saturating_sub(1)).collect();
        let p = gpu.alloc_from(&data);
        (gpu, p)
    }

    #[test]
    fn walk_reaches_root() {
        let (mut gpu, p) = chain_gpu(64);
        gpu.launch_warps("t", 32, |w| {
            let v = w.thread_ids().add_scalar(32);
            let root = warp_walk(w, p, &v, Mask::ALL);
            assert_eq!(root, Lanes::splat(0));
        });
        // Jump3 writes nothing.
        let after = gpu.download(p);
        assert_eq!(after[63], 62);
    }

    #[test]
    fn intermediate_halves_and_finds() {
        let (mut gpu, p) = chain_gpu(64);
        gpu.launch_warps("t", 32, |w| {
            let v = Lanes::splat(63);
            let root = warp_find_intermediate(w, p, &v, Mask(1));
            assert_eq!(root.get(0), 0);
        });
        let after = gpu.download(p);
        // Path from 63 should be roughly halved.
        let mut cur = 63u32;
        let mut len = 0;
        while after[cur as usize] < cur {
            cur = after[cur as usize];
            len += 1;
        }
        assert!(len <= 33, "path length {len} not halved");
    }

    #[test]
    fn multiple_flattens_path() {
        let (mut gpu, p) = chain_gpu(32);
        gpu.launch_warps("t", 32, |w| {
            let v = Lanes::splat(31);
            let root = warp_find(w, p, &v, Mask(1), JumpKind::Multiple);
            assert_eq!(root.get(0), 0);
        });
        let after = gpu.download(p);
        for (i, &a) in after.iter().enumerate().skip(1) {
            assert_eq!(a, 0, "element {i} must point at root");
        }
    }

    #[test]
    fn single_moves_only_start() {
        let (mut gpu, p) = chain_gpu(32);
        gpu.launch_warps("t", 32, |w| {
            let v = Lanes::splat(31);
            let _ = warp_find(w, p, &v, Mask(1), JumpKind::Single);
        });
        let after = gpu.download(p);
        assert_eq!(after[31], 0);
        assert_eq!(after[30], 29, "middle untouched");
    }

    #[test]
    fn hook_links_larger_under_smaller() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let p = gpu.alloc_from(&(0..8u32).collect::<Vec<_>>());
        gpu.launch_warps("t", 32, |w| {
            let (merged, linked) = warp_hook(w, p, &Lanes::splat(6), &Lanes::splat(2), Mask(1));
            assert_eq!(merged.get(0), 2);
            assert_eq!(linked, Mask(1));
        });
        assert_eq!(gpu.download(p)[6], 2);
    }

    #[test]
    fn hook_many_lanes_converges() {
        // All 32 lanes hook rep (lane+1) under rep 0 concurrently — CAS
        // retries must resolve them all into one set.
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let p = gpu.alloc_from(&(0..64u32).collect::<Vec<_>>());
        gpu.launch_warps("t", 32, |w| {
            let u = w.thread_ids().add_scalar(1);
            let v = Lanes::splat(0);
            let _ = warp_hook(w, p, &u, &v, Mask::ALL);
        });
        let after = gpu.download(p);
        for (v, &a) in after.iter().enumerate().take(33).skip(1) {
            assert_eq!(a, 0, "vertex {v}");
        }
    }

    #[test]
    fn probe_lengths_untimed() {
        let (mut gpu, p) = chain_gpu(32);
        gpu.launch_warps("t", 32, |w| {
            let v = w.thread_ids();
            let lens = probe_path_lengths(w, p, &v, Mask::ALL);
            assert_eq!(lens.get(0), 0);
            assert_eq!(lens.get(31), 31);
        });
        // The probe must not generate traffic: only the (empty) kernel
        // overhead should appear.
        let k = &gpu.kernel_stats()[0];
        assert_eq!(k.l2_read_accesses, 0);
        assert_eq!(k.l2_write_accesses, 0);
    }
}
