//! Borůvka's algorithm on the SIMT simulator — the GPU union-find client
//! the paper's conclusion predicts intermediate pointer jumping will
//! accelerate. The find inside every kernel is the warp-vector Fig. 5
//! path halving from `ecl-cc` (configurable, so the prediction can be
//! tested by swapping in the other jump variants).
//!
//! Device rounds:
//! 1. `bv_reset`  — clear each component's best-weight / best-edge cells,
//! 2. `bv_bid_w`  — every live edge `atomicMin`s its weight into both
//!    endpoint components' best-weight cells,
//! 3. `bv_bid_e`  — edges matching their component's winning weight CAS
//!    themselves into the best-edge cell (deterministic tie-break),
//! 4. `bv_hook`   — each component hooks its winning edge's endpoints and
//!    marks the edge as part of the forest,
//! 5. `bv_flatten`— multiple pointer jumping keeps subsequent finds short.
//!
//! Rounds repeat until no component hooks (at most `log2 n` rounds).

use crate::weights::weighted_edges;
use crate::Forest;
use ecl_cc::gpu::warp_ops::{warp_find, warp_hook};
use ecl_gpu_sim::{Gpu, Lanes};
use ecl_graph::CsrGraph;
use ecl_unionfind::concurrent::JumpKind;

const NO_EDGE: u32 = u32::MAX;
const NO_WEIGHT: u32 = u32::MAX;

/// Minimum spanning forest by Borůvka on the simulated GPU, using the
/// given pointer-jumping variant inside every find.
pub fn run(gpu: &mut Gpu, g: &CsrGraph, jump: JumpKind) -> Forest {
    let n = g.num_vertices();
    let host_edges = weighted_edges(g);
    let m = host_edges.len();
    if n == 0 || m == 0 {
        return Forest {
            edges: Vec::new(),
            total_weight: 0,
        };
    }

    let src = gpu.alloc_from(&host_edges.iter().map(|e| e.0).collect::<Vec<_>>());
    let dst = gpu.alloc_from(&host_edges.iter().map(|e| e.1).collect::<Vec<_>>());
    let wgt = gpu.alloc_from(&host_edges.iter().map(|e| e.2).collect::<Vec<_>>());
    let parent = gpu.alloc_from(&(0..n as u32).collect::<Vec<_>>());
    let best_w = gpu.alloc(n);
    let best_e = gpu.alloc(n);
    let picked = gpu.alloc(m);
    let merged = gpu.alloc(1);

    let nu = n as u32;
    let mu = m as u32;
    let total_v = gpu.suggested_threads(n);
    let total_e = gpu.suggested_threads(m);
    let stride_v = total_v as u32;
    let stride_e = total_e as u32;

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        assert!(rounds <= 64, "GPU Boruvka exceeded log2(n) rounds");
        gpu.upload(merged, &[0]);

        gpu.launch_warps("bv_reset", total_v, |w| {
            let mut v = w.thread_ids();
            loop {
                let m_act = w.launch_mask() & v.lt_scalar(nu);
                if m_act.none() {
                    return;
                }
                w.store(best_w, &v, &Lanes::splat(NO_WEIGHT), m_act);
                w.store(best_e, &v, &Lanes::splat(NO_EDGE), m_act);
                v = v.add_scalar(stride_v);
                w.alu(1);
            }
        });

        gpu.launch_warps("bv_bid_w", total_e, |w| {
            let mut e = w.thread_ids();
            loop {
                let m_act = w.launch_mask() & e.lt_scalar(mu);
                if m_act.none() {
                    return;
                }
                let u = w.load(src, &e, m_act);
                let v = w.load(dst, &e, m_act);
                let ru = warp_find(w, parent, &u, m_act, jump);
                let rv = warp_find(w, parent, &v, m_act, jump);
                let live = m_act & ru.ne_mask(&rv);
                if live.any() {
                    let wt = w.load(wgt, &e, live);
                    let _ = w.atomic_min(best_w, &ru, &wt, live);
                    let _ = w.atomic_min(best_w, &rv, &wt, live);
                }
                e = e.add_scalar(stride_e);
                w.alu(2);
            }
        });

        gpu.launch_warps("bv_bid_e", total_e, |w| {
            let mut e = w.thread_ids();
            loop {
                let m_act = w.launch_mask() & e.lt_scalar(mu);
                if m_act.none() {
                    return;
                }
                let u = w.load(src, &e, m_act);
                let v = w.load(dst, &e, m_act);
                let ru = warp_find(w, parent, &u, m_act, jump);
                let rv = warp_find(w, parent, &v, m_act, jump);
                let live = m_act & ru.ne_mask(&rv);
                if live.any() {
                    let wt = w.load(wgt, &e, live);
                    // Claim the best-edge slot of any component whose
                    // winning weight this edge matches (first CAS wins —
                    // deterministic under the simulator's lane order).
                    for reps in [&ru, &rv] {
                        let bw = w.load(best_w, reps, live);
                        let is_min = live & bw.eq_mask(&wt);
                        if is_min.any() {
                            let _ = w.atomic_cas(best_e, reps, &Lanes::splat(NO_EDGE), &e, is_min);
                        }
                    }
                }
                e = e.add_scalar(stride_e);
                w.alu(2);
            }
        });

        gpu.launch_warps("bv_hook", total_v, |w| {
            let mut r = w.thread_ids();
            loop {
                let m_act = w.launch_mask() & r.lt_scalar(nu);
                if m_act.none() {
                    return;
                }
                let e = w.load(best_e, &r, m_act);
                let has = m_act & e.ne_mask(&Lanes::splat(NO_EDGE));
                if has.any() {
                    let u = w.load(src, &e, has);
                    let v = w.load(dst, &e, has);
                    let ru = warp_find(w, parent, &u, has, jump);
                    let rv = warp_find(w, parent, &v, has, jump);
                    let live = has & ru.ne_mask(&rv);
                    if live.any() {
                        // Claim edges only where *this lane's* CAS linked:
                        // under weight ties, two roots can nominate
                        // distinct edges bridging the same pair of
                        // components, and only the lane that merged them
                        // may put its edge in the forest.
                        let (_, linked) = warp_hook(w, parent, &ru, &rv, live);
                        w.store(picked, &e, &Lanes::splat(1), linked);
                        w.store(merged, &Lanes::splat(0), &Lanes::splat(1), linked);
                    }
                }
                r = r.add_scalar(stride_v);
                w.alu(1);
            }
        });

        gpu.launch_warps("bv_flatten", total_v, |w| {
            let mut v = w.thread_ids();
            loop {
                let m_act = w.launch_mask() & v.lt_scalar(nu);
                if m_act.none() {
                    return;
                }
                let _ = warp_find(w, parent, &v, m_act, JumpKind::Multiple);
                v = v.add_scalar(stride_v);
                w.alu(1);
            }
        });

        if gpu.download(merged)[0] == 0 {
            break;
        }
    }

    let picked_host = gpu.download(picked);
    let mut forest = Vec::new();
    let mut total = 0u64;
    for (i, &p) in picked_host.iter().enumerate() {
        if p == 1 {
            let (u, v, w) = host_edges[i];
            forest.push((u, v));
            total += w as u64;
        }
    }
    forest.sort_unstable();
    Forest {
        edges: forest,
        total_weight: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal;
    use ecl_gpu_sim::DeviceProfile;
    use ecl_graph::generate;

    fn check(g: &CsrGraph) {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let f = run(&mut gpu, g, JumpKind::Intermediate);
        f.validate(g).unwrap();
        let k = kruskal::run(g, JumpKind::Intermediate);
        assert_eq!(f.total_weight, k.total_weight, "weight mismatch");
        assert_eq!(f.edges.len(), k.edges.len());
    }

    #[test]
    fn matches_kruskal_on_varied_graphs() {
        check(&generate::path(100));
        check(&generate::complete(16));
        check(&generate::disjoint_cliques(4, 6));
        check(&generate::grid2d(10, 10));
        check(&generate::gnm_random(200, 500, 5));
    }

    #[test]
    fn all_jump_variants_agree() {
        let g = generate::gnm_random(150, 400, 6);
        let k = kruskal::run(&g, JumpKind::Intermediate);
        for jump in JumpKind::ALL {
            let mut gpu = Gpu::new(DeviceProfile::test_tiny());
            let f = run(&mut gpu, &g, jump);
            f.validate(&g).unwrap();
            assert_eq!(f.total_weight, k.total_weight, "{jump:?}");
        }
    }

    #[test]
    fn empty_inputs() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let f = run(
            &mut gpu,
            &ecl_graph::GraphBuilder::new(0).build(),
            JumpKind::Intermediate,
        );
        assert!(f.edges.is_empty());
        let f = run(
            &mut gpu,
            &ecl_graph::GraphBuilder::new(8).build(),
            JumpKind::Intermediate,
        );
        assert!(f.edges.is_empty());
    }
}
