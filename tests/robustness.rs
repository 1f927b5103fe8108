//! Robustness acceptance tests: fault injection, the certifying checker,
//! kernel watchdogs, and the fallback ladder, working together.
//!
//! The claims pinned here:
//!
//! 1. ECL-CC converges to *certified-correct* labels under every seeded
//!    fault plan — spurious CAS failures, delayed memory, perturbed warp
//!    scheduling, and all three at once. The algorithm's lock-free retry
//!    loops are supposed to absorb exactly these hazards (§3's benign
//!    races); injection makes that claim testable instead of anecdotal.
//! 2. A deliberately broken kernel — hooking without Fig. 6's
//!    `vstat < ostat` guard — is caught by the independent certifying
//!    checker, not by the algorithm's own bookkeeping.
//! 3. An induced livelock is converted by the watchdog into a structured
//!    [`SimError::Watchdog`] instead of hanging the process, and the
//!    fallback ladder then degrades to a CPU backend whose answer is
//!    certified before being returned.

use ecl_cc::gpu::warp_ops::{warp_hook, warp_walk};
use ecl_cc::ladder::{self, Backend, LadderConfig};
use ecl_cc::{EclConfig, EclError};
use ecl_gpu_sim::{DeviceProfile, FaultPlan, Gpu, Lanes, Mask, SimError};
use ecl_graph::{generate, CsrGraph};

fn test_graphs() -> Vec<CsrGraph> {
    vec![
        generate::path(300),
        generate::disjoint_cliques(4, 12),
        generate::gnm_random(400, 1200, 7),
        generate::rmat(8, 8, generate::RmatParams::GALOIS, 11),
        generate::star(500), // exercises the block-granularity kernel
    ]
}

fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("cas-storm", FaultPlan::cas_storm(0xbadca5)),
        ("slow-memory", FaultPlan::slow_memory(0xde1a7)),
        ("scheduler-chaos", FaultPlan::scheduler_chaos(0x5c3d)),
        ("everything", FaultPlan::everything(0xa11)),
    ]
}

// ---------------------------------------------------------------------
// 1. Fault plans: correctness survives, only timing moves.
// ---------------------------------------------------------------------

#[test]
fn ecl_cc_certifies_under_every_fault_plan() {
    let cfg = EclConfig::default();
    for g in &test_graphs() {
        // Fault-free reference labels (already canonical min-IDs).
        let clean = ecl_cc::serial::run(g, &cfg);
        for (name, plan) in fault_plans() {
            let mut gpu = Gpu::new(DeviceProfile::test_tiny());
            gpu.set_fault_plan(plan);
            let (r, _) = ecl_cc::gpu::try_run(&mut gpu, g, &cfg)
                .unwrap_or_else(|e| panic!("plan {name}: {e}"));
            let cert = ecl_verify::certify_canonical(g, &r.labels)
                .unwrap_or_else(|e| panic!("plan {name} produced bad labels: {e}"));
            assert_eq!(cert.num_vertices, g.num_vertices());
            // Min-wins hooking is confluent: faults may reorder the merges
            // but cannot change the answer.
            assert_eq!(r.labels, clean.labels, "plan {name}");
        }
    }
}

#[test]
fn fault_plans_are_deterministic_per_seed() {
    let g = generate::gnm_random(300, 900, 3);
    let cfg = EclConfig::default();
    let run_with = |plan: FaultPlan| {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        gpu.set_fault_plan(plan);
        let (r, s) = ecl_cc::gpu::try_run(&mut gpu, &g, &cfg).unwrap();
        (r.labels, s.total_cycles())
    };
    let (l1, c1) = run_with(FaultPlan::everything(42));
    let (l2, c2) = run_with(FaultPlan::everything(42));
    assert_eq!(l1, l2);
    assert_eq!(c1, c2, "same seed must replay the same injected faults");
    let (_, c3) = run_with(FaultPlan::everything(43));
    // A different seed lands faults elsewhere; cycle counts move.
    assert_ne!(c1, c3, "different seeds should perturb timing");
}

#[test]
fn injected_memory_delays_cost_cycles() {
    let g = generate::gnm_random(400, 1600, 5);
    let cfg = EclConfig::default();
    let cycles = |plan: FaultPlan| {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        gpu.set_fault_plan(plan);
        let (_, s) = ecl_cc::gpu::try_run(&mut gpu, &g, &cfg).unwrap();
        s.total_cycles()
    };
    let clean = cycles(FaultPlan::none());
    let slowed = cycles(FaultPlan::slow_memory(7));
    assert!(
        slowed > clean,
        "delays must show up in timing: {slowed} vs {clean}"
    );
}

// ---------------------------------------------------------------------
// 2. The certifying checker catches a deliberately broken kernel.
// ---------------------------------------------------------------------

/// ECL-CC with the `vstat < ostat` guard removed from hooking: instead of
/// linking the larger representative under the smaller, it links the
/// *smaller under the larger*. Parent pointers then point upward, the
/// walk-based finalize (which only follows decreasing pointers) cannot
/// reach representatives, and components fall apart. The kernel
/// terminates and returns a plausible-looking label array — only the
/// checker can tell it is wrong.
fn broken_gpu_cc(g: &CsrGraph) -> Vec<u32> {
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    let n = g.num_vertices();
    let nu = n as u32;
    let nidx_host: Vec<u32> = g.offsets().iter().map(|&o| o as u32).collect();
    let nidx = gpu.alloc_from(&nidx_host);
    let nlist = gpu.alloc_from(g.adjacency());
    let parent = gpu.alloc_from(&(0..nu).collect::<Vec<u32>>());
    let total = gpu.suggested_threads(n.max(1));
    let stride = total as u32;

    gpu.launch_warps("broken_compute", total, |w| {
        let mut v = w.thread_ids();
        loop {
            let m = w.launch_mask() & v.lt_scalar(nu);
            if m.none() {
                return;
            }
            let beg = w.load(nidx, &v, m);
            let end = w.load(nidx, &v.add_scalar(1), m);
            let mut i = beg;
            let mut e = m & i.lt(&end);
            while e.any() {
                let u = w.load(nlist, &i, e);
                let proc = e & u.lt(&v);
                if proc.any() {
                    let u_rep = warp_walk(w, parent, &u, proc);
                    let v_rep = warp_walk(w, parent, &v, proc);
                    // THE BUG: swap the operands so the guard inside
                    // warp_hook picks the wrong direction — the smaller
                    // representative is hooked under the larger one.
                    let smaller = u_rep.zip(&v_rep, u32::min);
                    let larger = u_rep.zip(&v_rep, u32::max);
                    let differ = proc & smaller.ne_mask(&larger);
                    // An unguarded plain store, exactly what Fig. 6's CAS
                    // guard exists to forbid.
                    w.store(parent, &smaller, &larger, differ);
                }
                i = i.add_scalar(1);
                e &= i.lt(&end);
                w.alu(2);
            }
            v = v.add_scalar(stride);
            w.alu(1);
        }
    });

    gpu.launch_warps("broken_finalize", total, |w| {
        let mut v = w.thread_ids();
        loop {
            let m = w.launch_mask() & v.lt_scalar(nu);
            if m.none() {
                return;
            }
            let root = warp_walk(w, parent, &v, m);
            w.store(parent, &v, &root, m);
            v = v.add_scalar(stride);
            w.alu(1);
        }
    });

    gpu.download(parent)[..n].to_vec()
}

#[test]
fn certifier_catches_hook_without_guard() {
    // A connected graph: correct output is all-zero labels.
    let g = generate::gnm_random(200, 800, 13);
    assert_eq!(ecl_graph::stats::count_components(&g), 1);

    let labels = broken_gpu_cc(&g);
    let err = ecl_verify::certify(&g, &labels)
        .expect_err("checker must reject the unguarded-hook labeling");
    // The witness is concrete: an edge split or a dangling representative.
    let msg = err.to_string();
    assert!(!msg.is_empty());

    // Control: the real kernel on the same graph certifies.
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    let (r, _) = ecl_cc::gpu::try_run(&mut gpu, &g, &EclConfig::default()).unwrap();
    ecl_verify::certify_canonical(&g, &r.labels).unwrap();
}

#[test]
fn certifier_catches_unguarded_cas_direction() {
    // Same bug expressed through warp_hook itself with swapped reps: the
    // hook's internal guard re-derives the direction from its operands,
    // so to simulate the missing guard we bypass it with a raw CAS chain.
    let g = generate::path(64);
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    let n = g.num_vertices() as u32;
    let parent = gpu.alloc_from(&(0..n).collect::<Vec<u32>>());
    gpu.launch_warps("bad_hook", 64, |w| {
        let v = w.thread_ids();
        let m = w.launch_mask() & v.lt_scalar(n) & v.gt(&Lanes::splat(0));
        // Hook v-1 under v: upward links, no guard.
        let prev = v.map(|x| x.wrapping_sub(1));
        let _ = w.atomic_cas(parent, &prev, &prev, &v, m);
        w.alu(1);
    });
    let labels = gpu.download(parent)[..64].to_vec();
    assert!(
        ecl_verify::certify(&g, &labels).is_err(),
        "upward-linked parents must not certify"
    );
    // Sanity: warp_hook with the same operands does respect the guard.
    let mut gpu2 = Gpu::new(DeviceProfile::test_tiny());
    let parent2 = gpu2.alloc_from(&(0..n).collect::<Vec<u32>>());
    gpu2.launch_warps("good_hook", 64, |w| {
        let v = w.thread_ids();
        let m = w.launch_mask() & v.lt_scalar(n) & v.gt(&Lanes::splat(0));
        let prev = v.map(|x| x.wrapping_sub(1));
        let _ = warp_hook(w, parent2, &prev, &v, m);
    });
    let after = gpu2.download(parent2);
    assert!(after.iter().enumerate().all(|(i, &p)| p as usize <= i));
}

// ---------------------------------------------------------------------
// 3. Watchdog: livelock becomes a structured error; the ladder degrades.
// ---------------------------------------------------------------------

#[test]
fn watchdog_converts_livelock_into_structured_error() {
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    let flag = gpu.alloc(1);
    gpu.set_watchdog(Some(50_000));
    // Spin-wait on a flag nothing ever sets: a textbook livelock.
    let err = gpu
        .try_launch_warps("spin_forever", 32, |w| loop {
            let v = w.load(flag, &Lanes::splat(0), Mask(1));
            if v.get(0) != 0 {
                return;
            }
            w.alu(1);
        })
        .expect_err("watchdog must abort the spin");
    match err {
        SimError::Watchdog {
            kernel,
            budget,
            spent,
        } => {
            assert_eq!(kernel, "spin_forever");
            assert_eq!(budget, 50_000);
            assert!(spent > budget, "spent {spent} must exceed budget {budget}");
        }
        other => panic!("expected Watchdog, got {other}"),
    }
    // The device stays usable after the abort.
    gpu.set_watchdog(None);
    gpu.health_probe()
        .expect("device usable after a watchdog abort");
}

#[test]
fn watchdog_spares_healthy_runs() {
    let g = generate::gnm_random(300, 900, 17);
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    // Generous budget: a correct run fits comfortably.
    gpu.set_watchdog(Some(1_000_000_000));
    let (r, _) = ecl_cc::gpu::try_run(&mut gpu, &g, &EclConfig::default()).unwrap();
    ecl_verify::certify_canonical(&g, &r.labels).unwrap();
}

#[test]
fn oob_access_becomes_memory_fault() {
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    let buf = gpu.alloc(4);
    let err = gpu
        .try_launch_warps("oob", 32, |w| {
            let _ = w.load(buf, &Lanes::splat(100), Mask(1));
        })
        .expect_err("out-of-bounds read must be caught");
    assert!(matches!(err, SimError::MemoryFault { .. }), "got {err}");
    gpu.health_probe()
        .expect("device usable after a memory fault");
}

#[test]
fn ladder_degrades_to_certified_cpu_answer_under_starved_watchdog() {
    // Budget too small for *any* GPU kernel: both GPU attempts trip the
    // watchdog, the ladder degrades to the multicore CPU backend, and the
    // returned component count is certified against BFS ground truth.
    let g = generate::disjoint_cliques(5, 20);
    let cfg = LadderConfig {
        watchdog: Some(10),
        ..LadderConfig::default()
    };
    let out = ladder::run_with_fallback(&g, &cfg).unwrap();
    assert_eq!(out.backend, Backend::ParallelCpu);
    assert_eq!(out.certificate.num_components, 5);
    assert_eq!(out.result.num_components(), 5);
    let gpu_failures = out
        .attempts
        .iter()
        .filter(|a| a.backend == Backend::GpuSim)
        .count();
    assert_eq!(gpu_failures, 2, "retry once, then degrade");
}

#[test]
fn oversized_graph_reports_structured_error() {
    // try_run refuses graphs that don't fit 32-bit device indices without
    // allocating anything. Build a fake CSR via from_parts_unchecked? Not
    // possible at u32::MAX scale — instead check the boundary arithmetic
    // through the public error type on a graph we *can* build.
    let g = generate::path(10);
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    // Healthy path: no error.
    assert!(ecl_cc::gpu::try_run(&mut gpu, &g, &EclConfig::default()).is_ok());
    // The error type is constructible and displays its numbers.
    let e = EclError::GraphTooLarge {
        vertices: u32::MAX as usize,
        directed_edges: 0,
    };
    assert!(e.to_string().contains("32-bit"));
}
