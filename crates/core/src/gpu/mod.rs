//! ECL-CC on the simulated GPU — the paper's headline implementation.
//!
//! The five-kernel structure of §3:
//!
//! 1. `init` — thread granularity, grid-stride over vertices; writes each
//!    vertex's starting parent per the configured [`InitKind`].
//! 2. `compute1` — thread granularity; processes vertices of degree ≤ 16
//!    immediately and routes larger ones into the **double-sided
//!    worklist**: medium-degree vertices (17–352) to the front, high-
//!    degree vertices (> 352) to the back, via `atomicAdd` cursors.
//! 3. `compute2` — warp granularity; each warp processes the edge list of
//!    one medium-degree vertex, 32 edges at a time.
//! 4. `compute3` — block granularity; each thread block processes one
//!    high-degree vertex, 256 edges at a time.
//! 5. `finalize` — thread granularity; short-circuits every parent to the
//!    representative per the configured [`FiniKind`].
//!
//! All three compute kernels share the warp-vector `find`/`hook` from
//! [`warp_ops`] (the paper's Figs. 5 and 6).
//!
//! When [`EclConfig::sampling`] is set (neighbor sampling plus the
//! giant-component short-circuit of [`crate::sampling`]) the same kernel
//! bodies run as seven launches, with labels byte-identical:
//!
//! 1. `init` — unchanged.
//! 2. `sample_hook` — thread granularity; every vertex hooks its first
//!    *K* neighbors (no direction filter, no worklist: K is small, so
//!    thread granularity suffices for every degree).
//! 3. `compress` — the `finalize` kernel with [`FiniKind::Single`], so
//!    the host probe reads component labels, not chains.
//! 4. `final_hook_skip` — `compute1` with a skip test: the host downloads
//!    the compressed labels (untimed), estimates the giant root, and
//!    uploads them as a frozen read-only snapshot; every vertex labeled
//!    with the giant root in that snapshot retires its lanes.
//! 5. `compute2` / 6. `compute3` / 7. `finalize` — unchanged.
//!
//! After sampling, the three hooking kernels scan an edge window that
//! starts past the K sampled entries and takes both directions of every
//! edge, because a skipped neighbor never scans the edge back. Reading
//! the frozen snapshot rather than the live parent array keeps the skip
//! set, the reported [`crate::sampling::SampleStats`] and the labels
//! deterministic and identical to the serial and parallel paths.

#[cfg(test)]
mod sampling;
pub mod warp_ops;

use crate::config::{EclConfig, FiniKind, InitKind};
use crate::error::EclError;
use crate::result::CcResult;
use crate::sampling::{estimate_giant, stats_from_snapshot};
use ecl_gpu_sim::{DevicePtr, Gpu, KernelStats, Lanes, Mask, SimError, WarpCtx, LANES};
use ecl_unionfind::concurrent::JumpKind;
use warp_ops::{probe_path_lengths, warp_find, warp_find_intermediate, warp_hook, warp_walk};

/// Accumulated parent-path-length statistics (Table 4) gathered by the
/// untimed probe ahead of every computation-phase find.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathLengthStats {
    /// Sum of sampled path lengths.
    pub sum: u64,
    /// Number of samples (finds).
    pub samples: u64,
    /// Maximum observed path length.
    pub max: u32,
}

impl PathLengthStats {
    /// Average path length over all finds.
    pub fn average(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Serializes the stats as a JSON object (samples, avg, max).
    pub fn to_json(&self) -> String {
        ecl_obs::json::Obj::new()
            .u64("samples", self.samples)
            .f64("avg", self.average())
            .u64("max", self.max as u64)
            .build()
    }

    fn absorb(&mut self, lens: &Lanes, mask: Mask) {
        for lane in mask.iter() {
            let l = lens.get(lane);
            self.sum += l as u64;
            self.samples += 1;
            self.max = self.max.max(l);
        }
    }
}

/// Everything measured during one GPU ECL-CC run.
#[derive(Clone, Debug)]
pub struct GpuRunStats {
    /// Per-kernel stats in launch order: init, compute1, compute2,
    /// compute3, finalize; under sampling init, sample_hook, compress,
    /// final_hook_skip, compute2, compute3, finalize.
    pub kernels: Vec<KernelStats>,
    /// Vertices routed to the warp-granularity kernel.
    pub worklist_mid: usize,
    /// Vertices routed to the block-granularity kernel.
    pub worklist_big: usize,
    /// Path-length statistics, present when
    /// [`EclConfig::record_path_lengths`] was set, with or without sampling.
    pub path_lengths: Option<PathLengthStats>,
    /// Sampling work counters, present when the run used the adaptive
    /// pipeline ([`EclConfig::sampling`]).
    pub sampling: Option<crate::sampling::SampleStats>,
}

impl GpuRunStats {
    /// Total simulated cycles across every launch of the run.
    pub fn total_cycles(&self) -> u64 {
        self.kernels.iter().map(|k| k.cycles).sum()
    }

    /// Sum of L2 read accesses over all kernels.
    pub fn l2_reads(&self) -> u64 {
        self.kernels.iter().map(|k| k.l2_read_accesses).sum()
    }

    /// Sum of L2 write accesses over all kernels.
    pub fn l2_writes(&self) -> u64 {
        self.kernels.iter().map(|k| k.l2_write_accesses).sum()
    }

    /// Stats of the kernel with the given name, if present.
    pub fn kernel(&self, name: &str) -> Option<&KernelStats> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Serializes the whole run — per-kernel stats (via
    /// [`KernelStats::to_json`]), worklist sizes, totals, and path-length
    /// stats when recorded — as one JSON object. This is the single
    /// serialization path shared by `bench --json`, the engine reports,
    /// and the `profile` subcommand.
    pub fn to_json(&self) -> String {
        let kernels: Vec<String> = self.kernels.iter().map(|k| k.to_json()).collect();
        let mut o = ecl_obs::json::Obj::new()
            .arr("kernels", &kernels)
            .u64("worklist_mid", self.worklist_mid as u64)
            .u64("worklist_big", self.worklist_big as u64)
            .u64("total_cycles", self.total_cycles())
            .u64("l2_reads", self.l2_reads())
            .u64("l2_writes", self.l2_writes());
        if let Some(p) = &self.path_lengths {
            o = o.raw("path_lengths", &p.to_json());
        }
        if let Some(s) = &self.sampling {
            o = o.raw("sampling", &s.to_json());
        }
        o.build()
    }
}

/// Runs GPU ECL-CC for `g` on `gpu` under `cfg`; returns the labeling and
/// the run's statistics. The graph is uploaded (untimed) at the start and
/// the labels downloaded (untimed) at the end, matching the paper's
/// measurement protocol ("we assume the graph to already be on the GPU",
/// §4).
pub fn run(gpu: &mut Gpu, g: &ecl_graph::CsrGraph, cfg: &EclConfig) -> (CcResult, GpuRunStats) {
    try_run(gpu, g, cfg).unwrap_or_else(|e| panic!("GPU ECL-CC failed: {e}"))
}

/// Fallible form of [`run`]: oversized graphs, watchdog trips, and device
/// memory faults come back as [`EclError`] instead of panicking. On error
/// the device's memory and counters are in an unspecified state — discard
/// the `Gpu` (or treat it as scratch) and re-run on a fresh device.
pub fn try_run(
    gpu: &mut Gpu,
    g: &ecl_graph::CsrGraph,
    cfg: &EclConfig,
) -> Result<(CcResult, GpuRunStats), EclError> {
    let n = g.num_vertices();
    if g.num_directed_edges() >= u32::MAX as usize || n >= u32::MAX as usize {
        return Err(EclError::GraphTooLarge {
            vertices: n,
            directed_edges: g.num_directed_edges(),
        });
    }
    let kernels_before = gpu.kernel_stats().len();

    // ---- device buffers (uploads are untimed, like a prior memcpy) ----
    let nidx_host: Vec<u32> = g.offsets().iter().map(|&o| o as u32).collect();
    let total = gpu.suggested_threads(n.max(1));
    let d = Dev {
        nidx: gpu.alloc_from(&nidx_host),
        nlist: gpu.alloc_from(g.adjacency()),
        parent: gpu.alloc(n.max(1)),
        wl: gpu.alloc(n.max(1)),
        wlctr: gpu.alloc(2),
        nu: n as u32,
        total,
        stride: total as u32,
    };

    let mut paths = cfg.record_path_lengths.then(PathLengthStats::default);

    init(gpu, d, cfg.init)?;

    let (skip, win, sampling) = match cfg.sampling {
        None => (
            None,
            Window {
                skip: 0,
                lower_only: true,
            },
            None,
        ),
        Some(scfg) => {
            let k = scfg.k.max(1);
            sample_hook(gpu, d, cfg.jump, k as u32, &mut paths)?;
            finalize(gpu, d, "compress", FiniKind::Single)?;
            // Host probe: giant root + frozen skip snapshot. The download
            // is untimed (measurement protocol); the snapshot goes back up
            // as a read-only buffer so the device skip test is
            // deterministic and byte-equal to the CPU paths' accounting.
            let snapshot = download_parents(gpu, d, n);
            let giant = estimate_giant(&snapshot, scfg.probe);
            let stats = stats_from_snapshot(g, k, &snapshot, giant);
            // No vertex ID reaches u32::MAX (size-checked), so it is a
            // safe "skip nothing" sentinel when the probe found no giant.
            let snap = gpu.alloc_from(&snapshot);
            (
                Some((snap, giant.unwrap_or(u32::MAX))),
                Window {
                    skip: k as u32,
                    lower_only: false,
                },
                Some(stats),
            )
        }
    };

    let name = if skip.is_some() {
        "final_hook_skip"
    } else {
        "compute1"
    };
    hook_route(gpu, d, name, cfg, win, skip, &mut paths)?;
    // Worklist sizes become known to the host here (the CUDA code reads
    // them in-kernel; reading them between launches is untimed either way).
    let ctr = gpu.download(d.wlctr);
    let (mid_count, big_count) = (ctr[0], ctr[1]);
    compute2(gpu, d, cfg.jump, win, mid_count, &mut paths)?;
    compute3(gpu, d, cfg.jump, win, big_count, &mut paths)?;
    finalize(gpu, d, "finalize", cfg.fini)?;

    let labels = download_parents(gpu, d, n);
    let stats = GpuRunStats {
        kernels: gpu.kernel_stats()[kernels_before..].to_vec(),
        worklist_mid: mid_count as usize,
        worklist_big: big_count as usize,
        path_lengths: paths,
        sampling,
    };
    Ok((CcResult::new(labels), stats))
}

/// The device buffers and launch geometry every kernel of one run shares.
#[derive(Clone, Copy)]
struct Dev {
    nidx: DevicePtr,
    nlist: DevicePtr,
    parent: DevicePtr,
    wl: DevicePtr,
    wlctr: DevicePtr,
    nu: u32,
    /// Threads of every thread-granularity launch (grid-stride).
    total: usize,
    stride: u32,
}

/// The slice of each adjacency list the three hooking kernels scan.
#[derive(Clone, Copy)]
struct Window {
    /// Leading entries already hooked by `sample_hook` (0 without sampling).
    skip: u32,
    /// Process only the `u < v` direction of each edge. After sampling
    /// both directions are needed: a skipped neighbor never scans the edge
    /// back, so the live endpoint must.
    lower_only: bool,
}

impl Window {
    fn start(self, beg: u32, end: u32) -> u32 {
        beg.saturating_add(self.skip).min(end)
    }

    fn filter(self, e: Mask, u: &Lanes, v: &Lanes) -> Mask {
        if self.lower_only {
            e & u.lt(v)
        } else {
            e
        }
    }
}

/// The path-length accumulator the kernel closures borrow (`None` when
/// [`EclConfig::record_path_lengths`] is off).
type Paths = Option<PathLengthStats>;

/// Untimed probe of the parent-path lengths ahead of a find (Table 4).
fn probe(paths: &mut Paths, w: &WarpCtx, parent: DevicePtr, v: &Lanes, mask: Mask) {
    if let Some(acc) = paths {
        let lens = probe_path_lengths(w, parent, v, mask);
        acc.absorb(&lens, mask);
    }
}

/// Untimed download of the first `n` parents.
fn download_parents(gpu: &Gpu, d: Dev, n: usize) -> Vec<u32> {
    if n == 0 {
        Vec::new()
    } else {
        gpu.download(d.parent)[..n].to_vec()
    }
}

/// Kernel `init`: every vertex's starting parent per `kind`.
fn init(gpu: &mut Gpu, d: Dev, kind: InitKind) -> Result<KernelStats, SimError> {
    gpu.try_launch_warps("init", d.total, move |w| {
        let mut v = w.thread_ids();
        loop {
            let m = w.launch_mask() & v.lt_scalar(d.nu);
            if m.none() {
                return;
            }
            let label = match kind {
                InitKind::VertexId => v,
                InitKind::MinNeighbor | InitKind::FirstSmaller => {
                    let beg = w.load(d.nidx, &v, m);
                    let end = w.load(d.nidx, &v.add_scalar(1), m);
                    let mut label = v;
                    let mut i = beg;
                    let mut scan = m & i.lt(&end);
                    while scan.any() {
                        let nb = w.load(d.nlist, &i, scan);
                        match kind {
                            InitKind::MinNeighbor => {
                                let less = scan & nb.lt(&label);
                                label.assign_masked(&nb, less);
                            }
                            _ => {
                                // First neighbor smaller than v: record it
                                // and retire the lane.
                                let found = scan & nb.lt(&v);
                                label.assign_masked(&nb, found);
                                scan &= !found;
                            }
                        }
                        i = i.add_scalar(1);
                        scan &= i.lt(&end);
                        w.alu(2);
                    }
                    label
                }
            };
            w.store(d.parent, &v, &label, m);
            v = v.add_scalar(d.stride);
            w.alu(1);
        }
    })
}

/// Kernel `sample_hook`: the first `k` adjacency entries of every vertex,
/// hooked min-wins in both directions. K is bounded and small, so there
/// is no degree routing here.
fn sample_hook(
    gpu: &mut Gpu,
    d: Dev,
    jump: JumpKind,
    k: u32,
    paths: &mut Paths,
) -> Result<KernelStats, SimError> {
    gpu.try_launch_warps("sample_hook", d.total, move |w| {
        let mut v = w.thread_ids();
        loop {
            let m = w.launch_mask() & v.lt_scalar(d.nu);
            if m.none() {
                return;
            }
            let beg = w.load(d.nidx, &v, m);
            let end = w.load(d.nidx, &v.add_scalar(1), m);
            let stop = beg.zip(&end, |b, e| b.saturating_add(k).min(e));
            w.alu(2);
            probe(paths, w, d.parent, &v, m);
            let mut v_rep = warp_find(w, d.parent, &v, m, jump);
            let mut i = beg;
            let mut e = m & i.lt(&stop);
            while e.any() {
                let u = w.load(d.nlist, &i, e);
                probe(paths, w, d.parent, &u, e);
                let u_rep = warp_find(w, d.parent, &u, e, jump);
                let (merged, _) = warp_hook(w, d.parent, &u_rep, &v_rep, e);
                v_rep.assign_masked(&merged, e);
                i = i.add_scalar(1);
                e &= i.lt(&stop);
                w.alu(2);
            }
            v = v.add_scalar(d.stride);
            w.alu(1);
        }
    })
}

/// Kernel `compute1` (thread granularity): hooks the window of every
/// low-degree vertex and routes the rest to the double-sided worklist by
/// window size. With `skip = Some((snapshot, giant))` it runs as
/// `final_hook_skip`: vertices labeled `giant` in the frozen snapshot are
/// provably connected to it already and retire their lanes.
fn hook_route(
    gpu: &mut Gpu,
    d: Dev,
    name: &str,
    cfg: &EclConfig,
    win: Window,
    skip: Option<(DevicePtr, u32)>,
    paths: &mut Paths,
) -> Result<KernelStats, SimError> {
    let jump = cfg.jump;
    let warp_thresh = Lanes::splat(cfg.warp_threshold as u32);
    let block_thresh = Lanes::splat(cfg.block_threshold as u32);
    gpu.try_launch_warps(name, d.total, move |w| {
        let mut v = w.thread_ids();
        loop {
            let m = w.launch_mask() & v.lt_scalar(d.nu);
            if m.none() {
                return;
            }
            let live = match skip {
                Some((snap, giant)) => {
                    let label = w.load(snap, &v, m);
                    w.alu(1);
                    m & label.ne_mask(&Lanes::splat(giant))
                }
                None => m,
            };
            if live.any() {
                let beg = w.load(d.nidx, &v, live);
                let end = w.load(d.nidx, &v.add_scalar(1), live);
                let start = beg.zip(&end, |b, e| win.start(b, e));
                let deg = end.zip(&start, u32::wrapping_sub);
                w.alu(2);

                // Route medium-degree vertices to the worklist front.
                let mid = live & deg.gt(&warp_thresh) & deg.le(&block_thresh);
                if mid.any() {
                    let slot = w.atomic_add(d.wlctr, &Lanes::splat(0), &Lanes::splat(1), mid);
                    w.store(d.wl, &slot, &v, mid);
                }
                // Route high-degree vertices to the worklist back.
                let big = live & deg.gt(&block_thresh);
                if big.any() {
                    let taken = w.atomic_add(d.wlctr, &Lanes::splat(1), &Lanes::splat(1), big);
                    let slot = taken.map(|t| d.nu - 1 - t);
                    w.store(d.wl, &slot, &v, big);
                }

                // Process low-degree vertices immediately.
                let small = live & deg.le(&warp_thresh);
                if small.any() {
                    probe(paths, w, d.parent, &v, small);
                    let mut v_rep = warp_find(w, d.parent, &v, small, jump);
                    let mut i = start;
                    let mut e = small & i.lt(&end);
                    while e.any() {
                        let u = w.load(d.nlist, &i, e);
                        let proc = win.filter(e, &u, &v);
                        if proc.any() {
                            probe(paths, w, d.parent, &u, proc);
                            let u_rep = warp_find(w, d.parent, &u, proc, jump);
                            let (merged, _) = warp_hook(w, d.parent, &u_rep, &v_rep, proc);
                            v_rep.assign_masked(&merged, proc);
                        }
                        i = i.add_scalar(1);
                        e &= i.lt(&end);
                        w.alu(2);
                    }
                }
            }
            v = v.add_scalar(d.stride);
            w.alu(1);
        }
    })
}

/// Kernel `compute2` (warp granularity): each warp hooks the window of
/// one medium-degree worklist vertex, 32 edges at a time.
fn compute2(
    gpu: &mut Gpu,
    d: Dev,
    jump: JumpKind,
    win: Window,
    mid_count: u32,
    paths: &mut Paths,
) -> Result<KernelStats, SimError> {
    gpu.try_launch_warps("compute2", d.total, move |w| {
        let num_warps = (w.total_threads() as usize / LANES) as u32;
        let mut wi = w.thread_ids().get(0) / LANES as u32;
        while wi < mid_count {
            let v = w.load_uniform(d.wl, wi);
            let beg = w.load_uniform(d.nidx, v);
            let end = w.load_uniform(d.nidx, v + 1);
            let vv = Lanes::splat(v);
            probe(paths, w, d.parent, &vv, Mask(1));
            let v_rep0 = warp_find(w, d.parent, &vv, Mask(1), jump).get(0);
            let mut v_rep = Lanes::splat(v_rep0);
            let mut base = win.start(beg, end);
            while base < end {
                let idx = Lanes::iota(base, 1);
                let m = idx.lt_scalar(end);
                let u = w.load(d.nlist, &idx, m);
                let proc = win.filter(m, &u, &vv);
                if proc.any() {
                    probe(paths, w, d.parent, &u, proc);
                    let u_rep = warp_find(w, d.parent, &u, proc, jump);
                    let (merged, _) = warp_hook(w, d.parent, &u_rep, &v_rep, proc);
                    v_rep.assign_masked(&merged, proc);
                }
                base += LANES as u32;
                w.alu(2);
            }
            wi += num_warps;
            w.alu(1);
        }
    })
}

/// Kernel `compute3` (block granularity): each block hooks the window of
/// one high-degree worklist vertex, a block's threads of edges at a time.
fn compute3(
    gpu: &mut Gpu,
    d: Dev,
    jump: JumpKind,
    win: Window,
    big_count: u32,
    paths: &mut Paths,
) -> Result<KernelStats, SimError> {
    let nblocks = (gpu.profile().num_sms * 4).max(1);
    let tpb = gpu.profile().threads_per_block as u32;
    gpu.try_launch_blocks("compute3", nblocks, move |b| {
        let mut j = b.block_idx() as u32;
        let step = b.num_blocks() as u32;
        while j < big_count {
            let v = b.load_uniform(d.wl, d.nu - 1 - j);
            let beg = b.load_uniform(d.nidx, v);
            let end = b.load_uniform(d.nidx, v + 1);
            b.for_each_warp(|w| {
                let warp_in_block = (w.thread_ids().get(0) % tpb) / LANES as u32;
                let vv = Lanes::splat(v);
                if warp_in_block == 0 {
                    probe(paths, w, d.parent, &vv, Mask(1));
                }
                let v_rep0 = warp_find(w, d.parent, &vv, Mask(1), jump).get(0);
                let mut v_rep = Lanes::splat(v_rep0);
                let mut base = win.start(beg, end) + warp_in_block * LANES as u32;
                while base < end {
                    let idx = Lanes::iota(base, 1);
                    let m = idx.lt_scalar(end);
                    let u = w.load(d.nlist, &idx, m);
                    let proc = win.filter(m, &u, &vv);
                    if proc.any() {
                        probe(paths, w, d.parent, &u, proc);
                        let u_rep = warp_find(w, d.parent, &u, proc, jump);
                        let (merged, _) = warp_hook(w, d.parent, &u_rep, &v_rep, proc);
                        v_rep.assign_masked(&merged, proc);
                    }
                    base += tpb;
                    w.alu(2);
                }
            });
            j += step;
        }
    })
}

/// Kernel `finalize` (and, with [`FiniKind::Single`], the sampling
/// pipeline's `compress`): short-circuits every parent to its
/// representative.
fn finalize(gpu: &mut Gpu, d: Dev, name: &str, fini: FiniKind) -> Result<KernelStats, SimError> {
    gpu.try_launch_warps(name, d.total, move |w| {
        let mut v = w.thread_ids();
        loop {
            let m = w.launch_mask() & v.lt_scalar(d.nu);
            if m.none() {
                return;
            }
            match fini {
                FiniKind::Single => {
                    let root = warp_walk(w, d.parent, &v, m);
                    let moved = m & root.ne_mask(&v);
                    w.store(d.parent, &v, &root, moved);
                }
                FiniKind::Intermediate => {
                    let root = warp_find_intermediate(w, d.parent, &v, m);
                    let moved = m & root.ne_mask(&v);
                    w.store(d.parent, &v, &root, moved);
                }
                FiniKind::Multiple => {
                    let _ = warp_find(w, d.parent, &v, m, JumpKind::Multiple);
                }
            }
            v = v.add_scalar(d.stride);
            w.alu(1);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_gpu_sim::DeviceProfile;
    use ecl_graph::generate;

    fn run_on(g: &ecl_graph::CsrGraph, cfg: &EclConfig) -> (CcResult, GpuRunStats) {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        run(&mut gpu, g, cfg)
    }

    fn check(g: &ecl_graph::CsrGraph, cfg: &EclConfig) -> GpuRunStats {
        let (r, s) = run_on(g, cfg);
        r.verify(g).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        for (v, &l) in r.labels.iter().enumerate() {
            assert_eq!(r.labels[l as usize], l, "vertex {v} label not a root");
        }
        s
    }

    #[test]
    fn basic_shapes_verify() {
        let cfg = EclConfig::default();
        check(&generate::path(200), &cfg);
        check(&generate::cycle(100), &cfg);
        check(&generate::disjoint_cliques(4, 8), &cfg);
        check(&generate::grid2d(12, 12), &cfg);
    }

    #[test]
    fn empty_and_singleton() {
        let cfg = EclConfig::default();
        let (r, _) = run_on(&ecl_graph::GraphBuilder::new(0).build(), &cfg);
        assert!(r.labels.is_empty());
        let (r, _) = run_on(&ecl_graph::GraphBuilder::new(3).build(), &cfg);
        assert_eq!(r.labels, vec![0, 1, 2]);
    }

    #[test]
    fn five_kernels_in_order() {
        let s = check(&generate::gnm_random(300, 900, 1), &EclConfig::default());
        let names: Vec<_> = s.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(
            names,
            ["init", "compute1", "compute2", "compute3", "finalize"]
        );
    }

    #[test]
    fn star_routes_to_block_kernel() {
        // Star center has degree 999 > 352 → worklist back; leaves are
        // degree 1 → handled by compute1.
        let s = check(&generate::star(1000), &EclConfig::default());
        assert_eq!(s.worklist_big, 1);
        assert_eq!(s.worklist_mid, 0);
        // compute3 must have done real work.
        assert!(s.kernel("compute3").unwrap().l2_read_accesses > 0);
    }

    #[test]
    fn medium_degrees_route_to_warp_kernel() {
        // Complete graph K64: every vertex degree 63 ∈ (16, 352].
        let s = check(&generate::complete(64), &EclConfig::default());
        assert_eq!(s.worklist_mid, 64);
        assert_eq!(s.worklist_big, 0);
    }

    #[test]
    fn all_variants_verify_on_random_graph() {
        let g = generate::rmat(9, 8, generate::RmatParams::GALOIS, 3);
        for init in [
            InitKind::VertexId,
            InitKind::MinNeighbor,
            InitKind::FirstSmaller,
        ] {
            check(&g, &EclConfig::with_init(init));
        }
        for jump in JumpKind::ALL {
            check(&g, &EclConfig::with_jump(jump));
        }
        for fini in [FiniKind::Intermediate, FiniKind::Multiple, FiniKind::Single] {
            check(&g, &EclConfig::with_fini(fini));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generate::kronecker(9, 8, 4);
        let (r1, s1) = run_on(&g, &EclConfig::default());
        let (r2, s2) = run_on(&g, &EclConfig::default());
        assert_eq!(r1.labels, r2.labels);
        assert_eq!(s1.total_cycles(), s2.total_cycles());
    }

    #[test]
    fn path_probe_collects_samples() {
        let g = generate::gnm_random(400, 1200, 7);
        let cfg = EclConfig {
            record_path_lengths: true,
            ..EclConfig::default()
        };
        let s = check(&g, &cfg);
        let p = s.path_lengths.unwrap();
        assert!(p.samples > 0);
        assert!(p.average() >= 0.0);
        // Paths during computation are short thanks to halving.
        assert!(p.max < 64, "max path {}", p.max);
    }

    #[test]
    fn no_jump_does_more_l2_reads_than_intermediate() {
        // The core claim behind Fig. 8 / Table 3, in miniature.
        let g = generate::road_network(40, 40, 0.2, 1.0, 9);
        let s_none = check(&g, &EclConfig::with_jump(JumpKind::None));
        let s_int = check(&g, &EclConfig::with_jump(JumpKind::Intermediate));
        assert!(
            s_none.l2_reads() > s_int.l2_reads(),
            "none {} vs intermediate {}",
            s_none.l2_reads(),
            s_int.l2_reads()
        );
    }

    #[test]
    fn matches_serial_labels_exactly() {
        // Min-wins hooking makes labels (not just partitions) canonical.
        let g = generate::gnm_random(500, 1500, 11);
        let (r, _) = run_on(&g, &EclConfig::default());
        let serial = crate::serial::run(&g, &EclConfig::default());
        assert_eq!(r.labels, serial.labels);
    }

    #[test]
    fn custom_thresholds_respected() {
        let cfg = EclConfig {
            warp_threshold: 2,
            block_threshold: 5,
            ..EclConfig::default()
        };
        // Path graph: interior degree 2 ≤ 2 → all compute1.
        let s = check(&generate::path(100), &cfg);
        assert_eq!(s.worklist_mid + s.worklist_big, 0);
        // Star(8): center degree 7 > 5 → block kernel.
        let s = check(&generate::star(8), &cfg);
        assert_eq!(s.worklist_big, 1);
    }
}
