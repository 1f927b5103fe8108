//! Warp- and block-level execution contexts.
//!
//! A [`WarpCtx`] is the view a kernel has of one warp: 32 lanes executing
//! in lockstep. Every memory operation takes the active-lane mask, runs the
//! coalescer, charges cycles to the warp's SM, and updates the cache
//! models. A [`BlockCtx`] groups the warps of one thread block for
//! block-granularity kernels (the paper's third compute kernel).
//!
//! Both contexts are built on an [`SmView`]: the slice of device state one
//! simulated SM may touch while executing a warp — its private L1 and
//! cycle counter, plus the device's memory, L2 and the launch's counter
//! record, all borrowed mutably out of the [`crate::Gpu`] for the
//! duration of one warp or block.

use crate::cache::{Cache, Lookup};
use crate::device::KernelStats;
use crate::error::WatchdogAbort;
use crate::fault::{FaultPlan, FaultRng};
use crate::lanes::{Lanes, Mask};
use crate::mem::{DevicePtr, GlobalMemory};
use crate::profile::DeviceProfile;
use crate::LANES;

/// Everything one SM needs to execute a warp: the device's memory, L2
/// and counter record and the SM's own state by mutable reference, the
/// profile by shared reference.
pub(crate) struct SmView<'a> {
    pub(crate) mem: &'a mut GlobalMemory,
    pub(crate) l2: &'a mut Cache,
    pub(crate) l1: &'a mut Cache,
    pub(crate) cycles: &'a mut u64,
    pub(crate) launch_start: u64,
    pub(crate) watchdog: Option<u64>,
    pub(crate) counters: &'a mut KernelStats,
    pub(crate) fault: FaultPlan,
    pub(crate) rng: &'a mut FaultRng,
    pub(crate) profile: &'a DeviceProfile,
    pub(crate) sm: usize,
}

impl SmView<'_> {
    /// A shorter-lived view over the same SM (for nesting contexts).
    pub(crate) fn reborrow(&mut self) -> SmView<'_> {
        SmView {
            mem: &mut *self.mem,
            l2: &mut *self.l2,
            l1: &mut *self.l1,
            cycles: &mut *self.cycles,
            launch_start: self.launch_start,
            watchdog: self.watchdog,
            counters: &mut *self.counters,
            fault: self.fault,
            rng: &mut *self.rng,
            profile: self.profile,
            sm: self.sm,
        }
    }

    /// Adds `cycles` to this SM's busy counter, aborting the launch when an
    /// armed watchdog's budget is exhausted. Every cycle-charging site in
    /// the warp context funnels through here, so a livelocked kernel trips
    /// the watchdog no matter which operation it spins on.
    #[inline]
    pub(crate) fn charge(&mut self, cycles: u64) {
        *self.cycles += cycles;
        if let Some(budget) = self.watchdog {
            let spent = *self.cycles - self.launch_start;
            if spent > budget {
                std::panic::panic_any(WatchdogAbort { budget, spent });
            }
        }
    }
}

/// Execution context of one warp.
pub struct WarpCtx<'a> {
    view: SmView<'a>,
    base_gid: u32,
    total_threads: u32,
    launch_mask: Mask,
}

impl<'a> WarpCtx<'a> {
    pub(crate) fn new(
        view: SmView<'a>,
        base_gid: u32,
        total_threads: u32,
        launch_mask: Mask,
    ) -> Self {
        WarpCtx {
            view,
            base_gid,
            total_threads,
            launch_mask,
        }
    }

    /// Global thread ID per lane (`base + lane`).
    #[inline]
    pub fn thread_ids(&self) -> Lanes {
        Lanes::iota(self.base_gid, 1)
    }

    /// Lanes that correspond to launched threads (the tail warp of a
    /// launch may be partial).
    #[inline]
    pub fn launch_mask(&self) -> Mask {
        self.launch_mask
    }

    /// Total threads in the launch (the grid-stride step).
    #[inline]
    pub fn total_threads(&self) -> u32 {
        self.total_threads
    }

    /// SM this warp is resident on.
    #[inline]
    pub fn sm(&self) -> usize {
        self.view.sm
    }

    /// Charges `n` warp ALU instructions.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        let cost = n * self.view.profile.alu_cycles;
        self.view.charge(cost);
        self.view.counters.instructions += n;
        self.view.counters.alu_cycles += cost;
    }

    /// Divergence bookkeeping for one masked warp instruction. Pure
    /// counting — no cycles, no cache traffic, no RNG draws — so the
    /// golden serial timing record is unaffected.
    #[inline]
    fn note_mask(&mut self, mask: Mask) {
        let c = &mut *self.view.counters;
        c.mask_ops += 1;
        c.active_lanes += mask.count() as u64;
        if mask == Mask::ALL {
            c.full_mask_ops += 1;
        }
    }

    /// Gathers `ptr[idx[lane]]` for every active lane. Inactive lanes
    /// return 0. Addresses are coalesced into sector transactions.
    pub fn load(&mut self, ptr: DevicePtr, idx: &Lanes, mask: Mask) -> Lanes {
        let mut out = Lanes::default();
        if mask.none() {
            return out;
        }
        self.note_mask(mask);
        self.issue_transactions(ptr, idx, mask, false);
        if mask == Mask::ALL {
            // Full-mask fast path: the common converged case walks the
            // fixed lane array directly instead of bit-scanning the mask.
            for lane in 0..LANES {
                out.0[lane] = self.view.mem.read(ptr, idx.0[lane] as usize);
            }
        } else {
            for lane in mask.iter() {
                out.set(lane, self.view.mem.read(ptr, idx.get(lane) as usize));
            }
        }
        self.view.counters.instructions += 1;
        out
    }

    /// Scatters `vals[lane]` to `ptr[idx[lane]]` for every active lane.
    /// When several lanes target the same element, the highest lane wins
    /// (CUDA leaves the winner unspecified; fixing it keeps the simulator
    /// deterministic).
    pub fn store(&mut self, ptr: DevicePtr, idx: &Lanes, vals: &Lanes, mask: Mask) {
        if mask.none() {
            return;
        }
        self.note_mask(mask);
        self.issue_transactions(ptr, idx, mask, true);
        if mask == Mask::ALL {
            // Full-mask fast path (see `load`).
            for lane in 0..LANES {
                self.view.mem.write(ptr, idx.0[lane] as usize, vals.0[lane]);
            }
        } else {
            for lane in mask.iter() {
                self.view
                    .mem
                    .write(ptr, idx.get(lane) as usize, vals.get(lane));
            }
        }
        self.view.counters.instructions += 1;
    }

    /// Warp-uniform load of a single element (one transaction, value
    /// broadcast to the caller).
    pub fn load_uniform(&mut self, ptr: DevicePtr, idx: u32) -> u32 {
        let lanes = Lanes::splat(idx);
        self.note_mask(Mask(1));
        self.issue_transactions(ptr, &lanes, Mask(1), false);
        self.view.counters.instructions += 1;
        self.view.mem.read(ptr, idx as usize)
    }

    /// Per-lane `atomicCAS(&ptr[idx], cmp, new)`, serialized in lane order
    /// (resolved at the L2, as on hardware). Returns the old value each
    /// lane observed.
    pub fn atomic_cas(
        &mut self,
        ptr: DevicePtr,
        idx: &Lanes,
        cmp: &Lanes,
        new: &Lanes,
        mask: Mask,
    ) -> Lanes {
        let mut out = Lanes::default();
        if mask.any() {
            self.note_mask(mask);
        }
        let cas_fault = self.view.fault.cas_spurious_permille;
        let mut cost = 0;
        if cas_fault == 0 {
            // Fault-free fast path: no injection branch and no RNG access
            // inside the per-lane loop. Draw-free, exactly like the
            // short-circuited `cas_fault > 0 && …` condition, so fault-plan
            // RNG streams (and therefore all goldens) are unchanged.
            for lane in mask.iter() {
                let i = idx.get(lane) as usize;
                let cmpv = cmp.get(lane);
                let old = self.view.mem.cas(ptr, i, cmpv, new.get(lane));
                out.set(lane, old);
                self.view.counters.cas_attempts += 1;
                self.view.counters.cas_failures += (old != cmpv) as u64;
                cost += self.atomic_transaction(ptr, idx.get(lane));
            }
        } else {
            for lane in mask.iter() {
                let i = idx.get(lane) as usize;
                let cmpv = cmp.get(lane);
                let newv = new.get(lane);
                let old = self.view.mem.cas(ptr, i, cmpv, newv);
                if old == cmpv {
                    // Spurious-contention injection: the update lands, but the
                    // lane observes the post-write value — the exact state it
                    // would see had an identical-intent competitor won the race
                    // one atomic earlier. Memory and the returned "old" value
                    // stay mutually consistent, and the caller's retry path
                    // runs.
                    if newv != cmpv && self.view.rng.chance(cas_fault) {
                        out.set(lane, newv);
                    } else {
                        out.set(lane, old);
                    }
                } else {
                    out.set(lane, old);
                }
                // Contention bookkeeping: a lane "failed" when the value it
                // observed differs from its comparand (lost races and injected
                // spurious failures alike — both send the caller around its
                // retry loop).
                self.view.counters.cas_attempts += 1;
                if out.get(lane) != cmpv {
                    self.view.counters.cas_failures += 1;
                }
                cost += self.atomic_transaction(ptr, idx.get(lane));
            }
        }
        self.view.charge(cost);
        self.view.counters.instructions += 1;
        out
    }

    /// Per-lane `atomicAdd(&ptr[idx], val)`, serialized in lane order.
    /// Returns the pre-add value each lane observed.
    pub fn atomic_add(&mut self, ptr: DevicePtr, idx: &Lanes, val: &Lanes, mask: Mask) -> Lanes {
        let mut out = Lanes::default();
        if mask.any() {
            self.note_mask(mask);
        }
        let mut cost = 0;
        for lane in mask.iter() {
            let i = idx.get(lane) as usize;
            out.set(lane, self.view.mem.fetch_add(ptr, i, val.get(lane)));
            cost += self.atomic_transaction(ptr, idx.get(lane));
        }
        self.view.charge(cost);
        self.view.counters.instructions += 1;
        out
    }

    /// Per-lane `atomicMin(&ptr[idx], val)`; returns pre-min values.
    pub fn atomic_min(&mut self, ptr: DevicePtr, idx: &Lanes, val: &Lanes, mask: Mask) -> Lanes {
        let mut out = Lanes::default();
        if mask.any() {
            self.note_mask(mask);
        }
        let mut cost = 0;
        for lane in mask.iter() {
            let i = idx.get(lane) as usize;
            out.set(lane, self.view.mem.fetch_min(ptr, i, val.get(lane)));
            cost += self.atomic_transaction(ptr, idx.get(lane));
        }
        self.view.charge(cost);
        self.view.counters.instructions += 1;
        out
    }

    /// Untimed, uncounted read of one element — **instrumentation only**
    /// (e.g. the path-length probe behind the paper's Table 4). Does not
    /// touch the caches, charge cycles, or count as an instruction.
    #[inline]
    pub fn peek(&self, ptr: DevicePtr, idx: u32) -> u32 {
        self.view.mem.read(ptr, idx as usize)
    }

    /// Models one lane's atomic at the memory system and returns its cycle
    /// cost. Cycles are accumulated by the caller and charged once per
    /// warp instruction (the sum — and therefore every observable cycle
    /// count — is identical to per-transaction charging; only the
    /// watchdog's trip point within an instruction can shift, and no
    /// contract pins that).
    fn atomic_transaction(&mut self, ptr: DevicePtr, idx: u32) -> u64 {
        let addr = ptr.byte_addr(idx as usize);
        // Atomics bypass L1 and are resolved at L2 as one read-modify-write.
        let l2r = self.view.l2.access(addr, false);
        if matches!(l2r, Lookup::Miss { .. }) {
            self.view.counters.dram_transactions += 1;
        }
        let _ = self.view.l2.access(addr, true);
        self.view.counters.atomics += 1;
        let delay = self.injected_delay();
        self.view.counters.atomic_cycles += self.view.profile.atomic_cycles;
        self.view.counters.stall_cycles += delay;
        self.view.profile.atomic_cycles + delay
    }

    /// Extra cycles for this transaction under a memory-delay fault plan
    /// (0 when the plan injects no delays).
    #[inline]
    fn injected_delay(&mut self) -> u64 {
        let p = self.view.fault.mem_delay_permille;
        if p > 0 && self.view.rng.chance(p) {
            self.view.fault.mem_delay_cycles
        } else {
            0
        }
    }

    /// Runs the coalescer for one warp memory instruction and charges the
    /// resulting transactions through the cache hierarchy. Transactions
    /// are issued in first-occurrence lane order — the cache models' LRU
    /// state is order-sensitive, so the dedup must never reorder — and
    /// cycles/counters are accumulated locally and charged once for the
    /// whole instruction.
    fn issue_transactions(&mut self, ptr: DevicePtr, idx: &Lanes, mask: Mask, is_write: bool) {
        let sector = self.view.profile.sector_bytes as u64;
        // Sector-align each lane's byte address. All real profiles use a
        // power-of-two sector, turning the division into a mask.
        let align_mask = if sector.is_power_of_two() {
            !(sector - 1)
        } else {
            0
        };
        // Collect distinct sector addresses across active lanes in
        // first-occurrence order. 32 lanes touch at most 32 sectors; a
        // fixed scratch array avoids allocation, and the dominant
        // coalesced pattern (runs of adjacent lanes in one sector) is
        // caught by the compare against the last emitted sector before
        // falling back to the linear scan.
        let mut sectors = [u64::MAX; LANES];
        let mut count = 0;
        for lane in mask.iter() {
            let b = ptr.byte_addr(idx.get(lane) as usize);
            let a = if align_mask != 0 {
                b & align_mask
            } else {
                b / sector * sector
            };
            if count > 0 && sectors[count - 1] == a {
                continue;
            }
            if !sectors[..count].contains(&a) {
                sectors[count] = a;
                count += 1;
            }
        }
        let prof_l1 = self.view.profile.l1_hit_cycles;
        let prof_l2 = self.view.profile.l2_hit_cycles;
        let prof_dram = self.view.profile.dram_cycles;
        // Cycle cost is accumulated per service level (L1/L2/DRAM, plus
        // fault-injected stalls) so launch stats can attribute occupancy;
        // the charged total — and the RNG draw sequence behind
        // `injected_delay` — is exactly the same as before the split.
        let mut l1_cyc = 0;
        let mut l2_cyc = 0;
        let mut dram_cyc = 0;
        let mut stall = 0;
        let mut l1_hits = 0;
        let mut dram = 0;
        for &addr in &sectors[..count] {
            match self.view.l1.access(addr, is_write) {
                Lookup::Hit => {
                    l1_hits += 1;
                    l1_cyc += prof_l1;
                    stall += self.injected_delay();
                }
                Lookup::Miss { evicted_dirty } => {
                    // Fill from L2 (write-allocate: stores also fill).
                    let l2r = self.view.l2.access(addr, false);
                    match l2r {
                        Lookup::Hit => l2_cyc += prof_l2,
                        Lookup::Miss { .. } => {
                            dram += 1;
                            dram_cyc += prof_dram;
                        }
                    }
                    stall += self.injected_delay();
                    // Dirty sectors evicted from L1 are L2 write accesses.
                    for _ in 0..evicted_dirty {
                        let _ = self.view.l2.access(addr, true);
                    }
                }
            }
        }
        let counters = &mut *self.view.counters;
        counters.l1_hit_transactions += l1_hits;
        counters.dram_transactions += dram;
        counters.l1_cycles += l1_cyc;
        counters.l2_cycles += l2_cyc;
        counters.dram_cycles += dram_cyc;
        counters.stall_cycles += stall;
        self.view.charge(l1_cyc + l2_cyc + dram_cyc + stall);
    }
}

/// Execution context of one thread block (for block-granularity kernels).
pub struct BlockCtx<'a> {
    view: SmView<'a>,
    block_idx: usize,
    num_blocks: usize,
}

impl<'a> BlockCtx<'a> {
    pub(crate) fn new(view: SmView<'a>, block_idx: usize, num_blocks: usize) -> Self {
        BlockCtx {
            view,
            block_idx,
            num_blocks,
        }
    }

    /// Index of this block in the launch.
    pub fn block_idx(&self) -> usize {
        self.block_idx
    }

    /// Number of blocks in the launch.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Threads per block on this device.
    pub fn threads_per_block(&self) -> usize {
        self.view.profile.threads_per_block
    }

    /// Runs `body` once per warp of this block, in warp order. Warps run
    /// to completion sequentially, which is equivalent to hardware for
    /// kernels without intra-block synchronization (ECL-CC's kernels have
    /// none).
    pub fn for_each_warp<F>(&mut self, mut body: F)
    where
        F: FnMut(&mut WarpCtx),
    {
        let warps = self.view.profile.warps_per_block();
        let tpb = self.view.profile.threads_per_block as u32;
        for w in 0..warps {
            let base = self.block_idx as u32 * tpb + (w * LANES) as u32;
            let mut ctx = WarpCtx::new(self.view.reborrow(), base, tpb, Mask::ALL);
            body(&mut ctx);
            self.view.counters.warps += 1;
        }
    }

    /// Warp-uniform load performed once at block scope (e.g. reading this
    /// block's worklist entry).
    pub fn load_uniform(&mut self, ptr: DevicePtr, idx: u32) -> u32 {
        // Base thread ID is irrelevant for a single-lane uniform load.
        let mut ctx = WarpCtx::new(self.view.reborrow(), 0, 1, Mask(1));
        ctx.load_uniform(ptr, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Gpu;
    use crate::profile::DeviceProfile;

    #[test]
    fn load_inactive_lanes_untouched() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let buf = gpu.alloc_from(&[7; 32]);
        gpu.launch_warps("t", 32, |w| {
            let v = w.load(buf, &w.thread_ids(), Mask::first(4));
            assert_eq!(v.get(0), 7);
            assert_eq!(v.get(4), 0, "inactive lane must read nothing");
        });
    }

    #[test]
    fn store_conflict_resolved_deterministically() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let buf = gpu.alloc(1);
        gpu.launch_warps("t", 32, |w| {
            let vals = w.thread_ids();
            w.store(buf, &Lanes::splat(0), &vals, Mask::ALL);
        });
        assert_eq!(gpu.download(buf)[0], 31, "highest lane wins");
    }

    #[test]
    fn atomic_min_takes_minimum() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let buf = gpu.alloc_from(&[100]);
        gpu.launch_warps("t", 32, |w| {
            let vals = w.thread_ids().add_scalar(3);
            let _ = w.atomic_min(buf, &Lanes::splat(0), &vals, Mask::ALL);
        });
        assert_eq!(gpu.download(buf)[0], 3);
    }

    #[test]
    fn coalescer_counts_sectors_not_lanes() {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        let buf = gpu.alloc(64);
        let k = gpu.launch_warps("t", 32, |w| {
            // All 32 lanes read consecutive words: 32 * 4 B = 128 B = 4
            // sectors → 4 transactions, all L2 reads (cold L1).
            let _ = w.load(buf, &w.thread_ids(), Mask::ALL);
        });
        assert_eq!(k.l2_read_accesses, 4);
    }

    #[test]
    fn uniform_load_single_transaction() {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        let buf = gpu.alloc_from(&[5, 6, 7]);
        gpu.launch_warps("t", 32, |w| {
            assert_eq!(w.load_uniform(buf, 2), 7);
        });
        assert_eq!(gpu.kernel_stats()[0].l2_read_accesses, 1);
    }

    #[test]
    fn block_ctx_warp_ids() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny()); // 64 threads/block
        let mut seen = Vec::new();
        gpu.launch_blocks("t", 3, |b| {
            let bi = b.block_idx() as u32;
            b.for_each_warp(|w| {
                let first = w.thread_ids().get(0);
                assert_eq!(w.total_threads(), 64);
                assert!(first / 64 == bi);
            });
            seen.push(b.block_idx());
        });
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
