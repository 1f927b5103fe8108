//! The simulated device: memory + caches + SM cycle accounting + the
//! kernel-launch API.
//!
//! Every launch runs each warp on the calling thread in a deterministic
//! order (blocks round-robin over SMs, warps in block order, or a seeded
//! shuffle under a scheduler-chaos fault plan). That one execution model
//! is the timing record: cycles, cache stats and fault draws are
//! golden-pinned by `tests/exec_equivalence.rs`.
//!
//! The [`Gpu`] owns its state outright: plain-word memory, the caches,
//! the SM cycle counters and one [`KernelStats`] record for the launch in
//! flight. A launch lends them to each warp by `&mut`, and
//! `finish_launch` takes the record when the launch ends.

use crate::cache::{Cache, CacheStats};
use crate::error::{SimError, WatchdogAbort};
use crate::fault::{FaultPlan, FaultRng};
use crate::mem::{DevicePtr, GlobalMemory};
use crate::profile::DeviceProfile;
use crate::warp::{BlockCtx, SmView, WarpCtx};
use crate::{Lanes, LANES};
use std::time::Instant;

std::thread_local! {
    /// True while a `try_launch_*` call is on this thread's stack — the
    /// quiet panic hook only swallows simulator aborts raised inside one.
    static IN_TRY_LAUNCH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

/// Installs (once, process-wide) a panic hook that suppresses the default
/// message/backtrace for panics `try_launch_*` is about to convert into
/// [`SimError`] — watchdog aborts and device OOB faults. All other panics,
/// and these same panics outside a `try_launch_*`, still reach the
/// previous hook unchanged.
fn install_quiet_abort_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let convertible = payload.is::<WatchdogAbort>()
                || payload
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("OOB"))
                || payload
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("OOB"));
            if !(convertible && IN_TRY_LAUNCH.with(|c| c.get())) {
                prev(info);
            }
        }));
    });
}

/// RAII guard for the thread-local launch flag: restores the previous
/// value even if the launch panics with a non-convertible payload.
struct TryLaunchScope {
    was: bool,
}

impl TryLaunchScope {
    fn enter() -> Self {
        install_quiet_abort_hook();
        let was = IN_TRY_LAUNCH.with(|c| c.replace(true));
        TryLaunchScope { was }
    }
}

impl Drop for TryLaunchScope {
    fn drop(&mut self) {
        IN_TRY_LAUNCH.with(|c| c.set(self.was));
    }
}

/// How kernel launches execute on the host. `Serial` is the only mode:
/// the enum stays because the benchmark's `jobs` workload names
/// `ExecMode::Serial` in its `LadderConfig`; the next benchmark change
/// drops that field, and this type goes with it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Deterministic single-threaded execution (the timing record).
    #[default]
    Serial,
}

/// Counters gathered for one kernel launch. The launch accumulates them in
/// place as its warps run; they are pure bookkeeping and never influence
/// cycle charges, cache behaviour or fault-RNG draws, so recording them
/// cannot perturb the golden-pinned timing record.
#[derive(Clone, Debug, Default)]
pub struct KernelStats {
    /// Kernel name as passed to the launch call.
    pub name: String,
    /// Simulated execution time: max over SMs of the cycles this launch
    /// added, plus the fixed launch overhead.
    pub cycles: u64,
    /// Warp instructions issued (ALU + one per memory operation).
    pub instructions: u64,
    /// Memory transactions that hit in L1.
    pub l1_hit_transactions: u64,
    /// Read accesses presented to the L2 (L1 read misses, write-allocate
    /// fills, and atomic reads).
    pub l2_read_accesses: u64,
    /// Write accesses presented to the L2 (L1 dirty write-backs and atomic
    /// writes).
    pub l2_write_accesses: u64,
    /// Transactions served by DRAM (L2 misses).
    pub dram_transactions: u64,
    /// Atomic operations executed.
    pub atomics: u64,
    /// Number of warps executed.
    pub warps: u64,
    /// Cycles spent in ALU instructions.
    pub alu_cycles: u64,
    /// Cycles spent on transactions served by the L1.
    pub l1_cycles: u64,
    /// Cycles spent on transactions served by the L2.
    pub l2_cycles: u64,
    /// Cycles spent on transactions served by DRAM.
    pub dram_cycles: u64,
    /// Cycles spent serialized on atomic operations.
    pub atomic_cycles: u64,
    /// Extra cycles injected by a memory-delay fault plan.
    pub stall_cycles: u64,
    /// Lane-level `atomicCAS` operations issued.
    pub cas_attempts: u64,
    /// CAS operations that observed a value other than their comparand —
    /// the contention signal (includes injected spurious failures).
    pub cas_failures: u64,
    /// Warp memory/atomic instructions carrying an active-lane mask.
    pub mask_ops: u64,
    /// Sum of active lanes over those instructions (occupancy numerator).
    pub active_lanes: u64,
    /// Masked instructions where all 32 lanes were active (no divergence).
    pub full_mask_ops: u64,
    /// Cycles each SM added during this launch (index = SM id).
    pub sm_cycle_deltas: Vec<u64>,
    /// L1 counters accrued by this launch (summed over SMs).
    pub l1_cache: CacheStats,
    /// L2 counters accrued by this launch.
    pub l2_cache: CacheStats,
}

impl KernelStats {
    /// Simulated time in pseudo-milliseconds on `profile`.
    pub fn ms(&self, profile: &DeviceProfile) -> f64 {
        profile.cycles_to_ms(self.cycles)
    }

    /// Mean active lanes per masked warp instruction, in [0, 32]
    /// (32.0 when nothing was masked — fully converged).
    pub fn warp_occupancy(&self) -> f64 {
        if self.mask_ops == 0 {
            crate::LANES as f64
        } else {
            self.active_lanes as f64 / self.mask_ops as f64
        }
    }

    /// Fraction of masked instructions issued with a partial mask.
    pub fn divergence_ratio(&self) -> f64 {
        if self.mask_ops == 0 {
            0.0
        } else {
            1.0 - self.full_mask_ops as f64 / self.mask_ops as f64
        }
    }

    /// Fraction of CAS operations that observed contention.
    pub fn cas_failure_ratio(&self) -> f64 {
        if self.cas_attempts == 0 {
            0.0
        } else {
            self.cas_failures as f64 / self.cas_attempts as f64
        }
    }

    /// Serializes through the workspace's shared JSON writer — the one
    /// serialization path for kernel statistics (bench `--json`, metrics
    /// export, the profile artifacts).
    pub fn to_json(&self) -> String {
        ecl_obs::json::Obj::new()
            .str("name", &self.name)
            .u64("cycles", self.cycles)
            .u64("instructions", self.instructions)
            .u64("warps", self.warps)
            .u64("l1_hit_transactions", self.l1_hit_transactions)
            .u64("l2_read_accesses", self.l2_read_accesses)
            .u64("l2_write_accesses", self.l2_write_accesses)
            .u64("dram_transactions", self.dram_transactions)
            .u64("atomics", self.atomics)
            .u64("alu_cycles", self.alu_cycles)
            .u64("l1_cycles", self.l1_cycles)
            .u64("l2_cycles", self.l2_cycles)
            .u64("dram_cycles", self.dram_cycles)
            .u64("atomic_cycles", self.atomic_cycles)
            .u64("stall_cycles", self.stall_cycles)
            .u64("cas_attempts", self.cas_attempts)
            .u64("cas_failures", self.cas_failures)
            .f64("warp_occupancy", self.warp_occupancy())
            .f64("divergence_ratio", self.divergence_ratio())
            .raw("l1_cache", &self.l1_cache.to_json())
            .raw("l2_cache", &self.l2_cache.to_json())
            .build()
    }
}

/// The simulated GPU. See the crate docs for the model.
pub struct Gpu {
    pub(crate) profile: DeviceProfile,
    pub(crate) mem: GlobalMemory,
    pub(crate) l1: Vec<Cache>,
    l2: Cache,
    pub(crate) sm_cycles: Vec<u64>,
    /// Counters of the launch in flight, reset by [`Self::begin_launch`]
    /// and taken by [`Self::finish_launch`].
    pub(crate) cur: KernelStats,
    kernels: Vec<KernelStats>,
    pub(crate) fault: FaultPlan,
    pub(crate) fault_rng: FaultRng,
    pub(crate) watchdog: Option<u64>,
    pub(crate) launch_start_sm: Vec<u64>,
    launch_index: u64,
    /// Host wall clock at the current launch's start, for the kernel
    /// span's `host_ns` (taken once per launch, never per warp).
    launch_started: Instant,
    /// Per-launch scratch for the warp/block execution order, reused
    /// across launches to avoid a fresh allocation per kernel.
    warp_order: Vec<usize>,
    /// Optional observability recorder; spans are emitted at launch end
    /// (never from the hot path) and only when the recorder is enabled.
    recorder: Option<ecl_obs::Recorder>,
    /// Optional request trace context; when set, kernel spans carry
    /// trace/span/parent args hanging off this context (span ids are
    /// derived per launch, so tagging never touches shared state).
    trace_ctx: Option<ecl_obs::TraceCtx>,
    /// Cumulative kernel cycles, the `ts` base of the simulated timeline.
    timeline_cycles: u64,
}

impl Gpu {
    /// A device with the given profile and empty memory.
    pub fn new(profile: DeviceProfile) -> Self {
        let l1 = (0..profile.num_sms)
            .map(|_| {
                Cache::new(
                    profile.l1_bytes,
                    profile.l1_ways,
                    profile.line_bytes,
                    profile.sector_bytes,
                )
            })
            .collect();
        let l2 = Cache::new(
            profile.l2_bytes,
            profile.l2_ways,
            profile.line_bytes,
            profile.sector_bytes,
        );
        let sm_cycles = vec![0; profile.num_sms];
        let launch_start_sm = sm_cycles.clone();
        Gpu {
            profile,
            mem: GlobalMemory::new(),
            l1,
            l2,
            sm_cycles,
            cur: KernelStats::default(),
            kernels: Vec::new(),
            fault: FaultPlan::none(),
            fault_rng: FaultRng::new(0, 0),
            watchdog: None,
            launch_start_sm,
            launch_index: 0,
            launch_started: Instant::now(),
            warp_order: Vec::new(),
            recorder: None,
            trace_ctx: None,
            timeline_cycles: 0,
        }
    }

    /// Attaches (or with `None` detaches) an observability recorder.
    /// Recording is observation-only: it reads counters the simulator
    /// maintains unconditionally, so cycles, cache stats, and fault-RNG
    /// streams are bit-identical with a recorder attached or not.
    pub fn set_recorder(&mut self, recorder: Option<ecl_obs::Recorder>) {
        self.recorder = recorder;
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&ecl_obs::Recorder> {
        self.recorder.as_ref()
    }

    /// Attaches (or with `None` detaches) a request trace context.
    /// Kernel spans emitted afterwards become children of this context
    /// in the request's span tree. Like the recorder, this is
    /// observation-only metadata: it never affects simulation.
    pub fn set_trace_ctx(&mut self, ctx: Option<ecl_obs::TraceCtx>) {
        self.trace_ctx = ctx;
    }

    /// Current position on the simulated-cycle trace timeline (the sum
    /// of all launched kernels' cycles since the last reset or origin
    /// change). Kernel spans are emitted at this offset.
    pub fn timeline_cycles(&self) -> u64 {
        self.timeline_cycles
    }

    /// Moves the trace timeline origin, so that several runs (possibly
    /// on fresh devices) can share one recorder without their kernel
    /// spans overlapping. Affects only span timestamps, never timing.
    pub fn set_timeline_origin(&mut self, cycles: u64) {
        self.timeline_cycles = cycles;
    }

    /// Installs a fault-injection plan applied to every subsequent launch
    /// (see [`FaultPlan`]); [`FaultPlan::none`] restores clean execution.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// The active fault-injection plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// Arms (or with `None` disarms) the kernel watchdog: any single
    /// launch whose busiest SM exceeds `budget` cycles is aborted, and the
    /// fallible launch APIs report it as [`SimError::Watchdog`]. The
    /// infallible `launch_*` APIs propagate the abort as a panic.
    ///
    /// After a watchdog abort the in-flight launch's counters are
    /// discarded and device memory may hold a partial kernel's writes;
    /// callers are expected to re-run on a fresh device (what the
    /// fallback ladder in `ecl-cc` does) or re-upload their buffers.
    pub fn set_watchdog(&mut self, budget: Option<u64>) {
        self.watchdog = budget;
    }

    /// The armed watchdog budget, if any.
    pub fn watchdog(&self) -> Option<u64> {
        self.watchdog
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Allocates a zeroed buffer of `len` words.
    pub fn alloc(&mut self, len: usize) -> DevicePtr {
        self.mem.alloc(len)
    }

    /// Allocates and uploads `data` (untimed, like a pre-kernel memcpy —
    /// the paper excludes transfer time from all measurements, §4).
    pub fn alloc_from(&mut self, data: &[u32]) -> DevicePtr {
        self.mem.alloc_from(data)
    }

    /// Untimed host read-back of a buffer.
    pub fn download(&self, ptr: DevicePtr) -> Vec<u32> {
        self.mem.download(ptr)
    }

    /// Untimed host write of a buffer.
    pub fn upload(&mut self, ptr: DevicePtr, data: &[u32]) {
        self.mem.upload(ptr, data)
    }

    /// A launch size that fills the device for a grid-stride loop over `n`
    /// items: enough blocks for 4 resident blocks per SM, capped at `n`
    /// rounded up to a block.
    pub fn suggested_threads(&self, n: usize) -> usize {
        let tpb = self.profile.threads_per_block;
        let max_threads = self.profile.num_sms * 4 * tpb;
        let needed = n.div_ceil(tpb) * tpb;
        needed.min(max_threads).max(tpb)
    }

    /// The [`SmView`] for one SM in serial execution: disjoint borrows of
    /// the device's per-SM and shared state.
    fn sm_view(&mut self, sm: usize) -> SmView<'_> {
        SmView {
            mem: &mut self.mem,
            l2: &mut self.l2,
            l1: &mut self.l1[sm],
            cycles: &mut self.sm_cycles[sm],
            launch_start: self.launch_start_sm[sm],
            watchdog: self.watchdog,
            counters: &mut self.cur,
            fault: self.fault,
            rng: &mut self.fault_rng,
            profile: &self.profile,
            sm,
        }
    }

    /// Launches a thread-granularity kernel: `total_threads` threads, 32
    /// per warp, blocks assigned round-robin to SMs. The closure runs once
    /// per warp with the warp's context (lane `i`'s global thread ID is
    /// `ctx.thread_ids().get(i)`); lanes beyond `total_threads` are
    /// inactive in [`WarpCtx::launch_mask`].
    pub fn launch_warps<F>(&mut self, name: &str, total_threads: usize, mut body: F) -> KernelStats
    where
        F: FnMut(&mut WarpCtx),
    {
        self.begin_launch();
        let before = (self.l1_stats(), self.l2_stats());

        let warps_per_block = self.profile.warps_per_block();
        let num_warps = total_threads.div_ceil(LANES);
        // Block→SM placement is fixed at launch; only the *execution order*
        // of warps is perturbed under a scheduler-chaos fault plan (real
        // hardware guarantees nothing about it either).
        let mut order = std::mem::take(&mut self.warp_order);
        order.clear();
        order.extend(0..num_warps);
        if self.fault.shuffle_warps {
            self.fault_rng.shuffle(&mut order);
        }
        for &wid in &order {
            let block = wid / warps_per_block;
            let sm = block % self.profile.num_sms;
            let base = (wid * LANES) as u32;
            let active = crate::Mask::first(total_threads.saturating_sub(wid * LANES).min(LANES));
            let mut ctx = WarpCtx::new(self.sm_view(sm), base, total_threads as u32, active);
            body(&mut ctx);
            self.cur.warps += 1;
        }
        self.warp_order = order;
        self.finish_launch(name, before)
    }

    /// Launches a block-granularity kernel: the closure runs once per
    /// thread block and drives its warps through [`BlockCtx::for_each_warp`].
    pub fn launch_blocks<F>(&mut self, name: &str, num_blocks: usize, mut body: F) -> KernelStats
    where
        F: FnMut(&mut BlockCtx),
    {
        self.begin_launch();
        let before = (self.l1_stats(), self.l2_stats());

        let mut order = std::mem::take(&mut self.warp_order);
        order.clear();
        order.extend(0..num_blocks);
        if self.fault.shuffle_warps {
            self.fault_rng.shuffle(&mut order);
        }
        for &b in &order {
            let sm = b % self.profile.num_sms;
            let mut ctx = BlockCtx::new(self.sm_view(sm), b, num_blocks);
            body(&mut ctx);
        }
        self.warp_order = order;
        self.finish_launch(name, before)
    }

    /// Fallible form of [`Self::launch_warps`]: converts watchdog aborts
    /// and out-of-bounds device accesses into a structured [`SimError`]
    /// instead of a panic. Any other panic from the kernel body is
    /// propagated unchanged.
    pub fn try_launch_warps<F>(
        &mut self,
        name: &str,
        total_threads: usize,
        body: F,
    ) -> Result<KernelStats, SimError>
    where
        F: FnMut(&mut WarpCtx),
    {
        let _scope = TryLaunchScope::enter();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.launch_warps(name, total_threads, body)
        }));
        result.map_err(|payload| Self::classify_abort(name, payload))
    }

    /// Fallible form of [`Self::launch_blocks`] (see
    /// [`Self::try_launch_warps`] for the abort contract).
    pub fn try_launch_blocks<F>(
        &mut self,
        name: &str,
        num_blocks: usize,
        body: F,
    ) -> Result<KernelStats, SimError>
    where
        F: FnMut(&mut BlockCtx),
    {
        let _scope = TryLaunchScope::enter();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.launch_blocks(name, num_blocks, body)
        }));
        result.map_err(|payload| Self::classify_abort(name, payload))
    }

    /// Cheap device self-test for circuit-breaker half-open probes.
    ///
    /// Launches one tiny diagnostic kernel under the *currently
    /// installed* fault plan and watchdog budget — the exact machinery
    /// real jobs run under — and verifies its output on the host. Each
    /// thread CAS-publishes a known value into its own cell with the
    /// same retry-loop shape production hook loops use (so spurious-CAS
    /// injection is exercised), and all threads bump a shared
    /// `atomicAdd` counter.
    ///
    /// Returns `Ok(())` when the downloaded results are exactly right;
    /// a structured [`SimError`] when the launch aborted (watchdog trip
    /// or memory fault); and a synthesized [`SimError::MemoryFault`]
    /// when the kernel ran but produced wrong values — a device that
    /// computes incorrectly must not be trusted with real jobs.
    ///
    /// Each probe allocates a small scratch buffer (probes are expected
    /// to be rare: one per breaker half-open transition).
    pub fn health_probe(&mut self) -> Result<(), SimError> {
        const N: usize = 64;
        let cells = self.alloc(N);
        let counter = self.alloc(1);
        let nu = N as u32;
        self.try_launch_warps("health-probe", N, |w| {
            let v = w.thread_ids();
            let m = w.launch_mask() & v.lt_scalar(nu);
            if m.none() {
                return;
            }
            let want = v.map(|x| 2 * x + 1);
            // CAS-publish with a load-back retry loop: under spurious
            // contention the returned "old" value lies, but the memory
            // state does not — exactly the discipline hook loops need.
            let mut pending = m;
            while pending.any() {
                let _ = w.atomic_cas(cells, &v, &Lanes::splat(0), &want, pending);
                let now = w.load(cells, &v, pending);
                pending &= now.ne_mask(&want);
                w.alu(1);
            }
            let _ = w.atomic_add(counter, &Lanes::splat(0), &Lanes::splat(1), m);
        })?;
        let got_cells = self.download(cells);
        let got_count = self.download(counter)[0];
        for (i, &c) in got_cells.iter().take(N).enumerate() {
            let want = 2 * i as u32 + 1;
            if c != want {
                return Err(SimError::MemoryFault {
                    kernel: "health-probe".to_string(),
                    detail: format!("self-test cell {i}: got {c}, want {want}"),
                });
            }
        }
        if got_count != nu {
            return Err(SimError::MemoryFault {
                kernel: "health-probe".to_string(),
                detail: format!("self-test counter: got {got_count}, want {nu}"),
            });
        }
        Ok(())
    }

    /// Maps a caught launch panic to the error taxonomy: the watchdog's
    /// dedicated payload becomes [`SimError::Watchdog`], bounds-check
    /// failures become [`SimError::MemoryFault`], anything else resumes
    /// unwinding (it is a simulator or kernel bug, not a modelled fault).
    fn classify_abort(name: &str, payload: Box<dyn std::any::Any + Send>) -> SimError {
        let payload = match payload.downcast::<WatchdogAbort>() {
            Ok(w) => {
                return SimError::Watchdog {
                    kernel: name.to_string(),
                    budget: w.budget,
                    spent: w.spent,
                }
            }
            Err(other) => other,
        };
        let detail = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
        match detail {
            Some(d) if d.contains("OOB") => SimError::MemoryFault {
                kernel: name.to_string(),
                detail: d,
            },
            _ => std::panic::resume_unwind(payload),
        }
    }

    /// Per-launch prologue: resets the counter record, advances the
    /// fault-RNG stream, snapshots SM counters for the watchdog (reusing
    /// the snapshot buffer — no per-launch allocation) and notes the host
    /// start time.
    fn begin_launch(&mut self) {
        self.launch_started = Instant::now();
        self.cur = KernelStats::default();
        self.launch_index += 1;
        self.fault_rng = FaultRng::new(self.fault.seed, self.launch_index);
        self.launch_start_sm.clone_from(&self.sm_cycles);
    }

    /// Access statistics of the L2 since construction or the last
    /// [`Self::reset_profiling`].
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Aggregate access statistics of all per-SM L1 caches since
    /// construction or the last [`Self::reset_profiling`].
    pub fn l1_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.l1 {
            total.accumulate(&c.stats());
        }
        total
    }

    fn finish_launch(&mut self, name: &str, before: (CacheStats, CacheStats)) -> KernelStats {
        let (l1_before, l2_before) = before;
        let sm_cycle_deltas: Vec<u64> = self
            .sm_cycles
            .iter()
            .zip(&self.launch_start_sm)
            .map(|(now, then)| now - then)
            .collect();
        let max_delta = sm_cycle_deltas.iter().copied().max().unwrap_or(0);
        let l1_now = self.l1_stats();
        let l2_now = self.l2_stats();
        let stats = KernelStats {
            name: name.to_string(),
            cycles: max_delta + self.profile.launch_overhead_cycles,
            l2_read_accesses: l2_now.read_accesses - l2_before.read_accesses,
            l2_write_accesses: l2_now.write_accesses - l2_before.write_accesses,
            sm_cycle_deltas,
            l1_cache: l1_now.delta(&l1_before),
            l2_cache: l2_now.delta(&l2_before),
            ..std::mem::take(&mut self.cur)
        };
        self.emit_launch_span(&stats);
        self.timeline_cycles += stats.cycles;
        self.kernels.push(stats.clone());
        stats
    }

    /// Emits the per-launch span tree and metric updates. Runs only at
    /// launch end (the "span close" of the recording contract), buffers
    /// locally, and merges with one lock; a disabled or absent recorder
    /// costs one branch. The span's `host_ns` and the `sim.host_ns` metric
    /// are the host wall time since [`Self::begin_launch`]: the one
    /// recorded quantity that is not simulated, so it lives here and not
    /// in [`KernelStats`].
    fn emit_launch_span(&self, stats: &KernelStats) {
        let Some(rec) = &self.recorder else { return };
        if !rec.is_enabled() {
            return;
        }
        let host_ns = self.launch_started.elapsed().as_nanos() as u64;
        use ecl_obs::{TraceEvent, PID_SIM};
        let ts = self.timeline_cycles;
        let mut buf = rec.local();
        let mut kernel_span = TraceEvent::span(&stats.name, "kernel", PID_SIM, 0, ts, stats.cycles);
        if let Some(ctx) = &self.trace_ctx {
            // Derive the launch's span id from the launch count so
            // tagging is deterministic and lock-free.
            let launch = ecl_obs::TraceCtx {
                trace_id: ctx.trace_id,
                span_id: ctx.derive(self.kernels.len() as u64),
            };
            kernel_span = ecl_obs::tag_span(kernel_span, &launch, Some(ctx.span_id));
        }
        buf.push(
            kernel_span
                .arg_u64("instructions", stats.instructions)
                .arg_u64("warps", stats.warps)
                .arg_u64("alu_cycles", stats.alu_cycles)
                .arg_u64("l1_cycles", stats.l1_cycles)
                .arg_u64("l2_cycles", stats.l2_cycles)
                .arg_u64("dram_cycles", stats.dram_cycles)
                .arg_u64("atomic_cycles", stats.atomic_cycles)
                .arg_u64("stall_cycles", stats.stall_cycles)
                .arg_u64("cas_attempts", stats.cas_attempts)
                .arg_u64("cas_failures", stats.cas_failures)
                .arg_f64("warp_occupancy", stats.warp_occupancy())
                .arg_f64("divergence_ratio", stats.divergence_ratio())
                .arg_f64("l1_read_hit_ratio", stats.l1_cache.read_hit_ratio())
                .arg_f64("l2_read_hit_ratio", stats.l2_cache.read_hit_ratio())
                .arg_u64("dram_transactions", stats.dram_transactions)
                .arg_u64("host_ns", host_ns),
        );
        // One sub-span per SM that did work: the launch's load-balance
        // picture, rendered as per-SM tracks under the kernel row.
        for (sm, &delta) in stats.sm_cycle_deltas.iter().enumerate() {
            if delta > 0 {
                buf.push(TraceEvent::span(
                    &format!("{}@sm{sm}", stats.name),
                    "sm",
                    PID_SIM,
                    sm as u32 + 1,
                    ts,
                    delta,
                ));
            }
        }
        rec.merge(&mut buf);
        rec.add_metric("sim.cycles", stats.cycles as f64);
        rec.add_metric("sim.instructions", stats.instructions as f64);
        rec.add_metric("sim.warps", stats.warps as f64);
        rec.add_metric("sim.atomics", stats.atomics as f64);
        rec.add_metric("sim.dram_transactions", stats.dram_transactions as f64);
        rec.add_metric("sim.cas_attempts", stats.cas_attempts as f64);
        rec.add_metric("sim.cas_failures", stats.cas_failures as f64);
        rec.add_metric("sim.launches", 1.0);
        rec.add_metric("sim.host_ns", host_ns as f64);
    }

    /// Stats of every kernel launched so far, in launch order.
    pub fn kernel_stats(&self) -> &[KernelStats] {
        &self.kernels
    }

    /// Sum of all kernel cycles (launches are sequential, as in the CUDA
    /// code where each kernel waits for the previous one).
    pub fn total_cycles(&self) -> u64 {
        self.kernels.iter().map(|k| k.cycles).sum()
    }

    /// Total simulated time in pseudo-ms.
    pub fn total_ms(&self) -> f64 {
        self.profile.cycles_to_ms(self.total_cycles())
    }

    /// Per-SM busy-cycle counters since construction (or the last
    /// [`Self::reset_profiling`]). The spread across SMs is the
    /// load-imbalance signal ECL-CC's degree-bucketed kernels exist to
    /// minimize.
    pub fn sm_cycles(&self) -> &[u64] {
        &self.sm_cycles
    }

    /// SM load balance: mean busy cycles divided by the maximum
    /// (1.0 = perfectly balanced; small values = one SM dominated).
    /// Returns 1.0 when nothing has executed.
    pub fn sm_balance(&self) -> f64 {
        let max = self.sm_cycles.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = self.sm_cycles.iter().sum::<u64>() as f64 / self.sm_cycles.len() as f64;
        mean / max as f64
    }

    /// Clears kernel history and cache contents/counters; memory contents
    /// are preserved (like re-running a program on a device with data
    /// already resident).
    pub fn reset_profiling(&mut self) {
        self.kernels.clear();
        self.timeline_cycles = 0;
        for c in &mut self.l1 {
            c.flush();
        }
        self.l2.flush();
        for c in &mut self.sm_cycles {
            *c = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lanes;

    #[test]
    fn simple_copy_kernel() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let src: Vec<u32> = (0..1000).collect();
        let a = gpu.alloc_from(&src);
        let b = gpu.alloc(1000);
        let total = 1000;
        gpu.launch_warps("copy", total, |w| {
            let tid = w.thread_ids();
            let m = w.launch_mask();
            let v = w.load(a, &tid, m);
            w.store(b, &tid, &v, m);
        });
        assert_eq!(gpu.download(b), src);
        let k = &gpu.kernel_stats()[0];
        assert!(k.cycles > 0);
        assert_eq!(k.warps as usize, total.div_ceil(32));
    }

    #[test]
    fn grid_stride_kernel_covers_all() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let n = 5000u32;
        let buf = gpu.alloc(n as usize);
        let total = gpu.suggested_threads(n as usize);
        gpu.launch_warps("fill", total, |w| {
            let mut idx = w.thread_ids();
            loop {
                let m = w.launch_mask() & idx.lt_scalar(n);
                if m.none() {
                    break;
                }
                w.store(buf, &idx, &idx, m);
                idx = idx.add_scalar(total as u32);
                w.alu(1);
            }
        });
        let out = gpu.download(buf);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    #[test]
    fn coalesced_cheaper_than_scattered() {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        let n = 32 * 1024;
        let buf = gpu.alloc(n);
        // Coalesced: lane i reads consecutive words.
        let k1 = gpu.launch_warps("coalesced", 1024, |w| {
            let mut idx = w.thread_ids();
            for _ in 0..(n / 1024) {
                let m = w.launch_mask();
                let _ = w.load(buf, &idx, m);
                idx = idx.add_scalar(1024);
            }
        });
        gpu.reset_profiling();
        // Scattered: lane addresses hashed apart so every lane touches its
        // own sector and sectors are rarely revisited (same total
        // lane-loads as the coalesced kernel).
        let k2 = gpu.launch_warps("scattered", 1024, |w| {
            let tid = w.thread_ids();
            let mut iter = 0u32;
            for _ in 0..(n / 1024) {
                let idx = tid.map(|t| {
                    t.wrapping_mul(2654435761)
                        .wrapping_add(iter.wrapping_mul(40503))
                        % n as u32
                });
                let m = w.launch_mask();
                let _ = w.load(buf, &idx, m);
                iter = iter.wrapping_add(1);
            }
        });
        assert!(
            k2.cycles > 2 * k1.cycles,
            "scattered {} vs coalesced {}",
            k2.cycles,
            k1.cycles
        );
    }

    #[test]
    fn atomic_add_counts() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let ctr = gpu.alloc(1);
        let k = gpu.launch_warps("count", 320, |w| {
            let m = w.launch_mask();
            let _ = w.atomic_add(ctr, &Lanes::splat(0), &Lanes::splat(1), m);
        });
        assert_eq!(gpu.download(ctr)[0], 320);
        assert_eq!(k.atomics, 320);
        assert!(k.l2_read_accesses >= 320);
        assert!(k.l2_write_accesses >= 320);
    }

    #[test]
    fn atomic_cas_semantics() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let cell = gpu.alloc_from(&[5]);
        gpu.launch_warps("cas", 32, |w| {
            let m = w.launch_mask();
            let old = w.atomic_cas(
                cell,
                &Lanes::splat(0),
                &Lanes::splat(5),
                &Lanes::splat(9),
                m,
            );
            // Exactly one lane observes 5; the rest observe 9.
            let winners = old.eq_mask(&Lanes::splat(5)) & m;
            assert_eq!(winners.count(), 1);
        });
        assert_eq!(gpu.download(cell)[0], 9);
    }

    #[test]
    fn kernel_time_is_max_over_sms() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        // One block does 1000 ALU cycles, others do nothing → kernel time
        // tracks the busiest SM, not the sum.
        let k = gpu.launch_blocks("imbalanced", 4, |b| {
            if b.block_idx() == 0 {
                b.for_each_warp(|w| w.alu(1000));
            }
        });
        assert!(k.cycles >= 1000 + 100);
        assert!(
            k.cycles < 3000,
            "cycles {} look summed, not maxed",
            k.cycles
        );
    }

    #[test]
    fn sm_balance_reflects_imbalance() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        // Balanced: every block does the same work.
        gpu.launch_blocks("even", 4, |b| b.for_each_warp(|w| w.alu(100)));
        assert!(gpu.sm_balance() > 0.99, "balance {}", gpu.sm_balance());
        gpu.reset_profiling();
        // Imbalanced: only block 0 works.
        gpu.launch_blocks("skew", 4, |b| {
            if b.block_idx() == 0 {
                b.for_each_warp(|w| w.alu(1000));
            }
        });
        assert!(gpu.sm_balance() < 0.6, "balance {}", gpu.sm_balance());
        assert_eq!(gpu.sm_cycles().len(), 2);
    }

    #[test]
    fn launch_history_accumulates() {
        let mut gpu = Gpu::new(DeviceProfile::test_tiny());
        let b = gpu.alloc(64);
        gpu.launch_warps("a", 64, |w| {
            let m = w.launch_mask();
            let t = w.thread_ids();
            w.store(b, &t, &t, m);
        });
        gpu.launch_warps("b", 64, |w| w.alu(1));
        assert_eq!(gpu.kernel_stats().len(), 2);
        assert_eq!(gpu.kernel_stats()[0].name, "a");
        assert!(gpu.total_cycles() >= gpu.kernel_stats()[1].cycles);
    }

    #[test]
    fn repeated_reads_hit_l1() {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        let buf = gpu.alloc(32);
        let k = gpu.launch_warps("rehit", 32, |w| {
            let tid = w.thread_ids();
            let m = w.launch_mask();
            for _ in 0..10 {
                let _ = w.load(buf, &tid, m);
            }
        });
        assert!(
            k.l1_hit_transactions >= 9 * 4,
            "l1 hits {}",
            k.l1_hit_transactions
        );
        // Only the first pass misses: 4 sectors.
        assert!(k.l2_read_accesses <= 8, "l2 reads {}", k.l2_read_accesses);
    }
}
