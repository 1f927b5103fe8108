//! A deterministic SIMT GPU simulator.
//!
//! The paper evaluates ECL-CC as CUDA kernels on a GeForce GTX Titan X and
//! a Tesla K40c. This environment has neither a GPU nor a CUDA toolchain,
//! so the workspace substitutes this simulator (see DESIGN.md): kernels are
//! written in an explicit *warp-vector* style — every operation is applied
//! across the 32 lanes of a warp under an active-lane [`Mask`] — which
//! mechanistically reproduces the phenomena the paper's GPU experiments
//! measure:
//!
//! * **Lockstep execution & divergence** — divergent loops are written as
//!   `while mask.any()` loops, so a warp pays for its slowest lane exactly
//!   as SIMT hardware does.
//! * **Memory coalescing** — per-lane addresses are grouped into 32-byte
//!   sectors; each distinct sector is one cache transaction.
//! * **Cache behaviour** — per-SM L1 caches (write-back, write-allocate)
//!   in front of a shared L2, both sectored LRU; the simulator counts L1/L2
//!   read and write accesses, which regenerates the paper's Table 3.
//! * **Atomics** — `atomicCAS`/`atomicAdd` are resolved at the L2 (as on
//!   real GPUs), serialized per lane.
//! * **Multi-level parallelism** — thread blocks are assigned round-robin
//!   to SMs; per-SM cycle accounting makes kernel time the maximum over
//!   SMs, so load imbalance shows up as it does on hardware.
//!
//! Timing is a throughput model: each warp instruction costs issue cycles
//! and each memory transaction costs occupancy cycles by hit level.
//! Absolute "runtimes" are simulated cycles — meaningful relatively (the
//! paper's figures are all normalized ratios), not as wall-clock
//! milliseconds.
//!
//! Every launch runs on the calling thread: warps execute to completion
//! in a deterministic order (blocks round-robin over SMs, warps in block
//! order), so simulations are exactly reproducible — cycles, cache stats,
//! fault injection, and watchdog behaviour are bit-for-bit. This
//! serializes the benign data races the paper discusses in §3, so device
//! memory is plain words owned by the launching thread, and an atomic is
//! an ordinary read-modify-write of one word.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fault;
pub mod lanes;
pub mod mem;
pub mod profile;
pub mod warp;

mod device;
mod error;

pub use cache::{Cache, CacheStats};
pub use device::{ExecMode, Gpu, KernelStats};
pub use error::SimError;
pub use fault::{FaultPlan, FaultRng};
pub use lanes::{Lanes, Mask, LANES};
pub use mem::DevicePtr;
pub use profile::DeviceProfile;
pub use warp::{BlockCtx, WarpCtx};
