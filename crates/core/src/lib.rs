//! ECL-CC: the paper's connected-components algorithm, in three
//! implementations sharing one algorithmic skeleton (§3):
//!
//! 1. **initialization** — each vertex's parent starts at the ID of the
//!    first neighbor in its adjacency list that is smaller than itself
//!    (falling back to its own ID),
//! 2. **computation** — every undirected edge is processed exactly once
//!    (only the `v > u` direction): both endpoints' representatives are
//!    found with *intermediate pointer jumping* (path halving) and the
//!    larger representative is hooked under the smaller,
//! 3. **finalization** — every parent pointer is short-circuited to the
//!    representative, which then serves as the component label.
//!
//! The three implementations:
//!
//! * [`serial`] — plain sequential code (the paper's ECL-CC_SER),
//! * [`parallel`] — the OpenMP-style port on the workspace thread pool
//!   (ECL-CC_OMP). It runs the same pipeline body as [`serial`], only
//!   over a lock-free atomic parent array with the CAS hook instead of a
//!   `[Cell<u32>]` with a plain-store hook,
//! * [`gpu`] — the five-kernel CUDA structure on the SIMT simulator
//!   (init, three degree-bucketed compute kernels fed by a double-sided
//!   worklist, finalize) — the paper's headline implementation.
//!
//! [`sampling`] adds the adaptive work-efficient variant (neighbor
//! sampling + giant-component short-circuit) on top of all three,
//! enabled via [`config::SamplingConfig`], which every `run` honours;
//! labels stay byte-identical to the full pass.
//!
//! Every phase is configurable via [`config::EclConfig`] to regenerate the
//! paper's §5.1 ablations (Init1/2/3 × Jump1/2/3/4 × Fini1/2/3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod gpu;
pub mod incremental;
pub mod ladder;
pub mod parallel;
mod pipeline;
pub mod result;
pub mod sampling;
pub mod serial;

pub use config::{EclConfig, FiniKind, InitKind, SamplingConfig};
pub use ecl_unionfind::concurrent::JumpKind;
pub use error::EclError;
pub use ladder::{LadderConfig, LadderOutcome};
pub use result::CcResult;
pub use sampling::SampleStats;

use ecl_graph::CsrGraph;

/// Runs serial ECL-CC with the default configuration.
pub fn connected_components(g: &CsrGraph) -> CcResult {
    serial::run(g, &EclConfig::default())
}

/// Runs parallel (OpenMP-style) ECL-CC with the default configuration.
pub fn connected_components_par(g: &CsrGraph, threads: usize) -> CcResult {
    parallel::run(g, threads, &EclConfig::default())
}
