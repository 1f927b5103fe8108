//! Configuration knobs for the three ECL-CC phases, matching the variants
//! ablated in the paper's §5.1.

use ecl_unionfind::concurrent::JumpKind;

/// Initialization variants (Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitKind {
    /// Init1: each vertex's own ID (what most prior codes do).
    VertexId,
    /// Init2: the smallest ID among all neighbors (and self).
    MinNeighbor,
    /// Init3: the ID of the *first* neighbor in the adjacency list smaller
    /// than the vertex, else the vertex's own ID — the ECL-CC default.
    FirstSmaller,
}

/// Finalization variants (Fig. 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FiniKind {
    /// Fini1: intermediate pointer jumping, then point at the root.
    Intermediate,
    /// Fini2: multiple pointer jumping (two traversals).
    Multiple,
    /// Fini3: single pointer jumping — the ECL-CC default ("a little
    /// faster and simpler to implement than Fini1").
    Single,
}

/// Adaptive-sampling (Afforest-style) parameters: a neighbor-sampling
/// prologue hooks only the first `k` neighbors of every vertex, a probe
/// over `probe` evenly spaced vertices estimates the most common root,
/// and the remaining-edge pass skips every vertex already labeled with
/// that giant root. Labels stay byte-identical to the baseline because
/// min-wins hooking always converges to the component minimum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Neighbors hooked per vertex in the sampling prologue (≥ 1).
    pub k: usize,
    /// Vertices probed to estimate the most common root.
    pub probe: usize,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        // k=2 links most of the giant component on power-law graphs at a
        // fraction of the edge inspections; 1024 probes is the Afforest
        // paper's sample size.
        SamplingConfig { k: 2, probe: 1024 }
    }
}

impl SamplingConfig {
    /// Default probe count with an explicit sample depth `k`.
    pub fn with_k(k: usize) -> Self {
        SamplingConfig {
            k: k.max(1),
            ..Default::default()
        }
    }
}

/// Full configuration of an ECL-CC run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EclConfig {
    /// Initialization variant (default Init3).
    pub init: InitKind,
    /// Pointer jumping used inside the computation-phase find
    /// (default Jump4, intermediate).
    pub jump: JumpKind,
    /// Finalization variant (default Fini3, single).
    pub fini: FiniKind,
    /// Degree above which a vertex leaves the thread-granularity kernel
    /// for the warp-granularity kernel (paper: 16).
    pub warp_threshold: usize,
    /// Degree above which a vertex leaves the warp-granularity kernel for
    /// the block-granularity kernel (paper: 352).
    pub block_threshold: usize,
    /// When true, the GPU run probes parent-path lengths before every
    /// find (untimed), producing the Table 4 statistics.
    pub record_path_lengths: bool,
    /// Adaptive neighbor sampling + giant-component short-circuit.
    /// `None` (the default) runs the paper's full edge pass. Every `run`
    /// entry point honours it: serial, parallel and simulated GPU.
    pub sampling: Option<SamplingConfig>,
}

impl Default for EclConfig {
    fn default() -> Self {
        EclConfig {
            init: InitKind::FirstSmaller,
            jump: JumpKind::Intermediate,
            fini: FiniKind::Single,
            warp_threshold: 16,
            block_threshold: 352,
            record_path_lengths: false,
            sampling: None,
        }
    }
}

impl EclConfig {
    /// Default configuration with a different init variant.
    pub fn with_init(init: InitKind) -> Self {
        EclConfig {
            init,
            ..Default::default()
        }
    }

    /// Default configuration with a different jump variant.
    pub fn with_jump(jump: JumpKind) -> Self {
        EclConfig {
            jump,
            ..Default::default()
        }
    }

    /// Default configuration with a different finalization variant.
    pub fn with_fini(fini: FiniKind) -> Self {
        EclConfig {
            fini,
            ..Default::default()
        }
    }

    /// Default configuration with adaptive sampling at depth `k`.
    pub fn with_sampling(k: usize) -> Self {
        EclConfig {
            sampling: Some(SamplingConfig::with_k(k)),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EclConfig::default();
        assert_eq!(c.init, InitKind::FirstSmaller);
        assert_eq!(c.jump, JumpKind::Intermediate);
        assert_eq!(c.fini, FiniKind::Single);
        assert_eq!(c.warp_threshold, 16);
        assert_eq!(c.block_threshold, 352);
        assert!(!c.record_path_lengths);
        assert!(c.sampling.is_none(), "sampling is opt-in");
    }

    #[test]
    fn sampling_defaults() {
        let s = SamplingConfig::default();
        assert_eq!(s.k, 2);
        assert_eq!(s.probe, 1024);
        assert_eq!(SamplingConfig::with_k(4).k, 4);
        assert_eq!(SamplingConfig::with_k(0).k, 1, "k clamps to >= 1");
        assert_eq!(EclConfig::with_sampling(2).sampling, Some(s));
    }

    #[test]
    fn with_variants() {
        assert_eq!(
            EclConfig::with_init(InitKind::VertexId).init,
            InitKind::VertexId
        );
        assert_eq!(
            EclConfig::with_jump(JumpKind::Single).jump,
            JumpKind::Single
        );
        assert_eq!(
            EclConfig::with_fini(FiniKind::Multiple).fini,
            FiniKind::Multiple
        );
    }
}
