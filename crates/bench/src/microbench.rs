//! Minimal self-contained micro-benchmark runner.
//!
//! The `[[bench]]` targets used to be Criterion suites; with the
//! workspace now hermetic (no registry access, no external crates) they
//! run on this ~60-line harness instead. The API mirrors the slice of
//! Criterion they used — named groups, per-case ids, `iter`-style
//! closures — and the output is one line per case:
//!
//! ```text
//! group/id  median  <ms>  (k samples)
//! ```
//!
//! Medians over a fixed sample count keep the relative numbers stable;
//! absolute times are not the point (the paper's figures are ratios).

use std::time::Instant;

/// Samples measured per case (median reported).
pub const DEFAULT_SAMPLES: usize = 7;

/// A named group of benchmark cases, printed with a header line.
pub struct Group {
    name: String,
    samples: usize,
}

impl Group {
    /// Starts a group and prints its header.
    pub fn new(name: &str) -> Group {
        println!("\n## {name}");
        Group {
            name: name.to_string(),
            samples: DEFAULT_SAMPLES,
        }
    }

    /// Overrides the per-case sample count.
    pub fn sample_size(mut self, samples: usize) -> Group {
        self.samples = samples.max(1);
        self
    }

    /// Measures `f` (one full workload per call) and prints the median.
    pub fn bench<F: FnMut()>(&self, id: &str, mut f: F) -> f64 {
        // One untimed warm-up run, then `samples` timed runs.
        f();
        let mut times: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = times[times.len() / 2];
        println!(
            "{}/{}  median {:10.4} ms  ({} samples)",
            self.name, id, median, self.samples
        );
        median
    }
}

/// Micro-benchmarks for the simulator's two hot paths — the cache lookup
/// and the per-warp coalescing pass — under the access shapes that
/// dominate real kernels: same-line repeats (the `last_slot` fast path),
/// sector-streaming misses (fill + LRU eviction), and scattered lookups
/// (set-scan without locality). The coalescing cases drive full warp
/// loads through a simulated device, so they cover address split,
/// sector dedup, and the batched cycle accounting together. Returns one
/// [`BenchRecord`] per case so the harness can emit them via `--json`.
pub fn hot_paths() -> Vec<crate::report::BenchRecord> {
    use crate::report::BenchRecord;
    use ecl_gpu_sim::{DeviceProfile, Gpu};

    let mut records = Vec::new();
    let mut push = |group: &str, id: &str, median_ms: f64| {
        records.push(BenchRecord {
            experiment: "microbench".into(),
            graph: "synthetic".into(),
            code: format!("{group}/{id}"),
            time_ms: median_ms,
            simulated: false,
            verified: None,
            device: "host".into(),
            ..Default::default()
        });
    };

    // --- cache lookup, titan L1 geometry (48 kB, 8-way, 128 B lines) ---
    let cache_geom = || ecl_gpu_sim::Cache::new(48 * 1024, 8, 128, 32);
    const LOOKUPS: u64 = 200_000;
    let g = Group::new("cache-lookup");

    let mut c = cache_geom();
    push(
        "cache",
        "repeat-hit",
        g.bench("repeat-hit", || {
            for _ in 0..LOOKUPS {
                let _ = c.access(0x4000, false);
            }
        }),
    );

    let mut c = cache_geom();
    let mut addr: u64 = 0;
    push(
        "cache",
        "streaming-miss",
        g.bench("streaming-miss", || {
            for _ in 0..LOOKUPS {
                // One new sector per access: every line fills cold and is
                // eventually evicted — the slow path, wall to wall.
                addr = addr.wrapping_add(32);
                let _ = c.access(addr, false);
            }
        }),
    );

    let mut c = cache_geom();
    let mut state: u64 = 0x9e3779b97f4a7c15;
    push(
        "cache",
        "scatter",
        g.bench("scatter", || {
            for _ in 0..LOOKUPS {
                // SplitMix-style stream: no spatial locality, so the
                // same-line fast path never helps and every access pays
                // the set scan.
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let _ = c.access((state >> 16) & 0xff_ffff, false);
            }
        }),
    );

    // --- warp coalescing through a full simulated device ---------------
    let g = Group::new("coalesce");
    let mut gpu = Gpu::new(DeviceProfile::titan_x());
    const WORDS: u32 = 1 << 20;
    let buf = gpu.alloc(WORDS as usize);
    let threads = 24 * 8 * 32; // one warp per titan SM slot round
    const ROUNDS: u32 = 16;

    type IndexFn = fn(u32, u32) -> u32;
    let cases: [(&str, IndexFn); 3] = [
        // All 32 lanes in one sector: dedup collapses the warp to a
        // single transaction (the best case the paper's §3 relies on).
        ("broadcast", |_tid, r| r * 8),
        // Adjacent words: 4 sectors per warp, the common coalesced shape.
        ("unit-stride", |tid, r| tid.wrapping_add(r * 4096) % WORDS),
        // One sector per lane: the dedup loop's worst case, 32 distinct
        // sectors per warp instruction.
        ("sector-scatter", |tid, r| {
            tid.wrapping_mul(8).wrapping_add(r * 131) % WORDS
        }),
    ];
    for (id, index_of) in cases {
        push(
            "coalesce",
            id,
            g.bench(id, || {
                gpu.launch_warps("micro", threads, |w| {
                    let ids = w.thread_ids();
                    let m = w.launch_mask();
                    for r in 0..ROUNDS {
                        let idx = ids.map(|t| index_of(t, r));
                        let _ = w.load(buf, &idx, m);
                    }
                });
            }),
        );
        // Loads above are reads only; keep the device's kernel log from
        // growing across cases.
        gpu.reset_profiling();
    }

    // --- adaptive sampling: probe estimate + skip-test vs full hook ----
    let g = Group::new("sampling");

    // Probe-estimate cost: the fixed-size mode scan the adaptive variant
    // runs once between the sampled prologue and the remaining-edge
    // pass. Labels shaped like a post-compress snapshot: ~80% giant.
    const SNAPSHOT: usize = 1 << 20;
    let labels: Vec<u32> = (0..SNAPSHOT as u32)
        .map(|v| {
            let mut h = (v as u64).wrapping_mul(0x9e3779b97f4a7c15);
            h ^= h >> 29;
            if !h.is_multiple_of(5) {
                3
            } else {
                v
            }
        })
        .collect();
    push(
        "sampling",
        "probe-estimate",
        g.bench("probe-estimate", || {
            let mut hits = 0u32;
            for _ in 0..1_000 {
                if ecl_cc::sampling::estimate_giant(&labels, 1024) == Some(3) {
                    hits += 1;
                }
            }
            std::hint::black_box(hits);
        }),
    );

    // Skip-test branch vs unconditional hook, on the power-law shape the
    // short-circuit targets (one giant component, skewed degrees): the
    // adaptive final pass tests a snapshot label per vertex and skips
    // most adjacency lists; the baseline hooks every directed edge.
    let kron = ecl_graph::generate::kronecker(13, 8, 42);
    let samp_cfg = ecl_cc::EclConfig::with_sampling(2);
    let base_cfg = ecl_cc::EclConfig::default();
    push(
        "sampling",
        "skip-test-pass",
        g.bench("skip-test-pass", || {
            std::hint::black_box(ecl_cc::sampling::run_serial(&kron, &samp_cfg));
        }),
    );
    push(
        "sampling",
        "unconditional-hook",
        g.bench("unconditional-hook", || {
            std::hint::black_box(ecl_cc::serial::run(&kron, &base_cfg));
        }),
    );

    // --- lane-min reduction: branch-free SoA vs per-lane bit scan ------
    use ecl_gpu_sim::{Lanes, Mask};
    let g = Group::new("lane-min");
    const REDUCTIONS: u32 = 100_000;
    let vals = Lanes::iota(17, 13);
    // Half-active mask: the divergence shape where the bit-scan loop and
    // the select-mask chunks differ most.
    let mask = Mask(0xAAAA_5555);

    push(
        "lane-min",
        "scalar-bitscan",
        g.bench("scalar-bitscan", || {
            let mut acc = 0u32;
            for r in 0..REDUCTIONS {
                let v = vals.add_scalar(r);
                let m = mask.iter().map(|l| v.get(l)).min().unwrap_or(u32::MAX);
                acc = acc.wrapping_add(m);
            }
            std::hint::black_box(acc);
        }),
    );

    push(
        "lane-min",
        "vector-select-mask",
        g.bench("vector-select-mask", || {
            let mut acc = 0u32;
            for r in 0..REDUCTIONS {
                let v = vals.add_scalar(r);
                let m = v.min_masked(mask).unwrap_or(u32::MAX);
                acc = acc.wrapping_add(m);
            }
            std::hint::black_box(acc);
        }),
    );

    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn bench_returns_nonnegative_median() {
        let g = Group::new("selftest").sample_size(3);
        let m = g.bench("sum", || {
            let _ = black_box((0..1000u64).sum::<u64>());
        });
        assert!(m >= 0.0);
    }
}
