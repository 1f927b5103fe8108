//! The simulator's timing record: cycles, cache statistics, and fault
//! behaviour are bit-for-bit reproducible, and this file pins them to
//! golden values captured from the original single-threaded
//! implementation — any refactor of the simulator's internals must keep
//! these numbers exactly.

use ecl_cc::EclConfig;
use ecl_gpu_sim::{DeviceProfile, FaultPlan, Gpu};
use ecl_graph::{generate, CsrGraph};

/// One golden per-kernel row:
/// (cycles, instructions, l1 hits, l2 reads, l2 writes, dram, atomics, warps).
type KernelRow = (u64, u64, u64, u64, u64, u64, u64, u64);

/// One golden serial run: five kernel rows for the plain pipeline, seven
/// under sampling.
struct Golden {
    total_cycles: u64,
    l2_reads: u64,
    l2_writes: u64,
    components: usize,
    kernels: &'static [KernelRow],
}

fn check_golden(
    g: &CsrGraph,
    profile: DeviceProfile,
    fault: FaultPlan,
    cfg: EclConfig,
    want: &Golden,
) {
    // Every golden must hold with recording off AND on: the observability
    // recorder is observation-only, so attaching an enabled recorder must
    // not move a single cycle, cache access, or fault-RNG draw.
    for recorder in [None, Some(ecl_obs::Recorder::new())] {
        let tag = if recorder.is_some() {
            "recording"
        } else {
            "plain"
        };
        let mut gpu = Gpu::new(profile.clone());
        gpu.set_fault_plan(fault);
        gpu.set_recorder(recorder);
        let (r, s) = ecl_cc::gpu::run(&mut gpu, g, &cfg);
        assert_eq!(s.total_cycles(), want.total_cycles, "{tag}: total_cycles");
        assert_eq!(s.l2_reads(), want.l2_reads, "{tag}: l2_reads");
        assert_eq!(s.l2_writes(), want.l2_writes, "{tag}: l2_writes");
        assert_eq!(r.num_components(), want.components, "{tag}: components");
        assert_eq!(s.kernels.len(), want.kernels.len(), "{tag}: launches");
        for (k, w) in s.kernels.iter().zip(want.kernels) {
            let got = (
                k.cycles,
                k.instructions,
                k.l1_hit_transactions,
                k.l2_read_accesses,
                k.l2_write_accesses,
                k.dram_transactions,
                k.atomics,
                k.warps,
            );
            assert_eq!(got, *w, "{tag}: kernel {}", k.name);
        }
    }
}

#[test]
fn serial_cycles_pinned_gnm_titan() {
    check_golden(
        &generate::gnm_random(2000, 6000, 42),
        DeviceProfile::titan_x(),
        FaultPlan::none(),
        EclConfig::default(),
        &Golden {
            total_cycles: 58350,
            l2_reads: 3260,
            l2_writes: 343,
            components: 5,
            kernels: &[
                (24996, 1152, 1634, 1950, 0, 1933, 0, 64),
                (20938, 5740, 18818, 1310, 343, 68, 343, 64),
                (4000, 0, 0, 0, 0, 0, 0, 64),
                (4000, 0, 0, 0, 0, 0, 0, 0),
                (4416, 546, 717, 0, 0, 0, 0, 64),
            ],
        },
    );
}

#[test]
fn serial_cycles_pinned_star_tiny() {
    check_golden(
        &generate::star(1000),
        DeviceProfile::test_tiny(),
        FaultPlan::none(),
        EclConfig::default(),
        &Golden {
            total_cycles: 56270,
            l2_reads: 1370,
            l2_writes: 268,
            components: 1,
            kernels: &[
                (28662, 3218, 1006, 588, 145, 505, 0, 16),
                (14920, 354, 184, 476, 14, 375, 1, 16),
                (100, 0, 0, 0, 0, 0, 0, 16),
                (9512, 101, 2, 159, 0, 127, 0, 2),
                (3076, 256, 198, 147, 109, 37, 0, 16),
            ],
        },
    );
}

#[test]
fn serial_cycles_pinned_rmat_k40() {
    check_golden(
        &generate::rmat(10, 8, generate::RmatParams::GALOIS, 7),
        DeviceProfile::k40(),
        FaultPlan::none(),
        EclConfig::default(),
        &Golden {
            total_cycles: 102483,
            l2_reads: 3391,
            l2_writes: 353,
            components: 6,
            kernels: &[
                (31107, 491, 319, 1197, 0, 1188, 0, 32),
                (31495, 3510, 10648, 785, 353, 236, 353, 32),
                (31384, 4009, 5091, 1409, 0, 770, 0, 32),
                (4000, 0, 0, 0, 0, 0, 0, 0),
                (4497, 259, 354, 0, 0, 0, 0, 32),
            ],
        },
    );
}

/// The sampling pipeline's seven launches (init, sample_hook, compress,
/// final_hook_skip, compute2, compute3, finalize), pinned like the plain
/// goldens. The two cliques goldens keep the edge window busy in the
/// warp kernel (default thresholds) and in the block kernel (lowered
/// thresholds), where the power-law graphs skip every worklist vertex.
#[test]
fn serial_cycles_pinned_sampling_gnm_titan() {
    check_golden(
        &generate::gnm_random(2000, 6000, 42),
        DeviceProfile::titan_x(),
        FaultPlan::none(),
        EclConfig::with_sampling(2),
        &Golden {
            total_cycles: 65460,
            l2_reads: 3685,
            l2_writes: 347,
            components: 5,
            kernels: &[
                (24996, 1152, 1634, 1950, 0, 1933, 0, 64),
                (17310, 2734, 9592, 1477, 347, 34, 347, 64),
                (4460, 591, 752, 0, 0, 0, 0, 64),
                (6302, 209, 67, 258, 0, 251, 0, 64),
                (4000, 0, 0, 0, 0, 0, 0, 64),
                (4000, 0, 0, 0, 0, 0, 0, 0),
                (4392, 504, 689, 0, 0, 0, 0, 64),
            ],
        },
    );
}

#[test]
fn serial_cycles_pinned_sampling_kronecker_tiny() {
    check_golden(
        &generate::kronecker(10, 8, 7),
        DeviceProfile::test_tiny(),
        FaultPlan::none(),
        EclConfig::with_sampling(2),
        &Golden {
            total_cycles: 106037,
            l2_reads: 3697,
            l2_writes: 595,
            components: 218,
            kernels: &[
                (36852, 1325, 464, 897, 150, 817, 0, 16),
                (51143, 885, 530, 2160, 196, 855, 42, 16),
                (2816, 259, 192, 148, 112, 26, 0, 16),
                (11490, 232, 70, 340, 28, 277, 0, 16),
                (100, 0, 0, 0, 0, 0, 0, 16),
                (100, 0, 0, 0, 0, 0, 0, 0),
                (3536, 256, 187, 152, 109, 43, 0, 16),
            ],
        },
    );
}

#[test]
fn serial_cycles_pinned_sampling_cliques_tiny() {
    let g = generate::disjoint_cliques(6, 30);
    check_golden(
        &g,
        DeviceProfile::test_tiny(),
        FaultPlan::none(),
        EclConfig::with_sampling(2),
        &Golden {
            total_cycles: 73818,
            l2_reads: 2020,
            l2_writes: 226,
            components: 6,
            kernels: &[
                (11606, 462, 171, 256, 20, 243, 0, 6),
                (13940, 101, 47, 444, 8, 248, 0, 6),
                (976, 48, 44, 23, 0, 9, 0, 6),
                (5338, 54, 24, 224, 183, 59, 150, 6),
                (41294, 1645, 1136, 1053, 15, 736, 0, 6),
                (100, 0, 0, 0, 0, 0, 0, 0),
                (564, 48, 47, 20, 0, 2, 0, 6),
            ],
        },
    );
    check_golden(
        &g,
        DeviceProfile::test_tiny(),
        FaultPlan::none(),
        EclConfig {
            warp_threshold: 4,
            block_threshold: 16,
            ..EclConfig::with_sampling(2)
        },
        &Golden {
            total_cycles: 62630,
            l2_reads: 2165,
            l2_writes: 225,
            components: 6,
            kernels: &[
                (11606, 462, 171, 256, 20, 243, 0, 6),
                (13940, 101, 47, 444, 8, 248, 0, 6),
                (976, 48, 44, 23, 0, 9, 0, 6),
                (5284, 54, 30, 218, 176, 59, 150, 6),
                (100, 0, 0, 0, 0, 0, 0, 6),
                (30142, 1790, 1281, 1203, 21, 605, 0, 300),
                (582, 48, 46, 21, 0, 2, 0, 6),
            ],
        },
    );
}

/// Fault injection exercises the RNG draw order, warp shuffling, and
/// spurious-CAS paths — the parts of the refactor most likely to disturb
/// serial reproducibility. The totals and the SM load-balance metric are
/// pinned from the pre-refactor implementation.
#[test]
fn serial_fault_run_pinned() {
    let g = generate::gnm_random(2000, 6000, 42);
    // The fault-RNG draw sequence is the part of the timing record most
    // easily perturbed by a stray observation, so this golden also runs
    // with an enabled recorder attached.
    for recorder in [None, Some(ecl_obs::Recorder::new())] {
        let mut gpu = Gpu::new(DeviceProfile::titan_x());
        gpu.set_fault_plan(FaultPlan::everything(0xfa11));
        gpu.set_recorder(recorder);
        let (r, s) = ecl_cc::gpu::run(&mut gpu, &g, &EclConfig::default());
        assert_eq!(s.total_cycles(), 158142);
        assert_eq!(s.l2_reads(), 3293);
        assert_eq!(s.l2_writes(), 376);
        assert_eq!(r.num_components(), 5);
        let cycles: Vec<u64> = s.kernels.iter().map(|k| k.cycles).collect();
        assert_eq!(cycles, [44418, 98932, 4000, 4000, 6792]);
        assert_eq!(s.kernels[1].atomics, 376);
        assert!((gpu.sm_balance() - 0.262795).abs() < 1e-6);
    }
}

/// Per-level cache statistics are part of the serial timing record: the
/// L1 and L2 `CacheStats` of the three golden configs are pinned to the
/// values captured from the original implementation. These are the
/// numbers the paper's Table 3 is regenerated from, so a cache refactor
/// that preserves cycle totals but shifts hit/miss classification still
/// fails here.
#[test]
fn serial_cache_stats_pinned_per_level() {
    // (read_accesses, write_accesses, read_hits, write_hits, writebacks)
    type Row = (u64, u64, u64, u64, u64);
    let project = |s: ecl_gpu_sim::CacheStats| -> Row {
        (
            s.read_accesses,
            s.write_accesses,
            s.read_hits,
            s.write_hits,
            s.writebacks,
        )
    };
    let cases: [(&str, CsrGraph, DeviceProfile, Row, Row); 3] = [
        (
            "gnm/titan",
            generate::gnm_random(2000, 6000, 42),
            DeviceProfile::titan_x(),
            (22596, 1490, 19937, 1232, 0),
            (3260, 343, 1259, 343, 0),
        ),
        (
            "star/tiny",
            generate::star(1000),
            DeviceProfile::test_tiny(),
            (2445, 314, 1234, 156, 267),
            (1370, 268, 326, 268, 65),
        ),
        (
            "rmat/k40",
            generate::rmat(10, 8, generate::RmatParams::GALOIS, 7),
            DeviceProfile::k40(),
            (18633, 817, 15775, 637, 0),
            (3391, 353, 1197, 353, 0),
        ),
    ];
    for (name, g, profile, l1_want, l2_want) in cases {
        // Cache goldens, like cycle goldens, must hold with recording on.
        for recorder in [None, Some(ecl_obs::Recorder::new())] {
            let tag = if recorder.is_some() {
                "recording"
            } else {
                "plain"
            };
            let mut gpu = Gpu::new(profile.clone());
            gpu.set_recorder(recorder);
            let _ = ecl_cc::gpu::run(&mut gpu, &g, &EclConfig::default());
            assert_eq!(project(gpu.l1_stats()), l1_want, "{name}/{tag}: L1 stats");
            assert_eq!(project(gpu.l2_stats()), l2_want, "{name}/{tag}: L2 stats");
        }
    }
}
