//! Property suite for the adaptive work-efficient variant (neighbor
//! sampling + giant-component short-circuit).
//!
//! The acceptance bar is byte-identity: for every corpus graph, every
//! execution path (serial, parallel at several widths, simulated GPU in
//! serial and host-parallel modes, sharded multi-device),
//! every sampled prefix size K, and even under injected faults, the
//! adaptive labels must equal baseline serial ECL-CC exactly — while
//! inspecting no more edges than the full pass.

use ecl_cc::{EclConfig, LadderConfig, SampleStats};
use ecl_gpu_sim::{DeviceProfile, ExecMode, FaultPlan, Gpu};
use ecl_graph::CsrGraph;
use ecl_integration::corpus;

const KS: [usize; 3] = [1, 2, 4];

fn baseline(g: &CsrGraph) -> Vec<u32> {
    ecl_cc::serial::run(g, &EclConfig::default()).labels
}

fn gpu_sampled(g: &CsrGraph, k: usize, exec: ExecMode) -> (Vec<u32>, SampleStats) {
    let mut gpu = Gpu::new(DeviceProfile::test_tiny());
    gpu.set_exec_mode(exec);
    let (r, s) = ecl_cc::gpu::run(&mut gpu, g, &EclConfig::with_sampling(k));
    (r.labels, s.sampling.expect("sampling stats present"))
}

#[test]
fn serial_and_parallel_byte_identical_across_corpus() {
    for (name, g) in corpus() {
        let want = baseline(&g);
        let budget = ecl_cc::sampling::baseline_edges_inspected(&g);
        for k in KS {
            let cfg = EclConfig::with_sampling(k);
            let (r, stats) = ecl_cc::sampling::run_serial(&g, &cfg);
            assert_eq!(r.labels, want, "{name} serial k={k}");
            assert!(
                stats.edges_inspected() <= budget,
                "{name} serial k={k}: {} > {budget}",
                stats.edges_inspected()
            );
            for threads in [1, 4, 8] {
                let (r, pstats) = ecl_cc::sampling::run_parallel(&g, threads, &cfg);
                assert_eq!(r.labels, want, "{name} parallel x{threads} k={k}");
                // The skip set is frozen against a deterministic snapshot,
                // so the counters are schedule-independent too.
                assert_eq!(pstats, stats, "{name} x{threads} k={k} counters drifted");
            }
        }
    }
}

#[test]
fn gpu_serial_and_parallel_modes_byte_identical() {
    for (name, g) in corpus() {
        let want = baseline(&g);
        for k in KS {
            let cpu_stats = ecl_cc::sampling::run_serial(&g, &EclConfig::with_sampling(k)).1;
            let (labels, stats) = gpu_sampled(&g, k, ExecMode::Serial);
            assert_eq!(labels, want, "{name} gpu-serial k={k}");
            assert_eq!(stats, cpu_stats, "{name} gpu k={k} counters drifted");
            let (labels, stats) = gpu_sampled(&g, k, ExecMode::HostParallel(4));
            assert_eq!(labels, want, "{name} gpu-parallel k={k}");
            assert_eq!(
                stats, cpu_stats,
                "{name} gpu-parallel k={k} counters drifted"
            );
        }
    }
}

#[test]
fn sharded_two_devices_byte_identical() {
    for (name, g) in corpus() {
        let want = baseline(&g);
        for k in KS {
            let cfg = ecl_shard::ShardConfig {
                shards: 2,
                ladder: LadderConfig {
                    cc: EclConfig::with_sampling(k),
                    ..LadderConfig::default()
                },
                ..ecl_shard::ShardConfig::default()
            };
            let out = ecl_shard::run_sharded(&g, &cfg).unwrap();
            assert_eq!(out.result.labels, want, "{name} sharded:2 k={k}");
            assert!(out.certificate.canonical, "{name} sharded:2 k={k}");
        }
    }
}

#[test]
fn fault_plans_never_break_byte_identity() {
    // Whatever the injected faults do to individual attempts, any answer
    // the ladder or the shard coordinator accepts must still be the
    // canonical labeling.
    let graphs: Vec<(String, CsrGraph)> = corpus()
        .into_iter()
        .filter(|(n, _)| matches!(n.as_str(), "rmat" | "kron" | "random" | "road-frag"))
        .collect();
    for (name, g) in &graphs {
        let want = baseline(g);
        for seed in [7u64, 0xfa11] {
            let cfg = ecl_cc::LadderConfig {
                cc: EclConfig::with_sampling(2),
                fault: FaultPlan::everything(seed),
                watchdog: Some(2_000_000),
                ..ecl_cc::LadderConfig::default()
            };
            let out = ecl_cc::ladder::run_with_fallback(g, &cfg).unwrap();
            assert_eq!(out.result.labels, want, "{name} ladder seed={seed:#x}");
        }
        let cfg = ecl_shard::ShardConfig {
            shards: 3,
            ladder: LadderConfig {
                cc: EclConfig::with_sampling(2),
                fault: FaultPlan::shard_chaos(11),
                ..LadderConfig::default()
            },
            ..ecl_shard::ShardConfig::default()
        };
        let out = ecl_shard::run_sharded(g, &cfg).unwrap();
        assert_eq!(out.result.labels, want, "{name} sharded chaos");
    }
}

#[test]
fn edge_inspection_strictly_reduced_on_powerlaw_graphs() {
    // On the social-network-like corpus entries (one giant component,
    // skewed degrees) sampling must do strictly less edge work; on the
    // rest it must never do more.
    let mut strict_checked = 0;
    for (name, g) in corpus() {
        let budget = ecl_cc::sampling::baseline_edges_inspected(&g);
        let (_, stats) = ecl_cc::sampling::run_serial(&g, &EclConfig::with_sampling(2));
        assert!(
            stats.edges_inspected() <= budget,
            "{name}: {} > {budget}",
            stats.edges_inspected()
        );
        if matches!(name.as_str(), "rmat" | "kron") {
            assert!(
                stats.edges_inspected() < budget,
                "{name}: expected strict reduction, got {} of {budget}",
                stats.edges_inspected()
            );
            assert!(stats.skipped_vertices > 0, "{name}: nothing skipped");
            strict_checked += 1;
        }
    }
    assert_eq!(strict_checked, 2, "corpus lost its power-law entries");
}
