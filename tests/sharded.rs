//! Acceptance matrix for sharded multi-device execution: final labels
//! must be byte-identical to single-device serial ECL-CC for every
//! shard count and seeded fault schedule — certified
//! canonical by `ecl-verify` — including device-crash recovery in
//! degraded N−1 mode.

use ecl_cc::LadderConfig;
use ecl_gpu_sim::FaultPlan;
use ecl_graph::catalog::{PaperGraph, Scale};
use ecl_shard::{run_sharded, ShardConfig};

fn serial_labels(g: &ecl_graph::CsrGraph) -> Vec<u32> {
    ecl_cc::connected_components(g).labels
}

/// Clean runs: shard counts {2, 4, 8} across all eighteen bundled
/// graphs.
#[test]
fn sharded_byte_identical_on_all_bundled_graphs() {
    for pg in PaperGraph::ALL {
        let g = pg.generate(Scale::Tiny);
        let want = serial_labels(&g);
        for shards in [2usize, 4, 8] {
            let cfg = ShardConfig {
                shards,
                ..ShardConfig::default()
            };
            let out = run_sharded(&g, &cfg).unwrap();
            assert_eq!(
                out.result.labels,
                want,
                "{}: shards={shards} diverged from serial",
                pg.info().name
            );
            assert!(out.certificate.canonical, "{}", pg.info().name);
            assert_eq!(out.certificate.num_vertices, g.num_vertices());
            assert!(!out.report.degraded);
        }
    }
}

/// Seeded shard-chaos schedules (dropped + corrupted frames) on the
/// quick catalog subset: answers stay byte-identical, faults only cost
/// retransmissions.
#[test]
fn sharded_byte_identical_under_shard_chaos() {
    let quick = [
        PaperGraph::Grid2d,
        PaperGraph::EuropeOsm,
        PaperGraph::Rmat16,
        PaperGraph::SocLivejournal,
    ];
    for pg in quick {
        let g = pg.generate(Scale::Tiny);
        let want = serial_labels(&g);
        for shards in [2usize, 4] {
            for seed in [1u64, 7, 1234] {
                let cfg = ShardConfig {
                    shards,
                    ladder: LadderConfig {
                        fault: FaultPlan::shard_chaos(seed),
                        ..LadderConfig::default()
                    },
                    ..ShardConfig::default()
                };
                let out = run_sharded(&g, &cfg).unwrap();
                assert_eq!(
                    out.result.labels,
                    want,
                    "{}: shards={shards} seed={seed} diverged",
                    pg.info().name
                );
                assert!(!out.report.degraded);
            }
        }
    }
}

/// A mid-run device crash with checkpoint-resume: the coordinator
/// reassigns the lost shard to survivors (degraded N−1 mode) and the
/// final labels still match serial byte-for-byte.
#[test]
fn sharded_crash_recovery_byte_identical() {
    let dir = std::env::temp_dir().join(format!("ecl-sharded-it-{}", std::process::id()));
    for pg in [PaperGraph::Grid2d, PaperGraph::SocLivejournal] {
        let g = pg.generate(Scale::Tiny);
        let want = serial_labels(&g);
        for seed in [1u64, 5] {
            let _ = std::fs::remove_dir_all(&dir);
            let mut fault = FaultPlan::shard_chaos(seed);
            fault.device_crash_at_round = 2;
            let cfg = ShardConfig {
                shards: 4,
                ladder: LadderConfig {
                    fault,
                    ..LadderConfig::default()
                },
                checkpoint_dir: Some(dir.clone()),
                crash_budget: 1,
                ..ShardConfig::default()
            };
            let out = run_sharded(&g, &cfg).unwrap();
            assert_eq!(
                out.result.labels,
                want,
                "{} seed={seed}: crash recovery diverged",
                pg.info().name
            );
            assert_eq!(out.report.device_crashes, 1);
            assert!(
                out.report.shards_recovered >= 1,
                "a shard must be re-hosted"
            );
            assert!(!out.report.degraded, "one crash is within budget");
            assert!(
                out.report.checkpoint_writes >= 1,
                "round boundaries must checkpoint"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Determinism: the same seeded schedule replays to identical exchange
/// counters, not just identical labels.
#[test]
fn sharded_chaos_replays_bit_for_bit() {
    let g = PaperGraph::EuropeOsm.generate(Scale::Tiny);
    let run = || {
        let cfg = ShardConfig {
            shards: 4,
            ladder: LadderConfig {
                fault: FaultPlan::shard_chaos(21),
                ..LadderConfig::default()
            },
            ..ShardConfig::default()
        };
        let out = run_sharded(&g, &cfg).unwrap();
        (
            out.result.labels,
            out.report.rounds,
            out.report.exchange.frames_sent,
            out.report.exchange.retransmits,
            out.report.exchange.bytes_sent,
            out.report.exchange.cycles,
        )
    };
    assert_eq!(run(), run());
}

/// Observability: a sharded run with a recorder produces per-device
/// kernel spans in disjoint timeline windows, round spans, and the
/// `shard.*` metrics document.
#[test]
fn sharded_run_is_observable() {
    let g = PaperGraph::Grid2d.generate(Scale::Tiny);
    let rec = ecl_obs::Recorder::new();
    let mut fault = FaultPlan::shard_chaos(2);
    fault.device_crash_at_round = 1;
    let cfg = ShardConfig {
        shards: 3,
        ladder: LadderConfig {
            fault,
            recorder: Some(rec.clone()),
            ..LadderConfig::default()
        },
        crash_budget: 1,
        ..ShardConfig::default()
    };
    let out = run_sharded(&g, &cfg).unwrap();
    assert!(!out.report.degraded);

    let metrics = rec.metrics();
    for key in [
        "shard.devices",
        "shard.rounds",
        "shard.frames_sent",
        "shard.exchange_bytes",
        "shard.crashes",
        "shard.recovered",
    ] {
        assert!(metrics.contains_key(key), "missing metric {key}");
    }
    assert_eq!(metrics["shard.devices"], 3.0);
    assert_eq!(metrics["shard.crashes"], 1.0);

    let events = rec.events();
    let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    assert!(
        names.iter().any(|n| n.starts_with("shard.round")),
        "round spans missing"
    );
    assert!(
        names.iter().any(|n| n.starts_with("shard.crash")),
        "crash instant missing"
    );
    assert!(
        names.iter().any(|n| n.starts_with("shard.recover")),
        "recovery instant missing"
    );
    // The trace document stays schema-valid with the shard events in it.
    let trace = rec.chrome_trace_json(&[("experiment".into(), "sharded-test".into())]);
    ecl_obs::validate_chrome_trace(&trace).expect("sharded trace validates");
}
