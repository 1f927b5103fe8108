//! Sharded multi-device ECL-CC with fault-contained label exchange.
//!
//! This crate scales the simulated ECL-CC pipeline past one device: an
//! edge-cut partitioner splits the graph across N simulated GPUs, each
//! solves its shard locally, and the devices then reconcile shared
//! vertices through min-label exchange rounds over a simulated,
//! latency-modeled interconnect until a global fixpoint.
//!
//! Robustness is the design center, not a bolt-on:
//!
//! * every exchange frame carries an FNV digest and is retransmitted on
//!   drop or mismatch ([`interconnect`]),
//! * every round boundary persists a crash-safe label-frontier
//!   checkpoint ([`checkpoint`]),
//! * an injected device crash is absorbed by reassigning the lost
//!   shards to survivors and folding the checkpoint back in (degraded
//!   N−1 mode), and past the crash budget the run degrades to the
//!   single-device fallback ladder ([`coordinator`]).
//!
//! The acceptance bar for all of it is byte-identity: whatever the
//! shard count, worker count, or seeded fault schedule, the final
//! labels equal single-device serial ECL-CC exactly, certified
//! canonical by `ecl-verify`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod coordinator;
pub mod interconnect;

pub use coordinator::{run_sharded, ShardConfig, ShardOutcome, ShardReport};
pub use interconnect::{ExchangeStats, Interconnect, LinkError, LinkModel};

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_cc::LadderConfig;
    use ecl_gpu_sim::FaultPlan;
    use ecl_graph::generate;

    fn serial_labels(g: &ecl_graph::CsrGraph) -> Vec<u32> {
        ecl_cc::connected_components(g).labels
    }

    /// `shards` devices under `fault`, everything else default.
    fn faulted(shards: usize, fault: FaultPlan) -> ShardConfig {
        let ladder = LadderConfig {
            fault,
            ..LadderConfig::default()
        };
        ShardConfig {
            shards,
            ladder,
            ..ShardConfig::default()
        }
    }

    #[test]
    fn sharded_equals_serial_clean() {
        for shards in [1, 2, 3, 4, 8] {
            for g in [
                generate::grid2d(12, 9),
                generate::gnm_random(300, 600, 5),
                generate::disjoint_cliques(10, 7),
                generate::path(50),
            ] {
                let cfg = ShardConfig {
                    shards,
                    ..ShardConfig::default()
                };
                let out = run_sharded(&g, &cfg).unwrap();
                assert_eq!(
                    out.result.labels,
                    serial_labels(&g),
                    "shards={shards} diverged from serial"
                );
                assert!(out.certificate.canonical);
                assert!(!out.report.degraded);
            }
        }
    }

    #[test]
    fn sharded_equals_serial_under_interconnect_chaos() {
        let g = generate::gnm_random(400, 900, 11);
        let want = serial_labels(&g);
        for seed in 1..=5u64 {
            let cfg = faulted(4, FaultPlan::shard_chaos(seed));
            let out = run_sharded(&g, &cfg).unwrap();
            assert_eq!(out.result.labels, want, "seed {seed} diverged");
            assert!(
                out.report.exchange.retransmits > 0 || out.report.exchange.frames_sent == 0,
                "seed {seed}: chaos plan should have forced retransmissions"
            );
        }
    }

    #[test]
    fn device_crash_recovers_from_checkpoint_in_degraded_mode() {
        let g = generate::gnm_random(350, 700, 3);
        let want = serial_labels(&g);
        let dir = std::env::temp_dir().join(format!("ecl-shard-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fault = FaultPlan::shard_chaos(9);
        fault.device_crash_at_round = 2;
        let cfg = ShardConfig {
            checkpoint_dir: Some(dir.clone()),
            crash_budget: 1,
            ..faulted(4, fault)
        };
        let out = run_sharded(&g, &cfg).unwrap();
        assert_eq!(out.result.labels, want);
        assert_eq!(out.report.device_crashes, 1);
        assert!(out.report.shards_recovered >= 1);
        assert!(out.report.recovery_cycles > 0 || out.report.local_serial_fallbacks > 0);
        assert!(!out.report.degraded, "one crash is within budget");
        assert!(out.report.checkpoint_writes >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_without_checkpoint_dir_still_exact() {
        let g = generate::grid2d(15, 15);
        let mut fault = FaultPlan::none();
        fault.seed = 4;
        fault.device_crash_at_round = 1;
        let cfg = faulted(3, fault);
        let out = run_sharded(&g, &cfg).unwrap();
        assert_eq!(out.result.labels, serial_labels(&g));
        assert_eq!(out.report.device_crashes, 1);
    }

    #[test]
    fn crash_past_budget_degrades_to_ladder() {
        let g = generate::grid2d(10, 10);
        let mut fault = FaultPlan::none();
        fault.seed = 2;
        fault.device_crash_at_round = 1;
        let cfg = ShardConfig {
            crash_budget: 0,
            ..faulted(2, fault)
        };
        let out = run_sharded(&g, &cfg).unwrap();
        assert!(out.report.degraded);
        assert_eq!(out.result.labels, serial_labels(&g));
    }

    #[test]
    fn sharded_sampling_equals_serial_even_under_chaos() {
        // The adaptive local solves must not disturb the byte-identity
        // bar: sampling labels are canonical per shard, so the exchange
        // converges to the same global minima.
        let g = generate::gnm_random(400, 1200, 21);
        let want = serial_labels(&g);
        for (shards, fault) in [(2, FaultPlan::none()), (4, FaultPlan::shard_chaos(3))] {
            let mut cfg = faulted(shards, fault);
            cfg.ladder.cc = ecl_cc::EclConfig::with_sampling(2);
            let out = run_sharded(&g, &cfg).unwrap();
            assert_eq!(out.result.labels, want, "shards={shards} diverged");
            assert!(out.certificate.canonical);
        }
    }

    #[test]
    fn report_json_is_flat_and_parseable() {
        let g = generate::gnm_random(200, 400, 1);
        let out = run_sharded(&g, &faulted(3, FaultPlan::shard_chaos(1))).unwrap();
        let json = out.report.to_json();
        let v = ecl_obs::json::parse(&json).expect("report JSON parses");
        let obj = match v {
            ecl_obs::json::Value::Obj(o) => o,
            other => panic!("expected object, got {other:?}"),
        };
        assert!(obj.iter().any(|(k, _)| k == "rounds"));
        assert!(obj.iter().any(|(k, _)| k == "exchange_bytes"));
    }
}
