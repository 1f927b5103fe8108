//! Benchmark + acceptance harness for sharded multi-device execution.
//!
//! For each quick-set graph and shard count {2, 4, 8} it runs three
//! in-process configurations against the serial baseline:
//!
//! 1. **clean** — no injected faults: rounds to fixpoint, exchange
//!    frames/bytes, and modeled interconnect cycles.
//! 2. **chaos** — the seeded `shard-chaos` drop/corrupt mix: the frame
//!    retransmission tax for the same answer.
//! 3. **crash** — chaos plus a device crash at round 2 with
//!    checkpointing on: recovery overhead (extra rounds and re-solve
//!    cycles) for a run that still finishes in degraded N−1 mode.
//!
//! Every configuration's labels must be byte-identical to serial
//! ECL-CC and certified canonical — any divergence fails the process
//! (exit 1), which is the CI gate. The summary JSON (`BENCH_sharded.json`
//! by default) carries one record per (graph, shards, mode) plus
//! greppable top-level pass/fail fields.

use ecl_cc::LadderConfig;
use ecl_gpu_sim::FaultPlan;
use ecl_graph::catalog::Scale;
use ecl_obs::json::Obj;
use ecl_shard::{run_sharded, ShardConfig};
use std::time::Instant;

/// One measured configuration, flattened for the JSON report.
struct ShardRecord {
    graph: &'static str,
    shards: usize,
    mode: &'static str,
    rounds: u64,
    shared_vertices: u64,
    frames: u64,
    retransmits: u64,
    exchange_bytes: u64,
    exchange_cycles: u64,
    crashes: u64,
    recovered: u64,
    recovery_cycles: u64,
    wall_ms: f64,
    byte_identical: bool,
    certified: bool,
}

impl ShardRecord {
    fn to_json(&self) -> String {
        Obj::new()
            .str("graph", self.graph)
            .u64("shards", self.shards as u64)
            .str("mode", self.mode)
            .u64("rounds", self.rounds)
            .u64("shared_vertices", self.shared_vertices)
            .u64("frames", self.frames)
            .u64("retransmits", self.retransmits)
            .u64("exchange_bytes", self.exchange_bytes)
            .u64("exchange_cycles", self.exchange_cycles)
            .u64("crashes", self.crashes)
            .u64("recovered", self.recovered)
            .u64("recovery_cycles", self.recovery_cycles)
            .f64("wall_ms", self.wall_ms)
            .bool("byte_identical", self.byte_identical)
            .bool("certified", self.certified)
            .build()
    }
}

/// Runs the sharded experiment matrix and writes the summary JSON.
/// Exits nonzero when any configuration diverges from serial or fails
/// certification.
pub fn sharded(scale: Scale, plan: FaultPlan, json_path: &str) {
    let graphs = crate::quick_graphs(scale);
    let ckpt_root = std::env::temp_dir().join(format!("ecl-bench-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_root);

    let mut records: Vec<ShardRecord> = Vec::new();
    println!(
        "# sharded multi-device execution — scale {scale:?}, seed {}",
        plan.seed
    );
    println!(
        "{:<18} {:>6} {:>6} {:>7} {:>8} {:>11} {:>12} {:>9} {:>8}",
        "graph", "shards", "mode", "rounds", "frames", "retransmit", "bytes", "wall ms", "exact"
    );

    for (name, g) in &graphs {
        let serial = ecl_cc::connected_components(g).labels;
        for shards in [2usize, 4, 8] {
            // clean / chaos / crash share one closure; only the fault
            // plan and checkpoint dir differ.
            let mut run = |mode: &'static str, fault: FaultPlan, ckpt: bool| {
                let cfg = ShardConfig {
                    shards,
                    ladder: LadderConfig {
                        fault,
                        ..LadderConfig::default()
                    },
                    checkpoint_dir: ckpt.then(|| ckpt_root.join(format!("{name}-{shards}-{mode}"))),
                    crash_budget: 1,
                    ..ShardConfig::default()
                };
                let t0 = Instant::now();
                let out = run_sharded(g, &cfg).expect("sharded run failed");
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                let rec = ShardRecord {
                    graph: name,
                    shards,
                    mode,
                    rounds: out.report.rounds,
                    shared_vertices: out.report.shared_vertices as u64,
                    frames: out.report.exchange.frames_sent,
                    retransmits: out.report.exchange.retransmits,
                    exchange_bytes: out.report.exchange.bytes_sent,
                    exchange_cycles: out.report.exchange.cycles,
                    crashes: out.report.device_crashes as u64,
                    recovered: out.report.shards_recovered as u64,
                    recovery_cycles: out.report.recovery_cycles,
                    wall_ms,
                    byte_identical: out.result.labels == serial,
                    certified: out.certificate.canonical,
                };
                println!(
                    "{:<18} {:>6} {:>6} {:>7} {:>8} {:>11} {:>12} {:>9.2} {:>8}",
                    rec.graph,
                    rec.shards,
                    rec.mode,
                    rec.rounds,
                    rec.frames,
                    rec.retransmits,
                    rec.exchange_bytes,
                    rec.wall_ms,
                    if rec.byte_identical && rec.certified {
                        "yes"
                    } else {
                        "NO"
                    }
                );
                records.push(rec);
            };

            run("clean", FaultPlan::none(), false);
            run("chaos", FaultPlan::shard_chaos(plan.seed), false);
            let mut crash = FaultPlan::shard_chaos(plan.seed.wrapping_add(1));
            crash.device_crash_at_round = 2;
            run("crash", crash, true);
        }
    }
    let _ = std::fs::remove_dir_all(&ckpt_root);

    let exact = records
        .iter()
        .filter(|r| r.byte_identical && r.certified)
        .count();
    let crash_recovered = records
        .iter()
        .filter(|r| r.mode == "crash" && r.crashes >= 1 && r.recovered >= 1)
        .count();
    let crash_total = records.iter().filter(|r| r.mode == "crash").count();
    // Recovery overhead: extra rounds a crashed run needs over its clean
    // twin, averaged across the matrix.
    let mut extra_rounds = 0i64;
    for r in records.iter().filter(|r| r.mode == "crash") {
        if let Some(clean) = records
            .iter()
            .find(|c| c.mode == "clean" && c.graph == r.graph && c.shards == r.shards)
        {
            extra_rounds += r.rounds as i64 - clean.rounds as i64;
        }
    }
    let avg_extra_rounds = if crash_total > 0 {
        extra_rounds as f64 / crash_total as f64
    } else {
        0.0
    };
    let pass = exact == records.len() && crash_recovered == crash_total;
    println!(
        "\nsharded: {exact}/{} exact, {crash_recovered}/{crash_total} crash runs recovered, \
         avg +{avg_extra_rounds:.1} rounds recovery overhead",
        records.len()
    );

    let items: Vec<String> = records.iter().map(ShardRecord::to_json).collect();
    let json = Obj::new()
        .str("experiment", "sharded")
        .str("scale", &format!("{scale:?}").to_lowercase())
        .u64("fault_seed", plan.seed)
        .u64("configurations", records.len() as u64)
        .u64("byte_identical", exact as u64)
        .u64("crash_runs", crash_total as u64)
        .u64("crash_recovered", crash_recovered as u64)
        .f64("avg_recovery_extra_rounds", avg_extra_rounds)
        .bool("pass", pass)
        .arr("records", &items)
        .build();
    std::fs::write(json_path, format!("{json}\n")).expect("write sharded summary");
    println!("wrote sharded summary to {json_path}");

    if !pass {
        eprintln!(
            "sharded: FAILED ({exact}/{} exact, {crash_recovered}/{crash_total} recovered)",
            records.len()
        );
        std::process::exit(1);
    }
}
