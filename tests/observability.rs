//! Cross-crate contracts for the observability layer (`ecl-obs`):
//!
//! * **Observation only**: attaching an enabled recorder to the GPU
//!   simulator must not move a single cycle, cache access, or label —
//!   the disabled-recorder and enabled-recorder runs are bit-identical.
//!   (`tests/exec_equivalence.rs` additionally pins the absolute golden
//!   values with recording enabled.)
//! * **Round trip**: the Chrome trace-event exporter and the parser are
//!   inverse functions — export → parse reproduces the exact span tree.
//! * **Engine traces**: a batch run with a recorder in the ladder config
//!   produces schema-valid traces with one job span per job and the
//!   full kernel/ladder/queue event complement.

use ecl_cc::EclConfig;
use ecl_gpu_sim::{DeviceProfile, Gpu};
use ecl_graph::generate;
use ecl_obs::{
    parse_chrome_trace, validate_chrome_trace, EventKind, Recorder, PID_ENGINE, PID_SIM,
};

/// Runs ECL-CC serially with the given recorder and projects everything
/// the timing record contains.
#[allow(clippy::type_complexity)]
fn run_observed(
    recorder: Option<Recorder>,
) -> (
    Vec<u32>,
    u64,
    Vec<(String, u64, u64, u64, u64, u64)>,
    ecl_gpu_sim::CacheStats,
    ecl_gpu_sim::CacheStats,
) {
    let g = generate::gnm_random(1500, 4500, 9);
    let mut gpu = Gpu::new(DeviceProfile::titan_x());
    gpu.set_recorder(recorder);
    let (r, s) = ecl_cc::gpu::run(&mut gpu, &g, &EclConfig::default());
    let kernels = s
        .kernels
        .iter()
        .map(|k| {
            (
                k.name.clone(),
                k.cycles,
                k.instructions,
                k.l2_read_accesses,
                k.dram_transactions,
                k.atomics,
            )
        })
        .collect();
    (
        r.labels,
        s.total_cycles(),
        kernels,
        gpu.l1_stats(),
        gpu.l2_stats(),
    )
}

/// Recording on, recording off, and no recorder at all produce the same
/// labels, cycles, per-kernel stats, and per-level cache stats.
#[test]
fn recording_is_observation_only() {
    let plain = run_observed(None);
    let disabled = run_observed(Some(Recorder::disabled()));
    let enabled = run_observed(Some(Recorder::new()));
    assert_eq!(plain, disabled, "disabled recorder perturbed the run");
    assert_eq!(plain, enabled, "enabled recorder perturbed the run");
}

/// Export → parse is the identity on the recorded event list, and the
/// kernel spans land on the simulated-cycle track with the per-phase
/// breakdown attached.
#[test]
fn chrome_trace_round_trips_the_span_tree() {
    let g = generate::gnm_random(1200, 3600, 21);
    let rec = Recorder::new();
    let mut gpu = Gpu::new(DeviceProfile::titan_x());
    gpu.set_recorder(Some(rec.clone()));
    let (_, s) = ecl_cc::gpu::run(&mut gpu, &g, &EclConfig::default());

    let doc = rec.chrome_trace_json(&[("tool".into(), "test".into())]);
    let parsed = parse_chrome_trace(&doc).expect("exporter output must parse");
    assert_eq!(parsed, rec.events(), "round trip changed the event list");

    let summary = validate_chrome_trace(&doc).expect("exporter output must validate");
    assert_eq!(summary.events, parsed.len());
    assert!(summary.spans > 0, "no spans recorded");

    // One kernel span per launched kernel, on the simulated-cycle track,
    // carrying the cycle breakdown, contention counters and the launch's
    // host wall time as args.
    let kernel_spans: Vec<_> = parsed.iter().filter(|e| e.cat == "kernel").collect();
    assert_eq!(kernel_spans.len(), s.kernels.len());
    for (span, k) in kernel_spans.iter().zip(&s.kernels) {
        assert_eq!(span.pid, PID_SIM);
        assert_eq!(span.name, k.name);
        assert_eq!(span.kind, EventKind::Span { dur: k.cycles });
        for key in [
            "alu_cycles",
            "dram_cycles",
            "cas_attempts",
            "warp_occupancy",
            "host_ns",
        ] {
            assert!(
                span.args.iter().any(|(n, _)| n == key),
                "kernel span {} lost arg {key}",
                k.name
            );
        }
    }

    // Kernel spans tile the simulated timeline: each starts where the
    // previous ended.
    let mut cursor = 0u64;
    for span in &kernel_spans {
        assert_eq!(span.ts, cursor, "kernel {} overlaps", span.name);
        let EventKind::Span { dur } = span.kind else {
            unreachable!()
        };
        cursor += dur;
    }
    // The launches' host wall time is summed beside the simulated totals.
    assert!(
        rec.metrics().contains_key("sim.host_ns"),
        "sim.host_ns missing"
    );
}

/// A batch run with a recorder plugged into the ladder config emits a
/// schema-valid trace: one job span per job on the engine track, at
/// least one ladder span and one kernel span per job, and queue-depth
/// counter samples.
#[test]
fn engine_batch_trace_covers_jobs_ladder_and_kernels() {
    let jobs = ecl_engine::parse_jobs(
        "ring cycle:800\nrand gnm:1200:3600:5\ngrid grid:20:25\nstar star:600\n",
    )
    .unwrap();
    let rec = Recorder::new();
    let cfg = ecl_engine::EngineConfig {
        workers: 2,
        ladder: ecl_cc::LadderConfig {
            recorder: Some(rec.clone()),
            ..ecl_cc::LadderConfig::default()
        },
        ..ecl_engine::EngineConfig::default()
    };
    let report = ecl_engine::run_batch(&jobs, &cfg).unwrap();
    assert!(report.is_complete());

    let doc = rec.chrome_trace_json(&[]);
    let summary = validate_chrome_trace(&doc).unwrap();
    assert!(summary.counters > 0, "no queue-depth samples");
    let events = parse_chrome_trace(&doc).unwrap();

    let job_spans: Vec<_> = events.iter().filter(|e| e.cat == "job").collect();
    assert_eq!(job_spans.len(), jobs.len(), "one job span per job");
    for span in &job_spans {
        assert_eq!(span.pid, PID_ENGINE);
        assert!(
            span.args
                .iter()
                .any(|(k, v)| k == "status" && v == &ecl_obs::ArgValue::Str("done".into())),
            "job span {} not done: {:?}",
            span.name,
            span.args
        );
    }
    let ladder_spans = events.iter().filter(|e| e.cat == "ladder").count();
    assert!(ladder_spans >= jobs.len(), "missing ladder attempt spans");
    let kernel_spans = events.iter().filter(|e| e.cat == "kernel").count();
    assert!(kernel_spans >= 5 * jobs.len(), "missing simulator spans");
    assert_eq!(rec.metrics()["engine.jobs"], jobs.len() as f64);
    assert_eq!(rec.metrics()["ladder.certified"], jobs.len() as f64);
}
