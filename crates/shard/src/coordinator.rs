//! The sharded-execution coordinator.
//!
//! [`run_sharded`] drives the whole multi-device pipeline:
//!
//! 1. **Partition** — [`ecl_graph::partition::partition_blocks`] splits
//!    the graph into contiguous-block shards with ghost replicas.
//! 2. **Local solve** — each shard runs ECL-CC on its own simulated
//!    [`Gpu`] (one device per shard, concurrently on host threads).
//!    Because each shard numbers vertices in ascending global order,
//!    the local component labels map straight back to *global minima
//!    over the locally visible part* of each component.
//! 3. **Exchange** — devices iterate min-label exchange rounds for the
//!    shared (boundary + ghost) vertices over a simulated
//!    [`Interconnect`]: every frame is digest-verified and
//!    retransmitted on drop or corruption, so injected interconnect
//!    faults cost latency, never answers. The fixpoint is a round in
//!    which no label anywhere improves.
//! 4. **Checkpoint** — after every round the coordinator persists the
//!    label frontier crash-safely (write-temp-fsync-rename).
//! 5. **Recover** — an injected device crash (`device_crash_at_round`)
//!    loses every shard the device hosted; the coordinator reassigns
//!    them to surviving devices, re-runs their local solve, folds the
//!    checkpointed frontier back in, and keeps exchanging in degraded
//!    N−1 mode. Past [`ShardConfig::crash_budget`] crashes (or with no
//!    surviving device) it degrades to the single-device fallback
//!    ladder.
//!
//! Correctness rests on the min-wins argument (Sutton, Ben-Nun & Barak,
//! arXiv:1612.01178): every label ever held for a vertex is the ID of
//! *some* vertex in its component, updates only ever lower labels
//! (monotone), and at fixpoint every shared vertex's label has
//! propagated across every shard boundary its component crosses — so
//! each component converges on its global minimum ID, which is exactly
//! the single-device serial answer, byte for byte. Replaying from an
//! older checkpoint (or from scratch) after a crash only *raises*
//! labels back toward their local values, which later rounds re-lower:
//! recovery can cost rounds, never correctness.

use crate::checkpoint::{read_checkpoint, write_checkpoint};
use crate::interconnect::{ExchangeStats, Interconnect, LinkModel};
use ecl_cc::ladder::{self, LadderConfig};
use ecl_cc::{CcResult, EclError};
use ecl_gpu_sim::{FaultPlan, FaultRng, Gpu};
use ecl_graph::partition::{partition_blocks, Partition};
use ecl_graph::{CsrGraph, Vertex};
use ecl_obs::{TraceEvent, PID_ENGINE};
use ecl_verify::Certificate;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Configuration for a sharded run.
#[derive(Clone)]
pub struct ShardConfig {
    /// Number of shards (= simulated devices before any crash); min 1.
    pub shards: usize,
    /// Every local solve runs with this ladder's `cc`, `profile`,
    /// `watchdog` and `exec`, and records into its `recorder` (per-device
    /// kernel timelines via `set_timeline_origin`, round spans,
    /// crash/recovery instants, `shard.*` metrics). Its `fault` plan's
    /// simulator knobs perturb each local solve, and its interconnect
    /// knobs (`drop=`/`corrupt=`/`crash=`) perturb the exchange, all
    /// from one seed. On degrade the whole ladder runs, with the
    /// interconnect knobs stripped from its fault plan.
    pub ladder: LadderConfig,
    /// Interconnect latency model.
    pub link: LinkModel,
    /// Directory for round-boundary label-frontier checkpoints; `None`
    /// disables checkpointing (crash recovery then restarts lost shards
    /// from their local solve, which is slower but still exact).
    pub checkpoint_dir: Option<PathBuf>,
    /// Device crashes tolerated before degrading to the single-device
    /// ladder. 0 degrades on the first crash.
    pub crash_budget: u32,
    /// Flight recorder fed with crash/recovery/degrade notes. On a
    /// device crash the coordinator also dumps `postmortem.json` into
    /// `flight_dir` (when set) — one of the always-on dump triggers.
    pub flight: Option<ecl_obs::FlightRecorder>,
    /// Where crash postmortems land; `None` keeps notes in-ring only.
    pub flight_dir: Option<PathBuf>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            ladder: LadderConfig::default(),
            link: LinkModel::default(),
            checkpoint_dir: None,
            crash_budget: 1,
            flight: None,
            flight_dir: None,
        }
    }
}

/// Everything the coordinator can report about one sharded run.
#[derive(Clone, Debug, Default)]
pub struct ShardReport {
    /// Shards (= devices at start).
    pub shards: usize,
    /// Exchange rounds until fixpoint (0 when a single shard needed no
    /// exchange at all).
    pub rounds: u64,
    /// Global vertices replicated on more than one shard.
    pub shared_vertices: usize,
    /// Interconnect counters (frames, retransmits, bytes, cycles).
    pub exchange: ExchangeStats,
    /// Injected device crashes absorbed.
    pub device_crashes: u32,
    /// Shards re-hosted and re-solved after a crash.
    pub shards_recovered: u32,
    /// Whether the run fell back to the single-device ladder.
    pub degraded: bool,
    /// Simulated cycles spent in local solves (sum over devices),
    /// including recovery re-solves.
    pub local_cycles: u64,
    /// Simulated cycles spent re-solving lost shards during recovery
    /// (subset of `local_cycles` — the recovery-overhead number the
    /// bench records).
    pub recovery_cycles: u64,
    /// Local solves that fell back to serial CPU after repeated
    /// simulator faults.
    pub local_serial_fallbacks: u32,
    /// Round-boundary checkpoints written.
    pub checkpoint_writes: u64,
    /// Checkpoint writes that failed (checkpointing is best-effort;
    /// failures weaken recovery, never correctness).
    pub checkpoint_errors: u64,
}

impl ShardReport {
    /// Flat JSON object (hand-rolled, like every report here).
    pub fn to_json(&self) -> String {
        ecl_obs::json::Obj::new()
            .u64("shards", self.shards as u64)
            .u64("rounds", self.rounds)
            .u64("shared_vertices", self.shared_vertices as u64)
            .u64("frames_sent", self.exchange.frames_sent)
            .u64("retransmits", self.exchange.retransmits)
            .u64("frames_dropped", self.exchange.drops)
            .u64("frames_corrupted", self.exchange.corruptions)
            .u64("exchange_bytes", self.exchange.bytes_sent)
            .u64("exchange_cycles", self.exchange.cycles)
            .u64("device_crashes", self.device_crashes as u64)
            .u64("shards_recovered", self.shards_recovered as u64)
            .bool("degraded", self.degraded)
            .u64("local_cycles", self.local_cycles)
            .u64("recovery_cycles", self.recovery_cycles)
            .u64("local_serial_fallbacks", self.local_serial_fallbacks as u64)
            .u64("checkpoint_writes", self.checkpoint_writes)
            .u64("checkpoint_errors", self.checkpoint_errors)
            .build()
    }
}

/// A certified sharded result.
pub struct ShardOutcome {
    /// The accepted labeling — byte-identical to single-device serial.
    pub result: CcResult,
    /// The verifier's certificate (canonical: labels are component
    /// minima).
    pub certificate: Certificate,
    /// Run statistics.
    pub report: ShardReport,
}

/// Per-shard runtime state: the local union-find outcome plus the
/// current best-known global label per local component.
struct ShardState {
    /// `local vertex → local root` from the local solve (local roots
    /// are local minima, hence global minima of the locally visible
    /// component fragment, by the monotone-remap invariant).
    comp_of: Vec<Vertex>,
    /// `local root → best-known global label` (entries for non-roots
    /// are unused).
    comp_label: Vec<Vertex>,
    /// Device currently hosting this shard.
    device: usize,
}

impl ShardState {
    fn label_of(&self, local: Vertex) -> Vertex {
        self.comp_label[self.comp_of[local as usize] as usize]
    }
}

/// Outcome of one local solve.
struct LocalSolve {
    labels: Vec<Vertex>,
    cycles: u64,
    serial_fallback: bool,
}

/// Strips the interconnect- and network-flavored knobs off a plan so
/// the simulated devices keep their fast path when only exchange faults
/// are requested.
fn sim_only(plan: &FaultPlan) -> FaultPlan {
    FaultPlan {
        frame_drop_permille: 0,
        frame_corrupt_permille: 0,
        device_crash_at_round: 0,
        frame_truncate_permille: 0,
        stall_permille: 0,
        disconnect_permille: 0,
        ..*plan
    }
}

/// Runs ECL-CC on one shard on a fresh simulated device. Simulator
/// faults are retried once on a reseeded device; a second failure falls
/// back to serial CPU (all backends agree byte-for-byte, so the
/// substitution is invisible downstream).
fn solve_local(
    shard_graph: &CsrGraph,
    cfg: &ShardConfig,
    device: usize,
    timeline_origin: u64,
) -> LocalSolve {
    for attempt in 0..2u64 {
        let mut gpu = Gpu::new(cfg.ladder.profile.clone());
        gpu.set_exec_mode(cfg.ladder.exec);
        let mut plan = sim_only(&cfg.ladder.fault);
        // Per-(device, attempt) seed, like the ladder's per-attempt
        // reseed, so a deterministic watchdog trip is not retried into
        // the identical wall.
        plan.seed = plan
            .seed
            .wrapping_add((device as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15))
            .wrapping_add(attempt);
        gpu.set_fault_plan(plan);
        gpu.set_watchdog(cfg.ladder.watchdog);
        if let Some(r) = &cfg.ladder.recorder {
            gpu.set_recorder(Some(r.clone()));
            gpu.set_timeline_origin(timeline_origin);
        }
        if let Ok((res, _)) = ecl_cc::gpu::try_run(&mut gpu, shard_graph, &cfg.ladder.cc) {
            return LocalSolve {
                labels: res.labels,
                cycles: gpu.total_cycles(),
                serial_fallback: false,
            };
        }
    }
    LocalSolve {
        labels: ecl_cc::serial::run(shard_graph, &cfg.ladder.cc).labels,
        cycles: 0,
        serial_fallback: true,
    }
}

/// Builds fresh per-shard state from a local solve: every local
/// component starts labeled with the global ID of its local root.
fn fresh_state(part: &Partition, shard: usize, solve: &LocalSolve, device: usize) -> ShardState {
    let sg = &part.shards[shard];
    ShardState {
        comp_of: solve.labels.clone(),
        comp_label: sg.globals.clone(),
        device,
    }
}

/// Folds a checkpointed frontier into a (re-)solved shard: each local
/// component takes the minimum checkpointed label over its members.
fn restore_from_frontier(part: &Partition, shard: usize, state: &mut ShardState, frontier: &[u32]) {
    let sg = &part.shards[shard];
    for local in 0..sg.globals.len() {
        let cand = frontier[sg.globals[local] as usize];
        let root = state.comp_of[local] as usize;
        if cand < state.comp_label[root] {
            state.comp_label[root] = cand;
        }
    }
}

/// Assembles the global label array from each owner shard's view.
fn assemble_labels(part: &Partition, states: &[ShardState]) -> Vec<Vertex> {
    let mut labels = vec![0 as Vertex; part.num_vertices];
    for (s, sg) in part.shards.iter().enumerate() {
        for local in 0..sg.globals.len() as Vertex {
            let global = sg.to_global(local);
            if sg.owns(global) {
                labels[global as usize] = states[s].label_of(local);
            }
        }
    }
    labels
}

/// Degrades to the single-device fallback ladder (crash budget
/// exhausted, no surviving device, or a dead interconnect link).
fn degrade(
    g: &CsrGraph,
    cfg: &ShardConfig,
    mut report: ShardReport,
) -> Result<ShardOutcome, EclError> {
    report.degraded = true;
    if let Some(r) = &cfg.ladder.recorder {
        r.record(TraceEvent::instant(
            "shard.degrade",
            "shard",
            PID_ENGINE,
            0,
            r.now_us(),
        ));
        r.add_metric("shard.degraded", 1.0);
    }
    let ladder_cfg = LadderConfig {
        fault: sim_only(&cfg.ladder.fault),
        ..cfg.ladder.clone()
    };
    let outcome = ladder::run_with_fallback(g, &ladder_cfg)?;
    Ok(ShardOutcome {
        result: outcome.result,
        certificate: outcome.certificate,
        report,
    })
}

/// Runs sharded multi-device ECL-CC (see the module docs for the
/// pipeline). The returned labeling is certified canonical — i.e.
/// byte-identical to single-device serial ECL-CC.
pub fn run_sharded(g: &CsrGraph, cfg: &ShardConfig) -> Result<ShardOutcome, EclError> {
    let num_shards = cfg.shards.max(1);
    let mut report = ShardReport {
        shards: num_shards,
        ..ShardReport::default()
    };

    let part = partition_blocks(g, num_shards);
    let shared = part.shared_vertices();
    report.shared_vertices = shared.len();

    // Exchange topology: for every ordered shard pair, the shared
    // vertices both host (BTreeMap ⇒ deterministic iteration order).
    let mut pair_verts: BTreeMap<(usize, usize), Vec<Vertex>> = BTreeMap::new();
    for (v, hosts) in &shared {
        for &a in hosts {
            for &b in hosts {
                if a != b {
                    pair_verts.entry((a, b)).or_default().push(*v);
                }
            }
        }
    }

    // ---- local solves: one device per shard, concurrently ------------
    // Per-device trace timelines: device d's kernel spans live in their
    // own origin window so one recorder can hold all devices.
    const TIMELINE_STRIDE: u64 = 1 << 33;
    let solves: Vec<LocalSolve> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..num_shards)
            .map(|s| {
                let sg = &part.shards[s];
                scope.spawn(move || solve_local(&sg.graph, cfg, s, s as u64 * TIMELINE_STRIDE))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut next_origin = num_shards as u64 * TIMELINE_STRIDE;
    for s in &solves {
        report.local_cycles += s.cycles;
        report.local_serial_fallbacks += s.serial_fallback as u32;
    }

    let mut states: Vec<ShardState> = solves
        .iter()
        .enumerate()
        .map(|(s, solve)| fresh_state(&part, s, solve, s))
        .collect();
    let mut alive = vec![true; num_shards];

    let mut net = Interconnect::new(&cfg.ladder.fault, cfg.link);
    let mut crash_rng = FaultRng::new(cfg.ladder.fault.seed, 0x0c4a_54ed);
    let mut crash_pending = cfg.ladder.fault.device_crash_at_round;
    let mut crashes: u32 = 0;

    let write_frontier =
        |round: u64, crashes: u32, states: &[ShardState], rep: &mut ShardReport| {
            if let Some(dir) = &cfg.checkpoint_dir {
                let labels = assemble_labels(&part, states);
                match write_checkpoint(dir, round, crashes, &labels) {
                    Ok(()) => rep.checkpoint_writes += 1,
                    Err(_) => rep.checkpoint_errors += 1,
                }
            }
        };

    // Round 0 boundary: the frontier right after the local solves.
    write_frontier(0, 0, &states, &mut report);

    // ---- exchange rounds to fixpoint ----------------------------------
    // Convergence bound: each round at fixpoint-distance propagates
    // every component's minimum at least one shard further along the
    // component's shard-quotient graph, whose diameter is < #shards;
    // crashes reset at most the lost shards. The hard cap only guards
    // against coordinator bugs.
    let max_rounds = 10 * num_shards as u64 + 16 + cfg.ladder.fault.device_crash_at_round;
    let mut round: u64 = 0;
    loop {
        round += 1;
        if round > max_rounds {
            // Should be unreachable; fail safe into the ladder.
            return degrade(g, cfg, report);
        }

        // Injected device crash at the start of this round.
        if crash_pending == round {
            crash_pending = 0;
            crashes += 1;
            report.device_crashes = crashes;
            let live: Vec<usize> = (0..num_shards).filter(|&d| alive[d]).collect();
            let victim = live[crash_rng.below(live.len() as u64) as usize];
            alive[victim] = false;
            if let Some(r) = &cfg.ladder.recorder {
                r.record(TraceEvent::instant(
                    &format!("shard.crash device={victim}"),
                    "shard",
                    PID_ENGINE,
                    0,
                    r.now_us(),
                ));
            }
            if let Some(f) = &cfg.flight {
                f.instant(
                    "shard",
                    "device-crash",
                    &format!("device={victim} round={round} crashes={crashes}"),
                );
                if let Some(dir) = &cfg.flight_dir {
                    let _ = f.dump_to(dir, "shard-device-crash");
                }
            }
            let survivors: Vec<usize> = (0..num_shards).filter(|&d| alive[d]).collect();
            if crashes > cfg.crash_budget || survivors.is_empty() {
                return degrade(g, cfg, report);
            }
            // Reassign and re-solve every shard the victim hosted, then
            // fold the checkpointed frontier back in. Survivor shards
            // keep their (possibly further-converged) in-memory state.
            let frontier = cfg
                .checkpoint_dir
                .as_deref()
                .and_then(read_checkpoint)
                .map(|ck| ck.labels);
            let lost: Vec<usize> = (0..num_shards)
                .filter(|&s| states[s].device == victim)
                .collect();
            for (i, &s) in lost.iter().enumerate() {
                let new_device = survivors[i % survivors.len()];
                let solve = solve_local(&part.shards[s].graph, cfg, new_device, next_origin);
                next_origin += TIMELINE_STRIDE;
                report.local_cycles += solve.cycles;
                report.recovery_cycles += solve.cycles;
                report.local_serial_fallbacks += solve.serial_fallback as u32;
                states[s] = fresh_state(&part, s, &solve, new_device);
                if let Some(f) = &frontier {
                    restore_from_frontier(&part, s, &mut states[s], f);
                }
                report.shards_recovered += 1;
                if let Some(r) = &cfg.ladder.recorder {
                    r.record(TraceEvent::instant(
                        &format!("shard.recover shard={s} device={new_device}"),
                        "shard",
                        PID_ENGINE,
                        0,
                        r.now_us(),
                    ));
                }
                if let Some(f) = &cfg.flight {
                    f.instant(
                        "shard",
                        "shard-recovered",
                        &format!("shard={s} device={new_device}"),
                    );
                }
            }
        }

        let round_t0 = cfg.ladder.recorder.as_ref().map(|r| r.now_us());
        let mut changed = false;
        for (&(src, dst), verts) in &pair_verts {
            let payload: Vec<(u32, u32)> = verts
                .iter()
                .map(|&v| {
                    let lv = part.shards[src]
                        .to_local(v)
                        .expect("host maps shared vertex");
                    (v, states[src].label_of(lv))
                })
                .collect();
            // Shards co-hosted on one device after recovery exchange
            // through device memory, not the interconnect.
            let delivered = if states[src].device == states[dst].device {
                payload
            } else {
                match net.transmit(states[src].device, states[dst].device, round, &payload) {
                    Ok(d) => d,
                    Err(_dead_link) => {
                        // A link that exhausts its retransmission budget
                        // is indistinguishable from a lost device: fault
                        // containment is the ladder.
                        report.exchange = net.stats;
                        return degrade(g, cfg, report);
                    }
                }
            };
            let st = &mut states[dst];
            for (v, label) in delivered {
                let lv = part.shards[dst]
                    .to_local(v)
                    .expect("host maps shared vertex");
                let root = st.comp_of[lv as usize] as usize;
                if label < st.comp_label[root] {
                    st.comp_label[root] = label;
                    changed = true;
                }
            }
        }

        if let (Some(r), Some(t0)) = (&cfg.ladder.recorder, round_t0) {
            let now = r.now_us();
            r.record(TraceEvent::span(
                &format!("shard.round {round}"),
                "shard",
                PID_ENGINE,
                0,
                t0,
                now.saturating_sub(t0).max(1),
            ));
        }

        if !changed && crash_pending == 0 {
            // A genuine fixpoint — but only once the scheduled crash
            // (if any) has fired, so a fast-converging run still
            // exercises its fault schedule.
            report.rounds = round;
            break;
        }
        write_frontier(round, crashes, &states, &mut report);
    }
    report.exchange = net.stats;

    // ---- assemble, certify, report ------------------------------------
    let labels = assemble_labels(&part, &states);
    let certificate = ecl_verify::certify_canonical(g, &labels).map_err(EclError::Verification)?;
    if let Some(r) = &cfg.ladder.recorder {
        r.add_metric("shard.devices", num_shards as f64);
        r.add_metric("shard.rounds", report.rounds as f64);
        r.add_metric("shard.shared_vertices", report.shared_vertices as f64);
        r.add_metric("shard.frames_sent", report.exchange.frames_sent as f64);
        r.add_metric("shard.retransmits", report.exchange.retransmits as f64);
        r.add_metric("shard.exchange_bytes", report.exchange.bytes_sent as f64);
        r.add_metric("shard.exchange_cycles", report.exchange.cycles as f64);
        r.add_metric("shard.crashes", report.device_crashes as f64);
        r.add_metric("shard.recovered", report.shards_recovered as f64);
        r.add_metric("shard.checkpoints", report.checkpoint_writes as f64);
        r.add_metric("shard.local_cycles", report.local_cycles as f64);
        r.add_metric("shard.recovery_cycles", report.recovery_cycles as f64);
    }
    Ok(ShardOutcome {
        result: CcResult { labels },
        certificate,
        report,
    })
}
