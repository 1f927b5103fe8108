//! The recording core: a cheap-to-clone [`Recorder`] handle plus
//! per-thread [`LocalBuf`] ring buffers.
//!
//! ## Overhead contract
//!
//! * A **disabled** recorder is inert: every method checks one `bool`
//!   and returns. Instrumentation sites additionally guard with
//!   [`Recorder::is_enabled`], so the disabled path costs one branch.
//! * Recording is **observation only**: the recorder never feeds back
//!   into what it observes. In particular the GPU simulator's cycle
//!   counts, cache statistics, and fault-RNG draws are bit-identical
//!   with recording on or off (pinned by `tests/exec_equivalence.rs`).
//! * The hot path takes **no locks**: worker threads record into their
//!   own [`LocalBuf`] (a bounded ring buffer) and merge it into the
//!   shared event store at span close — one lock acquisition per merge,
//!   so HostParallel simulation records without contention.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::trace::{chrome_trace_json, TraceEvent};

/// Default per-thread ring-buffer capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

struct Inner {
    enabled: bool,
    t0: Instant,
    events: Mutex<Vec<TraceEvent>>,
    metrics: Mutex<BTreeMap<String, f64>>,
    dropped: AtomicU64,
}

/// A tracing + metrics recorder. Clones share the same store.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.inner.enabled)
            .finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An enabled recorder.
    pub fn new() -> Recorder {
        Recorder::build(true)
    }

    /// An inert recorder: every call is a branch-and-return.
    pub fn disabled() -> Recorder {
        Recorder::build(false)
    }

    fn build(enabled: bool) -> Recorder {
        Recorder {
            inner: Arc::new(Inner {
                enabled,
                t0: Instant::now(),
                events: Mutex::new(Vec::new()),
                metrics: Mutex::new(BTreeMap::new()),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Whether this recorder stores anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Microseconds since the recorder was created (wall clock) — the
    /// timebase for [`crate::trace::PID_ENGINE`] tracks.
    pub fn now_us(&self) -> u64 {
        self.inner.t0.elapsed().as_micros() as u64
    }

    /// Records one event (one lock acquisition; use a [`LocalBuf`] on
    /// hot paths).
    pub fn record(&self, ev: TraceEvent) {
        if !self.inner.enabled {
            return;
        }
        self.inner.events.lock().unwrap().push(ev);
    }

    /// Opens a per-thread ring buffer bound to this recorder's enabled
    /// state.
    pub fn local(&self) -> LocalBuf {
        LocalBuf {
            enabled: self.inner.enabled,
            cap: DEFAULT_RING_CAPACITY,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Drains a local buffer into the shared store (one lock).
    pub fn merge(&self, buf: &mut LocalBuf) {
        if !self.inner.enabled || (buf.events.is_empty() && buf.dropped == 0) {
            return;
        }
        if buf.dropped > 0 {
            self.inner.dropped.fetch_add(buf.dropped, Ordering::Relaxed);
            buf.dropped = 0;
        }
        let mut store = self.inner.events.lock().unwrap();
        store.extend(buf.events.drain(..));
    }

    /// Adds `delta` to a named cumulative metric.
    pub fn add_metric(&self, name: &str, delta: f64) {
        if !self.inner.enabled {
            return;
        }
        *self
            .inner
            .metrics
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert(0.0) += delta;
    }

    /// Sets a named metric to an absolute value (gauges, ratios).
    pub fn set_metric(&self, name: &str, value: f64) {
        if !self.inner.enabled {
            return;
        }
        self.inner
            .metrics
            .lock()
            .unwrap()
            .insert(name.to_string(), value);
    }

    /// Snapshot of all recorded events, in merge order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.events.lock().unwrap().clone()
    }

    /// Snapshot of all metrics.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        self.inner.metrics.lock().unwrap().clone()
    }

    /// Events dropped by ring-buffer overflow across all merged buffers.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Exports every recorded event as Chrome trace-event JSON.
    pub fn chrome_trace_json(&self, metadata: &[(String, String)]) -> String {
        let events = self.events();
        let mut md = metadata.to_vec();
        let dropped = self.dropped();
        if dropped > 0 {
            md.push(("dropped_events".to_string(), dropped.to_string()));
        }
        chrome_trace_json(&events, &md)
    }
}

/// A per-thread bounded ring buffer of events. Pushing never blocks and
/// never allocates past the capacity: when full, the oldest event is
/// dropped (and counted).
pub struct LocalBuf {
    enabled: bool,
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl LocalBuf {
    /// Whether the owning recorder stores anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Overrides the ring capacity (testing / tight-memory callers).
    pub fn with_capacity(mut self, cap: usize) -> LocalBuf {
        self.cap = cap.max(1);
        self
    }

    /// Appends an event, dropping the oldest when at capacity.
    pub fn push(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::{parse_expo, render_expo, Expo};
    use crate::trace::{EventKind, PID_ENGINE};

    #[test]
    fn disabled_recorder_stores_nothing() {
        let r = Recorder::disabled();
        r.record(TraceEvent::instant("x", "c", PID_ENGINE, 0, 0));
        r.add_metric("m", 1.0);
        let mut buf = r.local();
        buf.push(TraceEvent::instant("y", "c", PID_ENGINE, 0, 0));
        r.merge(&mut buf);
        assert!(r.events().is_empty());
        assert!(r.metrics().is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn local_buffers_merge_in_order() {
        let r = Recorder::new();
        let mut buf = r.local();
        for i in 0..4 {
            buf.push(TraceEvent::instant(&format!("e{i}"), "c", PID_ENGINE, 0, i));
        }
        r.merge(&mut buf);
        assert!(buf.is_empty());
        let names: Vec<String> = r.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["e0", "e1", "e2", "e3"]);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let r = Recorder::new();
        let mut buf = r.local().with_capacity(2);
        for i in 0..5 {
            buf.push(TraceEvent::instant(&format!("e{i}"), "c", PID_ENGINE, 0, i));
        }
        r.merge(&mut buf);
        let names: Vec<String> = r.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["e3", "e4"]);
        assert_eq!(r.dropped(), 3);
        let doc = r.chrome_trace_json(&[]);
        assert!(doc.contains("\"dropped_events\":\"3\""));
    }

    #[test]
    fn metrics_accumulate_and_export() {
        let r = Recorder::new();
        r.add_metric("sim.instructions", 10.0);
        r.add_metric("sim.instructions", 5.0);
        r.set_metric("sim.l1_read_hit_ratio", 0.875);
        let mut e = Expo::new();
        e.recorder(&r);
        let doc = e.finish();
        assert_eq!(
            doc,
            "# ecl-metrics-v2\necl_sim_instructions 15\necl_sim_l1_read_hit_ratio 0.875\n"
        );
        assert_eq!(render_expo(&parse_expo(&doc).unwrap()), doc);

        // An empty recorder still yields a parseable, header-only file.
        let mut e = Expo::new();
        e.recorder(&Recorder::new());
        let doc = e.finish();
        assert_eq!(doc, "# ecl-metrics-v2\n");
        assert!(parse_expo(&doc).unwrap().is_empty());
    }

    /// Satellite coverage for the drop-oldest ring under contention:
    /// many threads push spans through small rings concurrently while a
    /// reader polls the shared store mid-flight. Every span that
    /// survives must be whole (its name, ts and args all agree — never
    /// a torn mix of two pushes), each thread's survivors must be
    /// exactly its newest `cap` pushes in order (oldest-first
    /// eviction), and the merged store must hold precisely
    /// `threads * cap` events with the remainder counted as dropped.
    #[test]
    fn contended_rings_never_tear_and_evict_oldest_first() {
        const THREADS: u64 = 8;
        const PUSHES: u64 = 500;
        const CAP: usize = 64;
        let r = Recorder::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let r = r.clone();
                s.spawn(move || {
                    let mut buf = r.local().with_capacity(CAP);
                    for i in 0..PUSHES {
                        // Redundant encodings of (t, i): name, ts and
                        // both args must agree on a surviving event.
                        let ev = TraceEvent::span(
                            &format!("t{t}-e{i}"),
                            "c",
                            PID_ENGINE,
                            t as u32,
                            i,
                            1,
                        )
                        .arg_u64("thread", t)
                        .arg_u64("seq", i);
                        buf.push(ev);
                    }
                    r.merge(&mut buf);
                });
            }
            // Concurrent reader: snapshots taken mid-merge must only
            // ever contain whole events.
            let r2 = r.clone();
            s.spawn(move || {
                for _ in 0..50 {
                    for e in r2.events() {
                        let get = |k: &str| {
                            e.args
                                .iter()
                                .find(|(n, _)| n == k)
                                .and_then(|(_, v)| match v {
                                    crate::trace::ArgValue::Num(n) => Some(*n as u64),
                                    _ => None,
                                })
                                .unwrap()
                        };
                        assert_eq!(e.name, format!("t{}-e{}", get("thread"), get("seq")));
                    }
                    std::thread::yield_now();
                }
            });
        });
        let events = r.events();
        assert_eq!(events.len(), THREADS as usize * CAP);
        assert_eq!(r.dropped(), THREADS * (PUSHES - CAP as u64));
        // Per-thread: survivors are the newest CAP pushes, oldest first.
        for t in 0..THREADS {
            let seqs: Vec<u64> = events
                .iter()
                .filter(|e| e.tid == t as u32)
                .map(|e| e.ts)
                .collect();
            let expect: Vec<u64> = (PUSHES - CAP as u64..PUSHES).collect();
            assert_eq!(seqs, expect, "thread {t} eviction order");
            for e in events.iter().filter(|e| e.tid == t as u32) {
                assert_eq!(e.name, format!("t{t}-e{}", e.ts), "torn span");
                assert_eq!(e.kind, EventKind::Span { dur: 1 });
            }
        }
    }

    #[test]
    fn concurrent_local_buffers_lose_nothing() {
        let r = Recorder::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let r = r.clone();
                s.spawn(move || {
                    let mut buf = r.local();
                    for i in 0..100u64 {
                        buf.push(TraceEvent::instant("e", "c", PID_ENGINE, t, i));
                    }
                    r.merge(&mut buf);
                    r.add_metric("n", 100.0);
                });
            }
        });
        assert_eq!(r.events().len(), 400);
        assert_eq!(r.metrics()["n"], 400.0);
    }
}
