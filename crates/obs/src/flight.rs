//! Always-on crash flight recorder.
//!
//! A [`FlightRecorder`] keeps a bounded ring (drop-oldest) of the most
//! recent spans, instants and metric snapshots *per subsystem*. Feeding
//! it is cheap enough to leave on in production paths; its value shows
//! up when something dies: on a session panic, WAL poison, breaker
//! open, shard device crash or watchdog fire, the owner calls
//! [`FlightRecorder::dump_to`], which writes a digest-stamped
//! `postmortem.json` using the journal's write-temp-rename discipline
//! (never a torn file, even if the process dies mid-dump).
//! [`validate_postmortem`] is the parser half: it re-derives the digest
//! from the parsed notes, so CI can prove a dump is internally
//! consistent, not just syntactically valid JSON.

use crate::json::{self, Obj, Value};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema tag stamped into every postmortem document.
pub const FLIGHT_SCHEMA: &str = "ecl-flight-v1";

/// Default per-subsystem ring capacity.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What a [`FlightNote`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoteKind {
    /// A completed span (name + duration in the detail).
    Span,
    /// A point-in-time event.
    Instant,
    /// A metrics snapshot (`k=v` pairs in the detail).
    Metric,
}

impl NoteKind {
    fn as_str(self) -> &'static str {
        match self {
            NoteKind::Span => "span",
            NoteKind::Instant => "instant",
            NoteKind::Metric => "metric",
        }
    }

    fn parse(s: &str) -> Option<NoteKind> {
        match s {
            "span" => Some(NoteKind::Span),
            "instant" => Some(NoteKind::Instant),
            "metric" => Some(NoteKind::Metric),
            _ => None,
        }
    }
}

/// One entry in a subsystem's ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightNote {
    /// Microseconds since the recorder was created.
    pub ts_us: u64,
    /// Span / instant / metric.
    pub kind: NoteKind,
    /// Short event name (`"kernel:compute1"`, `"breaker:open"`, ...).
    pub name: String,
    /// Free-form detail (duration, error text, `k=v` metric pairs).
    pub detail: String,
}

struct FlightInner {
    cap: usize,
    t0: Instant,
    rings: Mutex<BTreeMap<String, VecDeque<FlightNote>>>,
    dumps: AtomicU64,
}

/// Clone-shared handle to the flight rings; see the module docs.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder whose per-subsystem rings hold at most `cap` notes.
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(FlightInner {
                cap: cap.max(1),
                t0: Instant::now(),
                rings: Mutex::new(BTreeMap::new()),
                dumps: AtomicU64::new(0),
            }),
        }
    }

    /// Microseconds since this recorder was created.
    pub fn now_us(&self) -> u64 {
        self.inner.t0.elapsed().as_micros() as u64
    }

    /// Appends a note to `subsystem`'s ring, evicting the oldest when
    /// the ring is full.
    pub fn note(&self, subsystem: &str, kind: NoteKind, name: &str, detail: &str) {
        let note = FlightNote {
            ts_us: self.now_us(),
            kind,
            name: name.to_string(),
            detail: detail.to_string(),
        };
        let mut rings = self.inner.rings.lock().unwrap();
        let ring = rings.entry(subsystem.to_string()).or_default();
        if ring.len() == self.inner.cap {
            ring.pop_front();
        }
        ring.push_back(note);
    }

    /// Convenience: a span note.
    pub fn span(&self, subsystem: &str, name: &str, detail: &str) {
        self.note(subsystem, NoteKind::Span, name, detail);
    }

    /// Convenience: an instant note.
    pub fn instant(&self, subsystem: &str, name: &str, detail: &str) {
        self.note(subsystem, NoteKind::Instant, name, detail);
    }

    /// Convenience: a metrics-snapshot note from `k=v` pairs.
    pub fn metrics(&self, subsystem: &str, name: &str, pairs: &[(&str, f64)]) {
        let detail = pairs
            .iter()
            .map(|(k, v)| format!("{k}={}", json::fmt_f64(*v)))
            .collect::<Vec<_>>()
            .join(" ");
        self.note(subsystem, NoteKind::Metric, name, &detail);
    }

    /// How many dumps this recorder has written.
    pub fn dumps(&self) -> u64 {
        self.inner.dumps.load(Ordering::Relaxed)
    }

    /// Renders the postmortem document for `reason`.
    pub fn render(&self, reason: &str) -> String {
        let rings = self.inner.rings.lock().unwrap();
        let seq = self.inner.dumps.load(Ordering::Relaxed);
        let mut subsystems = Vec::new();
        for (name, ring) in rings.iter() {
            let notes: Vec<String> = ring
                .iter()
                .map(|n| {
                    Obj::new()
                        .u64("ts_us", n.ts_us)
                        .str("kind", n.kind.as_str())
                        .str("name", &n.name)
                        .str("detail", &n.detail)
                        .build()
                })
                .collect();
            subsystems.push(format!("\"{}\":[{}]", json::escape(name), notes.join(",")));
        }
        let digest = digest_rings(reason, &rings);
        Obj::new()
            .str("schema", FLIGHT_SCHEMA)
            .str("reason", reason)
            .u64("seq", seq)
            .u64("captured_us", self.now_us())
            .raw("subsystems", &format!("{{{}}}", subsystems.join(",")))
            .str("digest", &format!("{digest:016x}"))
            .build()
    }

    /// Dumps `postmortem.json` into `dir` atomically (write temp file,
    /// fsync, rename, fsync dir) and returns its path. Multiple dumps
    /// overwrite; the last (usually most severe) trigger wins, and the
    /// file is never observable in a torn state.
    pub fn dump_to(&self, dir: &Path, reason: &str) -> std::io::Result<PathBuf> {
        let doc = self.render(reason);
        self.inner.dumps.fetch_add(1, Ordering::Relaxed);
        let final_path = dir.join("postmortem.json");
        std::fs::create_dir_all(dir)?;
        crate::durable::write_atomic(&final_path, format!("{doc}\n").as_bytes())?;
        Ok(final_path)
    }
}

/// FNV-1a 64-bit over a canonical serialization of the rings: every
/// field followed by a `0x1f` unit separator. The validator recomputes
/// the same digest from parsed notes, proving the document body was not
/// altered after stamping.
fn digest_rings(reason: &str, rings: &BTreeMap<String, VecDeque<FlightNote>>) -> u64 {
    let mut buf = Vec::new();
    let mut field = |bytes: &[u8]| {
        buf.extend_from_slice(bytes);
        buf.push(0x1f);
    };
    field(reason.as_bytes());
    for (name, ring) in rings {
        field(name.as_bytes());
        for n in ring {
            field(n.ts_us.to_string().as_bytes());
            field(n.kind.as_str().as_bytes());
            field(n.name.as_bytes());
            field(n.detail.as_bytes());
        }
    }
    crate::durable::fnv1a(&buf)
}

/// Summary of a validated postmortem document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PostmortemSummary {
    /// The dump trigger (`"session-panic"`, `"wal-poison"`, ...).
    pub reason: String,
    /// Subsystems present.
    pub subsystems: usize,
    /// Total notes across all rings.
    pub notes: usize,
}

/// Parses and validates a postmortem document: schema tag, note shape,
/// and the recomputed digest must all match.
pub fn validate_postmortem(doc: &str) -> Result<PostmortemSummary, String> {
    let v = json::parse(doc)?;
    let schema = v.get("schema").and_then(Value::as_str);
    if schema != Some(FLIGHT_SCHEMA) {
        return Err(format!("schema is {schema:?}, expected {FLIGHT_SCHEMA:?}"));
    }
    let reason = v
        .get("reason")
        .and_then(Value::as_str)
        .ok_or("missing reason")?
        .to_string();
    if reason.is_empty() {
        return Err("empty reason".into());
    }
    let stamped = v
        .get("digest")
        .and_then(Value::as_str)
        .ok_or("missing digest")?
        .to_string();
    let subsystems = match v.get("subsystems") {
        Some(Value::Obj(fields)) => fields,
        _ => return Err("missing subsystems object".into()),
    };
    let mut rings: BTreeMap<String, VecDeque<FlightNote>> = BTreeMap::new();
    let mut total = 0usize;
    for (name, notes) in subsystems {
        let arr = notes
            .as_arr()
            .ok_or(format!("subsystem {name:?} is not an array"))?;
        let mut ring = VecDeque::with_capacity(arr.len());
        for (i, note) in arr.iter().enumerate() {
            let ctx = |e: &str| format!("subsystem {name:?} note {i}: {e}");
            let ts_us = note
                .get("ts_us")
                .and_then(Value::as_u64)
                .ok_or_else(|| ctx("missing ts_us"))?;
            let kind = note
                .get("kind")
                .and_then(Value::as_str)
                .and_then(NoteKind::parse)
                .ok_or_else(|| ctx("bad kind"))?;
            let nname = note
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| ctx("missing name"))?;
            let detail = note
                .get("detail")
                .and_then(Value::as_str)
                .ok_or_else(|| ctx("missing detail"))?;
            ring.push_back(FlightNote {
                ts_us,
                kind,
                name: nname.to_string(),
                detail: detail.to_string(),
            });
            total += 1;
        }
        rings.insert(name.clone(), ring);
    }
    let expect = format!("{:016x}", digest_rings(&reason, &rings));
    if stamped != expect {
        return Err(format!(
            "digest mismatch: stamped {stamped}, computed {expect}"
        ));
    }
    Ok(PostmortemSummary {
        reason,
        subsystems: rings.len(),
        notes: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_validates_round_trip() {
        let f = FlightRecorder::new(8);
        f.span("gpu", "kernel:compute1", "dur_us=120");
        f.instant("serve", "session-panic", "thread 3");
        f.metrics("engine", "snapshot", &[("queue_depth", 4.0), ("qps", 12.5)]);
        let doc = f.render("watchdog");
        let s = validate_postmortem(&doc).unwrap();
        assert_eq!(s.reason, "watchdog");
        assert_eq!(s.subsystems, 3);
        assert_eq!(s.notes, 3);
    }

    /// Postmortems already on disk must keep validating, so the digest
    /// of fixed rings is pinned.
    #[test]
    fn digest_is_pinned() {
        let mut rings: BTreeMap<String, VecDeque<FlightNote>> = BTreeMap::new();
        for (sub, ts_us, kind, name, detail) in [
            ("gpu", 120, NoteKind::Span, "kernel:compute1", "dur_us=120"),
            ("gpu", 340, NoteKind::Instant, "watchdog", "budget 5 cycles"),
            (
                "serve",
                7,
                NoteKind::Metric,
                "snapshot",
                "queue_depth=4 qps=12.5",
            ),
        ] {
            let note = FlightNote {
                ts_us,
                kind,
                name: name.to_string(),
                detail: detail.to_string(),
            };
            rings.entry(sub.to_string()).or_default().push_back(note);
        }
        assert_eq!(digest_rings("wal-poison", &rings), 0xbf57_2d33_de8f_5d00);
        assert_eq!(digest_rings("", &BTreeMap::new()), 0xaf63_d24c_8601_db8e);
    }

    #[test]
    fn tampering_breaks_the_digest() {
        let f = FlightRecorder::new(8);
        f.instant("serve", "boom", "x");
        let doc = f.render("session-panic");
        let tampered = doc.replace("\"detail\":\"x\"", "\"detail\":\"y\"");
        assert_ne!(doc, tampered);
        assert!(validate_postmortem(&tampered)
            .unwrap_err()
            .contains("digest mismatch"));
    }

    #[test]
    fn ring_drops_oldest_notes() {
        let f = FlightRecorder::new(4);
        for i in 0..10 {
            f.instant("serve", &format!("ev{i}"), "");
        }
        let doc = f.render("test");
        let s = validate_postmortem(&doc).unwrap();
        assert_eq!(s.notes, 4);
        for gone in 0..6 {
            assert!(!doc.contains(&format!("\"ev{gone}\"")));
        }
        for kept in 6..10 {
            assert!(doc.contains(&format!("\"ev{kept}\"")));
        }
    }

    #[test]
    fn dump_writes_atomically_and_overwrites() {
        let dir = std::env::temp_dir().join(format!("ecl-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let f = FlightRecorder::new(8);
        f.instant("wal", "poisoned", "rollback failed");
        let p1 = f.dump_to(&dir, "wal-poison").unwrap();
        let first = std::fs::read_to_string(&p1).unwrap();
        assert_eq!(validate_postmortem(&first).unwrap().reason, "wal-poison");
        f.instant("serve", "panic", "later");
        let p2 = f.dump_to(&dir, "session-panic").unwrap();
        assert_eq!(p1, p2);
        let second = std::fs::read_to_string(&p2).unwrap();
        let s = validate_postmortem(&second).unwrap();
        assert_eq!(s.reason, "session-panic");
        assert_eq!(s.notes, 2);
        assert_eq!(f.dumps(), 2);
        assert!(!dir.join(".tmp-postmortem.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_wrong_schema_and_shape() {
        assert!(validate_postmortem("{\"schema\":\"bogus\"}").is_err());
        assert!(validate_postmortem("not json").is_err());
        let f = FlightRecorder::new(2);
        let doc = f.render("x");
        // Empty recorder still validates (zero subsystems).
        assert_eq!(validate_postmortem(&doc).unwrap().notes, 0);
    }
}
