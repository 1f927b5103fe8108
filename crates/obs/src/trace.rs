//! Trace-event model and the Chrome trace-event JSON exporter.
//!
//! Events follow the Chrome trace-event format so artifacts load
//! directly in `chrome://tracing` / Perfetto: complete spans (`ph:"X"`),
//! instant events (`ph:"i"`) and counter samples (`ph:"C"`). Two track
//! groups (pids) are used: [`PID_SIM`] carries simulator kernels on a
//! *simulated-cycle* timeline (1 cycle rendered as 1 µs), [`PID_ENGINE`]
//! carries engine/ladder/CLI spans on the host wall-clock timeline.
//! The two never share a pid, so mixing timebases is safe.

use crate::json::{self, Obj, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Track group for simulator events; `ts`/`dur` are simulated cycles.
pub const PID_SIM: u32 = 1;
/// Track group for engine/ladder/host events; `ts`/`dur` are wall µs.
pub const PID_ENGINE: u32 = 2;

/// A typed argument attached to an event (`args` in the Chrome format).
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Numeric argument (integers round-trip exactly below 2^53).
    Num(f64),
    /// String argument.
    Str(String),
}

/// What kind of event this is.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A complete span (`ph:"X"`) with a duration.
    Span {
        /// Duration in the track's timebase (cycles or µs).
        dur: u64,
    },
    /// A zero-duration instant event (`ph:"i"`).
    Instant,
    /// A counter sample (`ph:"C"`); the value is in `args.value`.
    Counter {
        /// Sampled value.
        value: f64,
    },
}

/// One trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Event name (kernel name, job name, breaker transition, ...).
    pub name: String,
    /// Category, used by trace viewers for filtering.
    pub cat: String,
    /// Track group ([`PID_SIM`] or [`PID_ENGINE`]).
    pub pid: u32,
    /// Track within the group (SM index, worker index, ...).
    pub tid: u32,
    /// Start timestamp in the track's timebase.
    pub ts: u64,
    /// Span / instant / counter payload.
    pub kind: EventKind,
    /// Extra key-value arguments.
    pub args: Vec<(String, ArgValue)>,
}

impl TraceEvent {
    /// A complete span.
    pub fn span(name: &str, cat: &str, pid: u32, tid: u32, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            pid,
            tid,
            ts,
            kind: EventKind::Span { dur },
            args: Vec::new(),
        }
    }

    /// An instant event.
    pub fn instant(name: &str, cat: &str, pid: u32, tid: u32, ts: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            pid,
            tid,
            ts,
            kind: EventKind::Instant,
            args: Vec::new(),
        }
    }

    /// A counter sample.
    pub fn counter(name: &str, cat: &str, pid: u32, ts: u64, value: f64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            pid,
            tid: 0,
            ts,
            kind: EventKind::Counter { value },
            args: Vec::new(),
        }
    }

    /// Attaches a numeric argument (builder style).
    pub fn arg_u64(mut self, key: &str, value: u64) -> TraceEvent {
        self.args
            .push((key.to_string(), ArgValue::Num(value as f64)));
        self
    }

    /// Attaches a float argument (builder style).
    pub fn arg_f64(mut self, key: &str, value: f64) -> TraceEvent {
        self.args.push((key.to_string(), ArgValue::Num(value)));
        self
    }

    /// Attaches a string argument (builder style).
    pub fn arg_str(mut self, key: &str, value: &str) -> TraceEvent {
        self.args
            .push((key.to_string(), ArgValue::Str(value.to_string())));
        self
    }

    /// Serializes one event as a Chrome trace-event object.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new()
            .str("name", &self.name)
            .str("cat", &self.cat)
            .u64("pid", self.pid as u64)
            .u64("tid", self.tid as u64)
            .u64("ts", self.ts);
        let mut args = self.args.clone();
        match &self.kind {
            EventKind::Span { dur } => {
                o = o.str("ph", "X").u64("dur", *dur);
            }
            EventKind::Instant => {
                o = o.str("ph", "i").str("s", "t");
            }
            EventKind::Counter { value } => {
                o = o.str("ph", "C");
                args.insert(0, ("value".to_string(), ArgValue::Num(*value)));
            }
        }
        let body: Vec<String> = args
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    ArgValue::Num(n) => json::fmt_f64(*n),
                    ArgValue::Str(s) => format!("\"{}\"", json::escape(s)),
                };
                format!("\"{}\":{}", json::escape(k), v)
            })
            .collect();
        o.raw("args", &format!("{{{}}}", body.join(","))).build()
    }
}

/// Serializes events as a `chrome://tracing`-loadable document.
///
/// `metadata` lands under `otherData` next to the schema tag.
pub fn chrome_trace_json(events: &[TraceEvent], metadata: &[(String, String)]) -> String {
    let rows: Vec<String> = events
        .iter()
        .map(|e| format!("  {}", e.to_json()))
        .collect();
    let mut other = Obj::new().str("schema", TRACE_SCHEMA);
    for (k, v) in metadata {
        other = other.str(k, v);
    }
    format!(
        "{{\n\"traceEvents\": [\n{}\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {}\n}}\n",
        rows.join(",\n"),
        other.build()
    )
}

/// Schema tag stamped into every trace document's `otherData`.
pub const TRACE_SCHEMA: &str = "ecl-trace-v1";

/// Summary of a validated trace document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// Complete spans (`ph:"X"`).
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
}

/// Parses a Chrome trace-event document back into [`TraceEvent`]s.
///
/// Only the phases we emit (`X`, `i`, `C`) are accepted; this is the
/// round-trip half of the exporter, used by tests and `--validate`.
pub fn parse_chrome_trace(doc: &str) -> Result<Vec<TraceEvent>, String> {
    let v = json::parse(doc)?;
    let schema = v
        .get("otherData")
        .and_then(|o| o.get("schema"))
        .and_then(Value::as_str);
    if schema != Some(TRACE_SCHEMA) {
        return Err(format!(
            "otherData.schema is {schema:?}, expected {TRACE_SCHEMA:?}"
        ));
    }
    let rows = v
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut events = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        events.push(parse_event(row).map_err(|e| format!("event {i}: {e}"))?);
    }
    Ok(events)
}

fn parse_event(row: &Value) -> Result<TraceEvent, String> {
    let field_str = |k: &str| -> Result<String, String> {
        row.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("missing string field {k:?}"))
    };
    let field_u64 = |k: &str| -> Result<u64, String> {
        row.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("missing integer field {k:?}"))
    };
    let mut args: Vec<(String, ArgValue)> = Vec::new();
    if let Some(Value::Obj(fields)) = row.get("args") {
        for (k, v) in fields {
            let arg = match v {
                Value::Num(n) => ArgValue::Num(*n),
                Value::Str(s) => ArgValue::Str(s.clone()),
                other => return Err(format!("unsupported arg type for {k:?}: {other:?}")),
            };
            args.push((k.clone(), arg));
        }
    }
    let kind = match field_str("ph")?.as_str() {
        "X" => EventKind::Span {
            dur: field_u64("dur")?,
        },
        "i" => EventKind::Instant,
        "C" => {
            let pos = args
                .iter()
                .position(|(k, _)| k == "value")
                .ok_or("counter event without args.value")?;
            let (_, v) = args.remove(pos);
            match v {
                ArgValue::Num(n) => EventKind::Counter { value: n },
                ArgValue::Str(_) => return Err("counter value must be numeric".into()),
            }
        }
        other => return Err(format!("unsupported phase {other:?}")),
    };
    Ok(TraceEvent {
        name: field_str("name")?,
        cat: field_str("cat")?,
        pid: field_u64("pid")? as u32,
        tid: field_u64("tid")? as u32,
        ts: field_u64("ts")?,
        kind,
        args,
    })
}

/// Validates a trace document against the documented schema and returns
/// counts per event kind.
pub fn validate_chrome_trace(doc: &str) -> Result<TraceSummary, String> {
    let events = parse_chrome_trace(doc)?;
    let mut s = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    for e in &events {
        if e.name.is_empty() {
            return Err("event with empty name".into());
        }
        match e.kind {
            EventKind::Span { .. } => s.spans += 1,
            EventKind::Instant => s.instants += 1,
            EventKind::Counter { .. } => s.counters += 1,
        }
    }
    Ok(s)
}

/// Argument key carrying the request's trace id on tagged spans.
pub const ARG_TRACE_ID: &str = "trace_id";
/// Argument key carrying the span's own id.
pub const ARG_SPAN_ID: &str = "span";
/// Argument key carrying the parent span's id (absent on the root).
pub const ARG_PARENT_ID: &str = "parent";

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// splitmix64 — spreads the sequential id counter so trace/span ids
/// look distinct in viewers and never collide within a process.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Request-scoped trace identity: minted once per serve request (or
/// engine batch job), then `child()`-ed at every hop so the whole path
/// — request span, job span, ladder attempts, simulated kernels — forms
/// a single connected tree keyed by `trace_id` in the Chrome export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Shared by every span on this request's path.
    pub trace_id: u64,
    /// This hop's own span id.
    pub span_id: u64,
}

impl TraceCtx {
    /// Mints a fresh root context (new trace id, new span id).
    pub fn root() -> TraceCtx {
        let n = NEXT_ID.fetch_add(2, Ordering::Relaxed);
        TraceCtx {
            trace_id: mix(n),
            span_id: mix(n + 1),
        }
    }

    /// A child hop: same trace, fresh span id.
    pub fn child(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            span_id: mix(NEXT_ID.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Deterministically derives a child span id from `salt` — for hot
    /// paths (per-kernel-launch) that shouldn't touch the global
    /// counter.
    pub fn derive(&self, salt: u64) -> u64 {
        mix(self.span_id ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bf0_3635)
    }

    /// Hex rendering used in span args (`%016x`).
    pub fn hex(v: u64) -> String {
        format!("{v:016x}")
    }
}

/// Tags a span with trace/span/parent args. `parent` is `None` on the
/// root span only.
pub fn tag_span(ev: TraceEvent, ctx: &TraceCtx, parent: Option<u64>) -> TraceEvent {
    let ev = ev
        .arg_str(ARG_TRACE_ID, &TraceCtx::hex(ctx.trace_id))
        .arg_str(ARG_SPAN_ID, &TraceCtx::hex(ctx.span_id));
    match parent {
        Some(p) => ev.arg_str(ARG_PARENT_ID, &TraceCtx::hex(p)),
        None => ev,
    }
}

/// Summary of one request's span tree in a trace document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceTree {
    /// Spans carrying the trace id.
    pub spans: usize,
    /// Name of the single root span.
    pub root: String,
    /// Distinct span categories on the path (sorted).
    pub cats: Vec<String>,
}

/// Checks that every span carrying `trace_id` (hex) forms one connected
/// tree: exactly one root (no `parent` arg), every other span's parent
/// is another tagged span, no duplicate span ids.
pub fn validate_trace_tree(events: &[TraceEvent], trace_id_hex: &str) -> Result<TraceTree, String> {
    let arg = |e: &TraceEvent, key: &str| -> Option<String> {
        e.args
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                ArgValue::Str(s) => Some(s.clone()),
                ArgValue::Num(_) => None,
            })
    };
    let tagged: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::Span { .. })
                && arg(e, ARG_TRACE_ID).as_deref() == Some(trace_id_hex)
        })
        .collect();
    if tagged.is_empty() {
        return Err(format!("no spans tagged with trace {trace_id_hex}"));
    }
    let mut ids = std::collections::BTreeSet::new();
    let mut roots = Vec::new();
    for e in &tagged {
        let id = arg(e, ARG_SPAN_ID).ok_or_else(|| format!("span {:?} has no span id", e.name))?;
        if !ids.insert(id) {
            return Err(format!("duplicate span id under span {:?}", e.name));
        }
        if arg(e, ARG_PARENT_ID).is_none() {
            roots.push(e.name.clone());
        }
    }
    if roots.len() != 1 {
        return Err(format!("expected exactly one root span, got {roots:?}"));
    }
    for e in &tagged {
        if let Some(p) = arg(e, ARG_PARENT_ID) {
            if !ids.contains(&p) {
                return Err(format!(
                    "span {:?} has dangling parent {p} — tree is disconnected",
                    e.name
                ));
            }
        }
    }
    let mut cats: Vec<String> = tagged.iter().map(|e| e.cat.clone()).collect();
    cats.sort();
    cats.dedup();
    Ok(TraceTree {
        spans: tagged.len(),
        root: roots.remove(0),
        cats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_round_trips_exactly() {
        let ev = TraceEvent::span("compute1", "kernel", PID_SIM, 0, 24996, 17754)
            .arg_u64("instructions", 12345)
            .arg_f64("l1_hit_ratio", 0.882)
            .arg_str("device", "titan-x");
        let doc = chrome_trace_json(std::slice::from_ref(&ev), &[]);
        let back = parse_chrome_trace(&doc).unwrap();
        assert_eq!(back, vec![ev]);
    }

    #[test]
    fn counter_and_instant_round_trip() {
        let evs = vec![
            TraceEvent::counter("queue_depth", "engine", PID_ENGINE, 100, 3.0),
            TraceEvent::instant("breaker:gpu-sim closed->open", "breaker", PID_ENGINE, 7, 42)
                .arg_str("from", "closed"),
        ];
        let doc = chrome_trace_json(&evs, &[("graph".into(), "rmat16".into())]);
        assert_eq!(parse_chrome_trace(&doc).unwrap(), evs);
        let s = validate_chrome_trace(&doc).unwrap();
        assert_eq!(
            s,
            TraceSummary {
                events: 2,
                spans: 0,
                instants: 1,
                counters: 1
            }
        );
    }

    #[test]
    fn validation_rejects_wrong_schema() {
        let doc = "{\"traceEvents\": [], \"otherData\": {\"schema\": \"bogus\"}}";
        assert!(validate_chrome_trace(doc).is_err());
    }

    #[test]
    fn empty_trace_is_valid() {
        let doc = chrome_trace_json(&[], &[]);
        assert_eq!(validate_chrome_trace(&doc).unwrap().events, 0);
    }

    #[test]
    fn trace_ctx_mints_unique_connected_ids() {
        let root = TraceCtx::root();
        let c1 = root.child();
        let c2 = root.child();
        assert_eq!(c1.trace_id, root.trace_id);
        assert_ne!(c1.span_id, c2.span_id);
        assert_ne!(root.span_id, c1.span_id);
        assert_ne!(root.derive(0), root.derive(1));
        let other = TraceCtx::root();
        assert_ne!(other.trace_id, root.trace_id);
    }

    #[test]
    fn span_tree_validates_connectivity() {
        let root = TraceCtx::root();
        let job = root.child();
        let attempt = job.child();
        let kernel = TraceCtx {
            trace_id: root.trace_id,
            span_id: attempt.derive(0),
        };
        let evs = vec![
            tag_span(
                TraceEvent::span("request:SUBMIT", "serve", PID_ENGINE, 1, 0, 50),
                &root,
                None,
            ),
            tag_span(
                TraceEvent::span("job:submit-3", "job", PID_ENGINE, 2, 5, 40),
                &job,
                Some(root.span_id),
            ),
            tag_span(
                TraceEvent::span("ladder:gpu-sim", "ladder", PID_ENGINE, 2, 6, 30),
                &attempt,
                Some(job.span_id),
            ),
            tag_span(
                TraceEvent::span("compute1", "kernel", PID_SIM, 0, 0, 100),
                &kernel,
                Some(attempt.span_id),
            ),
            // An untagged bystander span must not break the tree.
            TraceEvent::span("other", "kernel", PID_SIM, 0, 0, 10),
        ];
        let hex = TraceCtx::hex(root.trace_id);
        let tree = validate_trace_tree(&evs, &hex).unwrap();
        assert_eq!(tree.spans, 4);
        assert_eq!(tree.root, "request:SUBMIT");
        assert_eq!(tree.cats, vec!["job", "kernel", "ladder", "serve"]);

        // Orphaned span (parent not in the trace) must fail.
        let stray = TraceCtx {
            trace_id: root.trace_id,
            span_id: attempt.derive(9),
        };
        let mut bad = evs.clone();
        bad.push(tag_span(
            TraceEvent::span("stray", "kernel", PID_SIM, 0, 0, 1),
            &stray,
            Some(0xdead_beef),
        ));
        assert!(validate_trace_tree(&bad, &hex)
            .unwrap_err()
            .contains("disconnected"));

        // Two roots must fail.
        let mut two = evs.clone();
        let r2 = TraceCtx {
            trace_id: root.trace_id,
            span_id: attempt.derive(7),
        };
        two.push(tag_span(
            TraceEvent::span("root2", "serve", PID_ENGINE, 1, 0, 1),
            &r2,
            None,
        ));
        assert!(validate_trace_tree(&two, &hex)
            .unwrap_err()
            .contains("one root"));
    }
}
