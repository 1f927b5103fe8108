//! `ecl-obs` — the workspace's observability layer.
//!
//! Offline pieces, all std-only and zero-overhead when disabled:
//!
//! * [`Recorder`] / [`LocalBuf`]: spans, events and counters with
//!   per-thread ring buffers (no locks on the hot path, merged at span
//!   close). A disabled recorder is inert; recording never perturbs the
//!   simulator's golden-pinned cycle counts or cache statistics.
//! * Exporters: Chrome trace-event JSON ([`chrome_trace_json`],
//!   loadable in `chrome://tracing`), a flat metrics document
//!   ([`Recorder::metrics_json`]), and the text profile report
//!   ([`report::profile_report`]) regenerating the paper's Table 3 and
//!   §4.5 per-phase ablation.
//! * [`json`]: the shared hand-rolled JSON writer + parser every stats
//!   surface in the workspace serializes through (the workspace builds
//!   offline with no serde).
//!
//! Live-telemetry pieces (always-on in the serve layer):
//!
//! * [`Histo`] / [`SlidingWindow`]: mergeable log-bucketed streaming
//!   histograms with lock-free record, and epoch-ring windows yielding
//!   p50/p90/p99/QPS over 1 s / 10 s / 60 s.
//! * [`TraceCtx`]: request-scoped trace propagation — one id minted per
//!   serve request, threaded through job, ladder and kernel spans so the
//!   Chrome export shows each request as a single connected tree
//!   (checked by [`validate_trace_tree`]).
//! * [`FlightRecorder`]: bounded per-subsystem rings of recent notes,
//!   dumped as a digest-stamped `postmortem.json` on panic / WAL poison
//!   / breaker open / device crash / watchdog.
//! * [`expo`]: the `ecl-metrics-v2` Prometheus-style text exposition
//!   behind `METRICS` and `serve --metrics-every`.
//!
//! Shared persistence: [`durable`] holds the FNV-1a digest and the
//! fsyncing write-temp-rename every crash-safe file goes through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod expo;
pub mod flight;
pub mod histo;
pub mod json;
pub mod recorder;
pub mod report;
pub mod trace;
pub mod window;

pub use expo::{parse_expo, render_expo, Expo, ExpoLine, METRICS_V2_HEADER, METRICS_V2_SCHEMA};
pub use flight::{
    validate_postmortem, FlightNote, FlightRecorder, NoteKind, PostmortemSummary,
    DEFAULT_FLIGHT_CAPACITY, FLIGHT_SCHEMA,
};
pub use histo::{Histo, HistoSnapshot};
pub use recorder::{LocalBuf, Recorder, DEFAULT_RING_CAPACITY};
pub use trace::{
    chrome_trace_json, parse_chrome_trace, tag_span, validate_chrome_trace, validate_metrics_json,
    validate_trace_tree, ArgValue, EventKind, TraceCtx, TraceEvent, TraceSummary, TraceTree,
    ARG_PARENT_ID, ARG_SPAN_ID, ARG_TRACE_ID, METRICS_SCHEMA, PID_ENGINE, PID_SIM, TRACE_SCHEMA,
};
pub use window::{SlidingWindow, WindowStats, WINDOWS_MS};
