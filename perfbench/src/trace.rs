//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Spans are kept in memory during the run and
//! written out as a Chrome trace-event file when the benchmark ends.

use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: layer name, start and duration relative to the
/// tracer's epoch, and the index of the span that caused it.
struct Span {
    /// Layer boundary name, e.g. `core.parallel.run`.
    name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    start_ns: u64,
    /// Duration in nanoseconds.
    dur_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Recording thread (0 = main).
    tid: usize,
}

/// A span recorder. Disabled tracers record nothing and cost one branch.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_epoch(Instant::now(), enabled)
    }

    /// A tracer sharing `epoch` with others (one per load thread), so
    /// their spans merge onto one time line.
    pub fn with_epoch(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// The shared epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished call that started at `start` and lasted `dur`.
    /// Returns the span's index (for children), or `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        dur: Duration,
        parent: Option<usize>,
        tid: usize,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            parent,
            tid,
        });
        Some(self.spans.len() - 1)
    }

    /// Sets the duration of span `idx`, opened with a zero duration
    /// before its children were recorded.
    pub fn close(&mut self, idx: usize, dur: Duration) {
        self.spans[idx].dur_ns = dur.as_nanos() as u64;
    }

    /// Times `f` as a span named `name` and returns its result with the
    /// elapsed wall time, whether or not recording is on.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.record(name, start, dur, parent, 0);
        (out, dur)
    }

    /// Appends another tracer's spans (re-basing their parent indices).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as Chrome trace-event JSON (microseconds).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, _) = t.time("x", None, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(true);
        let e = a.epoch();
        a.record("a", e, Duration::from_nanos(10), None, 0);
        let mut b = Tracer::with_epoch(e, true);
        let p = b.record("b", e, Duration::from_nanos(10), None, 1);
        b.record("c", e, Duration::from_nanos(5), p, 1);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
