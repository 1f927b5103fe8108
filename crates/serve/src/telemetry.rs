//! The server's live-telemetry plane: per-command latency histograms, a
//! sliding-window aggregator, and the `ecl-metrics-v2` exposition the
//! `METRICS` command and `--metrics-every` dumps render.
//!
//! Design constraints (see DESIGN.md "Live telemetry"):
//!
//! * **Recording is cheap and lock-free** — every request records one
//!   latency sample into a sharded [`Histo`] (relaxed atomics) plus one
//!   mutex-guarded bump of the current window epoch; the ≤3% overhead
//!   gate in `harness telemetry` pins this.
//! * **`METRICS` observes without perturbing** — a `METRICS` request is
//!   *not* recorded into the telemetry it reports, so two consecutive
//!   idle calls return byte-identical expositions (the protocol corpus
//!   asserts this).
//! * **Time is explicit** — the window takes milliseconds from the
//!   server's start `Instant`, so window semantics are unit-testable
//!   without sleeping.

use ecl_obs::{Expo, Histo, SlidingWindow};
use std::time::Instant;

/// Command classes the exposition breaks latency down by. `METRICS`
/// itself is deliberately absent — self-observation would make the
/// exposition unstable while idle.
pub const CMD_CLASSES: [&str; 8] = [
    "add", "conn", "comp", "stats", "submit", "job", "ping", "other",
];

/// Window epoch length (ms). 61 epochs cover the longest (60 s) window
/// plus the current partial epoch.
const EPOCH_MS: u64 = 1_000;
const EPOCHS: usize = 61;

/// Live telemetry for one server instance.
pub struct ServeTelemetry {
    enabled: bool,
    t0: Instant,
    /// All requests (except `METRICS`), microseconds.
    overall: Histo,
    /// Parallel to [`CMD_CLASSES`].
    per_cmd: Vec<Histo>,
    window: SlidingWindow,
}

impl ServeTelemetry {
    /// A fresh telemetry plane. When `enabled` is false, `record` is a
    /// no-op and the exposition reports empty histograms — the A/B leg
    /// the overhead gate compares against.
    pub fn new(enabled: bool) -> ServeTelemetry {
        ServeTelemetry {
            enabled,
            t0: Instant::now(),
            overall: Histo::new(),
            per_cmd: CMD_CLASSES.iter().map(|_| Histo::new()).collect(),
            window: SlidingWindow::new(EPOCH_MS, EPOCHS),
        }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Milliseconds since this telemetry plane was created — the time
    /// base fed to the sliding window.
    pub fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    /// Records one request of class `cmd` (a [`CMD_CLASSES`] entry;
    /// unknown classes fold into `"other"`) that took `latency_us`.
    pub fn record(&self, cmd: &str, latency_us: u64) {
        if !self.enabled {
            return;
        }
        let idx = CMD_CLASSES
            .iter()
            .position(|&c| c == cmd)
            .unwrap_or(CMD_CLASSES.len() - 1);
        self.per_cmd[idx].record(latency_us);
        self.overall.record(latency_us);
        self.window.record_at(self.now_ms(), latency_us);
    }

    /// Builds the full `ecl-metrics-v2` exposition: the supplied
    /// operational counters (emitted as `ecl_<name>`), per-class and
    /// overall latency histograms, and p50/p90/p99/QPS over the
    /// requested window. `window` is a `(label, ms)` pair (e.g.
    /// `("10s", 10_000)`).
    pub fn expo(&self, counters: &[(&str, u64)], (label, window_ms): (&str, u64)) -> Expo {
        let mut e = Expo::new();
        for &(name, v) in counters {
            e.line(&format!("ecl_{name}"), &[], v as f64);
        }
        e.histo(
            "ecl_request_latency_us",
            &[("cmd", "all")],
            &self.overall.snapshot(),
        );
        for (cmd, h) in CMD_CLASSES.iter().zip(&self.per_cmd) {
            let snap = h.snapshot();
            if snap.count > 0 {
                e.histo("ecl_request_latency_us", &[("cmd", cmd)], &snap);
            }
        }
        let s = self.window.stats_at(self.now_ms(), window_ms);
        let w = [("window", label)];
        e.line("ecl_window_count", &w, s.count as f64);
        e.line("ecl_window_qps", &w, s.qps);
        e.line("ecl_window_p50_us", &w, s.p50 as f64);
        e.line("ecl_window_p90_us", &w, s.p90 as f64);
        e.line("ecl_window_p99_us", &w, s.p99 as f64);
        e.line("ecl_window_max_us", &w, s.max as f64);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_obs::parse_expo;

    #[test]
    fn exposition_parses_and_counts_lines() {
        let t = ServeTelemetry::new(true);
        for v in [120u64, 450, 450, 9_000] {
            t.record("add", v);
        }
        t.record("conn", 80);
        t.record("weird", 33); // folds into "other"
        let counters = [("sessions_opened", 2u64), ("malformed", 0)];
        let text = t.expo(&counters, ("10s", 10_000)).finish();
        let lines = parse_expo(&text).expect("exposition must validate");
        assert_eq!(lines.len(), t.expo(&counters, ("10s", 10_000)).len());
        assert!(lines
            .iter()
            .any(|l| l.name == "ecl_sessions_opened" && l.value == 2.0));
        let all_count = lines
            .iter()
            .find(|l| {
                l.name == "ecl_request_latency_us_count"
                    && l.labels.iter().any(|(k, v)| k == "cmd" && v == "all")
            })
            .expect("overall histogram present");
        assert_eq!(all_count.value, 6.0);
        assert!(lines
            .iter()
            .any(|l| l.name == "ecl_request_latency_us_count"
                && l.labels.iter().any(|(k, v)| k == "cmd" && v == "other")));
        assert!(lines.iter().any(|l| l.name == "ecl_window_qps"
            && l.labels.iter().any(|(k, v)| k == "window" && v == "10s")));
    }

    #[test]
    fn disabled_plane_records_nothing() {
        let t = ServeTelemetry::new(false);
        t.record("add", 500);
        let text = t.expo(&[], ("1s", 1_000)).finish();
        let lines = parse_expo(&text).unwrap();
        let all_count = lines
            .iter()
            .find(|l| l.name == "ecl_request_latency_us_count")
            .unwrap();
        assert_eq!(all_count.value, 0.0);
    }

    #[test]
    fn idle_exposition_is_deterministic_in_shape() {
        // With no traffic at all, two expositions are byte-identical
        // regardless of elapsed time: empty windows report zeros and
        // empty histograms have a fixed line count.
        let t = ServeTelemetry::new(true);
        let a = t.expo(&[("requests", 0)], ("60s", 60_000)).finish();
        let b = t.expo(&[("requests", 0)], ("60s", 60_000)).finish();
        assert_eq!(a, b);
    }
}
