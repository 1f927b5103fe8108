//! `ecl-metrics-v2` — Prometheus-style text exposition.
//!
//! The workspace's one metrics format: the serve layer's `METRICS`
//! command, its `--metrics-every` periodic dumps and `--metrics` drain
//! file, and `profile --metrics` all emit it. It is deliberately tiny
//! and fully specified so a parser can gate it in CI:
//!
//! ```text
//! # ecl-metrics-v2
//! ecl_requests_total{cmd="ADD"} 1234
//! ecl_request_latency_us_bucket{cmd="all",le="96"} 117
//! ecl_request_latency_us_bucket{cmd="all",le="+Inf"} 130
//! ecl_request_latency_us_sum{cmd="all"} 48123
//! ecl_request_latency_us_count{cmd="all"} 130
//! ecl_window_p99_us{window="10s"} 880
//! ```
//!
//! Rules (checked by [`parse_expo`]):
//! * first line is exactly `# ecl-metrics-v2`; no other comments;
//! * each line is `name{label="value",...} number` or `name number`;
//! * metric names match `[a-z_][a-z0-9_]*`, label names likewise;
//! * label values may not contain `"`, `\`, or newlines;
//! * `_bucket` series carry an `le` label whose cumulative counts are
//!   non-decreasing, ending in `le="+Inf"` whose count equals the
//!   matching `_count` series (same non-`le` labels);
//! * values are finite and render via [`fmt_value`], which round-trips
//!   (`render(parse(text)) == text`).

use crate::histo::{bucket_hi, HistoSnapshot};
use crate::recorder::Recorder;

/// Schema tag on the exposition's first line.
pub const METRICS_V2_SCHEMA: &str = "ecl-metrics-v2";

/// Header line (`# ` + schema).
pub const METRICS_V2_HEADER: &str = "# ecl-metrics-v2";

/// Deterministic value formatting: integers (within f64's exact range)
/// render with no decimal point, everything else via Rust's shortest
/// round-trip float formatting.
pub fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One parsed exposition line.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpoLine {
    /// Metric name.
    pub name: String,
    /// Labels in emission order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl ExpoLine {
    fn render(&self) -> String {
        if self.labels.is_empty() {
            format!("{} {}", self.name, fmt_value(self.value))
        } else {
            let labels = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect::<Vec<_>>()
                .join(",");
            format!("{}{{{}}} {}", self.name, labels, fmt_value(self.value))
        }
    }

    /// The labels minus `le`, rendered canonically — the series key used
    /// to pair `_bucket` lines with their `_count`.
    fn series_key(&self) -> String {
        self.labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Incremental exposition builder; lines appear in insertion order.
#[derive(Default)]
pub struct Expo {
    lines: Vec<ExpoLine>,
}

impl Expo {
    /// An empty exposition.
    pub fn new() -> Expo {
        Expo::default()
    }

    /// Appends one sample line.
    pub fn line(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.lines.push(ExpoLine {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value: if value.is_finite() { value } else { 0.0 },
        });
    }

    /// Appends a histogram: cumulative `_bucket` lines for every
    /// non-empty bucket (upper bound in `le`), then `+Inf`, `_sum` and
    /// `_count`.
    pub fn histo(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistoSnapshot) {
        let mut cum = 0u64;
        for (i, &c) in snap.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let le = bucket_hi(i).to_string();
            let mut ls: Vec<(&str, &str)> = labels.to_vec();
            ls.push(("le", &le));
            self.line(&format!("{name}_bucket"), &ls, cum as f64);
        }
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", "+Inf"));
        self.line(&format!("{name}_bucket"), &ls, snap.count as f64);
        self.line(&format!("{name}_sum"), labels, snap.sum as f64);
        self.line(&format!("{name}_count"), labels, snap.count as f64);
    }

    /// Appends a [`Recorder`]'s metric totals, one unlabelled line per
    /// metric in name order, named `ecl_` + the recorder name with `.`
    /// mapped to `_` (`sim.cycles` → `ecl_sim_cycles`).
    pub fn recorder(&mut self, r: &Recorder) {
        for (name, v) in r.metrics() {
            self.line(&format!("ecl_{}", name.replace('.', "_")), &[], v);
        }
    }

    /// Number of sample lines so far (header excluded).
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when no sample lines have been added.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Renders the full document (header + one line per sample, each
    /// newline-terminated).
    pub fn finish(self) -> String {
        render_expo(&self.lines)
    }
}

/// Renders parsed lines back to the canonical document — the inverse of
/// [`parse_expo`].
pub fn render_expo(lines: &[ExpoLine]) -> String {
    let mut out = String::with_capacity(32 * (lines.len() + 1));
    out.push_str(METRICS_V2_HEADER);
    out.push('\n');
    for l in lines {
        out.push_str(&l.render());
        out.push('\n');
    }
    out
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

fn parse_line(line: &str, n: usize) -> Result<ExpoLine, String> {
    let err = |m: &str| format!("line {n}: {m} ({line:?})");
    let (head, value) = line.rsplit_once(' ').ok_or_else(|| err("missing value"))?;
    let value: f64 = value.parse().map_err(|_| err("bad value"))?;
    if !value.is_finite() {
        return Err(err("non-finite value"));
    }
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| err("unterminated label set"))?;
            let mut labels = Vec::new();
            for pair in body.split(',') {
                let (k, v) = pair.split_once('=').ok_or_else(|| err("bad label pair"))?;
                if !valid_name(k) {
                    return Err(err("bad label name"));
                }
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| err("unquoted label value"))?;
                if v.contains('"') || v.contains('\\') {
                    return Err(err("label value needs escaping"));
                }
                labels.push((k.to_string(), v.to_string()));
            }
            (name.to_string(), labels)
        }
    };
    if !valid_name(&name) {
        return Err(err("bad metric name"));
    }
    Ok(ExpoLine {
        name,
        labels,
        value,
    })
}

/// Parses and validates an `ecl-metrics-v2` document; returns the
/// sample lines. See the module docs for the rules enforced.
pub fn parse_expo(text: &str) -> Result<Vec<ExpoLine>, String> {
    let mut it = text.lines().enumerate();
    match it.next() {
        Some((_, h)) if h == METRICS_V2_HEADER => {}
        other => {
            return Err(format!(
                "first line must be {METRICS_V2_HEADER:?}, got {:?}",
                other.map(|(_, l)| l)
            ))
        }
    }
    let mut lines = Vec::new();
    for (i, raw) in it {
        if raw.is_empty() {
            return Err(format!("line {}: empty line", i + 1));
        }
        lines.push(parse_line(raw, i + 1)?);
    }
    validate_histograms(&lines)?;
    Ok(lines)
}

/// Checks `_bucket` monotonicity and `+Inf`/`_count` agreement.
fn validate_histograms(lines: &[ExpoLine]) -> Result<(), String> {
    use std::collections::BTreeMap;
    // (base name, series key) -> (last cumulative, inf count)
    let mut hists: BTreeMap<(String, String), (f64, Option<f64>)> = BTreeMap::new();
    for l in lines {
        if let Some(base) = l.name.strip_suffix("_bucket") {
            let le = l
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("{}: _bucket line without le label", l.name))?;
            let entry = hists
                .entry((base.to_string(), l.series_key()))
                .or_insert((0.0, None));
            if l.value < entry.0 {
                return Err(format!("{base}: bucket counts not cumulative at le={le}"));
            }
            entry.0 = l.value;
            if le == "+Inf" {
                entry.1 = Some(l.value);
            }
        }
    }
    for l in lines {
        if let Some(base) = l.name.strip_suffix("_count") {
            if let Some((_, inf)) = hists.get(&(base.to_string(), l.series_key())) {
                match inf {
                    None => return Err(format!("{base}: histogram without le=\"+Inf\" bucket")),
                    Some(inf) if *inf != l.value => {
                        return Err(format!(
                            "{base}: le=\"+Inf\" is {inf} but _count is {}",
                            l.value
                        ))
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histo::Histo;

    #[test]
    fn build_parse_render_round_trips() {
        let h = Histo::new();
        for v in [3u64, 3, 17, 900, 900, 900, 12_000] {
            h.record(v);
        }
        let mut e = Expo::new();
        e.line("ecl_sessions_opened_total", &[], 7.0);
        e.line("ecl_window_qps", &[("window", "10s")], 123.5);
        e.histo("ecl_request_latency_us", &[("cmd", "all")], &h.snapshot());
        let text = e.finish();
        let parsed = parse_expo(&text).unwrap();
        assert_eq!(render_expo(&parsed), text, "round-trip must be byte-exact");
        assert!(parsed
            .iter()
            .any(|l| l.name == "ecl_request_latency_us_count" && l.value == 7.0));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped() {
        let h = Histo::new();
        for v in 0..100u64 {
            h.record(v);
        }
        let mut e = Expo::new();
        e.histo("lat", &[], &h.snapshot());
        let text = e.finish();
        let parsed = parse_expo(&text).unwrap();
        let inf = parsed
            .iter()
            .find(|l| l.labels.iter().any(|(k, v)| k == "le" && v == "+Inf"))
            .unwrap();
        assert_eq!(inf.value, 100.0);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_expo("").is_err());
        assert!(parse_expo("# wrong-schema\n").is_err());
        let h = METRICS_V2_HEADER;
        assert!(parse_expo(&format!("{h}\nBadName 1\n")).is_err());
        assert!(parse_expo(&format!("{h}\nx{{l=\"v\" 1\n")).is_err());
        assert!(parse_expo(&format!("{h}\nx nan\n")).is_err());
        assert!(parse_expo(&format!("{h}\nx{{le=\"oops\"}} \n")).is_err());
        // Non-cumulative buckets.
        let doc = format!(
            "{h}\nl_bucket{{le=\"8\"}} 5\nl_bucket{{le=\"16\"}} 3\nl_bucket{{le=\"+Inf\"}} 5\nl_count 5\n"
        );
        assert!(parse_expo(&doc).unwrap_err().contains("cumulative"));
        // +Inf / _count disagreement.
        let doc = format!("{h}\nl_bucket{{le=\"+Inf\"}} 5\nl_count 6\n");
        assert!(parse_expo(&doc).is_err());
    }

    #[test]
    fn fmt_value_is_stable() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(123.0), "123");
        assert_eq!(fmt_value(-4.0), "-4");
        assert_eq!(fmt_value(0.5), "0.5");
        assert_eq!(fmt_value(123.25), "123.25");
        // Round-trip through parse.
        for v in [0.0, 1.5, 99.0, 0.001, 1234567.0] {
            let s = fmt_value(v);
            assert_eq!(s.parse::<f64>().unwrap(), v);
        }
    }
}
