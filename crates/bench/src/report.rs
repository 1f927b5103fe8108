//! Hand-rolled JSON emission for benchmark results.
//!
//! The harness historically printed text tables only; downstream tooling
//! wants machine-readable output, and the workspace builds offline with
//! no serde. This module writes the small, flat JSON shape we need by
//! hand — escaping is the only subtle part.

use std::io::Write;

/// Verification outcome of one measured run, established *outside* the
/// timed region by the independent checker in `ecl-verify`.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// Whether certification passed.
    pub pass: bool,
    /// Component count from the certificate (0 when `pass` is false).
    pub components: usize,
    /// The checker's witness message when certification failed.
    pub detail: String,
}

/// One measured (experiment, graph, code) data point.
#[derive(Clone, Debug, Default)]
pub struct BenchRecord {
    /// Experiment name (e.g. `"verify-sweep"`, `"table5"`).
    pub experiment: String,
    /// Input graph name.
    pub graph: String,
    /// Code under test.
    pub code: String,
    /// Measured time in milliseconds (simulated pseudo-ms for GPU codes,
    /// host wall-clock for CPU codes).
    pub time_ms: f64,
    /// True when `time_ms` is simulated cycles converted at device clock.
    pub simulated: bool,
    /// Certification outcome; `None` when the run was not verified.
    pub verified: Option<VerifyOutcome>,
    /// Wall-clock speedup of this run over a matching reference run
    /// (omitted from the JSON when `None`).
    pub speedup_vs_serial: Option<f64>,
    /// Simulated edges processed per host wall-clock second — the
    /// simulator-throughput metric (omitted from the JSON when `None`).
    pub sim_edges_per_sec: Option<f64>,
    /// Device profile name for simulated runs (`"host"` for CPU codes).
    pub device: String,
}

/// Escapes a string for inclusion in a JSON string literal. Delegates to
/// the workspace's single JSON implementation in [`ecl_obs::json`].
pub fn json_escape(s: &str) -> String {
    ecl_obs::json::escape(s)
}

/// Formats an `f64` the way JSON expects (no NaN/inf — mapped to null).
/// Delegates to the shared formatter in [`ecl_obs::json`].
fn json_f64(v: f64) -> String {
    ecl_obs::json::fmt_f64(v)
}

impl BenchRecord {
    /// Serializes this record as one JSON object.
    pub fn to_json(&self) -> String {
        let verified = match &self.verified {
            None => "null".to_string(),
            Some(v) => format!(
                "{{\"pass\":{},\"components\":{},\"detail\":\"{}\"}}",
                v.pass,
                v.components,
                json_escape(&v.detail)
            ),
        };
        let mut extra = String::new();
        if let Some(s) = self.speedup_vs_serial {
            extra.push_str(&format!(",\"speedup_vs_serial\":{}", json_f64(s)));
        }
        if let Some(e) = self.sim_edges_per_sec {
            extra.push_str(&format!(",\"sim_edges_per_sec\":{}", json_f64(e)));
        }
        format!(
            "{{\"experiment\":\"{}\",\"graph\":\"{}\",\"code\":\"{}\",\
             \"device\":\"{}\",\
             \"time_ms\":{},\"simulated\":{},\"verified\":{}{}}}",
            json_escape(&self.experiment),
            json_escape(&self.graph),
            json_escape(&self.code),
            json_escape(&self.device),
            json_f64(self.time_ms),
            self.simulated,
            verified,
            extra
        )
    }
}

/// Serializes a record set as a JSON document:
/// `{"records": [...], "all_verified": bool}`.
pub fn report_to_json(records: &[BenchRecord]) -> String {
    let body: Vec<String> = records
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    let all_verified = records
        .iter()
        .filter_map(|r| r.verified.as_ref())
        .all(|v| v.pass);
    format!(
        "{{\n  \"records\": [\n{}\n  ],\n  \"all_verified\": {}\n}}\n",
        body.join(",\n"),
        all_verified
    )
}

/// Writes the report to a file.
pub fn write_report(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(report_to_json(records).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BenchRecord {
        BenchRecord {
            experiment: "verify-sweep".into(),
            graph: "rmat16.sym".into(),
            code: "ECL-CC".into(),
            time_ms: 1.5,
            simulated: true,
            verified: Some(VerifyOutcome {
                pass: true,
                components: 7,
                detail: String::new(),
            }),
            speedup_vs_serial: None,
            sim_edges_per_sec: None,
            device: "titan-x".into(),
        }
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn record_shape() {
        let j = record().to_json();
        assert!(j.contains("\"experiment\":\"verify-sweep\""));
        assert!(j.contains("\"time_ms\":1.5"));
        assert!(j.contains("\"pass\":true"));
        assert!(j.contains("\"components\":7"));
        assert!(j.contains("\"device\":\"titan-x\""));
    }

    #[test]
    fn unverified_is_null() {
        let mut r = record();
        r.verified = None;
        assert!(r.to_json().contains("\"verified\":null"));
    }

    #[test]
    fn document_aggregates_pass_flag() {
        let ok = record();
        let mut bad = record();
        bad.verified = Some(VerifyOutcome {
            pass: false,
            components: 0,
            detail: "edge (1, 2) crosses labels".into(),
        });
        assert!(report_to_json(std::slice::from_ref(&ok)).contains("\"all_verified\": true"));
        let doc = report_to_json(&[ok, bad]);
        assert!(doc.contains("\"all_verified\": false"));
        assert!(doc.contains("crosses labels"));
    }

    #[test]
    fn optional_throughput_fields() {
        let mut r = record();
        assert!(!r.to_json().contains("speedup_vs_serial"));
        assert!(!r.to_json().contains("sim_edges_per_sec"));
        r.speedup_vs_serial = Some(1.25);
        r.sim_edges_per_sec = Some(2e6);
        let j = r.to_json();
        assert!(j.contains("\"speedup_vs_serial\":1.25"));
        assert!(j.contains("\"sim_edges_per_sec\":2000000"));
    }

    #[test]
    fn nan_becomes_null() {
        let mut r = record();
        r.time_ms = f64::NAN;
        assert!(r.to_json().contains("\"time_ms\":null"));
    }
}
