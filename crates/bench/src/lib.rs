//! Benchmark harness support: graph sets, timing, aggregation, and the
//! per-experiment drivers behind the `harness` binary and the
//! `[[bench]]` targets (which run on the in-crate [`microbench`]
//! runner). Each public `exp_*` function regenerates one table or
//! figure of the paper (see DESIGN.md's experiment index).

#![forbid(unsafe_code)]

pub mod adaptive_bench;
pub mod experiments;
pub mod microbench;
pub mod report;
pub mod runners;
pub mod serve_load;
pub mod shard_bench;
pub mod telemetry_bench;

use ecl_graph::catalog::{PaperGraph, Scale};
use ecl_graph::CsrGraph;

/// The paper's measurement protocol: run three times, report the median
/// (§4: "We repeated each experiment three times and report the median").
pub fn median_time_ms<F: FnMut()>(mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[1]
}

/// Geometric mean of positive values (the paper's aggregate: "all averages
/// refer to the geometric mean of the normalized runtimes").
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Generates all eighteen catalog graphs at `scale`, with names.
pub fn paper_graphs(scale: Scale) -> Vec<(&'static str, CsrGraph)> {
    PaperGraph::ALL
        .iter()
        .map(|&pg| (pg.info().name, pg.generate(scale)))
        .collect()
}

/// A quick subset (fast, varied classes) used by the `[[bench]]`
/// targets and the `--verify` sweep.
pub fn quick_graphs(scale: Scale) -> Vec<(&'static str, CsrGraph)> {
    [
        PaperGraph::Grid2d,
        PaperGraph::EuropeOsm,
        PaperGraph::Rmat16,
        PaperGraph::SocLivejournal,
    ]
    .iter()
    .map(|&pg| (pg.info().name, pg.generate(scale)))
    .collect()
}

/// Prints a table: header + separator + rows, first column left-aligned.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let fmt_row = |r: &[String]| {
        r.iter()
            .enumerate()
            .map(|(i, c)| {
                if i == 0 {
                    format!("{c:<w$}", w = widths[0])
                } else {
                    format!("{c:>w$}", w = widths[i])
                }
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn median_returns_a_time() {
        let t = median_time_ms(|| {
            let _ = std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }

    #[test]
    fn quick_set_has_four_classes() {
        let g = quick_graphs(Scale::Tiny);
        assert_eq!(g.len(), 4);
    }
}
