//! The text "profile report": the paper's cache-locality table
//! (Table 3) and per-phase cycle ablation (§4.5) as first-class,
//! regenerable artifacts.
//!
//! This module only formats; the rows are assembled by callers (the CLI
//! `profile` subcommand) from `CacheStats` / `KernelStats` snapshots, so
//! the crate stays free of simulator dependencies.

use std::fmt::Write as _;

/// One graph's cache-locality row (paper Table 3).
#[derive(Clone, Debug)]
pub struct CacheRow {
    /// Graph name.
    pub graph: String,
    /// L1 read hit ratio in percent.
    pub l1_read_hit_pct: f64,
    /// L2 read hit ratio in percent.
    pub l2_read_hit_pct: f64,
    /// L2 read accesses (L1 read misses).
    pub l2_reads: u64,
    /// L2 write accesses.
    pub l2_writes: u64,
    /// DRAM transactions.
    pub dram: u64,
}

/// One graph's per-phase cycle row (paper §4.5 ablation). `phases`
/// holds `(kernel name, cycles)` in launch order.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Graph name.
    pub graph: String,
    /// Per-kernel cycles in launch order.
    pub phases: Vec<(String, u64)>,
    /// Total cycles including launch overheads.
    pub total_cycles: u64,
}

/// One graph's parent-path-length row (paper Table 4).
#[derive(Clone, Debug)]
pub struct PathRow {
    /// Graph name.
    pub graph: String,
    /// Paths sampled (one per find).
    pub samples: u64,
    /// Average path length.
    pub avg: f64,
    /// Longest path observed.
    pub max: u64,
}

fn table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                let _ = write!(out, "{:<w$}", cell, w = widths[0]);
            } else {
                let _ = write!(out, "  {:>w$}", cell, w = widths[i]);
            }
        }
        out.push('\n');
    };
    fmt_row(header, &widths, &mut out);
    fmt_row(
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
        &widths,
        &mut out,
    );
    for row in rows {
        fmt_row(row, &widths, &mut out);
    }
    out
}

/// Renders the full profile report.
///
/// `path_rows` may be empty (path probing is opt-in); the section is
/// omitted then.
pub fn profile_report(
    device: &str,
    cache_rows: &[CacheRow],
    phase_rows: &[PhaseRow],
    path_rows: &[PathRow],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# ECL-CC profile report — device {device}");
    out.push('\n');

    let _ = writeln!(out, "## Cache locality (paper Table 3)");
    let header: Vec<String> = [
        "graph",
        "L1 read hit%",
        "L2 read hit%",
        "L2 reads",
        "L2 writes",
        "DRAM",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let rows: Vec<Vec<String>> = cache_rows
        .iter()
        .map(|r| {
            vec![
                r.graph.clone(),
                format!("{:.1}", r.l1_read_hit_pct),
                format!("{:.1}", r.l2_read_hit_pct),
                r.l2_reads.to_string(),
                r.l2_writes.to_string(),
                r.dram.to_string(),
            ]
        })
        .collect();
    out.push_str(&table(&header, &rows));
    out.push('\n');

    let _ = writeln!(out, "## Per-phase cycles (paper \u{a7}4.5 ablation)");
    if let Some(first) = phase_rows.first() {
        let mut header: Vec<String> = vec!["graph".to_string()];
        for (name, _) in &first.phases {
            header.push(format!("{name}%"));
        }
        header.push("total cycles".to_string());
        let rows: Vec<Vec<String>> = phase_rows
            .iter()
            .map(|r| {
                let mut cells = vec![r.graph.clone()];
                let total = r.total_cycles.max(1) as f64;
                for (_, cycles) in &r.phases {
                    cells.push(format!("{:.1}", 100.0 * *cycles as f64 / total));
                }
                cells.push(r.total_cycles.to_string());
                cells
            })
            .collect();
        out.push_str(&table(&header, &rows));
        out.push('\n');
    }

    if !path_rows.is_empty() {
        let _ = writeln!(out, "## Parent path lengths (paper Table 4)");
        let header: Vec<String> = ["graph", "samples", "avg", "max"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = path_rows
            .iter()
            .map(|r| {
                vec![
                    r.graph.clone(),
                    r.samples.to_string(),
                    format!("{:.3}", r.avg),
                    r.max.to_string(),
                ]
            })
            .collect();
        out.push_str(&table(&header, &rows));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_all_sections_and_aligns() {
        let cache = vec![CacheRow {
            graph: "rmat16.sym".into(),
            l1_read_hit_pct: 88.2,
            l2_read_hit_pct: 38.6,
            l2_reads: 3260,
            l2_writes: 343,
            dram: 1259,
        }];
        let phases = vec![PhaseRow {
            graph: "rmat16.sym".into(),
            phases: vec![
                ("init".into(), 20000),
                ("compute1".into(), 30000),
                ("finalize".into(), 8000),
            ],
            total_cycles: 58350,
        }];
        let paths = vec![PathRow {
            graph: "rmat16.sym".into(),
            samples: 12000,
            avg: 0.522,
            max: 4,
        }];
        let r = profile_report("titan-x", &cache, &phases, &paths);
        assert!(r.contains("Table 3"));
        assert!(r.contains("\u{a7}4.5"));
        assert!(r.contains("Table 4"));
        assert!(r.contains("88.2"));
        assert!(r.contains("compute1%"));
        assert!(r.contains("0.522"));
    }

    #[test]
    fn path_section_omitted_when_empty() {
        let r = profile_report("k40", &[], &[], &[]);
        assert!(!r.contains("Table 4"));
        assert!(r.contains("k40"));
    }
}
