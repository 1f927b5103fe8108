//! Host noise recorded with every run: core count, source revision, the
//! share of CPU time the hypervisor stole over the run, and the load
//! generator's own CPU use. Linux `/proc` only; a missing file reads as
//! zero rather than failing the run.

use std::path::Path;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// fixed at 100 on every mainstream Linux target).
const TICKS_PER_SEC: f64 = 100.0;

/// Worker threads and connections the benchmark may use: `nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The commit the checkout was built from, read from `.git` in the
/// working directory without running git; `"none"` outside a git
/// checkout.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// Aggregate CPU counters from the first line of `/proc/stat`:
/// `(steal, total)` in ticks.
pub fn cpu_steal_total() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so only the first eight sum.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// utime + stime of a process, in seconds (`pid` = `"self"` for this one).
pub fn process_cpu_s(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state(3) ... utime is field 14, stime field 15 (1-based
    // over the whole line), i.e. indices 11 and 12 here.
    let ticks = |i: usize| -> f64 {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0) as f64
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SEC
}

/// Peak resident set size of a process in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Noise sampled at the start of a run; [`NoiseProbe::finish`] turns it
/// into the figures reported with the run.
pub struct NoiseProbe {
    start: Instant,
    cpu: (u64, u64),
    self_cpu_s: f64,
}

/// Host noise over one run.
pub struct Noise {
    /// Share of all CPU time stolen by the hypervisor, in percent.
    pub steal_pct: f64,
    /// CPU time of this (load-generating) process over wall time, in
    /// percent of one core.
    pub loadgen_cpu_pct: f64,
}

impl NoiseProbe {
    /// Samples the counters now.
    pub fn start() -> NoiseProbe {
        NoiseProbe {
            start: Instant::now(),
            cpu: cpu_steal_total(),
            self_cpu_s: process_cpu_s("self"),
        }
    }

    /// Samples the counters again and reports the differences.
    pub fn finish(&self) -> Noise {
        let (steal, total) = cpu_steal_total();
        let d_total = total.saturating_sub(self.cpu.1);
        let wall = self.start.elapsed().as_secs_f64();
        Noise {
            steal_pct: if d_total == 0 {
                0.0
            } else {
                steal.saturating_sub(self.cpu.0) as f64 * 100.0 / d_total as f64
            },
            loadgen_cpu_pct: if wall > 0.0 {
                (process_cpu_s("self") - self.self_cpu_s) * 100.0 / wall
            } else {
                0.0
            },
        }
    }
}
