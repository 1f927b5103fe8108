//! Batch job specifications.
//!
//! A batch is described by a *jobs file*: one job per line, `<name>
//! <graph-spec>`, `#` comments and blank lines ignored. Graph specs are
//! colon-separated generator invocations (deterministic, so a resumed
//! run rebuilds byte-identical inputs) or `file:<path>` for on-disk
//! graphs:
//!
//! ```text
//! # name      spec
//! ring        cycle:5000
//! social      rmat:12:8:7
//! random-a    gnm:20000:60000:1
//! roads       file:data/usa.gr
//! ```
//!
//! Job ids are line-order indices, which is what makes them stable
//! across the original run and any number of resumes of the same file
//! (the journal additionally pins a digest of the parsed job list, so a
//! *changed* jobs file is rejected instead of silently misinterpreted).

use ecl_graph::{generate, io, CsrGraph};
use ecl_obs::durable::fnv1a;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a job's input graph is obtained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSpec {
    /// `path:N` — path graph.
    Path(usize),
    /// `cycle:N` — cycle graph.
    Cycle(usize),
    /// `star:N` — star graph (exercises the block-granularity kernel).
    Star(usize),
    /// `complete:N` — complete graph.
    Complete(usize),
    /// `grid:W:H` — 2-D grid.
    Grid(usize, usize),
    /// `cliques:K:SIZE` — K disjoint cliques.
    Cliques(usize, usize),
    /// `gnm:N:M:SEED` — uniform random graph.
    Gnm(usize, usize, u64),
    /// `rmat:SCALE:DEG:SEED` — RMAT with the Galois parameters.
    Rmat(u32, usize, u64),
    /// `kronecker:SCALE:DEG:SEED` — Kronecker graph.
    Kronecker(u32, usize, u64),
    /// `file:PATH` — read from disk (format by extension:
    /// `.el`/`.txt` edge list, `.gr` DIMACS, `.mtx` Matrix Market,
    /// `.ecl` binary, `.sgr`/`.vgr` Galois).
    File(PathBuf),
}

impl GraphSpec {
    /// Parses a colon-separated spec string.
    pub fn parse(spec: &str) -> Result<GraphSpec, String> {
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let usize_arg = |i: usize| -> Result<usize, String> {
            rest.get(i)
                .ok_or_else(|| format!("spec '{spec}': missing argument {}", i + 1))?
                .parse()
                .map_err(|e| format!("spec '{spec}': argument {}: {e}", i + 1))
        };
        let u64_arg = |i: usize| -> Result<u64, String> {
            rest.get(i)
                .ok_or_else(|| format!("spec '{spec}': missing argument {}", i + 1))?
                .parse()
                .map_err(|e| format!("spec '{spec}': argument {}: {e}", i + 1))
        };
        let arity = |n: usize| -> Result<(), String> {
            if rest.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "spec '{spec}': {kind} takes {n} argument(s), got {}",
                    rest.len()
                ))
            }
        };
        match kind {
            "path" => arity(1).and(Ok(GraphSpec::Path(usize_arg(0)?))),
            "cycle" => arity(1).and(Ok(GraphSpec::Cycle(usize_arg(0)?))),
            "star" => arity(1).and(Ok(GraphSpec::Star(usize_arg(0)?))),
            "complete" => arity(1).and(Ok(GraphSpec::Complete(usize_arg(0)?))),
            "grid" => arity(2).and(Ok(GraphSpec::Grid(usize_arg(0)?, usize_arg(1)?))),
            "cliques" => arity(2).and(Ok(GraphSpec::Cliques(usize_arg(0)?, usize_arg(1)?))),
            "gnm" => arity(3).and(Ok(GraphSpec::Gnm(
                usize_arg(0)?,
                usize_arg(1)?,
                u64_arg(2)?,
            ))),
            "rmat" => arity(3).and(Ok(GraphSpec::Rmat(
                u64_arg(0)? as u32,
                usize_arg(1)?,
                u64_arg(2)?,
            ))),
            "kronecker" => arity(3).and(Ok(GraphSpec::Kronecker(
                u64_arg(0)? as u32,
                usize_arg(1)?,
                u64_arg(2)?,
            ))),
            "file" => {
                arity(1)?;
                Ok(GraphSpec::File(PathBuf::from(rest[0])))
            }
            other => Err(format!(
                "spec '{spec}': unknown graph kind '{other}' (path, cycle, star, complete, \
                 grid, cliques, gnm, rmat, kronecker, file)"
            )),
        }
    }

    /// The canonical spec string (inverse of [`GraphSpec::parse`]);
    /// feeds the job-list digest.
    pub fn canonical(&self) -> String {
        match self {
            GraphSpec::Path(n) => format!("path:{n}"),
            GraphSpec::Cycle(n) => format!("cycle:{n}"),
            GraphSpec::Star(n) => format!("star:{n}"),
            GraphSpec::Complete(n) => format!("complete:{n}"),
            GraphSpec::Grid(w, h) => format!("grid:{w}:{h}"),
            GraphSpec::Cliques(k, s) => format!("cliques:{k}:{s}"),
            GraphSpec::Gnm(n, m, s) => format!("gnm:{n}:{m}:{s}"),
            GraphSpec::Rmat(sc, d, s) => format!("rmat:{sc}:{d}:{s}"),
            GraphSpec::Kronecker(sc, d, s) => format!("kronecker:{sc}:{d}:{s}"),
            GraphSpec::File(p) => format!("file:{}", p.display()),
        }
    }

    /// Builds (or reads) the graph.
    pub fn build(&self) -> Result<CsrGraph, String> {
        Ok(match self {
            GraphSpec::Path(n) => generate::path(*n),
            GraphSpec::Cycle(n) => generate::cycle(*n),
            GraphSpec::Star(n) => generate::star(*n),
            GraphSpec::Complete(n) => generate::complete(*n),
            GraphSpec::Grid(w, h) => generate::grid2d(*w, *h),
            GraphSpec::Cliques(k, s) => generate::disjoint_cliques(*k, *s),
            GraphSpec::Gnm(n, m, s) => generate::gnm_random(*n, *m, *s),
            GraphSpec::Rmat(sc, d, s) => generate::rmat(*sc, *d, generate::RmatParams::GALOIS, *s),
            GraphSpec::Kronecker(sc, d, s) => generate::kronecker(*sc, *d, *s),
            GraphSpec::File(path) => read_graph_file(path)?,
        })
    }
}

fn read_graph_file(path: &Path) -> Result<CsrGraph, String> {
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let reader = std::io::BufReader::new(file);
    let res = match ext {
        "el" | "txt" | "edges" => io::read_edge_list(reader),
        "gr" | "dimacs" => io::read_dimacs(reader),
        "mtx" | "mm" => io::read_matrix_market(reader),
        "ecl" | "bin" => io::read_binary(reader),
        "sgr" | "vgr" => io::read_galois_gr(reader),
        other => return Err(format!("{}: unknown extension '{other}'", path.display())),
    };
    res.map_err(|e| format!("{}: {e}", path.display()))
}

/// One job of a batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Stable id: the job's index in the jobs file.
    pub id: u64,
    /// Human-readable name from the jobs file.
    pub name: String,
    /// Input graph description.
    pub graph: GraphSpec,
}

/// Parses a jobs file (see the module docs for the format).
pub fn parse_jobs(text: &str) -> Result<Vec<JobSpec>, String> {
    let mut jobs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (name, spec) = match (it.next(), it.next(), it.next()) {
            (Some(n), Some(s), None) => (n, s),
            _ => {
                return Err(format!(
                    "jobs file line {}: expected `<name> <spec>`, got {line:?}",
                    lineno + 1
                ))
            }
        };
        jobs.push(JobSpec {
            id: jobs.len() as u64,
            name: name.to_string(),
            graph: GraphSpec::parse(spec).map_err(|e| format!("line {}: {e}", lineno + 1))?,
        });
    }
    if jobs.is_empty() {
        return Err("jobs file contains no jobs".into());
    }
    Ok(jobs)
}

/// Deduplicating graph store shared by all engine workers.
///
/// Batches routinely repeat the same input graph — sweeps over fault
/// seeds, retries of flaky jobs, and resumed runs all rebuild identical
/// [`GraphSpec`]s. Building a graph (or re-reading it from disk) is the
/// most expensive per-job setup cost, so the store builds each distinct
/// spec once, keyed by its [`GraphSpec::canonical`] string, and hands out
/// cheap [`Arc`] clones. Failures are *not* cached: a job whose graph
/// file is missing should see the real error again on retry, after the
/// operator had a chance to fix it.
#[derive(Debug, Default)]
pub struct GraphStore {
    cache: Mutex<HashMap<String, Arc<CsrGraph>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl GraphStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        GraphStore::default()
    }

    /// Returns the graph for `spec`, building it on first use.
    ///
    /// The build runs *outside* the lock so a slow `file:` read on one
    /// worker never stalls the others; if two workers race on the same
    /// spec, the first insertion wins and the duplicate build is dropped.
    pub fn get(&self, spec: &GraphSpec) -> Result<Arc<CsrGraph>, String> {
        let key = spec.canonical();
        if let Some(g) = self.cache.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(g));
        }
        let built = Arc::new(spec.build()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::clone(
            self.cache.lock().unwrap().entry(key).or_insert(built),
        ))
    }

    /// (cache hits, builds) since creation — exposed for the batch
    /// summary so operators can see the dedup working.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct graphs currently held.
    pub fn len(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// True if no graph has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Digest of a parsed job list — pins a journal to its jobs file.
pub fn jobs_digest(jobs: &[JobSpec]) -> u64 {
    let mut text = String::new();
    for j in jobs {
        text.push_str(&j.id.to_string());
        text.push('\t');
        text.push_str(&j.name);
        text.push('\t');
        text.push_str(&j.graph.canonical());
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_canonical() {
        for s in [
            "path:10",
            "cycle:5",
            "star:9",
            "complete:4",
            "grid:3:4",
            "cliques:2:6",
            "gnm:100:300:7",
            "rmat:8:8:3",
            "kronecker:7:6:2",
            "file:data/x.el",
        ] {
            let spec = GraphSpec::parse(s).unwrap();
            assert_eq!(spec.canonical(), s);
        }
        assert!(GraphSpec::parse("blob:3").is_err());
        assert!(GraphSpec::parse("path").is_err());
        assert!(GraphSpec::parse("path:3:4").is_err());
        assert!(GraphSpec::parse("gnm:a:b:c").is_err());
    }

    #[test]
    fn generated_specs_build() {
        let g = GraphSpec::parse("cliques:3:5").unwrap().build().unwrap();
        assert_eq!(g.num_vertices(), 15);
        let g = GraphSpec::parse("gnm:50:120:1").unwrap().build().unwrap();
        assert_eq!(g.num_vertices(), 50);
    }

    #[test]
    fn jobs_file_parses_with_comments_and_ids() {
        let jobs = parse_jobs("# batch\nring cycle:10\n\nrand gnm:20:40:1\n").unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, 0);
        assert_eq!(jobs[0].name, "ring");
        assert_eq!(jobs[1].id, 1);
        assert_eq!(jobs[1].graph, GraphSpec::Gnm(20, 40, 1));
        assert!(parse_jobs("").is_err());
        assert!(parse_jobs("just-a-name\n").is_err());
        assert!(parse_jobs("a b c\n").is_err());
    }

    #[test]
    fn graph_store_dedups_identical_specs() {
        let store = GraphStore::new();
        let spec = GraphSpec::parse("gnm:100:300:7").unwrap();
        let a = store.get(&spec).unwrap();
        let b = store.get(&spec).unwrap();
        // Same allocation, not merely an equal graph.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.stats(), (1, 1));
        assert_eq!(store.len(), 1);

        // A different spec is a fresh build.
        let c = store
            .get(&GraphSpec::parse("gnm:100:300:8").unwrap())
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.stats(), (1, 2));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn graph_store_does_not_cache_failures() {
        let store = GraphStore::new();
        let missing = GraphSpec::parse("file:/nonexistent/x.el").unwrap();
        assert!(store.get(&missing).is_err());
        assert!(store.get(&missing).is_err());
        assert!(store.is_empty());
        assert_eq!(store.stats(), (0, 0));
    }

    #[test]
    fn graph_store_is_shared_across_threads() {
        let store = Arc::new(GraphStore::new());
        let spec = GraphSpec::parse("cliques:4:8").unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let spec = spec.clone();
                std::thread::spawn(move || store.get(&spec).unwrap())
            })
            .collect();
        let graphs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All threads converge on one cached entry; racing builds may
        // happen but exactly one allocation is handed out afterwards.
        assert_eq!(store.len(), 1);
        let canonical = store.get(&spec).unwrap();
        for g in &graphs {
            assert_eq!(g.num_vertices(), canonical.num_vertices());
        }
    }

    #[test]
    fn digest_tracks_content() {
        let a = parse_jobs("x cycle:10\n").unwrap();
        let b = parse_jobs("x cycle:10\n").unwrap();
        let c = parse_jobs("x cycle:11\n").unwrap();
        assert_eq!(jobs_digest(&a), jobs_digest(&b));
        assert_ne!(jobs_digest(&a), jobs_digest(&c));
    }
}
