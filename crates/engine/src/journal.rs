//! Crash-safe progress journal and atomic result persistence.
//!
//! Two complementary mechanisms make a killed batch resumable:
//!
//! * **Per-job result files** are written with the classic
//!   write-temp-then-rename dance: the labels land in
//!   `<results>/.tmp-job-<id>`, are fsync'd, and only then renamed to
//!   `<results>/job-<id>.labels` (then the directory is fsync'd, see
//!   [`write_atomic`]). A kill can leave a stale temp file
//!   behind but never a torn final file.
//! * **The journal** is an append-only, line-oriented log. Each
//!   completed job appends one `done` line *after* its result file is in
//!   place, flushed and fsync'd before the engine considers the job
//!   finished. A kill mid-append leaves at most one torn trailing line,
//!   which the loader silently discards — the worst case is re-running
//!   one job whose result was already durable, which is idempotent
//!   because results are deterministic.
//!
//! The journal's first line pins a digest of the job list, so resuming
//! against a different `--jobs` file is rejected instead of silently
//! mixing two batches. Every `done` line carries the FNV-1a digest of
//! the result file's bytes; on resume the file is re-hashed and a
//! mismatch (torn rename, manual tampering) demotes the job back to
//! pending.
//!
//! The format is deliberately TSV, not JSON: it must be parseable after
//! arbitrary truncation, and a tab-separated line either has all its
//! fields or it doesn't.

use ecl_obs::durable::sync_parent_dir;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Journal format version; bumped on incompatible changes.
const VERSION: u32 = 1;

/// One completed job, as recorded in (and recovered from) the journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// The job's stable id (its index in the job list).
    pub job_id: u64,
    /// Backend whose certified answer was accepted.
    pub backend: String,
    /// Certified component count.
    pub components: usize,
    /// Job-level retries that were needed.
    pub retries: u32,
    /// FNV-1a digest of the result file's bytes.
    pub digest: u64,
}

/// Append-side handle: owns the journal file, fsyncs every record.
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates (truncating) a fresh journal for a batch whose job list
    /// hashes to `jobs_digest`.
    pub fn create(path: &Path, jobs_digest: u64, num_jobs: usize) -> io::Result<JournalWriter> {
        let mut file = File::create(path)?;
        writeln!(file, "meta\t{VERSION}\t{jobs_digest:016x}\t{num_jobs}")?;
        file.sync_data()?;
        sync_parent_dir(path);
        Ok(JournalWriter { file })
    }

    /// Reopens an existing journal for appending (resume).
    pub fn append(path: &Path) -> io::Result<JournalWriter> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter { file })
    }

    /// Durably appends one completed job. Returns only after the bytes
    /// are flushed and fsync'd — the crash-consistency point.
    pub fn record(&mut self, e: &JournalEntry) -> io::Result<()> {
        writeln!(
            self.file,
            "done\t{}\t{}\t{}\t{}\t{:016x}",
            e.job_id, e.backend, e.components, e.retries, e.digest
        )?;
        self.file.sync_data()
    }
}

/// Everything recovered from a journal on resume.
#[derive(Debug)]
pub struct JournalSnapshot {
    /// The job-list digest the batch was started with.
    pub jobs_digest: u64,
    /// The job count the batch was started with.
    pub num_jobs: usize,
    /// Completed jobs by id (later duplicates win, though duplicates
    /// only arise from a re-run of an already-durable job).
    pub done: HashMap<u64, JournalEntry>,
}

/// Loads a journal, discarding any torn trailing line. Fails if the
/// file is missing or its meta line is unreadable.
pub fn load(path: &Path) -> io::Result<JournalSnapshot> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    let meta = lines
        .next()
        .transpose()?
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "journal is empty"))?;
    let mut mf = meta.split('\t');
    let (jobs_digest, num_jobs) = match (mf.next(), mf.next(), mf.next(), mf.next()) {
        (Some("meta"), Some(v), Some(digest), Some(n)) if v == VERSION.to_string() => {
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let n: usize = n
                .parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            (digest, n)
        }
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad journal meta line: {meta:?}"),
            ))
        }
    };
    let mut done = HashMap::new();
    for line in lines {
        let line = line?;
        if let Some(entry) = parse_done_line(&line) {
            done.insert(entry.job_id, entry);
        }
        // Anything unparseable is treated as a torn tail and skipped;
        // the corresponding job simply reruns.
    }
    Ok(JournalSnapshot {
        jobs_digest,
        num_jobs,
        done,
    })
}

fn parse_done_line(line: &str) -> Option<JournalEntry> {
    let mut f = line.split('\t');
    match (
        f.next(),
        f.next(),
        f.next(),
        f.next(),
        f.next(),
        f.next(),
        f.next(),
    ) {
        (Some("done"), Some(id), Some(backend), Some(comp), Some(retries), Some(digest), None) => {
            Some(JournalEntry {
                job_id: id.parse().ok()?,
                backend: backend.to_string(),
                components: comp.parse().ok()?,
                retries: retries.parse().ok()?,
                digest: u64::from_str_radix(digest, 16).ok()?,
            })
        }
        _ => None,
    }
}

pub use ecl_obs::durable::{fnv1a, write_atomic};

/// The result-file path for a job id inside a results directory.
pub fn result_path(results_dir: &Path, job_id: u64) -> PathBuf {
    results_dir.join(format!("job-{job_id}.labels"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ecl_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(id: u64) -> JournalEntry {
        JournalEntry {
            job_id: id,
            backend: "gpu-sim".into(),
            components: 3,
            retries: 1,
            digest: 0xdead_beef,
        }
    }

    #[test]
    fn roundtrip_create_record_load() {
        let d = tmpdir("roundtrip");
        let p = d.join("j.journal");
        let mut w = JournalWriter::create(&p, 0xabc, 5).unwrap();
        w.record(&entry(0)).unwrap();
        w.record(&entry(3)).unwrap();
        drop(w);
        let snap = load(&p).unwrap();
        assert_eq!(snap.jobs_digest, 0xabc);
        assert_eq!(snap.num_jobs, 5);
        assert_eq!(snap.done.len(), 2);
        assert_eq!(snap.done[&3], entry(3));
        // Resume-side append.
        let mut w = JournalWriter::append(&p).unwrap();
        w.record(&entry(4)).unwrap();
        drop(w);
        assert_eq!(load(&p).unwrap().done.len(), 3);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let d = tmpdir("torn");
        let p = d.join("j.journal");
        let mut w = JournalWriter::create(&p, 1, 4).unwrap();
        w.record(&entry(0)).unwrap();
        drop(w);
        // Simulate a kill mid-append: a truncated record at the tail.
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        write!(f, "done\t1\tgpu-si").unwrap();
        drop(f);
        let snap = load(&p).unwrap();
        assert_eq!(snap.done.len(), 1);
        assert!(snap.done.contains_key(&0));
    }

    #[test]
    fn missing_or_corrupt_meta_rejected() {
        let d = tmpdir("meta");
        let p = d.join("j.journal");
        assert!(load(&p).is_err(), "missing file");
        std::fs::write(&p, "").unwrap();
        assert!(load(&p).is_err(), "empty file");
        std::fs::write(&p, "done\t0\tserial\t1\t0\t0\n").unwrap();
        assert!(load(&p).is_err(), "no meta line");
        std::fs::write(&p, "meta\t999\tzz\tnope\n").unwrap();
        assert!(load(&p).is_err(), "wrong version / garbage");
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let d = tmpdir("atomic");
        let p = d.join("out.labels");
        write_atomic(&p, b"first").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"first");
        write_atomic(&p, b"second-longer").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"second-longer");
        // No temp residue after a clean write.
        assert!(!d.join(".tmp-out.labels").exists());
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"labels"), fnv1a(b"labels"));
    }
}
