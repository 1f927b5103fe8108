//! Crash-safe progress journal and atomic result persistence.
//!
//! Each finished job's labels go to `<results>/job-<id>.labels` through
//! [`write_atomic`], and only then is one `done` record appended to the
//! journal, a `meta`/`done` codec over [`ecl_obs::durable::RecordLog`].
//! A kill mid-append leaves at most one torn record, which [`load`]
//! discards and [`JournalWriter::append`] cuts off — the job reruns,
//! idempotently, because results are deterministic.
//!
//! The `meta` line pins a digest of the job list, so resuming against a
//! different `--jobs` file is rejected instead of mixing two batches.
//! Every `done` line carries the FNV-1a digest of the result file's
//! bytes; on resume a mismatch (torn rename, tampering) demotes the job
//! back to pending.

use ecl_obs::durable::{load_log, RecordLog};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

pub use ecl_obs::durable::{fnv1a, write_atomic};

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

/// Append-side handle, safe to share between workers: every record is
/// fsync'd before [`record`](Self::record) returns.
pub struct JournalWriter {
    log: RecordLog,
}

impl JournalWriter {
    /// Creates (truncating) a fresh journal for a batch whose job list
    /// hashes to `jobs_digest`.
    pub fn create(path: &Path, jobs_digest: u64, num_jobs: usize) -> io::Result<JournalWriter> {
        let meta = format!("meta\t{VERSION}\t{jobs_digest:016x}\t{num_jobs}\n");
        let log = RecordLog::create(path, meta.as_bytes())?;
        Ok(JournalWriter { log })
    }

    /// Reopens an existing journal for appending (resume), cutting any
    /// torn tail first.
    pub fn append(path: &Path) -> io::Result<JournalWriter> {
        let snap = load(path)?;
        // The journal never reads sequence numbers, so they start at 0.
        let log = RecordLog::open_append(path, snap.valid_len, 0, 0)?;
        Ok(JournalWriter { log })
    }

    /// Durably appends one completed job. Returns only after the bytes
    /// are flushed and fsync'd — the crash-consistency point.
    pub fn record(&self, e: &JournalEntry) -> io::Result<()> {
        let line = format!(
            "done\t{}\t{}\t{}\t{}\t{:016x}\n",
            e.job_id, e.backend, e.components, e.retries, e.digest
        );
        self.log.append(line.as_bytes()).map(drop)
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
    /// Byte offset of the end of the last valid record.
    pub valid_len: u64,
}

/// Loads a journal, discarding a torn tail: the first record that is
/// unparseable or lacks its newline, and everything after it (those
/// jobs simply rerun). Fails if the file is missing or its meta line is
/// torn or unreadable.
pub fn load(path: &Path) -> io::Result<JournalSnapshot> {
    let log = load_log(path, "journal", parse_meta_line, parse_done_line)?;
    let (jobs_digest, num_jobs) = log.header;
    Ok(JournalSnapshot {
        jobs_digest,
        num_jobs,
        done: log.records.into_iter().map(|e| (e.job_id, e)).collect(),
        valid_len: log.valid_len,
    })
}

fn parse_meta_line(line: &str) -> Option<(u64, usize)> {
    let f: Vec<&str> = line.split('\t').collect();
    match f[..] {
        ["meta", v, digest, n, ..] if v == VERSION.to_string() => {
            Some((u64::from_str_radix(digest, 16).ok()?, n.parse().ok()?))
        }
        _ => None,
    }
}

fn parse_done_line(line: &str) -> Option<JournalEntry> {
    let f: Vec<&str> = line.split('\t').collect();
    let ["done", id, backend, comp, retries, digest] = f[..] else {
        return None;
    };
    Some(JournalEntry {
        job_id: id.parse().ok()?,
        backend: backend.to_string(),
        components: comp.parse().ok()?,
        retries: retries.parse().ok()?,
        digest: u64::from_str_radix(digest, 16).ok()?,
    })
}

/// The result-file path for a job id inside a results directory.
pub fn result_path(results_dir: &Path, job_id: u64) -> PathBuf {
    results_dir.join(format!("job-{job_id}.labels"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;

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
        let w = JournalWriter::create(&p, 0xabc, 5).unwrap();
        w.record(&entry(0)).unwrap();
        w.record(&entry(3)).unwrap();
        drop(w);
        let snap = load(&p).unwrap();
        assert_eq!(snap.jobs_digest, 0xabc);
        assert_eq!(snap.num_jobs, 5);
        assert_eq!(snap.done.len(), 2);
        assert_eq!(snap.done[&3], entry(3));
        // Resume-side append.
        let w = JournalWriter::append(&p).unwrap();
        w.record(&entry(4)).unwrap();
        drop(w);
        assert_eq!(load(&p).unwrap().done.len(), 3);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let d = tmpdir("torn");
        let p = d.join("j.journal");
        let w = JournalWriter::create(&p, 1, 4).unwrap();
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
    fn append_after_torn_tail_keeps_every_later_record() {
        // Resuming over a torn tail must cut the tear before writing:
        // otherwise job 2's record fuses with it into one unparseable
        // line and a later load loses job 2.
        let d = tmpdir("torn_resume");
        let p = d.join("j.journal");
        let w = JournalWriter::create(&p, 1, 4).unwrap();
        w.record(&entry(0)).unwrap();
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        write!(f, "done\t1\tgpu-si").unwrap();
        drop(f);
        let w = JournalWriter::append(&p).unwrap();
        w.record(&entry(2)).unwrap();
        w.record(&entry(3)).unwrap();
        drop(w);
        let mut ids: Vec<u64> = load(&p).unwrap().done.into_keys().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2, 3]);
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
