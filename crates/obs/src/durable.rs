//! Durable files: the one module that syncs, truncates and renames the
//! files that must survive a crash. Two shapes cover every artifact: a
//! **record log** ([`RecordLog`], [`load_log`]) under the serve WAL and
//! the engine journal, and a **stamped label file**
//! ([`render_label_file`], [`read_label_file`]) for serve snapshots and
//! shard checkpoints. Result files and postmortems are whole files
//! written through [`write_atomic`].

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

/// FNV-1a 64-bit hash — the digest that pins journal entries to result
/// files, snapshots to their edge log, checkpoints to their labels, and
/// interconnect frames to their payload (fast, dependency-free; not
/// cryptographic, and does not need to be: it detects torn writes and
/// flipped bits, not adversaries).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`, so a digest over pieces
/// never needs them copied into one buffer:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the decimal digits of `v` to `out`, with no allocation: the
/// number format of the durable text files (label files, result files),
/// which are rendered into one buffer.
pub fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Writes `bytes` to `path` atomically and durably: temp file
/// `.tmp-<name>` in the same directory, fsync, rename, then fsync the
/// directory so the rename itself survives a crash. Readers never
/// observe a partial file; a kill can at worst leave the temp file.
/// An `Err` means the rename did not happen: the old file is intact.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = parent_dir(path).join(format!(".tmp-{}", name.to_string_lossy()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Fsyncs the directory holding `path`, so a just-created or
/// just-renamed directory entry survives a crash (the file's own
/// `sync_all` does not cover its name). Best-effort: some platforms
/// cannot open or fsync a directory.
fn sync_parent_dir(path: &Path) {
    if let Ok(d) = File::open(parent_dir(path)) {
        let _ = d.sync_all();
    }
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// An append-only record log with leader–follower group commit.
///
/// Each appender buffers its record under the state lock and then
/// either becomes the *flush leader* (writes and syncs everything
/// buffered so far, including records that raced in from other threads)
/// or waits on a condvar until a leader's flush covers its sequence
/// number. One disk round-trip amortizes across every record that
/// arrived during the previous flush.
///
/// A failed flush rolls the file back to its pre-write length before
/// the batch is re-queued, so a partial `write_all` can neither leave a
/// mid-file tear nor be appended twice by a later successful flush. If
/// the rollback itself fails the on-disk state is unknown and the log
/// is **poisoned**: every later append fails fast rather than risk
/// acknowledging records it cannot prove durable.
///
/// Sequence numbers count records from the start of history: the
/// records [`compact`](Self::compact) dropped are the log's *base*.
pub struct RecordLog {
    state: Mutex<LogState>,
    cv: Condvar,
    /// The file sits outside the state lock so followers keep buffering
    /// while the leader is inside `fsync`. `flushing` guarantees a
    /// single writer, so file order always equals sequence order.
    file: Mutex<File>,
    /// Where the file lives: compaction rewrites it and must reopen the
    /// append handle afterwards.
    path: PathBuf,
}

struct LogState {
    /// Records appended but not yet handed to a flush.
    buf: Vec<u8>,
    /// Records assigned a sequence number so far (1-based).
    pending: u64,
    /// Highest sequence number known durable on disk.
    flushed: u64,
    /// Records logically preceding this file (dropped by compaction).
    base: u64,
    /// A leader is currently writing; followers wait. Compaction also
    /// raises this flag: it is an exclusive writer of the same file.
    flushing: bool,
    /// A flush failed *and* the rollback failed: the file's tail is in
    /// an unknown state, so no further append may be acknowledged.
    poisoned: bool,
}

/// A failed flush or rewrite, and whether it leaves the file in an
/// unknown state (the log must then be poisoned).
struct FlushError {
    cause: io::Error,
    poisons: bool,
}

impl FlushError {
    fn soft(cause: io::Error) -> FlushError {
        FlushError {
            cause,
            poisons: false,
        }
    }
}

impl RecordLog {
    /// Creates (truncating) a log holding only `header` (one
    /// newline-terminated line), durable together with its directory
    /// entry before any record can be appended.
    pub fn create(path: &Path, header: &[u8]) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(header)?;
        file.sync_data()?;
        sync_parent_dir(path);
        Ok(RecordLog::wrap(file, path, 0, 0))
    }

    /// Reopens a log behind a [`load_log`] for appending: its `n` valid
    /// records (after `base` compacted ones) seed the sequence. Torn
    /// bytes past `valid_len` (a kill mid-append) are cut off first —
    /// appending after them would fuse the tear and the new record into
    /// one unparseable line, which the *next* load would discard
    /// together with every record after it.
    pub fn open_append(path: &Path, valid_len: u64, base: u64, n: u64) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        if file.metadata()?.len() != valid_len {
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        Ok(RecordLog::wrap(file, path, base, n))
    }

    fn wrap(file: File, path: &Path, base: u64, in_file: u64) -> Self {
        let flushed = base + in_file;
        RecordLog {
            state: Mutex::new(LogState {
                buf: Vec::new(),
                pending: flushed,
                flushed,
                base,
                flushing: false,
                poisoned: false,
            }),
            cv: Condvar::new(),
            file: Mutex::new(file),
            path: path.to_path_buf(),
        }
    }

    fn poisoned_err() -> io::Error {
        io::Error::other("log poisoned: an earlier flush failed and could not be rolled back")
    }

    /// Durably appends one record (its bytes end in `\n`), returning its
    /// sequence number. Returns only once the record — and therefore
    /// every record sequenced before it — is fsync'd.
    pub fn append(&self, record: &[u8]) -> io::Result<u64> {
        let my_seq = {
            let mut s = self.state.lock().unwrap();
            if s.poisoned {
                return Err(Self::poisoned_err());
            }
            s.pending += 1;
            s.buf.extend_from_slice(record);
            s.pending
        };
        loop {
            let mut s = self.state.lock().unwrap();
            if s.poisoned {
                return Err(Self::poisoned_err());
            }
            if s.flushed >= my_seq {
                return Ok(my_seq);
            }
            if s.flushing {
                // A leader is on the disk; wait for its verdict.
                let _unused = self.cv.wait(s).unwrap();
                continue;
            }
            // Become the leader: take everything buffered so far.
            s.flushing = true;
            let batch = std::mem::take(&mut s.buf);
            let target = s.pending;
            drop(s);

            let res = flush_batch(&mut self.file.lock().unwrap(), &batch);

            let mut s = self.state.lock().unwrap();
            s.flushing = false;
            match res {
                // Loop exits via the flushed check above.
                Ok(()) => s.flushed = s.flushed.max(target),
                Err(FlushError { cause, poisons }) => {
                    if poisons {
                        // Bytes of `batch` may or may not be on disk:
                        // retrying risks duplicates, dropping risks a
                        // mid-file tear. Followers see `poisoned`.
                        s.poisoned = true;
                        s.buf.clear();
                    } else {
                        // Rolled back to a record boundary: re-queue the
                        // batch ahead of later records. Every waiter
                        // re-races and sees the error on its own try.
                        let mut unwritten = batch;
                        unwritten.extend_from_slice(&s.buf);
                        s.buf = unwritten;
                    }
                    self.cv.notify_all();
                    return Err(cause);
                }
            }
            self.cv.notify_all();
        }
    }

    /// Number of records known durable, counted from the start of
    /// history — compaction never lowers it.
    pub fn durable(&self) -> u64 {
        self.state.lock().unwrap().flushed
    }

    /// Poisons the log exactly as if a flush rollback had failed: every
    /// later append fails fast with the poisoned error.
    pub fn poison(&self) {
        let mut s = self.state.lock().unwrap();
        s.poisoned = true;
        s.buf.clear();
        self.cv.notify_all();
    }

    /// Compacts the log: drops every durable record up to sequence
    /// `upto` (clamped to [`durable`](Self::durable)) and rewrites the
    /// file through [`write_atomic`] as `header(upto)` plus the records
    /// kept, so a kill leaves the old or the new complete log. A failure
    /// before the rename leaves the old log in place and usable.
    pub fn compact(&self, upto: u64, header: impl FnOnce(u64) -> Vec<u8>) -> io::Result<()> {
        // Become the exclusive writer, exactly like a flush leader:
        // no flush can be mid-write while the file is being swapped.
        let (base, upto) = {
            let mut s = self.state.lock().unwrap();
            loop {
                if s.poisoned {
                    return Err(Self::poisoned_err());
                }
                if !s.flushing {
                    break;
                }
                s = self.cv.wait(s).unwrap();
            }
            let upto = upto.min(s.flushed);
            if upto <= s.base {
                return Ok(()); // nothing new to drop
            }
            s.flushing = true;
            (s.base, upto)
        };

        let res = self.rewrite(upto - base, header(upto));

        let mut s = self.state.lock().unwrap();
        s.flushing = false;
        match &res {
            Ok(()) => s.base = upto,
            // The rename landed but the append handle was not reopened:
            // later flushes would land on the unlinked inode.
            Err(e) if e.poisons => {
                s.poisoned = true;
                s.buf.clear();
            }
            Err(_) => {}
        }
        self.cv.notify_all();
        res.map_err(|e| e.cause)
    }

    /// The compaction rewrite, run while holding writer exclusivity.
    fn rewrite(&self, drop_count: u64, mut doc: Vec<u8>) -> Result<(), FlushError> {
        let mut file = self.file.lock().unwrap();
        // The last flush fsync'd everything durable, so the file holds
        // the header and then exactly the durable records, one a line.
        let old = std::fs::read(&self.path).map_err(FlushError::soft)?;
        let mut at = 0;
        for _ in 0..=drop_count {
            at = old[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(old.len(), |i| at + i + 1);
        }
        doc.extend_from_slice(&old[at..]);
        write_atomic(&self.path, &doc).map_err(FlushError::soft)?;
        // Swap the append handle onto the new inode before any later
        // flush can write.
        *file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|cause| FlushError {
                cause,
                poisons: true,
            })?;
        Ok(())
    }
}

/// Writes and syncs one batch. `write_all` may fail after writing a
/// prefix (or succeed entirely with only the fsync failing), so on any
/// failure the file is rolled back to its pre-write length: re-queuing
/// the batch is then a clean retry rather than a source of duplicate
/// records or a partial record fused with the next flush's bytes.
fn flush_batch(f: &mut File, batch: &[u8]) -> Result<(), FlushError> {
    // Nothing was written yet if this fails, so the batch is safe to
    // re-queue.
    let before = f.metadata().map_err(FlushError::soft)?.len();
    f.write_all(batch)
        .and_then(|()| f.sync_data())
        .map_err(|cause| FlushError {
            cause,
            poisons: f.set_len(before).and_then(|()| f.sync_data()).is_err(),
        })
}

/// Everything [`load_log`] recovered from a record log.
#[derive(Debug)]
pub struct LoadedLog<H, R> {
    /// The parsed header line.
    pub header: H,
    /// Valid records, in append order.
    pub records: Vec<R>,
    /// Byte offset of the end of the last valid record (the offset
    /// [`RecordLog::open_append`] truncates to, cutting any torn tail).
    pub valid_len: u64,
}

/// Loads a record log named `what` in errors. Fails on a missing file or
/// a header line that is torn or that `header` rejects. Records are read
/// up to the first one that lacks its newline or that `record` rejects:
/// that record and everything after it are a torn tail. A record that
/// lacks its newline is torn even if it parses — `e\t2\t5` torn from
/// `e\t2\t57\n` — since it was never fully written.
pub fn load_log<H, R>(
    path: &Path,
    what: &str,
    header: impl FnOnce(&str) -> Option<H>,
    mut record: impl FnMut(&str) -> Option<R>,
) -> io::Result<LoadedLog<H, R>> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut line = Vec::new();
    let mut next_line = |line: &mut Vec<u8>| -> io::Result<Option<usize>> {
        line.clear();
        let n = reader.read_until(b'\n', line)?;
        Ok((line.last() == Some(&b'\n')).then_some(n))
    };
    let Some(n) = next_line(&mut line)? else {
        // `create` syncs the header before any append is possible, so a
        // torn header means creation itself died: nothing was ever
        // acknowledged, and there is no valid prefix to resume from.
        return Err(invalid(format!("empty or torn {what} meta line")));
    };
    let text = std::str::from_utf8(&line[..n - 1]).ok();
    let header = text.and_then(header).ok_or_else(|| {
        let meta = String::from_utf8_lossy(&line[..n - 1]);
        invalid(format!("bad {what} meta line: {meta:?}"))
    })?;
    let mut valid_len = n as u64;
    let mut records = Vec::new();
    while let Some(n) = next_line(&mut line)? {
        let Some(r) = std::str::from_utf8(&line[..n - 1])
            .ok()
            .and_then(&mut record)
        else {
            break;
        };
        records.push(r);
        valid_len += n as u64;
    }
    Ok(LoadedLog {
        header,
        records,
        valid_len,
    })
}

/// The stamped label-file document:
/// `magic\tversion\tn\tfields…\tdigest`, then one decimal label per
/// line, where `n = labels.len()` and the digest is FNV-1a over
/// `"n\tfields…\n"` followed by the body. Rendered into one buffer with
/// no per-label allocation: the digest has a fixed 16-hex width, so the
/// header goes in first with a placeholder that is patched once the
/// body is hashed in place.
pub fn render_label_file(magic: &str, version: u32, fields: &[u64], labels: &[u32]) -> Vec<u8> {
    // Up to 7 digits plus a newline per label covers 2^20 vertices.
    let mut doc = Vec::with_capacity(64 + labels.len() * 8);
    doc.extend_from_slice(format!("{magic}\t{version}\t").as_bytes());
    let stamped_at = doc.len();
    push_decimal(&mut doc, labels.len() as u64);
    for &f in fields {
        doc.push(b'\t');
        push_decimal(&mut doc, f);
    }
    let stamped = fnv1a_extend(fnv1a(&doc[stamped_at..]), b"\n");
    doc.extend_from_slice(b"\t0000000000000000\n");
    let body_at = doc.len();
    for &l in labels {
        push_decimal(&mut doc, l.into());
        doc.push(b'\n');
    }
    let digest = fnv1a_extend(stamped, &doc[body_at..]);
    doc[body_at - 17..body_at - 1].copy_from_slice(format!("{digest:016x}").as_bytes());
    doc
}

/// A verified stamped label file.
#[derive(Debug, PartialEq, Eq)]
pub struct LabelFile {
    /// The header fields after the label count.
    pub fields: Vec<u64>,
    /// One label per line of the body.
    pub labels: Vec<u32>,
}

/// Reads and verifies a file written by [`render_label_file`] with this
/// `magic`, `version` and `nfields` fields. `Ok(None)` when the file does
/// not exist; `Err` when it is torn, tampered or unparseable.
pub fn read_label_file(
    path: &Path,
    magic: &str,
    version: u32,
    nfields: usize,
) -> Result<Option<LabelFile>, String> {
    let at = |msg: String| format!("{}: {msg}", path.display());
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(at(format!("read: {e}"))),
    };
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| at("no header".into()))?;
    let bad = || at(format!("bad header {header:?}"));
    let rest = header.strip_prefix(&format!("{magic}\t{version}\t"));
    let (stamped, digest) = rest.and_then(|r| r.rsplit_once('\t')).ok_or_else(bad)?;
    let values: Vec<u64> = stamped
        .split('\t')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| bad())?;
    let digest = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
    if values.len() != nfields + 1 {
        return Err(bad());
    }
    if fnv1a_extend(fnv1a(format!("{stamped}\n").as_bytes()), body.as_bytes()) != digest {
        return Err(at("digest mismatch (torn write or tampering)".into()));
    }
    let labels: Vec<u32> = body
        .lines()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| at(format!("bad label entry: {e}")))?;
    if labels.len() as u64 != values[0] {
        return Err(at(format!(
            "{} labels, header says {}",
            labels.len(),
            values[0]
        )));
    }
    Ok(Some(LabelFile {
        fields: values[1..].to_vec(),
        labels,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ecl_durable_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fnv1a_extend_continues_the_hash_across_pieces() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let whole = b"14\t7\n0\n0\n10\n";
        for cut in 0..=whole.len() {
            let (a, b) = whole.split_at(cut);
            assert_eq!(fnv1a_extend(fnv1a(a), b), fnv1a(whole), "cut at {cut}");
        }
    }

    #[test]
    fn flush_failure_with_failed_rollback_poisons_the_log() {
        // A read-only handle makes both the write and the rollback
        // fail, which must poison the log: the append errors, and every
        // later append fails fast instead of acknowledging records that
        // were never written.
        let p = tmpdir("poison").join("edges.wal");
        drop(RecordLog::create(&p, b"eclwal\t2\t8\t0\n").unwrap());
        let before = std::fs::read(&p).unwrap();
        let log = RecordLog::wrap(File::open(&p).unwrap(), &p, 0, 0);
        assert!(log.append(b"e\t0\t1\n").is_err());
        let err = log.append(b"e\t2\t3\n").unwrap_err();
        assert!(err.to_string().contains("poisoned"), "got: {err}");
        // Nothing leaked onto disk.
        assert_eq!(std::fs::read(&p).unwrap(), before);
    }

    #[test]
    fn label_file_round_trips_and_refuses_a_bad_header() {
        let p = tmpdir("labels").join("l.snap");
        assert_eq!(read_label_file(&p, "eclx", 3, 2), Ok(None));
        let labels = [0, 9, 10, 99, 100, 1_048_575, u32::MAX];
        write_atomic(&p, &render_label_file("eclx", 3, &[4, 12], &labels)).unwrap();
        let read = read_label_file(&p, "eclx", 3, 2).unwrap().unwrap();
        assert_eq!(read.fields, vec![4, 12]);
        assert_eq!(read.labels, labels);
        assert!(read_label_file(&p, "eclx", 2, 2).is_err(), "other version");
        assert!(read_label_file(&p, "ecly", 3, 2).is_err(), "other magic");
        assert!(read_label_file(&p, "eclx", 3, 1).is_err(), "field count");
    }

    /// A mixed-length log cut at every byte, through a codec: each cut
    /// must load as exactly its newline-terminated prefix, and reopening
    /// it must append after that prefix, never after the tear.
    fn cut_at_every_byte<R: std::fmt::Debug + PartialEq>(
        name: &str,
        write_full: impl Fn(&Path),
        load: impl Fn(&Path) -> io::Result<(Vec<R>, u64)>,
        reopen_and_append: impl Fn(&Path),
        appended: &[R],
    ) {
        let p = tmpdir(name).join("log");
        write_full(&p);
        let full = std::fs::read(&p).unwrap();
        let (all, _) = load(&p).unwrap();
        let ends: Vec<usize> = (0..full.len())
            .filter(|&i| full[i] == b'\n')
            .map(|i| i + 1)
            .collect();
        assert_eq!(ends.len(), all.len() + 1, "{name}: one header line");
        for cut in 0..=full.len() {
            std::fs::write(&p, &full[..cut]).unwrap();
            if cut < ends[0] {
                assert!(
                    load(&p).is_err(),
                    "{name}: torn header at {cut} must be refused"
                );
                continue;
            }
            let whole = ends.iter().filter(|&&e| e <= cut).count() - 1;
            let (records, valid_len) = load(&p).unwrap();
            assert_eq!(records, all[..whole], "{name}: cut at {cut}");
            assert_eq!(valid_len, ends[whole] as u64, "{name}: valid_len at {cut}");
            reopen_and_append(&p);
            let (records, valid_len) = load(&p).unwrap();
            let mut expect: Vec<&R> = all[..whole].iter().collect();
            expect.extend(appended);
            assert_eq!(
                records.iter().collect::<Vec<_>>(),
                expect,
                "{name}: append after {cut}"
            );
            assert_eq!(valid_len, std::fs::metadata(&p).unwrap().len());
        }
    }

    #[test]
    fn torn_logs_load_their_prefix_and_append_after_it() {
        use ecl_engine::journal::{self, JournalEntry, JournalWriter};
        use ecl_serve::wal::{self, Wal};

        // Record lengths vary, and `e\t2\t57\n` torn to `e\t2\t5` still
        // parses: only its missing newline marks it torn.
        let edges = [(0, 1), (2, 57), (1_000_000, 3), (40, 4_000)];
        cut_at_every_byte(
            "wal",
            |p| {
                let w = Wal::create(p, 2_000_000).unwrap();
                for &(u, v) in &edges {
                    w.append_edge(u, v).unwrap();
                }
            },
            |p| wal::load(p).map(|s| (s.edges, s.valid_len)),
            |p| {
                let w = Wal::append(p, &wal::load(p).unwrap()).unwrap();
                w.append_edge(7, 8).unwrap();
                w.append_edge(9, 10).unwrap();
            },
            &[(7, 8), (9, 10)],
        );

        // Ids ascend in append order, so the journal's map of done jobs
        // sorted by id is the record order.
        let entry = |id: u64, backend: &str| JournalEntry {
            job_id: id,
            backend: backend.into(),
            components: 3 + 100 * id as usize,
            retries: id as u32 % 2,
            digest: 0xdead_beef << id,
        };
        let entries = [
            entry(0, "gpu-sim"),
            entry(2, "parallel-cpu"),
            entry(4, "sharded:2"),
        ];
        let appended = [entry(7, "serial"), entry(8, "gpu-sim")];
        cut_at_every_byte(
            "journal",
            |p| {
                let w = JournalWriter::create(p, 0xabc, 9).unwrap();
                for e in &entries {
                    w.record(e).unwrap();
                }
            },
            |p| {
                journal::load(p).map(|s| {
                    let mut done: Vec<JournalEntry> = s.done.into_values().collect();
                    done.sort_by_key(|e| e.job_id);
                    (done, s.valid_len)
                })
            },
            |p| {
                let w = JournalWriter::append(p).unwrap();
                for e in &appended {
                    w.record(e).unwrap();
                }
            },
            &appended,
        );
    }
}
