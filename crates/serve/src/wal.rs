//! Write-ahead edge log with leader–follower group commit.
//!
//! Every acknowledged `ADD` is durable: the server applies the edge to
//! the in-memory structure first, appends it here, and only replies
//! `OK` once the record is fsync'd. A naive implementation would pay
//! one `fsync` per edge, which collapses under hundreds of concurrent
//! writers — so appends use the classic group-commit dance: each
//! appender buffers its record under the state lock and then either
//! becomes the *flush leader* (writes and syncs everything buffered so
//! far, including records that arrived from other threads while it held
//! the buffer) or waits on a condvar until a leader's flush covers its
//! sequence number. One disk round-trip amortizes across every record
//! that raced in during the previous flush.
//!
//! The file format follows the journal crate's discipline: TSV lines, a
//! `meta` header pinning the vertex count, records readable after
//! arbitrary truncation. A kill mid-append leaves at most a torn tail,
//! which [`load`] discards — by the apply-then-append ordering those
//! records were never acknowledged, so dropping them only loses edges
//! no client was told about. [`load`] also reports the byte offset of
//! the end of the last valid record, and [`Wal::append`] truncates the
//! file to that offset before writing anything: appending after torn
//! bytes would merge the tear with the next record into one
//! unparseable line, which a later [`load`] would treat as the tear —
//! silently discarding every acknowledged record behind it.
//!
//! A failed flush rolls the file back to its pre-write length before
//! the batch is re-queued, so a partial `write_all` can neither leave
//! a mid-file tear nor be appended twice by a later successful flush.
//! If the rollback itself fails the on-disk state is unknown and the
//! WAL is **poisoned**: every subsequent append fails fast rather than
//! risk acknowledging records it cannot prove durable.
//!
//! The log does not grow forever: after a durable snapshot the server
//! calls [`Wal::compact`], which rewrites the file to only the records
//! past the snapshot's watermark and pins the dropped count in the
//! header's base-offset field (`eclwal\t2\t{n}\t{base}`). The rewrite
//! is write-temp-fsync-rename, so a kill mid-compaction leaves either
//! the old or the new complete log — never a tear, never a lost
//! acknowledged record.

use ecl_obs::durable::sync_parent_dir;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

/// WAL format version; bumped on incompatible changes. Version 2 added
/// the base-offset header field for compacted logs; version-1 files
/// (implicit base 0) are still accepted by [`load`].
const VERSION: u32 = 2;

struct WalState {
    /// Records appended but not yet handed to a flush.
    buf: Vec<u8>,
    /// Records assigned a sequence number so far (1-based).
    pending: u64,
    /// Highest sequence number known durable on disk.
    flushed: u64,
    /// Records logically preceding this file: compaction drops the
    /// prefix a durable snapshot already covers and pins the count in
    /// the header, so sequence numbers keep counting from the start of
    /// history.
    base: u64,
    /// A leader is currently writing; followers wait. Compaction also
    /// raises this flag: it is an exclusive writer of the same file.
    flushing: bool,
    /// A flush failed *and* the rollback failed: the file's tail is in
    /// an unknown state, so no further append may be acknowledged.
    poisoned: bool,
}

/// Append-side handle: concurrent, durable, group-committed.
pub struct Wal {
    state: Mutex<WalState>,
    cv: Condvar,
    /// The file sits outside the state lock so followers keep buffering
    /// while the leader is inside `fsync`. `flushing` guarantees a
    /// single writer, so file order always equals sequence order.
    file: Mutex<File>,
    /// Where the file lives — compaction rewrites it in place (via
    /// write-temp-rename) and must reopen the append handle afterwards.
    path: PathBuf,
    /// Vertex count pinned in the header, re-pinned on compaction.
    vertices: usize,
}

impl Wal {
    /// Creates (truncating) a fresh WAL for a structure of `n` vertices.
    pub fn create(path: &Path, n: usize) -> io::Result<Wal> {
        let mut file = File::create(path)?;
        writeln!(file, "eclwal\t{VERSION}\t{n}\t0")?;
        file.sync_data()?;
        sync_parent_dir(path);
        Ok(Wal::wrap(file, path, n, 0, 0))
    }

    /// Reopens the WAL behind a [`load`] for appending: the recovered
    /// records are already durable, so they seed the flushed watermark.
    /// If the file carries torn bytes past the last valid record (a
    /// kill mid-append), they are cut off first — appending after them
    /// would fuse the tear and the new record into one unparseable
    /// line, which the *next* [`load`] would mistake for the tear and
    /// discard together with every acknowledged record after it.
    pub fn append(path: &Path, recovered: &WalSnapshot) -> io::Result<Wal> {
        let file = OpenOptions::new().append(true).open(path)?;
        if file.metadata()?.len() != recovered.valid_len {
            file.set_len(recovered.valid_len)?;
            file.sync_data()?;
        }
        Ok(Wal::wrap(
            file,
            path,
            recovered.vertices,
            recovered.base,
            recovered.edges.len() as u64,
        ))
    }

    fn wrap(file: File, path: &Path, vertices: usize, base: u64, in_file: u64) -> Wal {
        // `base` records were compacted away; the file holds `in_file`
        // more and the sequence continues from their sum.
        let flushed = base + in_file;
        Wal {
            state: Mutex::new(WalState {
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
            vertices,
        }
    }

    fn poisoned_err() -> io::Error {
        io::Error::other("WAL poisoned: an earlier flush failed and could not be rolled back")
    }

    /// Durably appends one edge record, returning its sequence number
    /// (1-based count of records ever appended). Returns only once the
    /// record — and therefore every record sequenced before it — is
    /// fsync'd: the acknowledgement point for `ADD`.
    pub fn append_edge(&self, u: u32, v: u32) -> io::Result<u64> {
        let my_seq = {
            let mut s = self.state.lock().unwrap();
            if s.poisoned {
                return Err(Self::poisoned_err());
            }
            s.pending += 1;
            let seq = s.pending;
            s.buf.extend_from_slice(format!("e\t{u}\t{v}\n").as_bytes());
            seq
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

            let res = {
                let mut f = self.file.lock().unwrap();
                flush_batch(&mut f, &batch)
            };

            let mut s = self.state.lock().unwrap();
            s.flushing = false;
            match res {
                Ok(()) => {
                    s.flushed = s.flushed.max(target);
                    self.cv.notify_all();
                    // Loop exits via the flushed check above.
                }
                Err(FlushError { cause, poisons }) => {
                    if poisons {
                        // The rollback failed: bytes of `batch` may or
                        // may not be on disk, so neither retrying (risk
                        // of duplicates) nor dropping (risk of a
                        // mid-file tear before records already written
                        // behind it) is sound. Refuse all future
                        // appends; followers observe `poisoned` when
                        // they wake.
                        s.poisoned = true;
                        s.buf.clear();
                    } else {
                        // The file was rolled back to the last record
                        // boundary, so the batch can safely be retried:
                        // put it back so followers' records are not
                        // silently dropped. Everyone waiting re-races
                        // and observes the error on their own attempt.
                        let mut unwritten = batch;
                        unwritten.extend_from_slice(&s.buf);
                        s.buf = unwritten;
                    }
                    self.cv.notify_all();
                    return Err(cause);
                }
            }
        }
    }

    /// Number of records known durable (the `covered` watermark a
    /// snapshot records). Counts from the start of history — compaction
    /// never lowers it.
    pub fn durable_records(&self) -> u64 {
        self.state.lock().unwrap().flushed
    }

    /// Debug hook: force-poisons the WAL exactly as if a flush rollback
    /// had failed — every later append fails fast with the poisoned
    /// error. The serve layer's forced-fault knob uses this to exercise
    /// the flight-recorder dump path end to end without real disk
    /// trouble.
    pub fn debug_poison(&self) {
        let mut s = self.state.lock().unwrap();
        s.poisoned = true;
        s.buf.clear();
        self.cv.notify_all();
    }

    /// Compacts the log: drops every record a durable snapshot already
    /// covers (`upto`, a [`durable_records`](Self::durable_records)
    /// watermark) and pins that count in the header's base-offset field,
    /// so resume replays only the suffix. The rewrite is
    /// write-temp-fsync-rename — a kill at any point leaves either the
    /// old complete log or the new complete log, never a tear — and the
    /// append handle is reopened on the new file before any later flush
    /// can write (appending through the old handle would scribble on the
    /// unlinked inode and silently lose acknowledged records).
    ///
    /// Only durable records may be compacted; `upto` is clamped to the
    /// flushed watermark. A failure leaves the old log in place and the
    /// WAL fully usable — compaction is an optimization, never a
    /// durability hazard.
    pub fn compact(&self, upto: u64) -> io::Result<()> {
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

        let res = self.rewrite(base, upto);

        let mut s = self.state.lock().unwrap();
        s.flushing = false;
        match res {
            Ok(()) => {
                s.base = upto;
                self.cv.notify_all();
                Ok(())
            }
            Err(FlushError { cause, poisons }) => {
                if poisons {
                    // The rename landed but the append handle could not
                    // be reopened: the old handle points at the unlinked
                    // inode, so any later flush would acknowledge
                    // records onto a file nobody can ever read back.
                    s.poisoned = true;
                    s.buf.clear();
                }
                self.cv.notify_all();
                Err(cause)
            }
        }
    }

    /// The compaction rewrite itself, run while holding writer
    /// exclusivity (`flushing == true`). A failure *before* the rename
    /// leaves the old complete log and the old (still valid) append
    /// handle — harmless. A failure *after* the rename poisons.
    fn rewrite(&self, base: u64, upto: u64) -> Result<(), FlushError> {
        let mut file = self.file.lock().unwrap();
        let soft = |cause: io::Error| FlushError {
            cause,
            poisons: false,
        };
        // The last flush fsync'd everything durable, so re-reading the
        // file sees exactly records base+1..=flushed.
        let snap = load(&self.path)
            .map_err(|e| soft(io::Error::other(format!("re-read for compaction: {e}"))))?;
        let drop_count = (upto - base) as usize;
        let kept = &snap.edges[drop_count.min(snap.edges.len())..];

        let tmp = self.path.with_extension("wal.compact-tmp");
        let write_tmp = || -> io::Result<()> {
            let mut out = File::create(&tmp)?;
            let mut doc = format!("eclwal\t{VERSION}\t{}\t{upto}\n", self.vertices);
            for &(u, v) in kept {
                doc.push_str(&format!("e\t{u}\t{v}\n"));
            }
            out.write_all(doc.as_bytes())?;
            out.sync_data()?;
            Ok(())
        };
        write_tmp().map_err(soft)?;
        std::fs::rename(&tmp, &self.path).map_err(soft)?;
        sync_parent_dir(&self.path);
        // Swap the append handle onto the new inode before releasing
        // writer exclusivity. Past the rename, failing to reopen means
        // the WAL must be poisoned (see `compact`).
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

/// A failed flush, and whether the failure leaves the file in an
/// unknown state (rollback failed ⇒ the WAL must be poisoned).
struct FlushError {
    cause: io::Error,
    poisons: bool,
}

/// Writes and syncs one batch. `write_all` may fail after writing a
/// prefix (or succeed entirely with only the fsync failing), so on any
/// failure the file is rolled back to its pre-write length: re-queuing
/// the batch is then a clean retry rather than a source of duplicate
/// records or a partial record fused with the next flush's bytes.
fn flush_batch(f: &mut File, batch: &[u8]) -> Result<(), FlushError> {
    let before = match f.metadata() {
        // Nothing was written yet, so the batch is safe to re-queue.
        Err(e) => {
            return Err(FlushError {
                cause: e,
                poisons: false,
            })
        }
        Ok(m) => m.len(),
    };
    match f.write_all(batch).and_then(|()| f.sync_data()) {
        Ok(()) => Ok(()),
        Err(cause) => {
            let rollback = f.set_len(before).and_then(|()| f.sync_data());
            Err(FlushError {
                cause,
                poisons: rollback.is_err(),
            })
        }
    }
}

/// Everything recovered from a WAL file.
#[derive(Debug)]
pub struct WalSnapshot {
    /// The vertex count the WAL was created with.
    pub vertices: usize,
    /// Records logically preceding this file: a compacted log starts at
    /// sequence `base + 1`, and the dropped prefix is only recoverable
    /// from the state snapshot that justified the compaction. Zero for
    /// uncompacted (and all version-1) logs.
    pub base: u64,
    /// Durable edge records present in the file, in append order
    /// (sequence numbers `base+1 ..= base+edges.len()`). A torn
    /// trailing record is discarded (it was never acknowledged).
    pub edges: Vec<(u32, u32)>,
    /// Byte offset of the end of the last valid record (= the offset
    /// [`Wal::append`] truncates to, cutting any torn tail).
    pub valid_len: u64,
}

/// Loads a WAL, discarding a torn tail. Fails on a missing file or an
/// unreadable meta line. A record is only valid if it parses *and*
/// carries its trailing newline: a truncated write can leave a prefix
/// that still parses (`e\t2\t5` torn from `e\t2\t57\n`), and trusting
/// it would resurrect an edge that was never acknowledged.
pub fn load(path: &Path) -> io::Result<WalSnapshot> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "WAL is empty"));
    }
    if !line.ends_with('\n') {
        // `create` syncs the meta line before any append is possible,
        // so a torn meta means creation itself died — nothing was ever
        // acknowledged, and there is no valid prefix to resume from.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "torn WAL meta line",
        ));
    }
    let meta = line.trim_end_matches('\n');
    let mut mf = meta.split('\t');
    let bad = || {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad WAL meta line: {meta:?}"),
        )
    };
    let inv = |e: std::num::ParseIntError| io::Error::new(io::ErrorKind::InvalidData, e);
    let (vertices, base) = match (mf.next(), mf.next(), mf.next(), mf.next(), mf.next()) {
        // Version 1: no base-offset field (implicitly 0).
        (Some("eclwal"), Some("1"), Some(n), None, None) => (n.parse::<usize>().map_err(inv)?, 0),
        // Version 2: base-offset header for compacted logs.
        (Some("eclwal"), Some("2"), Some(n), Some(b), None) => (
            n.parse::<usize>().map_err(inv)?,
            b.parse::<u64>().map_err(inv)?,
        ),
        _ => return Err(bad()),
    };
    let mut valid_len = line.len() as u64;
    let mut edges = Vec::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            break;
        }
        // First incomplete or unparseable record = torn tail;
        // everything at and after a tear is untrusted by construction.
        if !line.ends_with('\n') {
            break;
        }
        match parse_edge_line(line.trim_end_matches('\n')) {
            Some(e) => {
                edges.push(e);
                valid_len += n as u64;
            }
            None => break,
        }
    }
    Ok(WalSnapshot {
        vertices,
        base,
        edges,
        valid_len,
    })
}

fn parse_edge_line(line: &str) -> Option<(u32, u32)> {
    let mut f = line.split('\t');
    match (f.next(), f.next(), f.next(), f.next()) {
        (Some("e"), Some(u), Some(v), None) => Some((u.parse().ok()?, v.parse().ok()?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmpfile(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ecl_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("edges.wal")
    }

    #[test]
    fn roundtrip_create_append_load() {
        let p = tmpfile("roundtrip");
        let wal = Wal::create(&p, 10).unwrap();
        assert_eq!(wal.append_edge(0, 1).unwrap(), 1);
        assert_eq!(wal.append_edge(2, 3).unwrap(), 2);
        assert_eq!(wal.durable_records(), 2);
        drop(wal);
        let snap = load(&p).unwrap();
        assert_eq!(snap.vertices, 10);
        assert_eq!(snap.edges, vec![(0, 1), (2, 3)]);
        assert_eq!(snap.valid_len, std::fs::metadata(&p).unwrap().len());
        // Resume-side append continues the sequence.
        let wal = Wal::append(&p, &snap).unwrap();
        assert_eq!(wal.append_edge(4, 5).unwrap(), 3);
        drop(wal);
        assert_eq!(load(&p).unwrap().edges.len(), 3);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let p = tmpfile("torn");
        let wal = Wal::create(&p, 4).unwrap();
        wal.append_edge(0, 1).unwrap();
        drop(wal);
        let clean_len = std::fs::metadata(&p).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        write!(f, "e\t2").unwrap(); // killed mid-record
        drop(f);
        let snap = load(&p).unwrap();
        assert_eq!(snap.edges, vec![(0, 1)]);
        assert_eq!(snap.valid_len, clean_len);
    }

    #[test]
    fn parseable_tail_without_newline_is_torn() {
        // A truncated `e\t2\t57\n` can leave `e\t2\t5`, which still
        // parses as an edge — but without its newline it was never
        // fully written, hence never acknowledged.
        let p = tmpfile("noeol");
        let wal = Wal::create(&p, 64).unwrap();
        wal.append_edge(0, 1).unwrap();
        drop(wal);
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        write!(f, "e\t2\t5").unwrap();
        drop(f);
        assert_eq!(load(&p).unwrap().edges, vec![(0, 1)]);
    }

    #[test]
    fn append_after_torn_tail_truncates_before_writing() {
        // The resume → add → kill → resume sequence over a torn tail:
        // without truncation the new record fuses with the torn bytes
        // ("e\t2" + "e\t4\t5\n" = one unparseable line) and the second
        // load discards it and everything after — acknowledged-data
        // loss.
        let p = tmpfile("torn_resume");
        let wal = Wal::create(&p, 16).unwrap();
        wal.append_edge(0, 1).unwrap();
        drop(wal);
        let mut f = OpenOptions::new().append(true).open(&p).unwrap();
        write!(f, "e\t2").unwrap(); // killed mid-record
        drop(f);

        let snap = load(&p).unwrap();
        assert_eq!(snap.edges, vec![(0, 1)]);
        let wal = Wal::append(&p, &snap).unwrap();
        assert_eq!(wal.append_edge(4, 5).unwrap(), 2);
        wal.append_edge(6, 7).unwrap();
        drop(wal);

        let snap = load(&p).unwrap();
        assert_eq!(snap.edges, vec![(0, 1), (4, 5), (6, 7)]);
        assert_eq!(snap.valid_len, std::fs::metadata(&p).unwrap().len());
    }

    #[test]
    fn flush_failure_with_failed_rollback_poisons_the_wal() {
        // A read-only handle makes both the write and the rollback
        // fail, which must poison the WAL: the append errors, and every
        // later append fails fast instead of acknowledging records that
        // were never written.
        let p = tmpfile("poison");
        drop(Wal::create(&p, 8).unwrap());
        let before = std::fs::read(&p).unwrap();
        let wal = Wal::wrap(File::open(&p).unwrap(), &p, 8, 0, 0);
        assert!(wal.append_edge(0, 1).is_err());
        let err = wal.append_edge(2, 3).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "got: {err}");
        // Nothing leaked onto disk.
        assert_eq!(std::fs::read(&p).unwrap(), before);
    }

    #[test]
    fn bad_meta_rejected() {
        let p = tmpfile("meta");
        assert!(load(&p).is_err(), "missing file");
        std::fs::write(&p, "").unwrap();
        assert!(load(&p).is_err(), "empty file");
        std::fs::write(&p, "e\t0\t1\n").unwrap();
        assert!(load(&p).is_err(), "no meta line");
        std::fs::write(&p, "eclwal\t99\t10\n").unwrap();
        assert!(load(&p).is_err(), "wrong version");
        std::fs::write(&p, "eclwal\t2\t10\n").unwrap();
        assert!(load(&p).is_err(), "v2 without base field");
        std::fs::write(&p, "eclwal\t1\t10\t5\n").unwrap();
        assert!(load(&p).is_err(), "v1 with extra field");
    }

    #[test]
    fn v1_log_loads_with_base_zero() {
        let p = tmpfile("v1compat");
        std::fs::write(&p, "eclwal\t1\t10\ne\t0\t1\ne\t2\t3\n").unwrap();
        let snap = load(&p).unwrap();
        assert_eq!(snap.vertices, 10);
        assert_eq!(snap.base, 0);
        assert_eq!(snap.edges, vec![(0, 1), (2, 3)]);
        // And it keeps appending (sequence continues from 2).
        let wal = Wal::append(&p, &snap).unwrap();
        assert_eq!(wal.append_edge(4, 5).unwrap(), 3);
    }

    #[test]
    fn compact_drops_covered_prefix_and_sequences_continue() {
        let p = tmpfile("compact");
        let wal = Wal::create(&p, 32).unwrap();
        for i in 0..5 {
            wal.append_edge(i, i + 1).unwrap();
        }
        wal.compact(3).unwrap();
        // Compacting to the same or an older watermark is a no-op.
        wal.compact(3).unwrap();
        wal.compact(1).unwrap();
        assert_eq!(wal.durable_records(), 5);
        // Appends keep going through the swapped handle with the
        // history-wide sequence numbering.
        assert_eq!(wal.append_edge(9, 10).unwrap(), 6);
        drop(wal);

        let snap = load(&p).unwrap();
        assert_eq!(snap.base, 3);
        assert_eq!(snap.edges, vec![(3, 4), (4, 5), (9, 10)]);
        // Resume-side reopen continues from base + in-file records.
        let wal = Wal::append(&p, &snap).unwrap();
        assert_eq!(wal.durable_records(), 6);
        assert_eq!(wal.append_edge(11, 12).unwrap(), 7);
    }

    #[test]
    fn compact_clamps_to_durable_watermark() {
        let p = tmpfile("compact_clamp");
        let wal = Wal::create(&p, 8).unwrap();
        wal.append_edge(0, 1).unwrap();
        wal.compact(u64::MAX).unwrap();
        assert_eq!(load(&p).unwrap().base, 1);
        assert!(load(&p).unwrap().edges.is_empty());
        assert_eq!(wal.append_edge(2, 3).unwrap(), 2);
        assert_eq!(load(&p).unwrap().edges, vec![(2, 3)]);
    }

    #[test]
    fn kill_mid_compaction_leaves_a_loadable_log() {
        // A kill between writing the temp file and the rename leaves the
        // old complete log plus a stray temp file: load must see the old
        // log untouched, and a later real compaction must still succeed
        // over the leftover temp.
        let p = tmpfile("compact_kill");
        let wal = Wal::create(&p, 16).unwrap();
        for i in 0..4 {
            wal.append_edge(i, i + 1).unwrap();
        }
        drop(wal);
        // Simulate the pre-rename half of a compaction that was killed.
        let tmp = p.with_extension("wal.compact-tmp");
        std::fs::write(&tmp, "eclwal\t2\t16\t2\ne\t2\t3\ne\t3\t4\n").unwrap();
        let snap = load(&p).unwrap();
        assert_eq!(snap.base, 0);
        assert_eq!(snap.edges.len(), 4, "old log must be untouched");
        // Resume and compact for real: the leftover temp is overwritten.
        let wal = Wal::append(&p, &snap).unwrap();
        wal.compact(2).unwrap();
        assert_eq!(wal.append_edge(7, 8).unwrap(), 5);
        drop(wal);
        let snap = load(&p).unwrap();
        assert_eq!(snap.base, 2);
        assert_eq!(snap.edges, vec![(2, 3), (3, 4), (7, 8)]);
        assert!(!tmp.exists(), "temp must be consumed by the rename");
    }

    #[test]
    fn concurrent_appends_race_compaction_losslessly() {
        // Appenders keep acknowledging while another thread compacts:
        // every acknowledged record must be recoverable afterwards from
        // snapshot-covered prefix (here: the compaction watermark's
        // sequence numbers) + the rewritten file.
        let p = tmpfile("compact_race");
        let wal = Arc::new(Wal::create(&p, 10_000).unwrap());
        let writers: Vec<_> = (0..4u32)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        wal.append_edge(t, 1000 + t * 50 + i).unwrap();
                    }
                })
            })
            .collect();
        let compactor = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || {
                for _ in 0..8 {
                    let covered = wal.durable_records();
                    wal.compact(covered).unwrap();
                    std::thread::yield_now();
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        compactor.join().unwrap();
        assert_eq!(wal.durable_records(), 200);
        drop(wal);
        let snap = load(&p).unwrap();
        // base + in-file = every acknowledged record, none duplicated.
        assert_eq!(snap.base + snap.edges.len() as u64, 200);
        let mut seconds: Vec<u32> = snap.edges.iter().map(|&(_, v)| v).collect();
        seconds.sort_unstable();
        seconds.dedup();
        assert_eq!(seconds.len(), snap.edges.len(), "duplicated records");
    }

    #[test]
    fn concurrent_appends_all_become_durable_in_sequence_order() {
        let p = tmpfile("concurrent");
        let wal = Arc::new(Wal::create(&p, 1000).unwrap());
        let threads: Vec<_> = (0..8u32)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..25u32 {
                        wal.append_edge(t, 100 + t * 25 + i).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.durable_records(), 200);
        drop(wal);
        let snap = load(&p).unwrap();
        assert_eq!(snap.edges.len(), 200);
        // Every appended record is present exactly once.
        let mut seconds: Vec<u32> = snap.edges.iter().map(|&(_, v)| v).collect();
        seconds.sort_unstable();
        assert_eq!(seconds, (100..300).collect::<Vec<u32>>());
    }
}
