//! Write-ahead edge log: the `eclwal` codec over
//! [`ecl_obs::durable::RecordLog`], whose group commit makes one fsync
//! cover every concurrent `ADD`. The server applies an edge, appends it
//! here, and replies `OK` only once the record is fsync'd.
//!
//! The file is an `eclwal\t2\t{n}\t{base}` header pinning the vertex
//! count and the compacted prefix, then one `e\t{u}\t{v}` line per
//! edge. A torn tail, which [`load`] discards, was never acknowledged.
//! After a durable snapshot the server calls [`Wal::compact`], which
//! keeps only the records past the snapshot's watermark and pins the
//! dropped count in the header's base-offset field.

use ecl_obs::durable::{load_log, RecordLog};
use std::io;
use std::path::Path;

/// WAL format version; bumped on incompatible changes. Version 2 added
/// the base-offset header field for compacted logs; version-1 files
/// (implicit base 0) are still accepted by [`load`].
const VERSION: u32 = 2;

/// Append-side handle: concurrent, durable, group-committed.
pub struct Wal {
    log: RecordLog,
    /// Vertex count pinned in the header, re-pinned on compaction.
    vertices: usize,
}

fn header(vertices: usize, base: u64) -> Vec<u8> {
    format!("eclwal\t{VERSION}\t{vertices}\t{base}\n").into_bytes()
}

impl Wal {
    /// Creates (truncating) a fresh WAL for a structure of `n` vertices.
    pub fn create(path: &Path, n: usize) -> io::Result<Wal> {
        let log = RecordLog::create(path, &header(n, 0))?;
        Ok(Wal { log, vertices: n })
    }

    /// Reopens the WAL behind a [`load`] for appending: the recovered
    /// records are already durable, so they seed the flushed watermark,
    /// and torn bytes past them are cut off first.
    pub fn append(path: &Path, recovered: &WalSnapshot) -> io::Result<Wal> {
        let log = RecordLog::open_append(
            path,
            recovered.valid_len,
            recovered.base,
            recovered.edges.len() as u64,
        )?;
        Ok(Wal {
            log,
            vertices: recovered.vertices,
        })
    }

    /// Durably appends one edge record, returning its sequence number
    /// (1-based count of records ever appended). Returns only once the
    /// record — and therefore every record sequenced before it — is
    /// fsync'd: the acknowledgement point for `ADD`.
    pub fn append_edge(&self, u: u32, v: u32) -> io::Result<u64> {
        self.log.append(format!("e\t{u}\t{v}\n").as_bytes())
    }

    /// Number of records known durable (the `covered` watermark a
    /// snapshot records). Counts from the start of history — compaction
    /// never lowers it.
    pub fn durable_records(&self) -> u64 {
        self.log.durable()
    }

    /// Debug hook: force-poisons the WAL exactly as if a flush rollback
    /// had failed — every later append fails fast with the poisoned
    /// error. The serve layer's forced-fault knob uses this to exercise
    /// the flight-recorder dump path end to end without real disk
    /// trouble.
    pub fn debug_poison(&self) {
        self.log.poison();
    }

    /// Compacts the log: drops every record a durable snapshot already
    /// covers (`upto`, a [`durable_records`](Self::durable_records)
    /// watermark, clamped to it) and pins that count in the header's
    /// base-offset field, so resume replays only the suffix. A failure
    /// leaves the old log in place and the WAL fully usable —
    /// compaction is an optimization, never a durability hazard.
    pub fn compact(&self, upto: u64) -> io::Result<()> {
        self.log.compact(upto, |base| header(self.vertices, base))
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

/// Loads a WAL, discarding a torn tail (see
/// [`ecl_obs::durable::load_log`]). Fails on a missing file or an
/// unreadable meta line.
pub fn load(path: &Path) -> io::Result<WalSnapshot> {
    let log = load_log(path, "WAL", parse_meta_line, parse_edge_line)?;
    let (vertices, base) = log.header;
    Ok(WalSnapshot {
        vertices,
        base,
        edges: log.records,
        valid_len: log.valid_len,
    })
}

fn parse_meta_line(line: &str) -> Option<(usize, u64)> {
    let f: Vec<&str> = line.split('\t').collect();
    match f[..] {
        // Version 1: no base-offset field (implicitly 0).
        ["eclwal", "1", n] => Some((n.parse().ok()?, 0)),
        // Version 2: base-offset header for compacted logs.
        ["eclwal", "2", n, b] => Some((n.parse().ok()?, b.parse().ok()?)),
        _ => None,
    }
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
    use std::fs::OpenOptions;
    use std::io::Write;
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
        let tmp = p.with_file_name(".tmp-edges.wal");
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
