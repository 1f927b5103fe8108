//! The server's durable connectivity state.
//!
//! [`ServeState`] wraps the lock-free [`IncrementalCc`] with the two
//! persistence mechanisms that make a `SIGKILL` survivable:
//!
//! * the write-ahead log ([`crate::wal`]) — every acknowledged `ADD` is
//!   fsync'd before the client hears `OK`;
//! * periodic **snapshots** of the parent array, written with the
//!   journal crate's write-temp-fsync-rename discipline and pinned by
//!   an FNV-1a digest, so resume replays only the WAL suffix instead of
//!   the whole history.
//!
//! ## The consistency argument
//!
//! Edges are applied to the in-memory structure *before* they are
//! appended to the WAL. Therefore at any instant the structure's merges
//! are a superset of any durable WAL prefix. A snapshot samples the
//! durable record count `covered` *first* and copies the parent array
//! *second*, so the copy contains every edge in `wal[0..covered]` (plus
//! possibly some in-flight ones — harmless, since replay via `add_edge`
//! is idempotent and connectivity is monotone). Resume = restore the
//! snapshot, replay `wal[covered..]`, done: every acknowledged edge is
//! recovered exactly, and the only possible extras are edges that were
//! durable (or snapshotted mid-flight) but whose `OK` never reached the
//! client — the standard at-least-once envelope.
//!
//! The apply-before-append ordering has one visible asymmetry: if the
//! WAL append *fails*, the client gets `ERR io`, but the merge already
//! happened and stays visible to `CONN`/`COMP` in the live process —
//! and can even persist across a restart if a concurrent snapshot
//! captured it. So `ERR io` means "not durable", **not** "not
//! applied"; this sits inside the same at-least-once envelope as a
//! crash after fsync but before `OK`. (Validation errors are different:
//! an `ERR invalid-vertex` edge was rejected before touching anything.)

use crate::protocol::RequestError;
use crate::wal::{self, Wal};
use ecl_cc::incremental::IncrementalCc;
use ecl_graph::Vertex;
use ecl_obs::durable::{fnv1a, fnv1a_extend, push_decimal, write_atomic};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Snapshot format version; bumped on incompatible changes.
const SNAP_VERSION: u32 = 1;

/// WAL file name inside the state directory.
pub const WAL_FILE: &str = "edges.wal";
/// Snapshot file name inside the state directory.
pub const SNAP_FILE: &str = "state.snap";

/// Connectivity stats — a pure function of the acknowledged edge set,
/// so they compare equal across a kill + resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stats {
    /// Vertex count the server was started with.
    pub vertices: usize,
    /// Total acknowledged (durable) `ADD`s, including duplicates.
    pub edges: u64,
    /// Current component count.
    pub components: usize,
}

/// Durable streaming-connectivity state: `IncrementalCc` + WAL +
/// snapshots. All operations are safe from any number of session
/// threads.
pub struct ServeState {
    cc: IncrementalCc,
    wal: Wal,
    dir: PathBuf,
    /// Take a snapshot every this-many durable records (0 = only on
    /// graceful shutdown).
    snapshot_every: u64,
    /// Durable record count as of the last snapshot.
    last_snapshot: AtomicU64,
    /// Serializes snapshot writers; `try_lock` keeps sessions from
    /// piling up behind one in-progress snapshot.
    snap_guard: Mutex<()>,
    /// Forced-fault knob: when nonzero, the WAL is poisoned as soon as
    /// this many records are durable (0 = disabled). Exists so CI and
    /// the telemetry harness can exercise the flight-recorder's
    /// WAL-poison dump without real disk failures.
    poison_after: AtomicU64,
}

impl ServeState {
    /// Creates a fresh state directory for `n` vertices (truncating any
    /// previous WAL/snapshot in `dir`).
    pub fn open_fresh(dir: &Path, n: usize, snapshot_every: u64) -> Result<ServeState, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let _ = std::fs::remove_file(dir.join(SNAP_FILE));
        let wal =
            Wal::create(&dir.join(WAL_FILE), n).map_err(|e| format!("create {WAL_FILE}: {e}"))?;
        Ok(ServeState {
            cc: IncrementalCc::new(n),
            wal,
            dir: dir.to_path_buf(),
            snapshot_every,
            last_snapshot: AtomicU64::new(0),
            snap_guard: Mutex::new(()),
            poison_after: AtomicU64::new(0),
        })
    }

    /// Resumes from `dir`: restores the newest valid snapshot (if any),
    /// replays the WAL suffix, and reopens the WAL for appending. A
    /// snapshot whose digest does not match its body is **refused** —
    /// resuming from tampered or torn state would silently serve wrong
    /// answers, which is strictly worse than failing loudly.
    pub fn resume(dir: &Path, snapshot_every: u64) -> Result<ServeState, String> {
        let wal_path = dir.join(WAL_FILE);
        let snap = wal::load(&wal_path).map_err(|e| format!("load {WAL_FILE}: {e}"))?;
        let n = snap.vertices;

        let (cc, covered) = match read_snapshot(&dir.join(SNAP_FILE))? {
            Some((parents, covered)) => {
                if parents.len() != n {
                    return Err(format!(
                        "snapshot tracks {} vertices but WAL tracks {n}",
                        parents.len()
                    ));
                }
                let cc = IncrementalCc::from_parents(parents)
                    .map_err(|e| format!("snapshot is not a valid parent forest: {e}"))?;
                (cc, covered)
            }
            None => (IncrementalCc::new(n), 0),
        };
        let total = snap.base + snap.edges.len() as u64;
        if covered > total {
            return Err(format!(
                "snapshot covers {covered} WAL records but only {total} exist \
                 (WAL truncated after snapshot?)"
            ));
        }
        if covered < snap.base {
            // Compaction only ever runs after a snapshot covering its
            // watermark is durable, so the snapshot on disk should never
            // lag the WAL's base. If it does (snapshot file replaced or
            // deleted by hand), the records needed for replay are gone —
            // refuse rather than resume with silent edge loss.
            return Err(format!(
                "WAL was compacted past record {} but the snapshot only covers {covered} \
                 — the dropped prefix is unrecoverable",
                snap.base
            ));
        }
        for &(u, v) in &snap.edges[(covered - snap.base) as usize..] {
            cc.try_add_edge(u, v)
                .map_err(|e| format!("WAL replay: {e}"))?;
        }
        let wal = Wal::append(&wal_path, &snap).map_err(|e| format!("reopen {WAL_FILE}: {e}"))?;
        Ok(ServeState {
            cc,
            wal,
            dir: dir.to_path_buf(),
            snapshot_every,
            last_snapshot: AtomicU64::new(total),
            snap_guard: Mutex::new(()),
            poison_after: AtomicU64::new(0),
        })
    }

    /// Arms the forced-fault knob: poison the WAL once `n` records are
    /// durable (0 disarms). Debug/CI only — see the field docs.
    pub fn set_debug_poison_after(&self, n: u64) {
        self.poison_after.store(n, Ordering::Relaxed);
    }

    /// Ingests one edge from untrusted input: validate, apply, make
    /// durable, then report. The returned `linked` flag tells the
    /// client whether the edge merged two components. The `Ok` return
    /// IS the acknowledgement point — the record is fsync'd.
    ///
    /// An `Err` with kind `invalid-vertex` means the edge was rejected
    /// before touching anything. An `Err` with kind `io` (WAL append
    /// failed) means the edge is **not durable but already applied**:
    /// the merge stays visible to queries in this process and may
    /// survive a restart if a snapshot captured it — see the module
    /// docs on the at-least-once envelope.
    pub fn add_edge(&self, u: Vertex, v: Vertex) -> Result<bool, RequestError> {
        let linked = self.cc.try_add_edge(u, v).map_err(RequestError::from)?;
        let seq = self
            .wal
            .append_edge(u, v)
            .map_err(|e| RequestError::new("io", format!("WAL append failed: {e}")))?;
        let trip = self.poison_after.load(Ordering::Relaxed);
        if trip != 0 && seq >= trip {
            self.wal.debug_poison();
        }
        self.maybe_snapshot();
        Ok(linked)
    }

    /// Connectivity query on untrusted vertex ids.
    pub fn connected(&self, u: Vertex, v: Vertex) -> Result<bool, RequestError> {
        self.cc.try_connected(u, v).map_err(RequestError::from)
    }

    /// Component representative of an untrusted vertex id.
    pub fn component(&self, v: Vertex) -> Result<Vertex, RequestError> {
        self.cc.try_component(v).map_err(RequestError::from)
    }

    /// Current connectivity stats.
    pub fn stats(&self) -> Stats {
        Stats {
            vertices: self.cc.len(),
            edges: self.wal.durable_records(),
            components: self.cc.num_components(),
        }
    }

    /// Snapshots now if the periodic threshold has been crossed and no
    /// other session is mid-snapshot. Errors are swallowed here (the
    /// WAL alone is always sufficient for recovery); graceful shutdown
    /// calls [`snapshot`](Self::snapshot) directly and surfaces them.
    fn maybe_snapshot(&self) {
        if self.snapshot_every == 0 {
            return;
        }
        let durable = self.wal.durable_records();
        // saturating: another session may snapshot (storing a larger
        // watermark) between our two loads, making the difference
        // negative.
        let since = durable.saturating_sub(self.last_snapshot.load(Ordering::Relaxed));
        if since >= self.snapshot_every {
            let _ = self.snapshot();
        }
    }

    /// Writes a crash-safe snapshot: sample the durable watermark,
    /// copy the parents, write-temp-fsync-rename with a digest header.
    /// Concurrent calls coalesce (losers return immediately).
    pub fn snapshot(&self) -> Result<(), String> {
        let Ok(_guard) = self.snap_guard.try_lock() else {
            return Ok(()); // someone else is already writing one
        };
        // Order matters: watermark BEFORE parents copy, so the copy
        // contains every covered record (see module docs).
        let covered = self.wal.durable_records();
        let parents = self.cc.parents_snapshot();
        let doc = render_snapshot(&parents, covered);
        write_atomic(&self.dir.join(SNAP_FILE), &doc)
            .map_err(|e| format!("write {SNAP_FILE}: {e}"))?;
        self.last_snapshot.store(covered, Ordering::Relaxed);
        // The snapshot is durable, so the WAL prefix it covers is dead
        // weight: compact it away. Best-effort — a failed compaction
        // leaves the full log in place, which is merely larger, and a
        // *poisoned* WAL will surface on the next ADD anyway.
        let _ = self.wal.compact(covered);
        Ok(())
    }
}

/// The snapshot document: `eclsnap\t<version>\t<n>\t<covered>\t<digest>`
/// then one decimal parent per line. Rendered into one buffer with no
/// per-entry allocation: the digest has a fixed 16-hex width, so the
/// header goes in first with a placeholder that is patched once the
/// body is hashed in place.
fn render_snapshot(parents: &[Vertex], covered: u64) -> Vec<u8> {
    let n = parents.len();
    // Up to 7 digits plus a newline per entry covers 2^20 vertices.
    let mut doc = Vec::with_capacity(64 + n * 8);
    doc.extend_from_slice(format!("eclsnap\t{SNAP_VERSION}\t{n}\t{covered}\t").as_bytes());
    let digest_at = doc.len();
    doc.extend_from_slice(b"0000000000000000\n");
    let body_at = doc.len();
    for &p in parents {
        push_decimal(&mut doc, p.into());
        doc.push(b'\n');
    }
    let digest = snapshot_digest(n, covered, &doc[body_at..]);
    doc[digest_at..body_at - 1].copy_from_slice(format!("{digest:016x}").as_bytes());
    doc
}

/// FNV-1a over `"{n}\t{covered}\n"` followed by the body.
fn snapshot_digest(n: usize, covered: u64, body: &[u8]) -> u64 {
    fnv1a_extend(fnv1a(format!("{n}\t{covered}\n").as_bytes()), body)
}

/// Reads and verifies a snapshot file. `Ok(None)` when absent (fresh
/// WAL-only resume); `Err` when present but torn, tampered, or
/// unparseable.
fn read_snapshot(path: &Path) -> Result<Option<(Vec<Vertex>, u64)>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| format!("{}: missing snapshot header", path.display()))?;
    let f: Vec<&str> = header.split('\t').collect();
    let bad = || format!("{}: bad snapshot header {header:?}", path.display());
    if f.len() != 5 || f[0] != "eclsnap" || f[1] != SNAP_VERSION.to_string() {
        return Err(bad());
    }
    let n: usize = f[2].parse().map_err(|_| bad())?;
    let covered: u64 = f[3].parse().map_err(|_| bad())?;
    let digest = u64::from_str_radix(f[4], 16).map_err(|_| bad())?;
    if snapshot_digest(n, covered, body.as_bytes()) != digest {
        return Err(format!(
            "{}: snapshot digest mismatch (torn write or tampering) — refusing to resume \
             from untrusted state",
            path.display()
        ));
    }
    let mut parents = Vec::with_capacity(n);
    for line in body.lines() {
        parents.push(
            line.parse::<Vertex>()
                .map_err(|_| format!("{}: bad parent entry {line:?}", path.display()))?,
        );
    }
    if parents.len() != n {
        return Err(format!(
            "{}: snapshot body has {} entries, header says {n}",
            path.display(),
            parents.len()
        ));
    }
    Ok(Some((parents, covered)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ecl_state_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn fresh_add_query_resume_roundtrip() {
        let d = tmpdir("roundtrip");
        let s = ServeState::open_fresh(&d, 10, 0).unwrap();
        assert!(s.add_edge(0, 1).unwrap());
        assert!(s.add_edge(1, 2).unwrap());
        assert!(!s.add_edge(2, 0).unwrap());
        assert!(s.connected(0, 2).unwrap());
        assert!(!s.connected(0, 5).unwrap());
        assert_eq!(
            s.stats(),
            Stats {
                vertices: 10,
                edges: 3,
                components: 8
            }
        );
        drop(s); // no graceful snapshot: resume replays the WAL alone
        let r = ServeState::resume(&d, 0).unwrap();
        assert!(r.connected(0, 2).unwrap());
        assert_eq!(
            r.stats(),
            Stats {
                vertices: 10,
                edges: 3,
                components: 8
            }
        );
    }

    #[test]
    fn resume_uses_snapshot_plus_wal_suffix() {
        let d = tmpdir("suffix");
        let s = ServeState::open_fresh(&d, 8, 0).unwrap();
        s.add_edge(0, 1).unwrap();
        s.snapshot().unwrap();
        s.add_edge(2, 3).unwrap(); // after the snapshot: WAL suffix
        drop(s);
        let r = ServeState::resume(&d, 0).unwrap();
        assert!(r.connected(0, 1).unwrap());
        assert!(r.connected(2, 3).unwrap());
        assert_eq!(r.stats().edges, 2);
    }

    #[test]
    fn tampered_snapshot_is_refused() {
        let d = tmpdir("tamper");
        let s = ServeState::open_fresh(&d, 6, 0).unwrap();
        s.add_edge(0, 1).unwrap();
        s.snapshot().unwrap();
        drop(s);
        let snap_path = d.join(SNAP_FILE);
        let good = std::fs::read_to_string(&snap_path).unwrap();
        // Flip one parent entry without fixing the digest.
        std::fs::write(&snap_path, good.replace("\n0\n", "\n3\n")).unwrap();
        let err = match ServeState::resume(&d, 0) {
            Err(e) => e,
            Ok(_) => panic!("tampered snapshot accepted"),
        };
        assert!(err.contains("digest mismatch"), "got: {err}");
    }

    #[test]
    fn out_of_range_input_is_rejected_not_panicking() {
        let d = tmpdir("range");
        let s = ServeState::open_fresh(&d, 4, 0).unwrap();
        assert_eq!(s.add_edge(0, 9).unwrap_err().kind, "invalid-vertex");
        assert_eq!(s.connected(9, 0).unwrap_err().kind, "invalid-vertex");
        assert_eq!(s.component(4).unwrap_err().kind, "invalid-vertex");
        // The rejected ADD left no trace: nothing durable, nothing merged.
        assert_eq!(s.stats().edges, 0);
        assert_eq!(s.stats().components, 4);
    }

    #[test]
    fn resume_over_torn_tail_then_ingest_then_resume_again() {
        // Kill mid-append (torn WAL tail), resume, acknowledge more
        // edges, kill again, resume again: every acknowledged edge must
        // survive both restarts. Regression test for appends landing
        // after un-truncated torn bytes and fusing into one unparseable
        // line that the second resume would discard wholesale.
        let d = tmpdir("torn_resume");
        let s = ServeState::open_fresh(&d, 10, 0).unwrap();
        s.add_edge(0, 1).unwrap();
        drop(s);
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(d.join(WAL_FILE))
                .unwrap();
            write!(f, "e\t2").unwrap(); // SIGKILL mid-record
        }
        let r = ServeState::resume(&d, 0).unwrap();
        assert_eq!(r.stats().edges, 1);
        r.add_edge(2, 3).unwrap();
        r.add_edge(3, 4).unwrap();
        drop(r); // second kill
        let r2 = ServeState::resume(&d, 0).unwrap();
        assert_eq!(r2.stats().edges, 3);
        assert!(r2.connected(0, 1).unwrap());
        assert!(r2.connected(2, 4).unwrap());
    }

    #[test]
    fn snapshot_compacts_wal_and_resume_replays_suffix() {
        let d = tmpdir("compaction");
        let s = ServeState::open_fresh(&d, 16, 0).unwrap();
        for i in 0..5 {
            s.add_edge(i, i + 1).unwrap();
        }
        s.snapshot().unwrap();
        // The durable snapshot covers all 5 records, so the WAL on disk
        // is rewritten to an empty suffix at base 5.
        let snap = wal::load(&d.join(WAL_FILE)).unwrap();
        assert_eq!(snap.base, 5);
        assert!(snap.edges.is_empty());
        s.add_edge(8, 9).unwrap();
        drop(s);
        let r = ServeState::resume(&d, 0).unwrap();
        assert_eq!(r.stats().edges, 6);
        assert!(r.connected(0, 5).unwrap());
        assert!(r.connected(8, 9).unwrap());
        // Second-generation compaction on the resumed instance.
        r.snapshot().unwrap();
        assert_eq!(wal::load(&d.join(WAL_FILE)).unwrap().base, 6);
        r.add_edge(10, 11).unwrap();
        drop(r);
        let r2 = ServeState::resume(&d, 0).unwrap();
        assert_eq!(r2.stats().edges, 7);
        assert!(r2.connected(10, 11).unwrap());
    }

    #[test]
    fn compacted_wal_without_its_snapshot_is_refused() {
        // The compacted prefix lives only in the snapshot; if that file
        // vanishes, resume must refuse rather than silently drop edges.
        let d = tmpdir("compact_nosnap");
        let s = ServeState::open_fresh(&d, 8, 0).unwrap();
        s.add_edge(0, 1).unwrap();
        s.snapshot().unwrap();
        drop(s);
        std::fs::remove_file(d.join(SNAP_FILE)).unwrap();
        let err = match ServeState::resume(&d, 0) {
            Err(e) => e,
            Ok(_) => panic!("compacted WAL without snapshot accepted"),
        };
        assert!(err.contains("compacted past"), "got: {err}");
    }

    #[test]
    fn snapshot_file_bytes_are_pinned() {
        // Bytes and digest as the `p.to_string()` renderer wrote them
        // for this state; the in-place renderer must match exactly.
        let d = tmpdir("pinned");
        let s = ServeState::open_fresh(&d, 14, 0).unwrap();
        for (u, v) in [(0, 1), (2, 3), (1, 3), (11, 12), (10, 13), (5, 9), (12, 4)] {
            s.add_edge(u, v).unwrap();
        }
        s.snapshot().unwrap();
        let bytes = std::fs::read(d.join(SNAP_FILE)).unwrap();
        assert_eq!(
            String::from_utf8(bytes).unwrap(),
            "eclsnap\t1\t14\t7\t23d412c92582fbe9\n\
             0\n0\n0\n2\n4\n5\n6\n7\n8\n5\n10\n4\n11\n10\n"
        );
        assert_eq!(read_snapshot(&d.join(SNAP_FILE)).unwrap().unwrap().1, 7);
    }

    #[test]
    fn snapshot_renders_every_digit_width() {
        let parents = [0, 9, 10, 99, 100, 1_048_575, Vertex::MAX];
        let doc = String::from_utf8(render_snapshot(&parents, 3)).unwrap();
        let (header, body) = doc.split_once('\n').unwrap();
        let expected: String = parents.iter().map(|p| format!("{p}\n")).collect();
        assert_eq!(body, expected);
        let digest = fnv1a(format!("7\t3\n{expected}").as_bytes());
        assert_eq!(header, format!("eclsnap\t1\t7\t3\t{digest:016x}"));
    }

    #[test]
    fn periodic_snapshots_fire_on_threshold() {
        let d = tmpdir("periodic");
        let s = ServeState::open_fresh(&d, 100, 3).unwrap();
        for i in 0..7 {
            s.add_edge(i, i + 1).unwrap();
        }
        drop(s);
        // 7 records with snapshot_every=3: at least two snapshots fired;
        // the newest covers >= 6 records.
        let (_, covered) = read_snapshot(&d.join(SNAP_FILE)).unwrap().unwrap();
        assert!(covered >= 6, "covered = {covered}");
        let r = ServeState::resume(&d, 3).unwrap();
        assert!(r.connected(0, 7).unwrap());
    }
}
