//! Durable-file primitives shared by every layer that persists state:
//! the engine journal and its result files, serve snapshots, shard
//! checkpoints, and flight-recorder postmortems.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// FNV-1a 64-bit hash — the digest that pins journal entries to result
/// files, snapshots to their edge log, checkpoints to their labels, and
/// interconnect frames to their payload (fast, dependency-free; not
/// cryptographic, and does not need to be: it detects torn writes and
/// flipped bits, not adversaries).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes `bytes` to `path` atomically and durably: temp file
/// `.tmp-<name>` in the same directory, fsync, rename, then fsync the
/// directory so the rename itself survives a crash. Readers never
/// observe a partial file; a kill can at worst leave the temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let tmp = dir.join(format!(".tmp-{}", name.to_string_lossy()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Ignore platforms where directories cannot be fsynced.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}
