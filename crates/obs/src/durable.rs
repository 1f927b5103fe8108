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
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`, so a digest over pieces
/// never needs them copied into one buffer:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the decimal digits of `v` to `out`, with no allocation: the
/// number format of the durable text files (snapshots, result files),
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
pub fn sync_parent_dir(path: &Path) {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
