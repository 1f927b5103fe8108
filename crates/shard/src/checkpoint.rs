//! Crash-safe label-frontier checkpoints.
//!
//! At every exchange-round boundary the coordinator persists the
//! current best-known label of every global vertex. The file is written
//! with the workspace's write-temp-fsync-rename discipline, so a crash
//! at any byte leaves either the previous complete checkpoint or the
//! new one — never a torn hybrid. A digest over the label section makes
//! silent corruption detectable: a checkpoint that does not verify is
//! treated as absent (recovery then restarts the lost shard from its
//! local run, which the min-wins monotonicity argument makes safe —
//! resuming from *older* labels can only cost extra rounds, never
//! correctness).

use ecl_obs::durable::{fnv1a, write_atomic};
use std::fs;
use std::io;
use std::path::Path;

/// Checkpoint file name inside the checkpoint directory.
pub const CKPT_FILE: &str = "frontier.ckpt";

/// A parsed label-frontier checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Exchange round after which this frontier was captured (0 =
    /// after the local runs, before any exchange).
    pub round: u64,
    /// Device crashes already absorbed when the frontier was captured.
    pub crashes: u32,
    /// Best-known global label per global vertex.
    pub labels: Vec<u32>,
}

/// Serializes `labels` into the checkpoint body (one decimal label per
/// line — greppable, like every other persistent artifact here).
fn body_bytes(labels: &[u32]) -> Vec<u8> {
    let mut body = String::with_capacity(labels.len() * 8);
    for &l in labels {
        body.push_str(&l.to_string());
        body.push('\n');
    }
    body.into_bytes()
}

/// Atomically writes the frontier for `round` into `dir/frontier.ckpt`.
pub fn write_checkpoint(dir: &Path, round: u64, crashes: u32, labels: &[u32]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let body = body_bytes(labels);
    let header = format!(
        "eclshardckpt\t1\t{}\t{round}\t{crashes}\t{:016x}\n",
        labels.len(),
        fnv1a(&body)
    );
    let mut bytes = header.into_bytes();
    bytes.extend_from_slice(&body);
    write_atomic(&dir.join(CKPT_FILE), &bytes)
}

/// Loads the checkpoint from `dir`, if a complete, digest-verified one
/// exists. Missing, torn, or tampered files all come back as `None` —
/// the caller falls back to from-scratch recovery.
pub fn read_checkpoint(dir: &Path) -> Option<Checkpoint> {
    let data = fs::read(dir.join(CKPT_FILE)).ok()?;
    let text = std::str::from_utf8(&data).ok()?;
    let (header, body) = text.split_once('\n')?;
    let fields: Vec<&str> = header.split('\t').collect();
    if fields.len() != 6 || fields[0] != "eclshardckpt" || fields[1] != "1" {
        return None;
    }
    let n: usize = fields[2].parse().ok()?;
    let round: u64 = fields[3].parse().ok()?;
    let crashes: u32 = fields[4].parse().ok()?;
    let digest = u64::from_str_radix(fields[5], 16).ok()?;
    if fnv1a(body.as_bytes()) != digest {
        return None;
    }
    let labels: Vec<u32> = body
        .lines()
        .map(|l| l.parse::<u32>().ok())
        .collect::<Option<_>>()?;
    if labels.len() != n {
        return None;
    }
    Some(Checkpoint {
        round,
        crashes,
        labels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ecl-shard-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trips() {
        let d = tmpdir("rt");
        let labels: Vec<u32> = (0..500).map(|i| i / 7).collect();
        write_checkpoint(&d, 3, 1, &labels).unwrap();
        let ck = read_checkpoint(&d).unwrap();
        assert_eq!(ck.round, 3);
        assert_eq!(ck.crashes, 1);
        assert_eq!(ck.labels, labels);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_and_tampered_read_as_absent() {
        let d = tmpdir("bad");
        assert_eq!(read_checkpoint(&d), None);
        write_checkpoint(&d, 1, 0, &[1, 2, 3]).unwrap();
        let path = d.join(CKPT_FILE);
        let mut data = fs::read(&path).unwrap();
        let flip = data.len() - 2;
        data[flip] ^= 1;
        fs::write(&path, &data).unwrap();
        assert_eq!(read_checkpoint(&d), None, "tampered label must not verify");
        // Torn tail: truncate mid-body.
        write_checkpoint(&d, 1, 0, &[1, 2, 3]).unwrap();
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 3]).unwrap();
        assert_eq!(read_checkpoint(&d), None, "torn checkpoint must not verify");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn overwrite_is_atomic_latest_wins() {
        let d = tmpdir("ow");
        write_checkpoint(&d, 1, 0, &[9; 10]).unwrap();
        write_checkpoint(&d, 2, 0, &[4; 10]).unwrap();
        let ck = read_checkpoint(&d).unwrap();
        assert_eq!(ck.round, 2);
        assert_eq!(ck.labels, vec![4; 10]);
        let _ = fs::remove_dir_all(&d);
    }
}
