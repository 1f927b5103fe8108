//! Crash-safe label-frontier checkpoints.
//!
//! At every exchange-round boundary the coordinator persists the
//! best-known label of every global vertex as an `eclshardckpt` version-2
//! stamped label file ([`ecl_obs::durable::render_label_file`]; the round
//! and crash count are its header fields). A checkpoint that does not
//! verify is treated as absent: recovery then restarts the lost shard
//! from its local run, which min-wins monotonicity makes safe — older
//! labels cost extra rounds, never correctness.
//!
//! Checkpoints are run-scoped: a sharded run writes its round-0
//! checkpoint before it can read one, and reads only after one of its
//! own writes landed, so no file from an earlier run or format is read.

use ecl_obs::durable::{read_label_file, render_label_file, write_atomic};
use std::fs;
use std::io;
use std::path::Path;

/// Checkpoint file name inside the checkpoint directory.
pub const CKPT_FILE: &str = "frontier.ckpt";

const CKPT_MAGIC: &str = "eclshardckpt";
const CKPT_VERSION: u32 = 2;

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

/// Atomically writes the frontier for `round` into `dir/frontier.ckpt`.
pub fn write_checkpoint(dir: &Path, round: u64, crashes: u32, labels: &[u32]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let doc = render_label_file(CKPT_MAGIC, CKPT_VERSION, &[round, crashes.into()], labels);
    write_atomic(&dir.join(CKPT_FILE), &doc)
}

/// Loads the checkpoint from `dir`, if a complete, digest-verified one
/// exists. Missing, torn, or tampered files all come back as `None` —
/// the caller falls back to from-scratch recovery.
pub fn read_checkpoint(dir: &Path) -> Option<Checkpoint> {
    let file = read_label_file(&dir.join(CKPT_FILE), CKPT_MAGIC, CKPT_VERSION, 2).ok()??;
    Some(Checkpoint {
        round: file.fields[0],
        crashes: file.fields[1].try_into().ok()?,
        labels: file.labels,
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
