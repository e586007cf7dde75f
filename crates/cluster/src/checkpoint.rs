//! Coordinator checkpoints: completed shard results on disk.
//!
//! The coordinator appends one entry per completed task — its group
//! range plus the encoded result blobs — to a checkpoint file as the
//! run progresses. A coordinator restarted after a crash loads the
//! file, keeps every intact entry, and re-plans only the groups not
//! covered (see `plan_shards_filtered`), so already-merged work is
//! never re-fetched from a worker.
//!
//! The format mirrors the store's appendable log discipline: a magic +
//! job-fingerprint header, then length-prefixed checksummed entries.
//! Recovery is torn-tail tolerant — a truncated or corrupt trailing
//! entry (the crash was mid-append) is dropped, everything before it
//! survives. Resuming *rewrites* the file from the recovered entries
//! rather than appending past a torn tail.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use ivnt_store::layout::checksum;
use ivnt_store::varint::{self, Cursor};

use crate::error::{Error, Result};
use crate::wire::MAX_FRAME_LEN;

/// File magic; the trailing digit is the checkpoint format revision.
const MAGIC: &[u8; 8] = b"IVNTCKP1";

/// Blob-encoding byte of every entry: 1 = v3 compressed batches
/// ([`crate::codec::decode_batch_compressed`]), the only encoding entries
/// hold. Any other byte fails decoding, so recovery stops there.
const COMPRESSED: u8 = 1;

/// One completed task's merged-state contribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// First row group the entry covers.
    pub group_start: u32,
    /// One past the last row group the entry covers.
    pub group_end: u32,
    /// Compressed result batches in group order.
    pub blobs: Vec<Vec<u8>>,
}

impl CheckpointEntry {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, u64::from(self.group_start));
        varint::write_u64(&mut out, u64::from(self.group_end));
        out.push(COMPRESSED);
        varint::write_u64(&mut out, self.blobs.len() as u64);
        for b in &self.blobs {
            varint::write_u64(&mut out, b.len() as u64);
            out.extend_from_slice(b);
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<CheckpointEntry> {
        let mut cur = Cursor::new(payload);
        let group_start = read_u32(&mut cur, "group start")?;
        let group_end = read_u32(&mut cur, "group end")?;
        if group_end < group_start {
            return Err(Error::Protocol(format!(
                "inverted checkpoint range {group_start}..{group_end}"
            )));
        }
        let encoding = cur.read_u8()?;
        if encoding != COMPRESSED {
            return Err(Error::Protocol(format!(
                "checkpoint blob encoding {encoding}"
            )));
        }
        let n = cur.read_u64()?;
        if n > MAX_FRAME_LEN {
            return Err(Error::Protocol(format!("{n} checkpoint blobs")));
        }
        let mut blobs = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            let len = cur.read_u64()?;
            if len > MAX_FRAME_LEN {
                return Err(Error::Protocol(format!("checkpoint blob of {len} bytes")));
            }
            blobs.push(cur.read_slice(len as usize)?.to_vec());
        }
        if cur.remaining() != 0 {
            return Err(Error::Protocol(format!(
                "{} trailing bytes in checkpoint entry",
                cur.remaining()
            )));
        }
        Ok(CheckpointEntry {
            group_start,
            group_end,
            blobs,
        })
    }
}

fn read_u32(cur: &mut Cursor<'_>, what: &str) -> Result<u32> {
    let v = cur.read_u64()?;
    u32::try_from(v).map_err(|_| Error::Protocol(format!("{what} {v} exceeds u32")))
}

/// An open checkpoint file the coordinator appends completed tasks to.
#[derive(Debug)]
pub struct Checkpoint {
    writer: BufWriter<File>,
    path: PathBuf,
}

impl Checkpoint {
    /// Starts a fresh checkpoint for the job identified by
    /// `fingerprint` ([`crate::job::JobSpec::fingerprint`]), replacing
    /// any file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the file cannot be created.
    pub fn create(path: impl AsRef<Path>, fingerprint: u64) -> Result<Checkpoint> {
        let path = path.as_ref().to_path_buf();
        let mut writer = BufWriter::new(File::create(&path)?);
        writer.write_all(MAGIC)?;
        writer.write_all(&fingerprint.to_le_bytes())?;
        writer.flush()?;
        Ok(Checkpoint { writer, path })
    }

    /// Loads whatever intact entries a previous coordinator left at
    /// `path`, then rewrites the file from them and returns it open for
    /// appending. A missing file means a fresh run (no entries).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Job`] when the file belongs to a different job
    /// or store state (fingerprint mismatch) — resuming would corrupt
    /// the merge — and [`Error::Io`] on filesystem failures.
    pub fn resume_or_create(
        path: impl AsRef<Path>,
        fingerprint: u64,
    ) -> Result<(Checkpoint, Vec<CheckpointEntry>)> {
        let path = path.as_ref();
        let entries = match load(path, fingerprint) {
            Ok(entries) => entries,
            Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut ckpt = Checkpoint::create(path, fingerprint)?;
        for e in &entries {
            ckpt.append(e)?;
        }
        Ok((ckpt, entries))
    }

    /// Durably appends one completed task.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the write fails.
    pub fn append(&mut self, entry: &CheckpointEntry) -> Result<()> {
        let payload = entry.encode();
        self.writer
            .write_all(&(payload.len() as u32).to_le_bytes())?;
        self.writer.write_all(&payload)?;
        self.writer.write_all(&checksum(&payload).to_le_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    /// Deletes the checkpoint — the run completed, there is nothing to
    /// resume. Removal failure is not worth failing a finished job over.
    pub fn remove(self) {
        drop(self.writer);
        std::fs::remove_file(&self.path).ok();
    }
}

/// Reads the intact prefix of a checkpoint file, dropping a torn tail.
fn load(path: &Path, fingerprint: u64) -> Result<Vec<CheckpointEntry>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
        // Header never even landed — treat like an absent checkpoint.
        return Ok(Vec::new());
    }
    let mut fp = [0u8; 8];
    fp.copy_from_slice(&bytes[MAGIC.len()..MAGIC.len() + 8]);
    if u64::from_le_bytes(fp) != fingerprint {
        return Err(Error::Job(format!(
            "checkpoint {} belongs to a different job or store state; \
             delete it to start over",
            path.display()
        )));
    }
    let mut entries = Vec::new();
    let mut pos = MAGIC.len() + 8;
    while let Some(header) = bytes.get(pos..pos + 4) {
        let len = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
        if len as u64 > MAX_FRAME_LEN {
            break;
        }
        let Some(payload) = bytes.get(pos + 4..pos + 4 + len) else {
            break;
        };
        let Some(sum) = bytes.get(pos + 4 + len..pos + 4 + len + 8) else {
            break;
        };
        if u64::from_le_bytes(sum.try_into().expect("8 bytes")) != checksum(payload) {
            break;
        }
        let Ok(entry) = CheckpointEntry::decode(payload) else {
            break;
        };
        entries.push(entry);
        pos += 4 + len + 8;
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ivnt-ckpt-{tag}-{}-{tid:?}.bin",
            std::process::id(),
            tid = std::thread::current().id(),
        ))
    }

    fn entry(start: u32, end: u32) -> CheckpointEntry {
        CheckpointEntry {
            group_start: start,
            group_end: end,
            blobs: vec![vec![start as u8; 16], vec![end as u8; 9]],
        }
    }

    #[test]
    fn roundtrip_and_resume() {
        let path = temp_path("roundtrip");
        let (mut ckpt, recovered) = Checkpoint::resume_or_create(&path, 42).unwrap();
        assert!(recovered.is_empty());
        ckpt.append(&entry(0, 3)).unwrap();
        ckpt.append(&entry(3, 7)).unwrap();
        drop(ckpt);

        let (ckpt, recovered) = Checkpoint::resume_or_create(&path, 42).unwrap();
        assert_eq!(recovered, vec![entry(0, 3), entry(3, 7)]);
        ckpt.remove();
        assert!(!path.exists());
    }

    #[test]
    fn fingerprint_mismatch_refuses_to_resume() {
        let path = temp_path("fp");
        let (mut ckpt, _) = Checkpoint::resume_or_create(&path, 1).unwrap();
        ckpt.append(&entry(0, 2)).unwrap();
        drop(ckpt);
        assert!(matches!(
            Checkpoint::resume_or_create(&path, 2),
            Err(Error::Job(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = temp_path("torn");
        let (mut ckpt, _) = Checkpoint::resume_or_create(&path, 7).unwrap();
        ckpt.append(&entry(0, 2)).unwrap();
        ckpt.append(&entry(2, 5)).unwrap();
        drop(ckpt);
        // Crash mid-append: chop bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (ckpt, recovered) = Checkpoint::resume_or_create(&path, 7).unwrap();
        assert_eq!(recovered, vec![entry(0, 2)]);
        ckpt.remove();
    }

    #[test]
    fn corrupt_entry_stops_recovery_at_last_good_one() {
        let path = temp_path("corrupt");
        let (mut ckpt, _) = Checkpoint::resume_or_create(&path, 9).unwrap();
        ckpt.append(&entry(0, 2)).unwrap();
        ckpt.append(&entry(2, 5)).unwrap();
        drop(ckpt);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (ckpt, recovered) = Checkpoint::resume_or_create(&path, 9).unwrap();
        assert_eq!(recovered, vec![entry(0, 2)]);
        ckpt.remove();
    }

    #[test]
    fn unknown_blob_encoding_stops_recovery() {
        let path = temp_path("encoding");
        let (mut ckpt, _) = Checkpoint::resume_or_create(&path, 11).unwrap();
        ckpt.append(&entry(0, 2)).unwrap();
        drop(ckpt);
        // A well-framed, checksummed second entry whose encoding byte (after
        // the two one-byte range varints) is 0, as flat-v2 entries were.
        let mut payload = entry(2, 5).encode();
        assert_eq!(payload[2], COMPRESSED);
        payload[2] = 0;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&checksum(&payload).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (ckpt, recovered) = Checkpoint::resume_or_create(&path, 11).unwrap();
        assert_eq!(recovered, vec![entry(0, 2)]);
        ckpt.remove();
    }
}
