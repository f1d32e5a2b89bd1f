//! Append-only write-ahead journal for archive updates.
//!
//! The paper sidestepped durability by running its RRD archives on a
//! RAM-backed tmpfs (§4.1). We instead make the archive tier crash-safe
//! the way databases do: every accepted update is appended to a
//! per-shard journal as a length-prefixed, CRC32-framed record, and the
//! journal is fsynced in batches (group commit) rather than per update.
//! Fixed-size RRD files are only rewritten at checkpoint time — atomic
//! write-temp → fsync → rename → fsync(dir) — after which the journal
//! is truncated. A crash at any byte boundary therefore loses at most
//! the *unacknowledged* tail of the current batch: recovery scans the
//! journal, drops the torn tail at the first bad CRC, and replays the
//! surviving records (replay is idempotent because `last_update` gates
//! each database, see [`crate::rrd::Rrd::update`]).
//!
//! On-disk layout:
//!
//! ```text
//! header:  "GJRNL001" | u16 label_len | label | u32 crc32(label)
//! record:  u32 payload_len | u32 crc32(payload) | payload
//! payload: u64 ts | u64 f64_bits(value)
//!        | u16 source_len | source | u16 host_len | host
//!        | u16 metric_len | metric
//! ```
//!
//! The label is the owning shard's source name, which makes each `.wal`
//! file self-describing: recovery can map a journal back to its shard
//! without trusting the (sanitized, lossy) file name.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::cache::{KeyRef, MetricKey};
use crate::error::RrdError;

/// Magic prefix of every journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"GJRNL001";

/// Journal files use this extension under the archive root's `.journal/`
/// directory.
pub const JOURNAL_EXT: &str = "wal";

// --- CRC32 (IEEE, reflected, poly 0xEDB88320) ------------------------------
// Hand-rolled so the crate stays dependency-free (same stance as core's
// sha256).

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32 checksum (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One journaled archive update.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// The archived series this update belongs to.
    pub key: MetricKey,
    /// Update timestamp (seconds).
    pub ts: u64,
    /// Sample value (NAN encodes an explicit unknown).
    pub value: f64,
}

/// Serialize one record payload (without framing) from borrowed parts.
/// [`JournalRecord::decode_payload`] is its inverse.
fn encode_payload(out: &mut Vec<u8>, key: KeyRef<'_>, ts: u64, value: f64) {
    out.extend_from_slice(&ts.to_be_bytes());
    out.extend_from_slice(&value.to_bits().to_be_bytes());
    for part in [key.source, key.host, key.metric] {
        let bytes = part.as_bytes();
        let len = bytes.len().min(u16::MAX as usize) as u16;
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&bytes[..len as usize]);
    }
}

impl JournalRecord {
    /// Parse a record payload produced by [`Journal::append`].
    pub fn decode_payload(mut input: &[u8]) -> Result<Self, RrdError> {
        let bad = |why: &str| RrdError::BadFile(why.to_string());
        let take = |input: &mut &[u8], n: usize| -> Result<Vec<u8>, RrdError> {
            if input.len() < n {
                return Err(RrdError::BadFile("short journal payload".to_string()));
            }
            let (head, tail) = input.split_at(n);
            *input = tail;
            Ok(head.to_vec())
        };
        let ts = u64::from_be_bytes(take(&mut input, 8)?.try_into().unwrap());
        let bits = u64::from_be_bytes(take(&mut input, 8)?.try_into().unwrap());
        let mut parts = Vec::with_capacity(3);
        for _ in 0..3 {
            let len = u16::from_be_bytes(take(&mut input, 2)?.try_into().unwrap()) as usize;
            let raw = take(&mut input, len)?;
            parts.push(String::from_utf8(raw).map_err(|_| bad("non-utf8 journal string"))?);
        }
        if !input.is_empty() {
            return Err(bad("trailing bytes in journal payload"));
        }
        let metric = parts.pop().unwrap();
        let host = parts.pop().unwrap();
        let source = parts.pop().unwrap();
        Ok(JournalRecord {
            key: MetricKey {
                source,
                host,
                metric,
            },
            ts,
            value: f64::from_bits(bits),
        })
    }
}

/// Point-in-time accounting for one journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Bytes durably on disk (header + committed records).
    pub durable_bytes: u64,
    /// Bytes buffered in memory awaiting the next group commit.
    pub pending_bytes: u64,
    /// Records buffered awaiting the next group commit.
    pub pending_records: u64,
    /// Group commits performed over the journal's lifetime.
    pub commits: u64,
}

/// An append-only journal with batched (group) commit.
///
/// `append` only buffers; nothing is durable until [`Journal::commit`]
/// writes the batch with a single `write` + `fdatasync`. The caller
/// decides the commit cadence (flush interval / size threshold), which
/// is exactly the group-commit trade: one fsync amortized over every
/// update that arrived since the last one.
pub struct Journal {
    path: PathBuf,
    label: String,
    file: Option<File>,
    pending: Vec<u8>,
    pending_records: u64,
    durable_bytes: u64,
    commits: u64,
}

impl Journal {
    /// A journal at `path` for the shard named `label`. No I/O happens
    /// until the first commit.
    pub fn new(path: impl Into<PathBuf>, label: impl Into<String>) -> Self {
        Journal {
            path: path.into(),
            label: label.into(),
            file: None,
            pending: Vec::new(),
            pending_records: 0,
            durable_bytes: 0,
            commits: 0,
        }
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The shard label stored in the journal header.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Serialize the header for a journal labelled `label`.
    pub fn encode_header(label: &str) -> Vec<u8> {
        let bytes = label.as_bytes();
        let len = bytes.len().min(u16::MAX as usize) as u16;
        let mut out = Vec::with_capacity(JOURNAL_MAGIC.len() + 2 + len as usize + 4);
        out.extend_from_slice(JOURNAL_MAGIC);
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&bytes[..len as usize]);
        out.extend_from_slice(&crc32(&bytes[..len as usize]).to_be_bytes());
        out
    }

    /// Buffer one record for the next commit. Returns the framed size.
    ///
    /// The frame is encoded in place at the end of the pending batch:
    /// its 8-byte header is reserved, the payload written from the
    /// borrowed key, and the header patched with the payload's length
    /// and CRC — so a steady-state append never allocates.
    pub fn append(&mut self, key: KeyRef<'_>, ts: u64, value: f64) -> usize {
        let start = self.pending.len();
        self.pending.extend_from_slice(&[0; 8]);
        encode_payload(&mut self.pending, key, ts, value);
        let payload = &self.pending[start + 8..];
        let len = (payload.len() as u32).to_be_bytes();
        let crc = crc32(payload).to_be_bytes();
        self.pending[start..start + 4].copy_from_slice(&len);
        self.pending[start + 4..start + 8].copy_from_slice(&crc);
        self.pending_records += 1;
        self.pending.len() - start
    }

    /// Current accounting.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            durable_bytes: self.durable_bytes,
            pending_bytes: self.pending.len() as u64,
            pending_records: self.pending_records,
            commits: self.commits,
        }
    }

    /// Bytes buffered and not yet committed.
    pub fn pending_bytes(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Group-commit the buffered batch: one write, one `fdatasync`.
    /// Returns the number of bytes made durable by this commit. The
    /// batch buffer keeps its capacity for the next round; on failure
    /// the batch stays buffered so the caller may retry the commit.
    pub fn commit(&mut self) -> Result<u64, RrdError> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let batch = std::mem::take(&mut self.pending);
        let outcome = self
            .open_or_create()
            .and_then(|file| Ok(file.write_all(&batch).and_then(|()| file.sync_data())?));
        self.pending = batch;
        outcome?;
        let written = self.pending.len() as u64;
        self.pending.clear();
        self.durable_bytes += written;
        self.pending_records = 0;
        self.commits += 1;
        Ok(written)
    }

    /// Drop all journaled records after a successful checkpoint. The
    /// header survives so the file stays self-describing.
    pub fn truncate(&mut self) -> Result<(), RrdError> {
        // Anything still pending describes updates newer than the
        // checkpoint only if appended after the checkpoint snapshot; our
        // callers always commit before checkpointing, so pending is
        // empty here. Clear it defensively either way.
        self.pending.clear();
        self.pending_records = 0;
        if self.file.is_none() && !self.path.exists() {
            self.durable_bytes = 0;
            return Ok(());
        }
        let header_len = Self::encode_header(&self.label).len() as u64;
        let file = self.open_or_create()?;
        file.set_len(header_len)?;
        file.sync_data()?;
        self.durable_bytes = header_len;
        Ok(())
    }

    /// Delete the journal file outright (shard removal).
    pub fn remove(&mut self) -> Result<(), RrdError> {
        self.file = None;
        self.pending.clear();
        self.pending_records = 0;
        self.durable_bytes = 0;
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Re-derive `durable_bytes` from the file on disk (after an
    /// external scan repaired a torn tail).
    pub fn sync_durable_bytes(&mut self) -> Result<(), RrdError> {
        self.durable_bytes = match std::fs::metadata(&self.path) {
            Ok(meta) => meta.len(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e.into()),
        };
        Ok(())
    }

    fn open_or_create(&mut self) -> Result<&mut File, RrdError> {
        if self.file.is_none() {
            if let Some(parent) = self.path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            let existed = self.path.exists();
            let mut file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?;
            let on_disk = file.metadata()?.len();
            if on_disk == 0 {
                let header = Self::encode_header(&self.label);
                file.write_all(&header)?;
                file.sync_data()?;
                self.durable_bytes = header.len() as u64;
            } else {
                self.durable_bytes = on_disk;
            }
            if !existed {
                // Make the new directory entry durable too: an fsync on
                // the file alone does not persist its name.
                if let Some(parent) = self.path.parent() {
                    if let Ok(dir) = File::open(parent) {
                        let _ = dir.sync_all();
                    }
                }
            }
            self.file = Some(file);
        }
        Ok(self.file.as_mut().expect("journal file just opened"))
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("label", &self.label)
            .field("durable_bytes", &self.durable_bytes)
            .field("pending_bytes", &self.pending.len())
            .finish()
    }
}

/// File name (stem + `.wal`) for the shard named `source`. A short hash
/// suffix keeps two sources that sanitize identically (e.g. `a/b` and
/// `a_b`) from sharing a journal.
pub fn journal_file_name(source: &str) -> String {
    format!(
        "{}-{:08x}.{JOURNAL_EXT}",
        crate::cache::sanitize(source),
        fnv64(source.as_bytes()) as u32
    )
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// One framed record, as every journal since GJRNL001 has written
    /// it: `u32 len | u32 crc32 | ts | NaN bits | source | host | metric`.
    const GOLDEN_FRAME: &str = concat!(
        "00000032", // payload length: 50
        "b960dced", // crc32(payload)
        "0000000000003039",
        "7ff8000000000000",
        "0009",
        "756373642f70687973", // ucsd/phys
        "000b",
        "636f6d707574652d302d30", // compute-0-0
        "0008",
        "6c6f61645f6f6e65", // load_one
    );

    #[test]
    fn frame_bytes_are_golden_and_decode_back() {
        let key = MetricKey::host_metric("ucsd/phys", "compute-0-0", "load_one");
        let mut journal = Journal::new("unused.wal", "ucsd/phys");
        let framed = journal.append(key.view(), 12345, f64::NAN);
        let hex: String = journal.pending.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_FRAME);
        assert_eq!(framed, journal.pending.len());
        let back = JournalRecord::decode_payload(&journal.pending[8..]).unwrap();
        assert_eq!(back.key, key);
        assert_eq!(back.ts, 12345);
        assert_eq!(back.value.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn commit_then_truncate_keeps_header() {
        let dir = std::env::temp_dir().join(format!("ganglia-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("meteor.wal");
        let mut journal = Journal::new(&path, "meteor");
        let key = MetricKey::host_metric("meteor", "n0", "load_one");
        journal.append(key.view(), 15, 1.0);
        assert!(journal.pending_bytes() > 0);
        let capacity = journal.pending.capacity();
        let written = journal.commit().unwrap();
        assert!(written > 0);
        assert_eq!(journal.pending_bytes(), 0);
        // The batch buffer is reused by the next round, not regrown.
        assert_eq!(journal.pending.capacity(), capacity);
        let full = std::fs::metadata(&path).unwrap().len();
        assert_eq!(full, journal.stats().durable_bytes);
        journal.truncate().unwrap();
        let header_only = std::fs::metadata(&path).unwrap().len();
        assert_eq!(header_only, Journal::encode_header("meteor").len() as u64);
        assert!(header_only < full);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_file_names_disambiguate_sanitize_collisions() {
        assert_ne!(journal_file_name("a/b"), journal_file_name("a_b"));
        assert!(journal_file_name("meteor").starts_with("meteor-"));
        assert!(journal_file_name("meteor").ends_with(".wal"));
    }
}
