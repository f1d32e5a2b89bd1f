//! Startup recovery: scan a journal, drop the torn tail, replay.
//!
//! Recovery invariants (see DESIGN.md §14):
//!
//! 1. **Prefix durability.** A journal on disk is a valid header
//!    followed by zero or more well-framed records and, possibly, one
//!    torn tail produced by a crash mid-write. The scan accepts the
//!    longest valid prefix and discards everything after the first
//!    short frame or CRC mismatch — never a record beyond the tear.
//! 2. **Idempotent replay.** Replaying a record whose timestamp is at
//!    or before the database's `last_update` is a no-op (the
//!    [`RrdError::UpdateInPast`] gate), so records that were already
//!    checkpointed into the `.rrd` files — or replayed once before a
//!    second crash — apply cleanly a second time.
//! 3. **Repair before reuse.** The torn tail is physically truncated
//!    off before the journal is appended to again; otherwise the next
//!    commit would land *after* garbage and be unreachable to a future
//!    scan.

use std::io::Read;
use std::path::Path;

use crate::cache::RrdSet;
use crate::error::RrdError;
use crate::journal::{crc32, JournalRecord, JOURNAL_MAGIC};

/// Outcome of scanning one journal file.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// Shard label from the header, if the header was intact.
    pub label: Option<String>,
    /// Records in the longest valid prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of the valid prefix (header + accepted records).
    pub valid_bytes: u64,
    /// Bytes discarded after the first bad frame (0 = clean file).
    pub torn_bytes: u64,
}

impl JournalScan {
    /// Whether the scan hit a torn tail.
    pub fn torn(&self) -> bool {
        self.torn_bytes > 0
    }
}

/// Scan `path`, accepting the longest valid prefix of records.
///
/// A missing file scans as empty. A file too short or mangled to even
/// carry its header yields no label and no records, with everything
/// counted as torn — the caller decides whether that is fatal.
pub fn scan_journal(path: &Path) -> Result<JournalScan, RrdError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalScan::default()),
        Err(e) => return Err(e.into()),
    };
    Ok(scan_bytes(&bytes))
}

/// Scan an in-memory journal image (the parsing core of
/// [`scan_journal`], exposed for tests and fault injection).
pub fn scan_bytes(bytes: &[u8]) -> JournalScan {
    let mut scan = JournalScan::default();
    let total = bytes.len() as u64;
    let mut input = bytes;

    // Header: magic | u16 label_len | label | u32 crc32(label).
    let mut ok = input.len() >= JOURNAL_MAGIC.len() + 2
        && &input[..JOURNAL_MAGIC.len()] == JOURNAL_MAGIC.as_slice();
    if ok {
        input = &input[JOURNAL_MAGIC.len()..];
        let label_len = u16::from_be_bytes([input[0], input[1]]) as usize;
        input = &input[2..];
        if input.len() >= label_len + 4 {
            let label_raw = &input[..label_len];
            let crc = u32::from_be_bytes(input[label_len..label_len + 4].try_into().unwrap());
            match std::str::from_utf8(label_raw) {
                Ok(label) if crc32(label_raw) == crc => {
                    scan.label = Some(label.to_string());
                    input = &input[label_len + 4..];
                }
                _ => ok = false,
            }
        } else {
            ok = false;
        }
    }
    if !ok {
        scan.torn_bytes = total;
        return scan;
    }

    // Records: u32 len | u32 crc | payload, until the first bad frame.
    loop {
        if input.is_empty() {
            break;
        }
        if input.len() < 8 {
            break; // torn frame header
        }
        let len = u32::from_be_bytes(input[..4].try_into().unwrap()) as usize;
        let crc = u32::from_be_bytes(input[4..8].try_into().unwrap());
        if len > 1 << 20 || input.len() < 8 + len {
            break; // absurd length or torn payload
        }
        let payload = &input[8..8 + len];
        if crc32(payload) != crc {
            break; // corrupted payload
        }
        match JournalRecord::decode_payload(payload) {
            Ok(record) => scan.records.push(record),
            Err(_) => break, // framing ok but contents unparseable
        }
        input = &input[8 + len..];
    }
    scan.torn_bytes = input.len() as u64;
    scan.valid_bytes = total - scan.torn_bytes;
    scan
}

/// Scan `path` and, if a torn tail was found, truncate the file back to
/// its valid prefix (fsynced) so future appends extend a clean log.
pub fn scan_and_repair(path: &Path) -> Result<JournalScan, RrdError> {
    let scan = scan_journal(path)?;
    if scan.torn() {
        if scan.label.is_none() {
            // Even the header is unusable: the whole file is garbage.
            // Leave removal policy to the caller; truncating to zero
            // would just recreate an empty-but-present file.
            return Ok(scan);
        }
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(scan.valid_bytes)?;
        file.sync_all()?;
    }
    Ok(scan)
}

/// Counters from replaying scanned records into a set.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayStats {
    /// Records that applied a new update.
    pub applied: u64,
    /// Records skipped because the update was already present
    /// (`last_update` gate) — the idempotent-replay case.
    pub noops: u64,
    /// Records rejected for any other reason (kept for telemetry;
    /// should be zero in practice).
    pub errors: u64,
}

/// Replay `records` into `set` without re-journaling them.
pub fn replay(set: &mut RrdSet, records: &[JournalRecord]) -> ReplayStats {
    let mut stats = ReplayStats::default();
    for record in records {
        match set.apply_unjournaled(record.key.view(), record.ts, record.value) {
            Ok(()) => stats.applied += 1,
            Err(RrdError::UpdateInPast { .. }) => stats.noops += 1,
            Err(_) => stats.errors += 1,
        }
    }
    stats
}

/// Verify a journal header and return its label (used to map `.wal`
/// files back to shards without trusting file names).
pub fn read_label(path: &Path) -> Result<Option<String>, RrdError> {
    let mut file = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    // Header is tiny; read at most magic + len + max label + crc.
    let mut head = Vec::with_capacity(JOURNAL_MAGIC.len() + 2 + u16::MAX as usize + 4);
    file.by_ref()
        .take((JOURNAL_MAGIC.len() + 2 + u16::MAX as usize + 4) as u64)
        .read_to_end(&mut head)?;
    Ok(scan_bytes(&head).label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MetricKey;
    use crate::journal::Journal;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ganglia-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("shard.wal")
    }

    fn record(i: u64) -> JournalRecord {
        JournalRecord {
            key: MetricKey::host_metric("meteor", format!("n{i}"), "load_one"),
            ts: i * 15,
            value: i as f64,
        }
    }

    fn append(journal: &mut Journal, i: u64) {
        let record = record(i);
        journal.append(record.key.view(), record.ts, record.value);
    }

    #[test]
    fn clean_journal_scans_fully() {
        let path = temp_path("clean");
        let mut journal = Journal::new(&path, "meteor");
        for i in 1..=10 {
            append(&mut journal, i);
        }
        journal.commit().unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.label.as_deref(), Some("meteor"));
        assert_eq!(scan.records.len(), 10);
        assert!(!scan.torn());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_at_every_offset() {
        let path = temp_path("torn");
        let mut journal = Journal::new(&path, "meteor");
        for i in 1..=4 {
            append(&mut journal, i);
        }
        journal.commit().unwrap();
        let image = std::fs::read(&path).unwrap();
        let header_len = Journal::encode_header("meteor").len();
        for cut in 0..image.len() {
            let scan = scan_bytes(&image[..cut]);
            assert!(scan.records.len() <= 4, "cut={cut}");
            if cut < header_len {
                assert!(scan.label.is_none(), "cut={cut}");
            }
            // Every accepted record is bit-exact — a tear never
            // produces a *wrong* record, only fewer records.
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(*r, record(i as u64 + 1), "cut={cut}");
            }
        }
        // Corruption (not truncation) at every offset: flip one byte.
        for i in 0..image.len() {
            let mut mangled = image.clone();
            mangled[i] ^= 0xFF;
            let scan = scan_bytes(&mangled);
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(*r, record(i as u64 + 1));
            }
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn repair_truncates_then_appends_cleanly() {
        let path = temp_path("repair");
        let mut journal = Journal::new(&path, "meteor");
        append(&mut journal, 1);
        append(&mut journal, 2);
        journal.commit().unwrap();
        // Tear the last record in half.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let scan = scan_and_repair(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), scan.valid_bytes);

        // A fresh journal handle appends after the repaired prefix and
        // the log stays fully readable.
        let mut journal = Journal::new(&path, "meteor");
        append(&mut journal, 3);
        journal.commit().unwrap();
        let scan = scan_journal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(!scan.torn());
        assert_eq!(scan.records[1], record(3));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn read_label_reads_only_the_header() {
        let path = temp_path("label");
        let mut journal = Journal::new(&path, "ucsd/phys");
        append(&mut journal, 1);
        journal.commit().unwrap();
        assert_eq!(read_label(&path).unwrap().as_deref(), Some("ucsd/phys"));
        assert_eq!(read_label(Path::new("/nonexistent/x.wal")).unwrap(), None);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
