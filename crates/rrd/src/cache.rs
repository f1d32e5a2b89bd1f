//! The multi-database archiver driven by gmetad.
//!
//! gmetad keeps one round-robin database per `(source, host, metric)` —
//! where `host` is the literal `__summary__` for per-cluster and per-grid
//! summary archives. The paper's §4.3 result that the 1-level tree does
//! redundant work comes precisely from every interior monitor keeping
//! *full duplicates* of these databases, while the N-level tree keeps
//! "only summary archives of descendants".
//!
//! [`RrdSet`] counts every update so experiments can attribute archiving
//! work; persistence to a directory tree is optional (the paper ran the
//! archives on tmpfs to isolate CPU cost from disk I/O, §4.1).

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

use crate::error::RrdError;
use crate::journal::{Journal, JournalRecord, JournalStats};
use crate::recover::{replay, scan_and_repair, ReplayStats};
use crate::rrd::{Rrd, Series};
use crate::spec::{ganglia_default_spec, ConsolidationFn, RrdSpec};

/// Identifies one archived time series.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    /// Data source (cluster or grid) name.
    pub source: String,
    /// Host name, or [`MetricKey::SUMMARY_HOST`] for summary archives.
    pub host: String,
    /// Metric name.
    pub metric: String,
}

impl MetricKey {
    /// The pseudo-host under which summary archives are kept.
    pub const SUMMARY_HOST: &'static str = "__summary__";

    /// Key for a host metric.
    pub fn host_metric(
        source: impl Into<String>,
        host: impl Into<String>,
        metric: impl Into<String>,
    ) -> Self {
        MetricKey {
            source: source.into(),
            host: host.into(),
            metric: metric.into(),
        }
    }

    /// Key for a source-level summary metric.
    pub fn summary_metric(source: impl Into<String>, metric: impl Into<String>) -> Self {
        MetricKey {
            source: source.into(),
            host: Self::SUMMARY_HOST.to_string(),
            metric: metric.into(),
        }
    }

    /// Whether this is a summary archive.
    pub fn is_summary(&self) -> bool {
        self.host == Self::SUMMARY_HOST
    }

    /// Relative file path under an archive root.
    pub fn rel_path(&self) -> PathBuf {
        PathBuf::from(sanitize(&self.source))
            .join(sanitize(&self.host))
            .join(format!("{}.rrd", sanitize(&self.metric)))
    }
}

/// Replace path-hostile characters so keys map to safe file names.
/// Public because shard recovery needs to map source labels back to
/// the directory names [`MetricKey::rel_path`] produced.
pub fn sanitize(part: &str) -> String {
    part.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Produces the spec for a newly created database, given its key and
/// start time.
pub type SpecFactory = Box<dyn Fn(&MetricKey, u64) -> RrdSpec + Send>;

/// A set of round-robin databases, one per metric key, created on first
/// update.
pub struct RrdSet {
    databases: HashMap<MetricKey, Rrd>,
    /// Spec applied to newly created databases.
    make_spec: SpecFactory,
    /// Persist databases under this directory when set.
    root: Option<PathBuf>,
    /// Write-ahead journal fronting the persistence root, when enabled.
    journal: Option<Journal>,
    /// Keys updated since their database was last checkpointed. Ordered
    /// so incremental checkpoints walk files deterministically.
    dirty: BTreeSet<MetricKey>,
    /// Logical time of the last completed checkpoint.
    last_checkpoint_at: Option<u64>,
    /// Total updates across all databases (archiving work done).
    update_count: u64,
    /// Databases created over the set's lifetime.
    create_count: u64,
}

/// Progress of an incremental checkpoint pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointProgress {
    /// Files written (atomically) by this pass.
    pub files_written: usize,
    /// Dirty databases still awaiting a write.
    pub remaining: usize,
    /// Whether the journal was truncated (all dirty state persisted).
    pub completed: bool,
}

/// Outcome of [`RrdSet::recover`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SetRecovery {
    /// Databases loaded from `.rrd` files.
    pub loaded: usize,
    /// Journal records replayed as new updates.
    pub replayed: u64,
    /// Journal records skipped as already applied.
    pub noops: u64,
    /// 1 if a torn journal tail was found and dropped.
    pub torn_tails: u64,
    /// Bytes discarded with the torn tail.
    pub torn_bytes: u64,
}

impl Default for RrdSet {
    fn default() -> Self {
        RrdSet::new()
    }
}

impl RrdSet {
    /// An in-memory set using Ganglia's default archive ladder.
    pub fn new() -> Self {
        RrdSet {
            databases: HashMap::new(),
            make_spec: Box::new(|key, start| ganglia_default_spec(key.metric.clone(), start)),
            root: None,
            journal: None,
            dirty: BTreeSet::new(),
            last_checkpoint_at: None,
            update_count: 0,
            create_count: 0,
        }
    }

    /// Use a custom spec factory (e.g. coarser archives in tests).
    pub fn with_spec_factory(
        factory: impl Fn(&MetricKey, u64) -> RrdSpec + Send + 'static,
    ) -> Self {
        RrdSet {
            make_spec: Box::new(factory),
            ..RrdSet::new()
        }
    }

    /// Persist databases under `root` on [`RrdSet::flush`].
    pub fn persist_to(mut self, root: impl Into<PathBuf>) -> Self {
        self.root = Some(root.into());
        self
    }

    /// Front the persistence root with a write-ahead journal at `path`,
    /// labelled with the owning shard's source name. With a journal
    /// attached, updates are made durable by [`RrdSet::commit_journal`]
    /// (group commit) and `.rrd` files are only rewritten by
    /// [`RrdSet::checkpoint`]. Requires a persistence root to be of any
    /// durable use.
    pub fn journal_to(mut self, path: impl Into<PathBuf>, label: impl Into<String>) -> Self {
        self.journal = Some(Journal::new(path, label));
        self
    }

    /// Whether a journal is attached.
    pub fn has_journal(&self) -> bool {
        self.journal.is_some()
    }

    /// Update (creating if necessary) the database for `key`.
    ///
    /// A `NAN` value records an explicitly unknown sample — the "zero
    /// record" gmetad keeps while a monitored host is down (§3.1).
    /// With a journal attached, every accepted update is also buffered
    /// as a journal record; it becomes durable at the next group
    /// commit.
    pub fn update(&mut self, key: &MetricKey, t: u64, value: f64) -> Result<(), RrdError> {
        self.apply_unjournaled(key, t, value)?;
        if let Some(journal) = &mut self.journal {
            journal.append(&JournalRecord {
                key: key.clone(),
                ts: t,
                value,
            });
        }
        Ok(())
    }

    /// Apply an update without journaling it — the replay path, and the
    /// shared core of [`RrdSet::update`]. Marks the database dirty.
    pub fn apply_unjournaled(
        &mut self,
        key: &MetricKey,
        t: u64,
        value: f64,
    ) -> Result<(), RrdError> {
        let rrd = match self.databases.get_mut(key) {
            Some(rrd) => rrd,
            None => {
                let spec = (self.make_spec)(key, t.saturating_sub(1));
                self.create_count += 1;
                self.databases
                    .entry(key.clone())
                    .or_insert(Rrd::create(spec)?)
            }
        };
        rrd.update(t, &[value])?;
        self.update_count += 1;
        self.dirty.insert(key.clone());
        Ok(())
    }

    /// Fetch history for `key`.
    pub fn fetch(
        &self,
        key: &MetricKey,
        cf: ConsolidationFn,
        start: u64,
        end: u64,
    ) -> Option<Result<Series, RrdError>> {
        self.databases
            .get(key)
            .map(|rrd| rrd.fetch(0, cf, start, end))
    }

    /// Direct access to one database.
    pub fn get(&self, key: &MetricKey) -> Option<&Rrd> {
        self.databases.get(key)
    }

    /// Number of databases in the set.
    pub fn len(&self) -> usize {
        self.databases.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.databases.is_empty()
    }

    /// Total updates applied across all databases.
    pub fn update_count(&self) -> u64 {
        self.update_count
    }

    /// Databases created over the set's lifetime.
    pub fn create_count(&self) -> u64 {
        self.create_count
    }

    /// Iterate over all keys.
    pub fn keys(&self) -> impl Iterator<Item = &MetricKey> {
        self.databases.keys()
    }

    /// Write every database to the persistence root, if one is set.
    /// Returns the number of files written.
    ///
    /// This is the legacy rewrite-everything path (and the baseline
    /// `repro archive` measures against); journaled sets persist
    /// through [`RrdSet::commit_journal`] + [`RrdSet::checkpoint`]
    /// instead.
    pub fn flush(&self) -> Result<usize, RrdError> {
        let Some(root) = &self.root else {
            return Ok(0);
        };
        for (key, rrd) in &self.databases {
            crate::file::save(rrd, &root.join(key.rel_path()))?;
        }
        Ok(self.databases.len())
    }

    /// Group-commit buffered journal records (one write + one fsync).
    /// Returns bytes made durable; `Ok(0)` when no journal is attached
    /// or nothing was pending.
    pub fn commit_journal(&mut self) -> Result<u64, RrdError> {
        match &mut self.journal {
            Some(journal) => journal.commit(),
            None => Ok(0),
        }
    }

    /// Journal accounting, if a journal is attached.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal.as_ref().map(|j| j.stats())
    }

    /// Bytes buffered in the journal awaiting the next commit.
    pub fn journal_pending_bytes(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.pending_bytes())
    }

    /// Logical time of the last completed checkpoint.
    pub fn last_checkpoint_at(&self) -> Option<u64> {
        self.last_checkpoint_at
    }

    /// Number of databases with updates not yet checkpointed to disk.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Checkpoint every dirty database to the persistence root, then
    /// truncate the journal. Returns the number of files written.
    pub fn checkpoint(&mut self, now: u64) -> Result<usize, RrdError> {
        let progress = self.checkpoint_partial(now, usize::MAX)?;
        Ok(progress.files_written)
    }

    /// Checkpoint at most `max_files` dirty databases (in key order),
    /// each via atomic write-temp → fsync → rename → fsync(dir). Only
    /// when *no* dirty databases remain is the journal truncated and
    /// the checkpoint time recorded — a crash mid-pass leaves the
    /// journal intact, so replay still reconstructs everything.
    pub fn checkpoint_partial(
        &mut self,
        now: u64,
        max_files: usize,
    ) -> Result<CheckpointProgress, RrdError> {
        let Some(root) = self.root.clone() else {
            return Ok(CheckpointProgress::default());
        };
        let batch: Vec<MetricKey> = self.dirty.iter().take(max_files).cloned().collect();
        let mut files_written = 0;
        for key in &batch {
            if let Some(rrd) = self.databases.get(key) {
                crate::file::save(rrd, &root.join(key.rel_path()))?;
                files_written += 1;
            }
            self.dirty.remove(key);
        }
        let completed = self.dirty.is_empty();
        if completed {
            if let Some(journal) = &mut self.journal {
                journal.truncate()?;
            }
            self.last_checkpoint_at = Some(now);
        }
        Ok(CheckpointProgress {
            files_written,
            remaining: self.dirty.len(),
            completed,
        })
    }

    /// Recover after a restart: load every `.rrd` file under the root,
    /// then scan this set's journal (repairing any torn tail) and
    /// replay its records idempotently. Pending journal content is kept
    /// until the next checkpoint truncates it.
    pub fn recover(&mut self) -> Result<SetRecovery, RrdError> {
        let mut outcome = SetRecovery {
            loaded: self.load_all()?,
            ..SetRecovery::default()
        };
        let Some(journal) = &mut self.journal else {
            return Ok(outcome);
        };
        let path = journal.path().to_path_buf();
        let scan = scan_and_repair(&path)?;
        journal.sync_durable_bytes()?;
        outcome.torn_tails = u64::from(scan.torn());
        outcome.torn_bytes = scan.torn_bytes;
        let stats: ReplayStats = replay(self, &scan.records);
        outcome.replayed = stats.applied;
        outcome.noops = stats.noops;
        Ok(outcome)
    }

    /// Re-read the journal file length from disk (after an external
    /// scan/repair touched the file behind this set's back).
    pub fn sync_journal(&mut self) -> Result<(), RrdError> {
        match &mut self.journal {
            Some(journal) => journal.sync_durable_bytes(),
            None => Ok(()),
        }
    }

    /// Delete the journal file (shard removal / retirement).
    pub fn discard_journal(&mut self) -> Result<(), RrdError> {
        match &mut self.journal {
            Some(journal) => journal.remove(),
            None => Ok(()),
        }
    }

    /// Load every `.rrd` file under the persistence root.
    pub fn load_all(&mut self) -> Result<usize, RrdError> {
        let Some(root) = self.root.clone() else {
            return Ok(0);
        };
        let mut loaded = 0;
        for source_entry in read_dir_or_empty(&root)? {
            let source_dir = source_entry?;
            if !source_dir.file_type()?.is_dir() {
                continue;
            }
            // Dot-directories (e.g. the `.journal/` spool) are not
            // source directories.
            if source_dir.file_name().to_string_lossy().starts_with('.') {
                continue;
            }
            loaded += self.load_source_dir(&source_dir.path())?;
        }
        Ok(loaded)
    }

    /// Load one source directory (`<root>/<source>/<host>/<metric>.rrd`)
    /// into the set, keying entries by the on-disk directory and file
    /// names. Returns the number of databases loaded.
    pub fn load_source_dir(&mut self, dir: &Path) -> Result<usize, RrdError> {
        let source: String = match dir.file_name() {
            Some(name) => name.to_string_lossy().into_owned(),
            None => return Ok(0),
        };
        let mut loaded = 0;
        for host_entry in read_dir_or_empty(dir)? {
            let host_dir = host_entry?;
            if !host_dir.file_type()?.is_dir() {
                continue;
            }
            for file_entry in std::fs::read_dir(host_dir.path())? {
                let file = file_entry?;
                let path = file.path();
                if path.extension().and_then(|e| e.to_str()) != Some("rrd") {
                    continue;
                }
                let rrd = crate::file::load(&path)?;
                let key = MetricKey {
                    source: source.clone(),
                    host: host_dir.file_name().to_string_lossy().into_owned(),
                    metric: path
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_default(),
                };
                self.databases.insert(key, rrd);
                loaded += 1;
            }
        }
        Ok(loaded)
    }
}

fn read_dir_or_empty(
    path: &std::path::Path,
) -> Result<Box<dyn Iterator<Item = std::io::Result<std::fs::DirEntry>>>, RrdError> {
    match std::fs::read_dir(path) {
        Ok(iter) => Ok(Box::new(iter)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Box::new(std::iter::empty())),
        Err(e) => Err(e.into()),
    }
}

impl std::fmt::Debug for RrdSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RrdSet")
            .field("databases", &self.databases.len())
            .field("updates", &self.update_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_databases_on_first_update() {
        let mut set = RrdSet::new();
        let key = MetricKey::host_metric("meteor", "compute-0-0", "load_one");
        set.update(&key, 15, 0.5).unwrap();
        set.update(&key, 30, 0.7).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.update_count(), 2);
        assert_eq!(set.create_count(), 1);
        let series = set
            .fetch(&key, ConsolidationFn::Average, 0, 30)
            .unwrap()
            .unwrap();
        assert!(series.known_count() > 0);
    }

    #[test]
    fn summary_keys_are_distinct_from_host_keys() {
        let mut set = RrdSet::new();
        let host = MetricKey::host_metric("meteor", "n0", "load_one");
        let summary = MetricKey::summary_metric("meteor", "load_one");
        assert!(summary.is_summary());
        assert!(!host.is_summary());
        set.update(&host, 15, 1.0).unwrap();
        set.update(&summary, 15, 10.0).unwrap();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn unknown_samples_record_downtime() {
        let mut set = RrdSet::new();
        let key = MetricKey::host_metric("c", "h", "m");
        set.update(&key, 15, 1.0).unwrap();
        set.update(&key, 30, f64::NAN).unwrap();
        set.update(&key, 45, 1.0).unwrap();
        let series = set
            .fetch(&key, ConsolidationFn::Average, 0, 45)
            .unwrap()
            .unwrap();
        assert!(series.values[1].is_nan());
    }

    #[test]
    fn fetch_missing_key_is_none() {
        let set = RrdSet::new();
        assert!(set
            .fetch(
                &MetricKey::host_metric("x", "y", "z"),
                ConsolidationFn::Average,
                0,
                100
            )
            .is_none());
    }

    #[test]
    fn rel_path_sanitizes() {
        let key = MetricKey::host_metric("my cluster", "host/0", "load:one");
        let path = key.rel_path();
        let s = path.to_string_lossy();
        assert!(!s.contains(' '));
        assert!(s.ends_with("load_one.rrd"));
        assert_eq!(path.components().count(), 3);
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ganglia-rrdset-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut set = RrdSet::new().persist_to(&dir);
        let key = MetricKey::host_metric("meteor", "n0", "load_one");
        set.update(&key, 15, 0.5).unwrap();
        assert_eq!(set.flush().unwrap(), 1);

        let mut restored = RrdSet::new().persist_to(&dir);
        assert_eq!(restored.load_all().unwrap(), 1);
        assert!(restored.get(&key).is_some());
        // Continues updating after reload.
        restored.update(&key, 30, 0.9).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_all_without_root_is_noop() {
        let mut set = RrdSet::new();
        assert_eq!(set.load_all().unwrap(), 0);
        assert_eq!(set.flush().unwrap(), 0);
    }

    fn journaled_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ganglia-rrdset-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn journaled_set(dir: &std::path::Path) -> RrdSet {
        RrdSet::new()
            .persist_to(dir)
            .journal_to(dir.join(".journal").join("meteor.wal"), "meteor")
    }

    #[test]
    fn journaled_updates_survive_restart_without_checkpoint() {
        let dir = journaled_dir("nockpt");
        let key = MetricKey::host_metric("meteor", "n0", "load_one");
        let mut set = journaled_set(&dir);
        set.update(&key, 15, 0.5).unwrap();
        set.update(&key, 30, 0.7).unwrap();
        assert!(set.journal_pending_bytes() > 0);
        set.commit_journal().unwrap();
        assert_eq!(set.journal_pending_bytes(), 0);
        drop(set); // crash before any checkpoint: no .rrd files exist

        let mut restored = journaled_set(&dir);
        let outcome = restored.recover().unwrap();
        assert_eq!(outcome.loaded, 0);
        assert_eq!(outcome.replayed, 2);
        assert_eq!(outcome.torn_tails, 0);
        let series = restored
            .fetch(&key, ConsolidationFn::Average, 0, 30)
            .unwrap()
            .unwrap();
        assert!(series.known_count() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_journal_and_replay_is_idempotent() {
        let dir = journaled_dir("ckpt");
        let key = MetricKey::host_metric("meteor", "n0", "load_one");
        let mut set = journaled_set(&dir);
        set.update(&key, 15, 1.0).unwrap();
        set.commit_journal().unwrap();
        assert_eq!(set.dirty_count(), 1);
        assert_eq!(set.checkpoint(20).unwrap(), 1);
        assert_eq!(set.dirty_count(), 0);
        assert_eq!(set.last_checkpoint_at(), Some(20));
        // Post-checkpoint update, committed but not checkpointed.
        set.update(&key, 30, 2.0).unwrap();
        set.commit_journal().unwrap();
        let expect = set
            .fetch(&key, ConsolidationFn::Average, 0, 30)
            .unwrap()
            .unwrap();
        drop(set);

        let mut restored = journaled_set(&dir);
        let outcome = restored.recover().unwrap();
        assert_eq!(outcome.loaded, 1); // checkpointed file
        assert_eq!(outcome.replayed, 1); // only the post-checkpoint update
        let got = restored
            .fetch(&key, ConsolidationFn::Average, 0, 30)
            .unwrap()
            .unwrap();
        assert_eq!(expect.start, got.start);
        for (a, b) in expect.values.iter().zip(&got.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_checkpoint_keeps_journal_until_complete() {
        let dir = journaled_dir("partial");
        let mut set = journaled_set(&dir);
        for i in 0..4u32 {
            let key = MetricKey::host_metric("meteor", format!("n{i}"), "load_one");
            set.update(&key, 15, f64::from(i)).unwrap();
        }
        set.commit_journal().unwrap();
        let journal_len = set.journal_stats().unwrap().durable_bytes;
        let progress = set.checkpoint_partial(20, 2).unwrap();
        assert_eq!(progress.files_written, 2);
        assert_eq!(progress.remaining, 2);
        assert!(!progress.completed);
        // Journal untouched: a crash here must still be able to replay.
        assert_eq!(set.journal_stats().unwrap().durable_bytes, journal_len);
        assert_eq!(set.last_checkpoint_at(), None);
        let progress = set.checkpoint_partial(21, usize::MAX).unwrap();
        assert!(progress.completed);
        assert!(set.journal_stats().unwrap().durable_bytes < journal_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
