//! Metric archiving policy.
//!
//! What gets archived is *the* difference between the two designs
//! (paper §4.3): the 1-level monitor keeps full per-host archives for
//! every cluster in its subtree ("every monitor between a cluster and
//! the root will keep identical metric archives for that cluster",
//! §2.1), while the N-level monitor keeps full archives only for its
//! local clusters and "only summary archives of descendants".
//!
//! During downtime the archiver records explicitly-unknown samples — the
//! "zero record" that aids "time-of-death forensic analysis" (§3.1).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use ganglia_metrics::model::{ClusterBody, ClusterNode, GridBody, GridItem, GridNode, SummaryBody};
use ganglia_rrd::{
    journal_file_name, scan_and_repair, ConsolidationFn, JournalStats, KeyRef, MetricKey, RrdError,
    RrdSet, Series,
};
use parking_lot::{Mutex, RwLock};

use crate::config::TreeMode;
use crate::store::{SourceData, SourceState};

/// Shared factory for the RRD spec of newly created archives.
pub type ArchiveSpecFactory = Arc<dyn Fn(&MetricKey, u64) -> ganglia_rrd::RrdSpec + Send + Sync>;

/// Per-source archive storage: one independently-locked [`RrdSet`] per
/// data source, so parallel poll workers archive concurrently instead
/// of contending on one global archiver lock.
///
/// All shards share one persistence root — an `RrdSet` writes one file
/// per metric key under source-derived relative paths, so the on-disk
/// layout is byte-identical to the old single-set archiver and existing
/// directories reload fine.
pub struct ArchiveShards {
    shards: RwLock<HashMap<String, Arc<Mutex<RrdSet>>>>,
    spec: Option<ArchiveSpecFactory>,
    persist_dir: Option<PathBuf>,
    /// Front each shard with a write-ahead journal under
    /// `<persist_dir>/.journal/` (requires a persistence root).
    journal: bool,
}

/// Journal/durability status of one shard, for operator tooling.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardJournal {
    /// Journal accounting (durable/pending bytes, commits).
    pub stats: JournalStats,
    /// Logical time of the shard's last completed checkpoint.
    pub last_checkpoint_at: Option<u64>,
    /// Databases updated since their last checkpoint write.
    pub dirty: usize,
}

/// Aggregate outcome of [`ArchiveShards::recover`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ArchiveRecovery {
    /// Shards present after recovery.
    pub shards: usize,
    /// Databases loaded from checkpointed `.rrd` files.
    pub loaded: usize,
    /// Journal records replayed as new updates.
    pub replayed: u64,
    /// Journal records already reflected in checkpointed state.
    pub noops: u64,
    /// Journals whose torn tail was dropped (0 or 1 each).
    pub torn_tails: u64,
    /// Bytes discarded with torn tails.
    pub torn_bytes: u64,
    /// Records that failed to replay for any other reason.
    pub errors: u64,
}

/// Aggregate progress of an incremental checkpoint pass over shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointTotals {
    /// RRD files written (each atomically) by this pass.
    pub files_written: usize,
    /// Dirty databases still awaiting a write across all shards.
    pub remaining: usize,
}

impl ArchiveShards {
    /// Empty shard map; `spec` customizes new archives (experiments use
    /// compact ones), `persist_dir` is the shared flush root.
    pub fn new(spec: Option<ArchiveSpecFactory>, persist_dir: Option<PathBuf>) -> ArchiveShards {
        ArchiveShards {
            shards: RwLock::new(HashMap::new()),
            spec,
            persist_dir,
            journal: false,
        }
    }

    /// Enable (or disable) journaled persistence for shards created
    /// after this call. No effect without a persistence root.
    pub fn with_journal(mut self, journal: bool) -> ArchiveShards {
        self.journal = journal && self.persist_dir.is_some();
        self
    }

    /// Whether shards journal their updates.
    pub fn journal_enabled(&self) -> bool {
        self.journal
    }

    /// The `.journal/` spool directory, when journaling is on.
    pub fn journal_dir(&self) -> Option<PathBuf> {
        if !self.journal {
            return None;
        }
        self.persist_dir.as_ref().map(|dir| dir.join(".journal"))
    }

    fn build_set(&self, source: &str) -> RrdSet {
        let mut set = match &self.spec {
            Some(factory) => {
                let factory = Arc::clone(factory);
                RrdSet::with_spec_factory(move |key, start| factory(key, start))
            }
            None => RrdSet::new(),
        };
        if let Some(dir) = &self.persist_dir {
            set = set.persist_to(dir.clone());
            if self.journal {
                set = set.journal_to(dir.join(".journal").join(journal_file_name(source)), source);
            }
        }
        set
    }

    /// The shard for `source`, created on first use.
    pub fn shard(&self, source: &str) -> Arc<Mutex<RrdSet>> {
        if let Some(shard) = self.shards.read().get(source) {
            return Arc::clone(shard);
        }
        let mut shards = self.shards.write();
        let shard = shards
            .entry(source.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(self.build_set(source))));
        Arc::clone(shard)
    }

    /// The shard for `source`, if it exists.
    pub fn get(&self, source: &str) -> Option<Arc<Mutex<RrdSet>>> {
        self.shards.read().get(source).map(Arc::clone)
    }

    /// Drop `source`'s shard (expired or removed source), deleting its
    /// journal file with it. Returns the number of archives dropped.
    pub fn remove(&self, source: &str) -> usize {
        match self.shards.write().remove(source) {
            Some(shard) => {
                let mut set = shard.lock();
                let _ = set.discard_journal();
                set.len()
            }
            None => 0,
        }
    }

    /// The shard holding `key`, resolved by the key's source path:
    /// exact match first, then successively shorter `/`-prefixes (a
    /// 1-level monitor archives `ucsd/physics` keys in the `ucsd`
    /// shard).
    pub fn route(&self, key: &MetricKey) -> Option<Arc<Mutex<RrdSet>>> {
        let shards = self.shards.read();
        let mut candidate = key.source.as_str();
        loop {
            if let Some(shard) = shards.get(candidate) {
                return Some(Arc::clone(shard));
            }
            match candidate.rfind('/') {
                Some(cut) => candidate = &candidate[..cut],
                None => return None,
            }
        }
    }

    /// Fetch archived history for one metric, routing by source.
    pub fn fetch(
        &self,
        key: &MetricKey,
        cf: ConsolidationFn,
        start: u64,
        end: u64,
    ) -> Option<Series> {
        self.route(key)?.lock().fetch(key, cf, start, end)?.ok()
    }

    /// Total archives across every shard.
    pub fn archive_count(&self) -> usize {
        self.shards
            .read()
            .values()
            .map(|shard| shard.lock().len())
            .sum()
    }

    /// Total RRD updates across every shard.
    pub fn update_count(&self) -> u64 {
        self.shards
            .read()
            .values()
            .map(|shard| shard.lock().update_count())
            .sum()
    }

    /// Flush every shard to the shared persistence root.
    pub fn flush(&self) -> Result<usize, RrdError> {
        let shards: Vec<Arc<Mutex<RrdSet>>> = self.shards.read().values().map(Arc::clone).collect();
        let mut flushed = 0;
        for shard in shards {
            flushed += shard.lock().flush()?;
        }
        Ok(flushed)
    }

    /// Shards sorted by source name, for deterministic sweeps.
    fn sorted_shards(&self) -> Vec<(String, Arc<Mutex<RrdSet>>)> {
        let mut shards: Vec<(String, Arc<Mutex<RrdSet>>)> = self
            .shards
            .read()
            .iter()
            .map(|(name, shard)| (name.clone(), Arc::clone(shard)))
            .collect();
        shards.sort_by(|a, b| a.0.cmp(&b.0));
        shards
    }

    /// Group-commit every shard's pending journal records. Returns the
    /// total bytes made durable.
    pub fn commit_journals(&self) -> Result<u64, RrdError> {
        let mut bytes = 0;
        for (_, shard) in self.sorted_shards() {
            bytes += shard.lock().commit_journal()?;
        }
        Ok(bytes)
    }

    /// Checkpoint every shard: write all dirty databases atomically,
    /// then truncate each journal. Returns RRD files written.
    pub fn checkpoint(&self, now: u64) -> Result<usize, RrdError> {
        let totals = self.checkpoint_partial(now, usize::MAX)?;
        Ok(totals.files_written)
    }

    /// Checkpoint at most `max_files` dirty databases across shards (in
    /// shard-name then key order). A pass that does not finish a shard
    /// leaves that shard's journal untouched — crash-safe by
    /// construction, and also the fault-injection point the crash sim
    /// uses to model dying mid-checkpoint.
    pub fn checkpoint_partial(
        &self,
        now: u64,
        max_files: usize,
    ) -> Result<CheckpointTotals, RrdError> {
        let mut totals = CheckpointTotals::default();
        let mut budget = max_files;
        for (_, shard) in self.sorted_shards() {
            let mut set = shard.lock();
            if budget > 0 {
                let progress = set.checkpoint_partial(now, budget)?;
                totals.files_written += progress.files_written;
                budget -= progress.files_written.min(budget);
            }
            totals.remaining += set.dirty_count();
        }
        Ok(totals)
    }

    /// Journal status for one shard, if it exists and journals.
    pub fn shard_journal(&self, source: &str) -> Option<ShardJournal> {
        let shard = self.get(source)?;
        let set = shard.lock();
        Some(ShardJournal {
            stats: set.journal_stats()?,
            last_checkpoint_at: set.last_checkpoint_at(),
            dirty: set.dirty_count(),
        })
    }

    /// Aggregate journal accounting across every shard.
    pub fn journal_totals(&self) -> JournalStats {
        let mut totals = JournalStats::default();
        for shard in self.shards.read().values() {
            if let Some(stats) = shard.lock().journal_stats() {
                totals.durable_bytes += stats.durable_bytes;
                totals.pending_bytes += stats.pending_bytes;
                totals.pending_records += stats.pending_records;
                totals.commits += stats.commits;
            }
        }
        totals
    }

    /// Every archived key across every shard.
    pub fn keys(&self) -> Vec<MetricKey> {
        let mut keys = Vec::new();
        for shard in self.shards.read().values() {
            keys.extend(shard.lock().keys().cloned());
        }
        keys.sort();
        keys
    }

    /// Rebuild in-memory state from disk after a restart: load every
    /// checkpointed `.rrd` file, then scan each shard journal (dropping
    /// any torn tail at the first bad CRC) and replay the surviving
    /// records idempotently on top.
    ///
    /// Shards are resurrected from journal headers — each `.wal` file
    /// names its source — so even a shard that crashed before its first
    /// checkpoint comes back. Checkpointed directories are mapped back
    /// to shards by sanitized-name match, with nested (`a/b`) sources
    /// folding into their owning shard.
    pub fn recover(&self) -> Result<ArchiveRecovery, RrdError> {
        let mut report = ArchiveRecovery::default();
        let Some(root) = self.persist_dir.clone() else {
            return Ok(report);
        };

        // 1. Scan journals first: headers name the shards that existed.
        let mut scans: Vec<(String, ganglia_rrd::JournalScan)> = Vec::new();
        if self.journal {
            let journal_dir = root.join(".journal");
            let entries = match std::fs::read_dir(&journal_dir) {
                Ok(entries) => Some(entries),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) => return Err(e.into()),
            };
            for entry in entries.into_iter().flatten() {
                let path = entry?.path();
                if path.extension().and_then(|e| e.to_str()) != Some("wal") {
                    continue;
                }
                let scan = scan_and_repair(&path)?;
                report.torn_tails += u64::from(scan.torn());
                report.torn_bytes += scan.torn_bytes;
                match &scan.label {
                    Some(label) => {
                        let label = label.clone();
                        self.shard(&label); // resurrect the shard
                        scans.push((label, scan));
                    }
                    None => {
                        // Header unreadable: nothing attributable to
                        // replay. The file stays for manual forensics.
                    }
                }
            }
        }

        // 2. Load checkpointed files, routing each source directory to
        // the shard that owns it.
        let entries = match std::fs::read_dir(&root) {
            Ok(entries) => Some(entries),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        for entry in entries.into_iter().flatten() {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let dir_name = entry.file_name().to_string_lossy().into_owned();
            if dir_name.starts_with('.') {
                continue; // the journal spool, not a source
            }
            let owner = self.owning_shard_label(&dir_name);
            let shard = self.shard(&owner);
            report.loaded += shard.lock().load_source_dir(&entry.path())?;
        }

        // 3. Replay journals on top of the checkpointed baseline.
        for (label, scan) in scans {
            let shard = self.shard(&label);
            let mut set = shard.lock();
            let stats = ganglia_rrd::replay(&mut set, &scan.records);
            set.sync_journal()?;
            report.replayed += stats.applied;
            report.noops += stats.noops;
            report.errors += stats.errors;
        }
        report.shards = self.shards.read().len();
        Ok(report)
    }

    /// Which shard owns the on-disk source directory `dir_name`: the
    /// shard whose sanitized label matches exactly, else (for 1-level
    /// nested sources like `ucsd/phys` → `ucsd_phys`) the longest shard
    /// whose sanitized label is a `_`-joined prefix, else a new shard
    /// named after the directory itself.
    fn owning_shard_label(&self, dir_name: &str) -> String {
        let shards = self.shards.read();
        let mut best: Option<&String> = None;
        for label in shards.keys() {
            let sanitized = ganglia_rrd::sanitize(label);
            if sanitized == dir_name {
                return label.clone();
            }
            if dir_name.starts_with(&format!("{sanitized}_"))
                && best.is_none_or(|b| label.len() > b.len())
            {
                best = Some(label);
            }
        }
        best.cloned().unwrap_or_else(|| dir_name.to_string())
    }
}

/// What one archiving pass did to a shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Archived {
    /// RRD updates applied.
    pub updates: u64,
    /// Updates a database rejected: the sample was at or before its
    /// last update (a clock stepped back, or a poll at the logical time
    /// of a replayed journal record).
    pub rejected: u64,
}

/// One archiving pass over a shard at logical time `now`.
struct Pass<'a> {
    set: &'a mut RrdSet,
    now: u64,
    archived: Archived,
}

impl<'a> Pass<'a> {
    fn new(set: &'a mut RrdSet, now: u64) -> Self {
        Pass {
            set,
            now,
            archived: Archived::default(),
        }
    }

    fn update(&mut self, key: KeyRef<'_>, value: f64) {
        match self.set.update(key, self.now, value) {
            Ok(()) => self.archived.updates += 1,
            Err(_) => self.archived.rejected += 1,
        }
    }

    fn grid(&mut self, prefix: &str, grid: &GridNode) {
        match &grid.body {
            GridBody::Summary(summary) => self.summary(prefix, summary),
            GridBody::Items(items) => {
                self.summary(prefix, &grid.summary());
                for item in items {
                    let path = format!("{prefix}/{}", item.name());
                    match item {
                        GridItem::Cluster(cluster) => {
                            self.cluster(&path, cluster, &cluster.summary())
                        }
                        GridItem::Grid(inner) => self.grid(&path, inner),
                    }
                }
            }
        }
    }

    fn cluster(&mut self, source: &str, cluster: &ClusterNode, summary: &SummaryBody) {
        if let ClusterBody::Hosts(hosts) = &cluster.body {
            for host in hosts {
                for metric in &host.metrics {
                    let Some(value) = metric.value.as_f64() else {
                        continue; // non-numeric metrics have no history
                    };
                    let key = KeyRef::host_metric(source, host.name.as_str(), metric.name.as_str());
                    // A down host gets unknown samples: its last-known values
                    // must not masquerade as fresh history.
                    self.update(key, if host.is_up() { value } else { f64::NAN });
                }
            }
        }
        self.summary(source, summary);
    }

    fn summary(&mut self, source: &str, summary: &SummaryBody) {
        for metric in &summary.metrics {
            let key = KeyRef::summary_metric(source, metric.name.as_str());
            self.update(key, metric.sum);
        }
    }
}

/// Archive one freshly-parsed source snapshot.
pub fn archive_source(set: &mut RrdSet, state: &SourceState, mode: TreeMode, now: u64) -> Archived {
    let mut pass = Pass::new(set, now);
    match &state.data {
        SourceData::Cluster(cluster) => pass.cluster(&state.name, cluster, &state.summary),
        SourceData::Grid(grid) => match mode {
            // Secondary interest only: the authority keeps the detail.
            TreeMode::NLevel => pass.summary(&state.name, &state.summary),
            TreeMode::OneLevel => pass.grid(&state.name, grid),
        },
    }
    pass.archived
}

/// Record explicitly-unknown samples for every archive under `source`
/// (including 1-level nested paths `source/...`). Called while a source
/// is unreachable so its downtime is visible in the history.
pub fn write_unknowns(set: &mut RrdSet, source: &str, now: u64) -> Archived {
    let nested_prefix = format!("{source}/");
    let keys: Vec<MetricKey> = set
        .keys()
        .filter(|k| k.source == source || k.source.starts_with(&nested_prefix))
        .cloned()
        .collect();
    let mut pass = Pass::new(set, now);
    for key in &keys {
        pass.update(key.view(), f64::NAN);
    }
    pass.archived
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SourceState;
    use ganglia_metrics::model::{HostNode, MetricEntry};
    use ganglia_metrics::MetricValue;
    use ganglia_rrd::ConsolidationFn;

    fn cluster_with(hosts: usize) -> ClusterNode {
        let hosts: Vec<HostNode> = (0..hosts)
            .map(|i| {
                let mut h = HostNode::new(format!("n{i}"), "10.0.0.1");
                h.metrics
                    .push(MetricEntry::new("load_one", MetricValue::Double(1.0)));
                h.metrics.push(MetricEntry::new(
                    "os_name",
                    MetricValue::String("Linux".into()),
                ));
                h
            })
            .collect();
        ClusterNode::with_hosts("meteor", hosts)
    }

    fn state_of(cluster: ClusterNode, now: u64) -> SourceState {
        let summary = cluster.summary();
        SourceState::cluster("meteor", cluster, summary, now)
    }

    #[test]
    fn cluster_archives_hosts_and_summary_not_strings() {
        let mut set = RrdSet::new();
        let state = state_of(cluster_with(3), 15);
        let updates = archive_source(&mut set, &state, TreeMode::NLevel, 15).updates;
        // 3 hosts × 1 numeric metric + 1 summary metric.
        assert_eq!(updates, 4);
        assert!(set
            .get(&MetricKey::host_metric("meteor", "n0", "load_one"))
            .is_some());
        assert!(set
            .get(&MetricKey::host_metric("meteor", "n0", "os_name"))
            .is_none());
        assert!(set
            .get(&MetricKey::summary_metric("meteor", "load_one"))
            .is_some());
    }

    #[test]
    fn nlevel_grid_archives_summaries_only() {
        let mut set = RrdSet::new();
        let grid = GridNode {
            name: "attic".into(),
            authority: String::new(),
            localtime: None,
            body: GridBody::Summary(SummaryBody {
                hosts_up: 10,
                hosts_down: 0,
                metrics: vec![ganglia_metrics::MetricSummary {
                    name: "load_one".into(),
                    sum: 17.56,
                    num: 10,
                    ty: ganglia_metrics::MetricType::Float,
                    units: Default::default(),
                    slope: ganglia_metrics::Slope::Both,
                    source: "gmond".into(),
                }],
            }),
        };
        let summary = grid.summary();
        let state = SourceState::grid("attic", grid, summary, 15);
        let updates = archive_source(&mut set, &state, TreeMode::NLevel, 15).updates;
        assert_eq!(updates, 1);
        assert_eq!(set.len(), 1);
        assert!(set.keys().all(|k| k.is_summary()));
    }

    #[test]
    fn onelevel_grid_archives_every_nested_host() {
        let mut set = RrdSet::new();
        // A grid holding two clusters of 2 hosts each, fully expanded.
        let grid = GridNode::with_items(
            "ucsd",
            vec![
                GridItem::Cluster({
                    let mut c = cluster_with(2);
                    c.name = "physics-cluster".into();
                    c
                }),
                GridItem::Cluster({
                    let mut c = cluster_with(2);
                    c.name = "math-cluster".into();
                    c
                }),
            ],
        );
        let summary = grid.summary();
        let state = SourceState::grid("ucsd", grid, summary, 15);
        let updates = archive_source(&mut set, &state, TreeMode::OneLevel, 15).updates;
        // 4 host metrics + 2 cluster summaries + 1 grid summary.
        assert_eq!(updates, 7);
        assert!(set
            .get(&MetricKey::host_metric(
                "ucsd/physics-cluster",
                "n0",
                "load_one"
            ))
            .is_some());
        assert!(set
            .get(&MetricKey::summary_metric("ucsd", "load_one"))
            .is_some());
    }

    #[test]
    fn down_hosts_get_unknown_samples() {
        let mut set = RrdSet::new();
        let mut cluster = cluster_with(2);
        if let ClusterBody::Hosts(hosts) = &mut cluster.body {
            std::sync::Arc::make_mut(&mut hosts[0]).tn = 10_000; // down
        }
        let state = state_of(cluster, 15);
        archive_source(&mut set, &state, TreeMode::NLevel, 15);
        // Advance and archive again so a PDP completes.
        let state2 = SourceState {
            updated_at: 30,
            ..state.clone()
        };
        archive_source(&mut set, &state2, TreeMode::NLevel, 30);
        let down = set
            .fetch(
                &MetricKey::host_metric("meteor", "n0", "load_one"),
                ConsolidationFn::Average,
                0,
                30,
            )
            .unwrap()
            .unwrap();
        assert_eq!(down.known_count(), 0, "down host history is unknown");
        let up = set
            .fetch(
                &MetricKey::host_metric("meteor", "n1", "load_one"),
                ConsolidationFn::Average,
                0,
                30,
            )
            .unwrap()
            .unwrap();
        assert!(up.known_count() > 0);
    }

    #[test]
    fn shards_route_by_source_and_nested_prefix() {
        let shards = ArchiveShards::new(None, None);
        shards
            .shard("ucsd")
            .lock()
            .update(KeyRef::host_metric("ucsd/phys", "n0", "m"), 15, 1.0)
            .unwrap();
        shards
            .shard("meteor")
            .lock()
            .update(KeyRef::summary_metric("meteor", "m"), 15, 2.0)
            .unwrap();
        // Exact source match.
        assert!(shards
            .route(&MetricKey::summary_metric("meteor", "m"))
            .is_some());
        // Nested 1-level path falls back to the owning source's shard.
        let routed = shards
            .route(&MetricKey::host_metric("ucsd/phys", "n0", "m"))
            .expect("prefix route");
        assert_eq!(routed.lock().len(), 1);
        assert!(shards
            .fetch(
                &MetricKey::host_metric("ucsd/phys", "n0", "m"),
                ConsolidationFn::Average,
                0,
                30
            )
            .is_some());
        assert!(shards
            .route(&MetricKey::summary_metric("ghost", "m"))
            .is_none());
        assert_eq!(shards.archive_count(), 2);
        assert_eq!(shards.update_count(), 2);
        // Dropping a shard drops its archives from the totals.
        assert_eq!(shards.remove("ucsd"), 1);
        assert_eq!(shards.remove("ucsd"), 0);
        assert_eq!(shards.archive_count(), 1);
    }

    #[test]
    fn shards_share_one_persistence_root() {
        let dir = std::env::temp_dir().join(format!("shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shards = ArchiveShards::new(None, Some(dir.clone()));
        shards
            .shard("meteor")
            .lock()
            .update(KeyRef::host_metric("meteor", "n0", "load_one"), 15, 1.0)
            .unwrap();
        shards
            .shard("sdsc")
            .lock()
            .update(KeyRef::summary_metric("sdsc", "load_one"), 15, 2.0)
            .unwrap();
        assert_eq!(shards.flush().unwrap(), 2);
        // One directory tree, same layout a single RrdSet would write.
        let mut restored = RrdSet::new().persist_to(&dir);
        assert_eq!(restored.load_all().unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_unknowns_covers_nested_paths() {
        let mut set = RrdSet::new();
        set.update(KeyRef::host_metric("ucsd/phys", "n0", "m"), 15, 1.0)
            .unwrap();
        set.update(KeyRef::summary_metric("ucsd", "m"), 15, 1.0)
            .unwrap();
        set.update(KeyRef::host_metric("other", "n0", "m"), 15, 1.0)
            .unwrap();
        let written = write_unknowns(&mut set, "ucsd", 30);
        assert_eq!(written.updates, 2, "both ucsd archives, not `other`");
        // `ucsdX` must not match the `ucsd` prefix.
        set.update(KeyRef::host_metric("ucsdX", "n0", "m"), 15, 1.0)
            .unwrap();
        assert_eq!(write_unknowns(&mut set, "ucsd", 45).updates, 2);
        // A second pass at the same time is rejected, and counted.
        let again = write_unknowns(&mut set, "ucsd", 45);
        assert_eq!(
            again,
            Archived {
                updates: 0,
                rejected: 2
            }
        );
    }
}
