//! The in-memory monitoring-data store.
//!
//! "By organizing the parsed monitoring data in a series of hash tables,
//! we can support very low-latency queries. Our approach approximates a
//! DOM design where each XML tag name keys into a hash table... A node
//! must search at most three hash table levels to find the desired
//! subtree: data sources, summaries and cluster nodes, and node metrics."
//! (paper §3.3.2)
//!
//! Concretely: level one is the source map below; level two is a
//! cluster's host index (or a grid's stored summary); level three is a
//! host's metric list. Each source's state is an immutable snapshot
//! behind an `Arc`: the poller builds a fresh snapshot off to the side
//! and swaps the pointer, so "if a query arrives during parsing, the
//! previous summary will be returned" (§3.3.1) — queries always see the
//! latest *fully-parsed* data, never a half-built one.
//!
//! # Incremental summaries
//!
//! At federation scale (hundreds of grids, ~100k hosts) re-merging
//! **every** source's summary on every revision bump made
//! `root_summary()` O(sources × metrics) per poll round even when one
//! host changed. The store therefore keeps a merged [`SummaryBody`] of
//! all its sources next to the source map, under the same `RwLock`, and
//! maintains it *incrementally*: a mutation applies the
//! [`SummaryDelta`] between the source's old and new contribution
//! instead of re-merging. An uncached root summary copies that one
//! summary — O(metrics), not O(sources).
//!
//! Because `sum − old + new` can drift from a from-scratch merge by
//! float rounding, the store re-merges from scratch once per
//! `rebuild_rounds` deltas (the anti-drift rebuild); see DESIGN.md §18
//! for the invariants and for why one lock beat lock sharding.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use ganglia_metrics::delta::SummaryDelta;
use ganglia_metrics::model::{ClusterBody, ClusterNode, GridNode, HostNode, SummaryBody};
use ganglia_metrics::Atom;

use crate::health::LifecyclePolicy;

/// Freshness of a source's snapshot: the staleness lifecycle
/// `Fresh → Stale → Down` (and finally expiry, which removes the
/// snapshot from the store altogether).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// The last poll succeeded.
    Fresh,
    /// Polls have been failing since the given time; the snapshot is the
    /// last good one ("metric histories that aid in forensic analysis",
    /// paper §1).
    Stale { since: u64 },
    /// No good poll for longer than the lifecycle's down threshold (the
    /// wide-area DMAX): the source's hosts are reported as down up the
    /// tree. `since` is when the down transition happened.
    Down { since: u64 },
}

impl fmt::Display for SourceStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceStatus::Fresh => write!(f, "fresh"),
            SourceStatus::Stale { since } => write!(f, "stale(since={since})"),
            SourceStatus::Down { since } => write!(f, "down(since={since})"),
        }
    }
}

/// What [`Store::degrade`] did to a failing source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// Recent failure: snapshot kept and served, flagged stale.
    Stale,
    /// Past the down threshold: summary rewritten so every host counts
    /// as `hosts_down`, which propagates up the tree additively.
    Down,
    /// Past the expiry threshold: snapshot pruned from the store.
    Expired,
    /// The source had no snapshot to degrade (never polled, or already
    /// expired).
    Unknown,
}

/// Parsed payload of one data source.
#[derive(Debug, Clone)]
pub enum SourceData {
    /// A directly-attached cluster (this gmetad is its authority).
    Cluster(ClusterNode),
    /// A remote grid: summary-form under the N-level design, fully
    /// expanded under the 1-level design.
    Grid(GridNode),
}

/// An immutable snapshot of one source.
#[derive(Debug, Clone)]
pub struct SourceState {
    /// Configured source name (level-one hash key).
    pub name: String,
    pub data: SourceData,
    /// Precomputed rollup (computed on the summarization time-scale, not
    /// at query time — §3.3.1). Behind an `Arc` so the delta-aware ingest
    /// path can install a reused summary without copying it.
    pub summary: Arc<SummaryBody>,
    /// Level-two hash index: host name → index into the cluster's host
    /// vector. Empty for grid sources.
    pub host_index: HashMap<Atom, usize>,
    /// When this snapshot was parsed.
    pub updated_at: u64,
    pub status: SourceStatus,
}

impl SourceState {
    /// Build a snapshot for a cluster source, constructing the host index.
    /// `summary` must be the cluster's precomputed rollup.
    pub fn cluster(
        name: impl Into<String>,
        cluster: ClusterNode,
        summary: impl Into<Arc<SummaryBody>>,
        now: u64,
    ) -> SourceState {
        let host_index = match &cluster.body {
            ClusterBody::Hosts(hosts) => hosts
                .iter()
                .enumerate()
                .map(|(i, h)| (h.name.clone(), i))
                .collect(),
            ClusterBody::Summary(_) => HashMap::new(),
        };
        SourceState {
            name: name.into(),
            data: SourceData::Cluster(cluster),
            summary: summary.into(),
            host_index,
            updated_at: now,
            status: SourceStatus::Fresh,
        }
    }

    /// Build a snapshot for a grid source.
    pub fn grid(
        name: impl Into<String>,
        grid: GridNode,
        summary: impl Into<Arc<SummaryBody>>,
        now: u64,
    ) -> SourceState {
        SourceState {
            name: name.into(),
            data: SourceData::Grid(grid),
            summary: summary.into(),
            host_index: HashMap::new(),
            updated_at: now,
            status: SourceStatus::Fresh,
        }
    }

    /// O(1) host lookup (level-two hash, paper fig 4).
    pub fn host(&self, name: &str) -> Option<&HostNode> {
        let SourceData::Cluster(cluster) = &self.data else {
            return None;
        };
        let ClusterBody::Hosts(hosts) = &cluster.body else {
            return None;
        };
        self.host_index.get(name).map(|&i| hosts[i].as_ref())
    }

    /// Number of hosts described by this source.
    pub fn host_count(&self) -> usize {
        match &self.data {
            SourceData::Cluster(c) => c.host_count(),
            SourceData::Grid(g) => g.host_count(),
        }
    }
}

/// A sorted, shared snapshot of every source (what [`Store::list`]
/// returns — cached per revision, so repeated queries share one vector).
pub type SourceListing = Arc<Vec<Arc<SourceState>>>;

/// Default anti-drift cadence: the store re-merges its summary from
/// scratch after this many applied deltas.
pub const DEFAULT_REBUILD_ROUNDS: u64 = 64;

/// Everything the store's one lock guards: the level-one hash table
/// plus the incrementally-maintained merge of its sources' summaries.
#[derive(Debug, Default)]
struct Sources {
    by_name: HashMap<String, Arc<SourceState>>,
    /// Merge of every source summary, maintained by [`SummaryDelta`]
    /// application on each mutation.
    summary: SummaryBody,
    /// Deltas applied since the last from-scratch rebuild.
    deltas_since_rebuild: u64,
}

/// Monotonic operation counters, mirrored into gmetad telemetry as
/// `store.*` / `summary.*` after each poll round.
#[derive(Debug, Default)]
struct Counters {
    replaces: AtomicU64,
    deltas_applied: AtomicU64,
    summary_rebuilds: AtomicU64,
    root_merges: AtomicU64,
    root_merge_inputs: AtomicU64,
    source_touches: AtomicU64,
    list_rebuilds: AtomicU64,
}

/// A point-in-time snapshot of the store's operation counters.
///
/// `root_merge_inputs / root_merges` is the number of summaries read
/// per uncached root merge — exactly one, which is how the federation
/// bench asserts the root path never walks the sources.
/// `source_touches` counts per-source summary merges (anti-drift
/// rebuilds and [`Store::root_summary_full`] calls), the cost the
/// incremental path avoids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    pub replaces: u64,
    pub deltas_applied: u64,
    pub summary_rebuilds: u64,
    pub root_merges: u64,
    pub root_merge_inputs: u64,
    pub source_touches: u64,
    pub list_rebuilds: u64,
}

type SummaryCache = RwLock<Option<(u64, Arc<SummaryBody>)>>;
type ListCache = RwLock<Option<(u64, SourceListing)>>;

/// The level-one hash table: data sources by name, with their merged
/// summary, behind one lock.
#[derive(Debug)]
pub struct Store {
    sources: RwLock<Sources>,
    /// How many deltas the summary absorbs before re-merging from
    /// scratch (anti-drift; 0 = never rebuild).
    rebuild_rounds: u64,
    /// Bumped on every mutation, inside the write lock; keys both
    /// caches below.
    revision: AtomicU64,
    /// Cached copy of the merged summary, keyed by revision. A `RwLock`
    /// (not `Mutex`): cache hits are the hot read path and must share
    /// the lock instead of serializing on it.
    root_cache: SummaryCache,
    /// Cached sorted listing, keyed by the same revision.
    list_cache: ListCache,
    stats: Counters,
}

impl Default for Store {
    fn default() -> Store {
        Store::new()
    }
}

impl Store {
    /// An empty store with the default anti-drift cadence
    /// ([`DEFAULT_REBUILD_ROUNDS`]).
    pub fn new() -> Store {
        Store::with_rebuild_rounds(DEFAULT_REBUILD_ROUNDS)
    }

    /// An empty store that re-merges its summary from scratch after
    /// every `rounds` applied deltas. `1` re-merges on every mutation
    /// (the seed's full re-merge arithmetic, which the federation bench
    /// uses as its reference path); `0` never rebuilds (pure incremental
    /// maintenance).
    pub fn with_rebuild_rounds(rounds: u64) -> Store {
        Store {
            sources: RwLock::new(Sources::default()),
            rebuild_rounds: rounds,
            revision: AtomicU64::new(0),
            root_cache: RwLock::new(None),
            list_cache: RwLock::new(None),
            stats: Counters::default(),
        }
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            replaces: self.stats.replaces.load(Ordering::Relaxed),
            deltas_applied: self.stats.deltas_applied.load(Ordering::Relaxed),
            summary_rebuilds: self.stats.summary_rebuilds.load(Ordering::Relaxed),
            root_merges: self.stats.root_merges.load(Ordering::Relaxed),
            root_merge_inputs: self.stats.root_merge_inputs.load(Ordering::Relaxed),
            source_touches: self.stats.source_touches.load(Ordering::Relaxed),
            list_rebuilds: self.stats.list_rebuilds.load(Ordering::Relaxed),
        }
    }

    /// Bump the revision. Callers hold the write lock: bumping after the
    /// guard dropped opened a window where [`Store::root_summary`] could
    /// copy the new state under the old revision — or, worse, stamp an
    /// old copy with the new revision and pin it in the cache.
    fn bump(&self) {
        self.revision.fetch_add(1, Ordering::Release);
    }

    /// Fold one source's contribution change into the merged summary:
    /// apply the delta, or — once per `rebuild_rounds` mutations —
    /// re-merge from scratch to re-ground float drift.
    fn absorb(&self, sources: &mut Sources, delta: SummaryDelta) {
        if delta.is_empty() {
            return;
        }
        if self.rebuild_rounds > 0 && sources.deltas_since_rebuild + 1 >= self.rebuild_rounds {
            self.rebuild(sources);
            return;
        }
        delta.apply(&mut sources.summary);
        sources.deltas_since_rebuild += 1;
        self.stats.deltas_applied.fetch_add(1, Ordering::Relaxed);
        #[cfg(debug_assertions)]
        debug_check_drift(sources);
    }

    /// Re-merge the summary from every source (the anti-drift rebuild —
    /// the only O(sources) step on the write path).
    fn rebuild(&self, sources: &mut Sources) {
        let mut merged = SummaryBody::default();
        for source in sources.by_name.values() {
            merged.merge(&source.summary);
        }
        sources.summary = merged;
        sources.deltas_since_rebuild = 0;
        self.stats
            .source_touches
            .fetch_add(sources.by_name.len() as u64, Ordering::Relaxed);
        self.stats.summary_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Install a fresh snapshot for a source (a pointer swap).
    pub fn replace(&self, state: SourceState) {
        let incoming = Arc::new(state);
        let mut guard = self.sources.write();
        let previous = guard
            .by_name
            .insert(incoming.name.clone(), Arc::clone(&incoming));
        let delta = match &previous {
            // The delta-aware ingest reinstalls the same summary `Arc`
            // when nothing changed: skip even computing the diff.
            Some(prev) if Arc::ptr_eq(&prev.summary, &incoming.summary) => SummaryDelta::default(),
            Some(prev) => SummaryDelta::diff(&prev.summary, &incoming.summary),
            None => SummaryDelta::addition(&incoming.summary),
        };
        self.absorb(&mut guard, delta);
        self.stats.replaces.fetch_add(1, Ordering::Relaxed);
        self.bump();
    }

    /// Mark a source stale as of `now` (its last good snapshot stays
    /// queryable). No-op for unknown sources; keeps an existing stale
    /// timestamp and never un-downs a down source.
    pub fn mark_stale(&self, name: &str, now: u64) {
        let mut guard = self.sources.write();
        let Some(existing) = guard.by_name.get_mut(name) else {
            return;
        };
        if !matches!(existing.status, SourceStatus::Fresh) {
            return;
        }
        // In-place when no query holds the snapshot; copy-on-write (of
        // the `SourceState` struct, not the `Arc`'d subtrees) otherwise.
        Arc::make_mut(existing).status = SourceStatus::Stale { since: now };
        self.bump();
    }

    /// Advance a failing source along the staleness lifecycle, based on
    /// `TN = now - updated_at` (time since the last good poll):
    ///
    /// * `TN ≤ down_after` — flag [`SourceStatus::Stale`]; the last good
    ///   snapshot keeps being served (§3.3.1: "the previous summary will
    ///   be returned").
    /// * `TN > down_after` — flag [`SourceStatus::Down`] and rewrite the
    ///   stored summary to `hosts_up = 0, hosts_down = total` with no
    ///   metric rows, so parents polling this daemon aggregate the
    ///   outage instead of stale readings.
    /// * `TN > expire_after` — prune the snapshot entirely: a source
    ///   dead this long no longer contributes to any view.
    pub fn degrade(&self, name: &str, now: u64, lifecycle: &LifecyclePolicy) -> Degradation {
        let mut guard = self.sources.write();
        let Some(existing) = guard.by_name.get(name) else {
            return Degradation::Unknown;
        };
        let tn = now.saturating_sub(existing.updated_at);
        if tn > lifecycle.expire_after_secs {
            let removed = guard.by_name.remove(name).expect("present: checked above");
            self.absorb(&mut guard, SummaryDelta::retraction(&removed.summary));
            self.bump();
            return Degradation::Expired;
        }
        if tn > lifecycle.down_after_secs {
            if matches!(existing.status, SourceStatus::Down { .. }) {
                return Degradation::Down;
            }
            let entry = guard.by_name.get_mut(name).expect("present: checked above");
            let old_summary = Arc::clone(&entry.summary);
            let snapshot = Arc::make_mut(entry);
            snapshot.status = SourceStatus::Down { since: now };
            snapshot.summary = Arc::new(SummaryBody {
                hosts_up: 0,
                hosts_down: old_summary.hosts_total(),
                metrics: Vec::new(),
            });
            let delta = SummaryDelta::diff(&old_summary, &snapshot.summary);
            self.absorb(&mut guard, delta);
            self.bump();
            return Degradation::Down;
        }
        if matches!(existing.status, SourceStatus::Fresh) {
            let entry = guard.by_name.get_mut(name).expect("present: checked above");
            Arc::make_mut(entry).status = SourceStatus::Stale { since: now };
            self.bump();
        }
        Degradation::Stale
    }

    /// Snapshot of one source.
    pub fn get(&self, name: &str) -> Option<Arc<SourceState>> {
        self.sources.read().by_name.get(name).cloned()
    }

    /// All sources, sorted by name (deterministic output order). Cached
    /// per revision: the render/query hot path calls this on every
    /// request, and re-collecting + re-sorting hundreds of sources per
    /// query dwarfed the lookup it feeds.
    pub fn list(&self) -> SourceListing {
        let revision = self.revision.load(Ordering::Acquire);
        {
            let cache = self.list_cache.read();
            if let Some((cached_rev, listing)) = cache.as_ref() {
                if *cached_rev == revision {
                    return Arc::clone(listing);
                }
            }
        }
        // Read the revision under the lock, so the collected snapshot
        // and the revision stamped on it are mutually consistent.
        let guard = self.sources.read();
        let revision = self.revision.load(Ordering::Acquire);
        let mut out: Vec<Arc<SourceState>> = guard.by_name.values().cloned().collect();
        drop(guard);
        out.sort_by(|a, b| a.name.cmp(&b.name));
        let listing: SourceListing = Arc::new(out);
        self.stats.list_rebuilds.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.list_cache.write();
        match cache.as_ref() {
            // A concurrent caller already cached a newer listing.
            Some((cached_rev, _)) if *cached_rev > revision => {}
            _ => *cache = Some((revision, Arc::clone(&listing))),
        }
        listing
    }

    /// Number of sources present.
    pub fn len(&self) -> usize {
        self.sources.read().by_name.len()
    }

    /// Whether the store has no sources yet.
    pub fn is_empty(&self) -> bool {
        self.sources.read().by_name.is_empty()
    }

    /// Remove a source entirely (dynamic-membership pruning).
    pub fn remove(&self, name: &str) -> bool {
        let mut guard = self.sources.write();
        let Some(removed) = guard.by_name.remove(name) else {
            return false;
        };
        self.absorb(&mut guard, SummaryDelta::retraction(&removed.summary));
        self.bump();
        true
    }

    /// The merged summary of every source — the whole grid in one
    /// reduction. O(metrics), not O(sources): the store already holds
    /// the incrementally-maintained merge, so an uncached call copies
    /// that one summary. Cached per store revision so repeated meta-view
    /// queries cost O(1) after the first.
    ///
    /// The revision is read *while holding the read lock*, so the
    /// (revision, summary) pair is always consistent: every writer bumps
    /// the revision while still holding the write lock, so no mutation
    /// can slip between the two reads and pin a stale copy under a new
    /// revision. The cache is only ever advanced, never regressed.
    pub fn root_summary(&self) -> Arc<SummaryBody> {
        {
            let cache = self.root_cache.read();
            if let Some((cached_rev, summary)) = cache.as_ref() {
                if *cached_rev == self.revision.load(Ordering::Acquire) {
                    return Arc::clone(summary);
                }
            }
        }
        let guard = self.sources.read();
        let revision = self.revision.load(Ordering::Acquire);
        let merged = Arc::new(guard.summary.clone());
        drop(guard);
        self.stats.root_merges.fetch_add(1, Ordering::Relaxed);
        self.stats.root_merge_inputs.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.root_cache.write();
        match cache.as_ref() {
            // A concurrent caller already cached a newer merge: keep it.
            Some((cached_rev, _)) if *cached_rev > revision => {}
            _ => *cache = Some((revision, Arc::clone(&merged))),
        }
        merged
    }

    /// The root summary re-merged from every *source* (not the
    /// incremental summary), with the revision it corresponds to — the
    /// O(sources × metrics) reference path the incremental maintenance
    /// replaced. Kept for verification: tests and the federation bench
    /// assert [`Store::root_summary`] never drifts from this.
    pub fn root_summary_full(&self) -> (u64, SummaryBody) {
        let guard = self.sources.read();
        let revision = self.revision.load(Ordering::Acquire);
        let mut entries: Vec<&Arc<SourceState>> = guard.by_name.values().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let mut merged = SummaryBody::default();
        for source in &entries {
            merged.merge(&source.summary);
        }
        self.stats
            .source_touches
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        (revision, merged)
    }

    /// Current revision (bumps on every mutation).
    pub fn revision(&self) -> u64 {
        self.revision.load(Ordering::Acquire)
    }
}

/// Debug-build guard: after each delta application, require the merged
/// summary to still match a from-scratch re-merge (exact integer counts;
/// sums within float-drift tolerance). Skipped for big stores (the check
/// is O(sources)) and for non-finite sums (NaN/inf are not comparable
/// and are re-grounded by the periodic rebuild anyway).
#[cfg(debug_assertions)]
fn debug_check_drift(sources: &Sources) {
    if sources.by_name.len() > 64 {
        return;
    }
    let mut expected = SummaryBody::default();
    for source in sources.by_name.values() {
        expected.merge(&source.summary);
    }
    let incremental = &sources.summary;
    debug_assert_eq!(incremental.hosts_up, expected.hosts_up);
    debug_assert_eq!(incremental.hosts_down, expected.hosts_down);
    debug_assert_eq!(incremental.metrics.len(), expected.metrics.len());
    for metric in &expected.metrics {
        let Some(ours) = incremental.metric(metric.name.as_str()) else {
            panic!("incremental summary lost metric {}", metric.name);
        };
        debug_assert_eq!(ours.num, metric.num, "NUM drift on {}", metric.name);
        if !ours.sum.is_finite() || !metric.sum.is_finite() {
            continue;
        }
        let tolerance = 1e-6 * metric.sum.abs().max(1.0);
        debug_assert!(
            (ours.sum - metric.sum).abs() <= tolerance,
            "SUM drift on {}: incremental {} vs full {}",
            metric.name,
            ours.sum,
            metric.sum
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganglia_metrics::model::{MetricEntry, SummaryBody};
    use ganglia_metrics::MetricValue;

    fn cluster_state(name: &str, hosts: usize, load: f64, now: u64) -> SourceState {
        let hosts: Vec<HostNode> = (0..hosts)
            .map(|i| {
                let mut h = HostNode::new(format!("{name}-{i}"), "10.0.0.1");
                h.metrics
                    .push(MetricEntry::new("load_one", MetricValue::Double(load)));
                h
            })
            .collect();
        let cluster = ClusterNode::with_hosts(name, hosts);
        let summary = cluster.summary();
        SourceState::cluster(name, cluster, summary, now)
    }

    /// Order-insensitive exact equality: metric order in a merged
    /// summary is a merge-history artifact, not part of its value.
    fn same_value(a: &SummaryBody, b: &SummaryBody) -> bool {
        a.hosts_up == b.hosts_up
            && a.hosts_down == b.hosts_down
            && a.metrics.len() == b.metrics.len()
            && a.metrics.iter().all(|m| {
                b.metric(m.name.as_str())
                    .is_some_and(|o| o.sum.to_bits() == m.sum.to_bits() && o.num == m.num)
            })
    }

    #[test]
    fn replace_and_lookup() {
        let store = Store::new();
        store.replace(cluster_state("meteor", 3, 1.0, 10));
        assert_eq!(store.len(), 1);
        let state = store.get("meteor").unwrap();
        assert_eq!(state.host_count(), 3);
        assert!(state.host("meteor-1").is_some());
        assert!(state.host("nope").is_none());
        assert_eq!(state.status, SourceStatus::Fresh);
    }

    #[test]
    fn snapshots_are_immutable_across_replace() {
        let store = Store::new();
        store.replace(cluster_state("meteor", 2, 1.0, 10));
        let old = store.get("meteor").unwrap();
        store.replace(cluster_state("meteor", 5, 2.0, 25));
        // The old snapshot a concurrent query holds is untouched.
        assert_eq!(old.host_count(), 2);
        assert_eq!(store.get("meteor").unwrap().host_count(), 5);
    }

    #[test]
    fn snapshots_held_by_queries_survive_lifecycle_mutation() {
        // `mark_stale`/`degrade` mutate via `Arc::make_mut`, which must
        // copy-on-write when a query still holds the snapshot.
        let store = Store::new();
        store.replace(cluster_state("meteor", 2, 1.0, 10));
        let held = store.get("meteor").unwrap();
        store.mark_stale("meteor", 40);
        assert_eq!(held.status, SourceStatus::Fresh, "held snapshot mutated");
        assert_eq!(
            store.get("meteor").unwrap().status,
            SourceStatus::Stale { since: 40 }
        );
    }

    #[test]
    fn mark_stale_keeps_last_good_data() {
        let store = Store::new();
        store.replace(cluster_state("meteor", 2, 1.0, 10));
        store.mark_stale("meteor", 40);
        let state = store.get("meteor").unwrap();
        assert_eq!(state.status, SourceStatus::Stale { since: 40 });
        assert_eq!(state.host_count(), 2, "data survives for forensics");
        // A second failure does not move the original stale time.
        store.mark_stale("meteor", 100);
        assert_eq!(
            store.get("meteor").unwrap().status,
            SourceStatus::Stale { since: 40 }
        );
        // Unknown sources are ignored.
        store.mark_stale("ghost", 50);
        assert!(store.get("ghost").is_none());
    }

    #[test]
    fn degrade_walks_the_lifecycle_and_rewrites_summaries() {
        let lifecycle = LifecyclePolicy {
            down_after_secs: 60,
            expire_after_secs: 600,
        };
        let store = Store::new();
        store.replace(cluster_state("meteor", 4, 1.0, 100));
        // Within the down window: stale, summary untouched.
        assert_eq!(store.degrade("meteor", 130, &lifecycle), Degradation::Stale);
        let state = store.get("meteor").unwrap();
        assert_eq!(state.status, SourceStatus::Stale { since: 130 });
        assert_eq!(state.summary.hosts_up, 4);
        // A later failure keeps the original stale timestamp.
        assert_eq!(store.degrade("meteor", 145, &lifecycle), Degradation::Stale);
        assert_eq!(
            store.get("meteor").unwrap().status,
            SourceStatus::Stale { since: 130 }
        );
        // Past the down threshold: hosts flip to down, metrics drop out
        // of the rollup, data stays for forensics.
        assert_eq!(store.degrade("meteor", 175, &lifecycle), Degradation::Down);
        let state = store.get("meteor").unwrap();
        assert_eq!(state.status, SourceStatus::Down { since: 175 });
        assert_eq!(state.summary.hosts_up, 0);
        assert_eq!(state.summary.hosts_down, 4);
        assert!(state.summary.metrics.is_empty());
        assert_eq!(state.host_count(), 4, "full data kept for drill-down");
        assert_eq!(store.root_summary().hosts_down, 4);
        // Repeated failures while down change nothing.
        let revision = store.revision();
        assert_eq!(store.degrade("meteor", 300, &lifecycle), Degradation::Down);
        assert_eq!(store.revision(), revision);
        // Past expiry: pruned.
        assert_eq!(
            store.degrade("meteor", 701, &lifecycle),
            Degradation::Expired
        );
        assert!(store.get("meteor").is_none());
        assert_eq!(store.root_summary().hosts_total(), 0);
        // And a dead source stays unknown.
        assert_eq!(
            store.degrade("meteor", 716, &lifecycle),
            Degradation::Unknown
        );
    }

    #[test]
    fn heal_after_down_restores_fresh_state() {
        let lifecycle = LifecyclePolicy::default();
        let store = Store::new();
        store.replace(cluster_state("meteor", 2, 1.0, 10));
        store.degrade("meteor", 100, &lifecycle);
        assert!(matches!(
            store.get("meteor").unwrap().status,
            SourceStatus::Down { .. }
        ));
        // A successful poll replaces the whole snapshot.
        store.replace(cluster_state("meteor", 2, 1.5, 130));
        let state = store.get("meteor").unwrap();
        assert_eq!(state.status, SourceStatus::Fresh);
        assert_eq!(state.summary.hosts_up, 2);
        assert_eq!(state.summary.hosts_down, 0);
    }

    #[test]
    fn list_is_sorted() {
        let store = Store::new();
        store.replace(cluster_state("zebra", 1, 1.0, 0));
        store.replace(cluster_state("alpha", 1, 1.0, 0));
        let names: Vec<String> = store.list().iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["alpha", "zebra"]);
    }

    #[test]
    fn list_is_cached_per_revision() {
        let store = Store::new();
        store.replace(cluster_state("alpha", 1, 1.0, 0));
        store.replace(cluster_state("zebra", 1, 1.0, 0));
        let first = store.list();
        let second = store.list();
        assert!(
            Arc::ptr_eq(&first, &second),
            "same revision shares one sort"
        );
        store.replace(cluster_state("mid", 1, 1.0, 0));
        let third = store.list();
        assert!(!Arc::ptr_eq(&first, &third));
        let names: Vec<&str> = third.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zebra"]);
        // Lifecycle mutations invalidate the listing too.
        store.mark_stale("mid", 9);
        let fourth = store.list();
        assert!(!Arc::ptr_eq(&third, &fourth));
        assert!(matches!(
            fourth.iter().find(|s| s.name == "mid").unwrap().status,
            SourceStatus::Stale { .. }
        ));
    }

    #[test]
    fn root_summary_merges_and_caches() {
        let store = Store::new();
        store.replace(cluster_state("a", 2, 1.0, 0));
        store.replace(cluster_state("b", 3, 2.0, 0));
        let summary = store.root_summary();
        assert_eq!(summary.hosts_up, 5);
        let load = summary.metric("load_one").unwrap();
        assert!((load.sum - (2.0 + 6.0)).abs() < 1e-9);
        // Cached: same Arc until a mutation.
        let again = store.root_summary();
        assert!(Arc::ptr_eq(&summary, &again));
        store.replace(cluster_state("c", 1, 0.0, 0));
        let fresh = store.root_summary();
        assert!(!Arc::ptr_eq(&summary, &fresh));
        assert_eq!(fresh.hosts_up, 6);
    }

    #[test]
    fn incremental_summary_matches_full_remerge_through_lifecycle() {
        // Small rebuild cadence so the scripted walk crosses several
        // anti-drift rebuilds; dyadic loads keep float math exact.
        let lifecycle = LifecyclePolicy {
            down_after_secs: 60,
            expire_after_secs: 600,
        };
        let store = Store::with_rebuild_rounds(4);
        let check = |step: &str| {
            let (_, full) = store.root_summary_full();
            let incremental = store.root_summary();
            assert!(
                same_value(&incremental, &full),
                "{step}: incremental {incremental:?} != full {full:?}"
            );
        };
        for i in 0..12 {
            store.replace(cluster_state(&format!("g{i}"), i + 1, 0.25 * i as f64, 100));
            check("seed replace");
        }
        for i in 0..12 {
            store.replace(cluster_state(&format!("g{i}"), i + 2, 0.5 * i as f64, 110));
            check("re-replace");
        }
        store.degrade("g3", 170, &lifecycle); // stale
        check("stale");
        store.degrade("g4", 250, &lifecycle); // down: summary rewritten
        check("down");
        store.degrade("g5", 800, &lifecycle); // expired: retracted
        check("expired");
        assert!(store.remove("g6"));
        check("removed");
        store.replace(cluster_state("g4", 9, 1.75, 900)); // heal
        check("healed");
        assert!(store.get("g5").is_none());
        let stats = store.stats();
        assert!(stats.deltas_applied > 0, "delta path never exercised");
        assert!(stats.summary_rebuilds > 0, "rebuild path never exercised");
    }

    #[test]
    fn root_summary_never_pins_a_stale_merge_under_a_new_revision() {
        // Regression: replace() used to bump the revision after dropping
        // the write lock, so a summarizer interleaved between the insert
        // and the bump could stamp an old merge with the new revision
        // and pin it in the cache until the next write. Hammer
        // replace/root_summary from several threads and require the
        // final answer to reflect the final replace.
        //
        // Writers spread over many sources, each source keeps a
        // constant host count so every consistent snapshot has the same
        // total, and readers cross-check the incremental merge against
        // the from-scratch path whenever the revision is stable around
        // it.
        use std::sync::atomic::AtomicBool;
        let store = Store::with_rebuild_rounds(4);
        const SOURCES: usize = 16;
        const HOSTS_PER_SOURCE: usize = 3;
        for i in 0..SOURCES {
            store.replace(cluster_state(&format!("s{i}"), HOSTS_PER_SOURCE, 1.0, 0));
        }
        let expected_total = (SOURCES * HOSTS_PER_SOURCE) as u32;
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let before = store.revision();
                        let summary = store.root_summary();
                        // Constant per-source host counts: every
                        // consistent snapshot has the same total.
                        assert_eq!(summary.hosts_total(), expected_total);
                        let (full_rev, full) = store.root_summary_full();
                        if before == full_rev && store.revision() == full_rev {
                            // No mutation in the window: the incremental
                            // merge must equal the from-scratch one.
                            assert!(
                                same_value(&summary, &full),
                                "drift at revision {full_rev}: {summary:?} vs {full:?}"
                            );
                        }
                    }
                });
            }
            let writers: Vec<_> = (0..4)
                .map(|writer| {
                    let store = &store;
                    scope.spawn(move || {
                        for round in 1..=64u64 {
                            for i in (writer..SOURCES).step_by(4) {
                                let load = 0.25 * (round as f64) + i as f64;
                                store.replace(cluster_state(
                                    &format!("s{i}"),
                                    HOSTS_PER_SOURCE,
                                    load,
                                    round,
                                ));
                            }
                        }
                    })
                })
                .collect();
            for handle in writers {
                handle.join().expect("writer thread panicked");
            }
            stop.store(true, Ordering::Relaxed);
        });
        let (_, full) = store.root_summary_full();
        let summary = store.root_summary();
        assert_eq!(
            summary.hosts_total(),
            expected_total,
            "cache pinned a stale merge under the latest revision"
        );
        assert!(same_value(&summary, &full), "final state drifted");
        // And once consistent, repeated reads hit the cache.
        let a = store.root_summary();
        let b = store.root_summary();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn remove_deletes_source() {
        let store = Store::new();
        store.replace(cluster_state("a", 1, 1.0, 0));
        assert!(store.remove("a"));
        assert!(!store.remove("a"));
        assert!(store.is_empty());
        assert_eq!(store.root_summary().hosts_total(), 0);
    }

    #[test]
    fn root_merges_read_one_summary_not_sources() {
        let store = Store::with_rebuild_rounds(0); // pure incremental
        for i in 0..32 {
            store.replace(cluster_state(&format!("g{i}"), 2, 0.5, 0));
        }
        let before = store.stats();
        let _ = store.root_summary();
        let after = store.stats();
        assert_eq!(after.root_merges - before.root_merges, 1);
        assert_eq!(
            after.root_merge_inputs - before.root_merge_inputs,
            1,
            "uncached root merge must read exactly the merged summary"
        );
        assert_eq!(
            after.source_touches, before.source_touches,
            "incremental root path must not touch per-source summaries"
        );
    }

    #[test]
    fn grid_source_state() {
        use ganglia_metrics::model::{GridBody, GridNode};
        let summary = SummaryBody {
            hosts_up: 10,
            hosts_down: 1,
            metrics: vec![],
        };
        let grid = GridNode {
            name: "attic".into(),
            authority: "http://attic/".into(),
            localtime: None,
            body: GridBody::Summary(summary.clone()),
        };
        let state = SourceState::grid("attic", grid, summary, 5);
        assert_eq!(state.host_count(), 11);
        assert!(state.host("x").is_none());
        assert!(state.host_index.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// Replace source `idx` with `hosts` hosts at a dyadic load.
            Replace {
                idx: usize,
                hosts: usize,
                eighths: i32,
            },
            /// Fail source `idx` with the given poll-gap in seconds.
            Degrade {
                idx: usize,
                gap: u64,
            },
            MarkStale {
                idx: usize,
            },
            Remove {
                idx: usize,
            },
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                4 => (0usize..12, 1usize..6, -64i32..64)
                    .prop_map(|(idx, hosts, eighths)| Op::Replace { idx, hosts, eighths }),
                2 => (0usize..12, prop_oneof![Just(30u64), Just(120), Just(700)])
                    .prop_map(|(idx, gap)| Op::Degrade { idx, gap }),
                1 => (0usize..12).prop_map(|idx| Op::MarkStale { idx }),
                1 => (0usize..12).prop_map(|idx| Op::Remove { idx }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Any interleaving of replace/degrade/stale/remove across
            /// sources keeps the incremental root summary bit-identical
            /// (dyadic loads) to a from-scratch merge of the sources.
            #[test]
            fn incremental_root_summary_never_drifts(ops in proptest::collection::vec(arb_op(), 1..48)) {
                let lifecycle = LifecyclePolicy {
                    down_after_secs: 60,
                    expire_after_secs: 600,
                };
                // Tiny rebuild cadence: exercise both the delta and the
                // rebuild path.
                let store = Store::with_rebuild_rounds(3);
                let mut clock = 100u64;
                for op in &ops {
                    clock += 1;
                    match *op {
                        Op::Replace { idx, hosts, eighths } => {
                            let load = f64::from(eighths) / 8.0;
                            store.replace(cluster_state(&format!("src{idx}"), hosts, load, clock));
                        }
                        Op::Degrade { idx, gap } => {
                            store.degrade(&format!("src{idx}"), clock.saturating_add(gap), &lifecycle);
                        }
                        Op::MarkStale { idx } => store.mark_stale(&format!("src{idx}"), clock),
                        Op::Remove { idx } => {
                            store.remove(&format!("src{idx}"));
                        }
                    }
                    let (full_rev, full) = store.root_summary_full();
                    let incremental = store.root_summary();
                    prop_assert_eq!(full_rev, store.revision());
                    prop_assert!(
                        same_value(&incremental, &full),
                        "after {:?}: incremental {:?} != full {:?}",
                        op, incremental, full
                    );
                }
            }
        }
    }
}
