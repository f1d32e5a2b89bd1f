//! Gmetad configuration.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use ganglia_net::Addr;

use crate::health::{LifecyclePolicy, RetryPolicy};

/// Which monitoring-tree design the daemon runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeMode {
    /// Monitor-core 2.5.1 behaviour (paper §2.1): report the union of
    /// the subtree, keep full archives for every descendant host.
    OneLevel,
    /// Monitor-core 2.5.4 behaviour (paper §2.2–2.3): summarize remote
    /// grids, archive only their summaries, serve path queries.
    NLevel,
}

/// Where metric archives live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveMode {
    /// No archiving (viewer-only deployments).
    Off,
    /// In-memory round-robin databases (the paper ran its archives on a
    /// RAM-backed tmpfs for the same effect, §4.1).
    InMemory,
    /// Persist archives under a directory tree.
    Directory(PathBuf),
}

/// One monitored data source: a cluster (gmond) or a remote grid
/// (another gmetad), with an ordered list of redundant addresses.
///
/// "All Gmon agents have redundant global knowledge of the cluster, so
/// that any node can supply a complete report... The wide-area Gmeta uses
/// this ability to automatically fail-over when a cluster node
/// malfunctions." (paper §1, fig 1)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSourceCfg {
    /// Name the source is filed under (usually the cluster/grid name).
    pub name: String,
    /// Redundant endpoints, tried in order.
    pub addrs: Vec<Addr>,
}

/// A data source definition that cannot be polled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidDataSource {
    /// The address list is empty: there is nothing to fail over *to*,
    /// and the poller's cursor would have no endpoint to point at.
    NoAddrs { name: String },
}

impl fmt::Display for InvalidDataSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidDataSource::NoAddrs { name } => {
                write!(f, "data source {name:?} lists no addresses")
            }
        }
    }
}

impl std::error::Error for InvalidDataSource {}

impl DataSourceCfg {
    /// A validated data source from a name and address list. Rejects an
    /// empty address list up front rather than deferring the failure to
    /// the poller's first address lookup.
    pub fn new(name: impl Into<String>, addrs: Vec<Addr>) -> Result<Self, InvalidDataSource> {
        let name = name.into();
        if addrs.is_empty() {
            return Err(InvalidDataSource::NoAddrs { name });
        }
        Ok(DataSourceCfg { name, addrs })
    }
}

/// Full daemon configuration.
#[derive(Debug, Clone)]
pub struct GmetadConfig {
    /// Name of the grid this gmetad is the authority for.
    pub grid_name: String,
    /// URL at which this gmetad can be queried — propagated upstream as
    /// the `AUTHORITY` pointer (paper §3.2).
    pub authority_url: String,
    /// Tree design under test.
    pub tree_mode: TreeMode,
    /// Under N-level, poll child gmetads for their full dump (`/`), as
    /// the paper's gmetad did, instead of their per-source summaries
    /// (`/?filter=summary`). The parent stores, archives and serves the
    /// same bytes either way; only the link traffic and the child's
    /// render differ. 1-level parents always poll `/`. Off by default:
    /// only the paper-faithful N-level runs of figures 5 and 6 turn it
    /// on.
    pub full_dump_links: bool,
    /// Seconds between polls of each data source ("generally every 15
    /// seconds", paper §3.3.1).
    pub poll_interval: u64,
    /// Per-exchange timeout for child polls.
    pub fetch_timeout: Duration,
    /// The monitored children.
    pub data_sources: Vec<DataSourceCfg>,
    /// Metric archive backing.
    pub archive: ArchiveMode,
    /// Per-endpoint backoff and circuit-breaker knobs.
    pub retry: RetryPolicy,
    /// Staleness-lifecycle thresholds (Stale → Down → Expired).
    pub lifecycle: LifecyclePolicy,
    /// Publish this daemon's own telemetry as a synthetic
    /// `<grid>-monitor` cluster after each poll round, so the monitor
    /// is monitored through its own data language (archived to RRD,
    /// summarized up the tree, path-queryable). Off by default: the
    /// extra cluster changes store/archive cardinalities.
    pub self_telemetry: bool,
    /// Worker threads fanning out one poll round across sources.
    /// `0` (the default) means automatic: `min(sources, 8)`. `1` forces
    /// the old sequential round.
    pub poll_concurrency: usize,
    /// Wall-clock budget for one whole poll round, in seconds. Each
    /// endpoint attempt's timeout is clamped to the remaining budget, so
    /// a hung source degrades to a breaker-counted timeout at the
    /// deadline instead of stalling the round. `0` (the default)
    /// disables the budget.
    pub round_deadline_secs: u64,
    /// Crash-safe archive persistence: append updates to a per-shard
    /// write-ahead journal (group-committed) and rewrite the fixed-size
    /// `.rrd` files only at checkpoints, instead of rewriting every
    /// file on every flush. Requires `ArchiveMode::Directory`; off by
    /// default (legacy rewrite-per-flush behaviour).
    pub archive_journal: bool,
    /// Group-commit cadence for the archive journal, in milliseconds:
    /// pending journal records are fsynced once at the end of any poll
    /// round at least this long after the previous commit. `0` commits
    /// every round. Ignored unless `archive_journal` is on.
    pub archive_flush_ms: u64,
    /// Seconds between archive checkpoints (atomic `.rrd` rewrites plus
    /// journal truncation). `0` checkpoints every round. Ignored unless
    /// `archive_journal` is on.
    pub archive_checkpoint_secs: u64,
    /// Whether the interactive port accepts `#subscribe <gql expr>`
    /// continuous queries (delta frames pushed after each poll round).
    pub subscriptions: bool,
    /// Concurrent subscriptions admitted before `#subscribe` is refused.
    pub max_subscriptions: usize,
    /// Unread delta frames a subscriber may accumulate before its
    /// subscription is evicted (each frame covers one poll round).
    pub sub_queue_depth: usize,
}

impl GmetadConfig {
    /// A sensible N-level configuration with no sources yet.
    pub fn new(grid_name: impl Into<String>) -> Self {
        let grid_name = grid_name.into();
        GmetadConfig {
            authority_url: format!("http://{grid_name}/ganglia/"),
            grid_name,
            tree_mode: TreeMode::NLevel,
            full_dump_links: false,
            poll_interval: 15,
            fetch_timeout: Duration::from_secs(10),
            data_sources: Vec::new(),
            archive: ArchiveMode::InMemory,
            retry: RetryPolicy::default(),
            lifecycle: LifecyclePolicy::default(),
            self_telemetry: false,
            poll_concurrency: 0,
            round_deadline_secs: 0,
            archive_journal: false,
            archive_flush_ms: 1000,
            archive_checkpoint_secs: 300,
            subscriptions: true,
            max_subscriptions: 64,
            sub_queue_depth: 8,
        }
    }

    /// The worker count one round actually uses for `sources` pollers:
    /// the configured `poll_concurrency` (or `min(sources, 8)` when
    /// automatic), never more than one worker per source, never zero.
    pub fn effective_concurrency(&self, sources: usize) -> usize {
        let configured = if self.poll_concurrency == 0 {
            8
        } else {
            self.poll_concurrency
        };
        configured.min(sources).max(1)
    }

    /// Always 1: the store is one lock over every source. Kept only
    /// because the `perfbench` end-to-end benchmark calls it to label
    /// its workloads; it can go once that benchmark stops reading it.
    pub fn resolved_store_shards(&self) -> usize {
        1
    }

    /// Builder-style: set the tree mode.
    pub fn with_mode(mut self, mode: TreeMode) -> Self {
        self.tree_mode = mode;
        self
    }

    /// The same configuration, polling child gmetads for full dumps
    /// when `enabled` (see [`GmetadConfig::full_dump_links`]).
    pub fn with_full_dump_links(mut self, enabled: bool) -> Self {
        self.full_dump_links = enabled;
        self
    }

    /// Builder-style: add a data source.
    pub fn with_source(mut self, source: DataSourceCfg) -> Self {
        self.data_sources.push(source);
        self
    }

    /// Builder-style: set the archive mode.
    pub fn with_archive(mut self, archive: ArchiveMode) -> Self {
        self.archive = archive;
        self
    }

    /// Builder-style: set the backoff/breaker policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder-style: set the staleness-lifecycle thresholds.
    pub fn with_lifecycle(mut self, lifecycle: LifecyclePolicy) -> Self {
        self.lifecycle = lifecycle;
        self
    }

    /// Builder-style: enable or disable self-telemetry publication.
    pub fn with_self_telemetry(mut self, enabled: bool) -> Self {
        self.self_telemetry = enabled;
        self
    }

    /// Builder-style: set the poll worker count (`0` = automatic).
    pub fn with_poll_concurrency(mut self, workers: usize) -> Self {
        self.poll_concurrency = workers;
        self
    }

    /// Builder-style: set the per-round wall-clock budget (`0` = off).
    pub fn with_round_deadline_secs(mut self, secs: u64) -> Self {
        self.round_deadline_secs = secs;
        self
    }

    /// Builder-style: enable or disable the archive write-ahead journal.
    pub fn with_archive_journal(mut self, enabled: bool) -> Self {
        self.archive_journal = enabled;
        self
    }

    /// Builder-style: set the journal group-commit cadence in
    /// milliseconds (`0` = commit every round).
    pub fn with_archive_flush_ms(mut self, ms: u64) -> Self {
        self.archive_flush_ms = ms;
        self
    }

    /// Builder-style: set the checkpoint cadence in seconds (`0` =
    /// checkpoint every round).
    pub fn with_archive_checkpoint_secs(mut self, secs: u64) -> Self {
        self.archive_checkpoint_secs = secs;
        self
    }

    /// Builder-style: enable or disable continuous-query subscriptions.
    pub fn with_subscriptions(mut self, enabled: bool) -> Self {
        self.subscriptions = enabled;
        self
    }

    /// Builder-style: set the subscription capacity (at least 1).
    pub fn with_max_subscriptions(mut self, max: usize) -> Self {
        self.max_subscriptions = max.max(1);
        self
    }

    /// Builder-style: set the per-subscriber frame queue depth (at
    /// least 1).
    pub fn with_sub_queue_depth(mut self, depth: usize) -> Self {
        self.sub_queue_depth = depth.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_config() {
        let config = GmetadConfig::new("sdsc")
            .with_mode(TreeMode::OneLevel)
            .with_source(
                DataSourceCfg::new(
                    "meteor",
                    vec![Addr::new("meteor/n0"), Addr::new("meteor/n1")],
                )
                .unwrap(),
            )
            .with_archive(ArchiveMode::Off);
        assert_eq!(config.grid_name, "sdsc");
        assert_eq!(config.tree_mode, TreeMode::OneLevel);
        assert_eq!(config.data_sources.len(), 1);
        assert_eq!(config.data_sources[0].addrs.len(), 2);
        assert_eq!(config.archive, ArchiveMode::Off);
        assert_eq!(config.poll_interval, 15);
        assert!(config.authority_url.contains("sdsc"));
        assert_eq!(config.retry, RetryPolicy::default());
        assert_eq!(config.lifecycle, LifecyclePolicy::default());
    }

    #[test]
    fn effective_concurrency_clamps_to_sources_and_never_zero() {
        let auto = GmetadConfig::new("g");
        assert_eq!(auto.effective_concurrency(3), 3);
        assert_eq!(auto.effective_concurrency(20), 8, "auto caps at 8");
        assert_eq!(auto.effective_concurrency(0), 1, "never zero workers");
        let pinned = GmetadConfig::new("g").with_poll_concurrency(4);
        assert_eq!(pinned.effective_concurrency(2), 2);
        assert_eq!(pinned.effective_concurrency(100), 4);
        let sequential = GmetadConfig::new("g").with_poll_concurrency(1);
        assert_eq!(sequential.effective_concurrency(100), 1);
    }

    #[test]
    fn empty_address_list_is_rejected_at_construction() {
        let err = DataSourceCfg::new("ghost", vec![]).unwrap_err();
        assert_eq!(
            err,
            InvalidDataSource::NoAddrs {
                name: "ghost".into()
            }
        );
        assert!(err.to_string().contains("ghost"));
    }
}
