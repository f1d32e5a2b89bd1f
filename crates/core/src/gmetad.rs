//! The assembled gmetad daemon.
//!
//! Two time scales, per §3.3.1: the **summarization time scale** (polling
//! children, parsing, summarizing, archiving — driven by
//! [`Gmetad::poll_all`], either from the background thread or from a
//! deterministic experiment loop) and the **query time scale**
//! ([`Gmetad::query`], always answered from the latest fully-parsed
//! snapshots). The two never block each other beyond pointer swaps.
//!
//! Poll rounds fan out across sources: each source has its own
//! independently-locked poller slot and archive shard, and
//! [`Gmetad::poll_all`] drives them from a scoped worker pool
//! ([`GmetadConfig::poll_concurrency`] workers), so one slow source
//! delays the round by *its* latency, not the sum of everyone's.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use ganglia_metrics::model::{ClusterNode, HostNode, MetricEntry};
use ganglia_metrics::MetricValue;
use ganglia_net::transport::{RequestHandler, ServerGuard, Transport};
use ganglia_net::Addr;
use ganglia_query::gql::{error_xml, render_xml};
use ganglia_query::{Filter, GqlQuery, Query, RootRef, RowSet};
use ganglia_rrd::{ConsolidationFn, MetricKey, Series};
use ganglia_serve::{FrontTier, ServeOptions, SubscriptionRegistry};
use ganglia_telemetry::{LogicalClock, Registry, Snapshot, Tracer};

use crate::archive::{
    archive_source, write_unknowns, ArchiveRecovery, ArchiveShards, CheckpointTotals, ShardJournal,
};
use crate::config::{ArchiveMode, GmetadConfig};
use crate::error::GmetadError;
use crate::health::BreakerState;
use crate::instrument::{WorkCategory, WorkMeter};
use crate::poller::{RoundBudget, SourcePoller};
use crate::query_engine;
use crate::store::{Degradation, SourceState, SourceStatus, Store};

pub use crate::archive::ArchiveSpecFactory;

/// One row of the per-source health/statistics dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollerStats {
    /// Source name.
    pub name: String,
    /// Lifetime successful polls.
    pub polls_ok: u64,
    /// Lifetime fully-failed polls.
    pub polls_failed: u64,
    /// Lifetime backoff rounds (every breaker open, nothing but the
    /// steady-retry probe ran).
    pub polls_backoff: u64,
    /// Lifetime endpoint fail-overs.
    pub failovers: u64,
    /// Consecutive fully-failed rounds (0 when healthy).
    pub consecutive_failures: u32,
    /// Breaker state of the currently preferred endpoint.
    pub breaker: BreakerState,
    /// Staleness phase of the stored snapshot, if one exists.
    pub phase: Option<SourceStatus>,
}

/// The wide-area monitor daemon.
pub struct Gmetad {
    config: GmetadConfig,
    store: Store,
    /// Per-source archive shards, so parallel workers archive without
    /// serializing on one global RRD lock.
    archives: ArchiveShards,
    meter: Arc<WorkMeter>,
    /// One independently-locked slot per source, so a round's workers
    /// poll different sources concurrently. The outer lock only guards
    /// membership (add/remove source).
    pollers: RwLock<Vec<Arc<Mutex<SourcePoller>>>>,
    /// Logical "now" used when serving queries (set by the poll driver).
    clock: AtomicU64,
    /// Self-telemetry: the registry behind `meter`, shared so ad-hoc
    /// instruments and CPU accounting land in one snapshot.
    registry: Arc<Registry>,
    /// Span factory; event timestamps come from the logical clock so
    /// simulated runs produce deterministic event logs.
    tracer: Tracer,
    logical_clock: LogicalClock,
    /// `queries_total` at the end of the previous round, for the
    /// `self.queries_per_round` delta.
    queries_at_last_round: AtomicU64,
    /// Logical time of the last journal group-commit (journal mode).
    last_commit_at: AtomicU64,
    /// Logical time of the last archive checkpoint (journal mode).
    last_checkpoint_at: AtomicU64,
    /// Continuous-query subscriptions, created on first use (the
    /// registry needs an `Arc<Gmetad>` to evaluate against).
    subs: OnceLock<Arc<SubscriptionRegistry>>,
}

/// A poll worker group-commits its shard's journal early once this many
/// bytes are pending, bounding the window one fsync covers; smaller
/// batches wait for the round-end commit.
const INLINE_COMMIT_BYTES: u64 = 1 << 20;

impl Gmetad {
    /// Assemble a daemon from its configuration.
    pub fn new(config: GmetadConfig) -> Arc<Gmetad> {
        Self::with_archive_spec(config, None)
    }

    /// Assemble a daemon with a custom RRD spec factory (experiments use
    /// compact archives; the default is the Ganglia ladder).
    pub fn with_archive_spec(
        config: GmetadConfig,
        spec: Option<ArchiveSpecFactory>,
    ) -> Arc<Gmetad> {
        let persist_dir = match &config.archive {
            ArchiveMode::Directory(dir) => Some(dir.clone()),
            _ => None,
        };
        let pollers = config
            .data_sources
            .iter()
            .cloned()
            .map(|cfg| Arc::new(Mutex::new(SourcePoller::new(cfg))))
            .collect();
        let registry = Arc::new(Registry::new());
        let logical_clock = LogicalClock::new();
        let tracer = Tracer::new(Arc::clone(&registry), logical_clock.clone()).with_event_log(256);
        Arc::new(Gmetad {
            store: Store::new(),
            archives: ArchiveShards::new(spec, persist_dir).with_journal(config.archive_journal),
            meter: Arc::new(WorkMeter::with_registry(Arc::clone(&registry))),
            pollers: RwLock::new(pollers),
            clock: AtomicU64::new(0),
            registry,
            tracer,
            logical_clock,
            queries_at_last_round: AtomicU64::new(0),
            last_commit_at: AtomicU64::new(0),
            last_checkpoint_at: AtomicU64::new(0),
            subs: OnceLock::new(),
            config,
        })
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &GmetadConfig {
        &self.config
    }

    /// The store (read access for tests and tools).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The CPU-accounting meter.
    pub fn meter(&self) -> &Arc<WorkMeter> {
        &self.meter
    }

    /// The telemetry registry (counters, gauges, histograms).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The span tracer (bounded event log included).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Point-in-time copy of every telemetry instrument.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The `TELEMETRY` document served for `/?filter=telemetry`.
    pub fn telemetry_xml(&self) -> String {
        self.telemetry_snapshot()
            .to_xml(&format!("gmetad:{}", self.config.grid_name))
    }

    /// The trace document served for `/?filter=trace`: this daemon's
    /// bounded span-event log as JSON, oldest first, each event carrying
    /// the poll-round id, source, stage, logical open/close stamps,
    /// elapsed microseconds, and outcome. `round` is the id of the
    /// round in progress (or just finished) when the query arrived, so
    /// a client can correlate the answer it got with the round that
    /// produced the data.
    pub fn trace_json(&self) -> String {
        format!(
            "{{\"source\":{},\"round\":{},\"events\":{}}}",
            ganglia_telemetry::json_string(&format!("gmetad:{}", self.config.grid_name)),
            self.tracer.current_round(),
            self.tracer.events_json(),
        )
    }

    /// Set the logical clock (experiment drivers).
    pub fn set_clock(&self, now: u64) {
        self.clock.store(now, Ordering::Relaxed);
        self.logical_clock.set(now);
    }

    /// The logical clock.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Poll every data source once at time `now`, updating the store and
    /// archives. Returns one result per source, in configuration order.
    ///
    /// Sources are polled by [`GmetadConfig::effective_concurrency`]
    /// scoped workers pulling slots off a shared cursor; with one worker
    /// (or one source) the round runs inline, sequentially, exactly as
    /// before. When [`GmetadConfig::round_deadline_secs`] is set, every
    /// attempt's timeout is clamped to the round's remaining budget.
    pub fn poll_all(&self, transport: &dyn Transport, now: u64) -> Vec<Result<(), GmetadError>> {
        self.set_clock(now);
        // The round span and each source's poll span carry this id
        // explicitly (query spans racing the round pick up the current
        // one), so the trace log can be sliced by round even when
        // another round begins concurrently.
        let round_id = self.tracer.begin_round();
        let round = self.tracer.round_span("round", round_id);
        let round_start = Instant::now();
        let deadline = Duration::from_secs(self.config.round_deadline_secs);
        let budget = if deadline.is_zero() {
            RoundBudget::unbounded()
        } else {
            RoundBudget::until(round_start + deadline)
        };
        // Snapshot the membership so a concurrent add/remove can't shift
        // result indices mid-round; each slot stays individually locked.
        let slots: Vec<Arc<Mutex<SourcePoller>>> =
            self.pollers.read().iter().map(Arc::clone).collect();
        let workers = self.config.effective_concurrency(slots.len());
        let results: Vec<Result<(), GmetadError>> = if workers <= 1 || slots.len() <= 1 {
            slots
                .iter()
                .map(|slot| self.poll_slot(slot, transport, now, round_id, &budget))
                .collect()
        } else {
            let cells: Vec<OnceLock<Result<(), GmetadError>>> =
                (0..slots.len()).map(|_| OnceLock::new()).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(idx) else { break };
                        let result = self.poll_slot(slot, transport, now, round_id, &budget);
                        cells[idx].set(result).expect("each slot polled once");
                    });
                }
            });
            cells
                .into_iter()
                .map(|cell| cell.into_inner().expect("every slot polled"))
                .collect()
        };
        if !deadline.is_zero() {
            // How far past its budget the round actually ran: 0 when the
            // deadline held, the overrun when a source blew through it.
            self.registry
                .histogram("round_stall_us")
                .record_duration(round_start.elapsed().saturating_sub(deadline));
        }
        self.registry.gauge("sources").set(slots.len() as u64);
        self.registry.counter("rounds_total").inc();
        self.publish_store_stats();
        self.registry
            .gauge("archives")
            .set(self.archive_count() as u64);
        // Intern-table effectiveness. The table is process-global (atoms
        // are shared across every daemon in this process), so these are
        // gauges mirroring the global counters, not per-daemon deltas.
        let interning = ganglia_metrics::intern_stats();
        self.registry.gauge("ingest.atoms_live").set(interning.live);
        self.registry
            .gauge("ingest.intern_hits")
            .set(interning.hits);
        self.registry
            .gauge("ingest.intern_misses")
            .set(interning.misses);
        if self.archives.journal_enabled() {
            // Group commit: one fsync per shard covers the whole round's
            // updates, on the configured cadence (0 = every round). The
            // checkpoint applies journaled updates to the fixed-size
            // `.rrd` files and truncates the journals; both cadences run
            // on the logical clock so simulated rounds are deterministic.
            let last_commit = self.last_commit_at.load(Ordering::Relaxed);
            if now.saturating_sub(last_commit).saturating_mul(1000) >= self.config.archive_flush_ms
            {
                let _ = self.commit_archive_journal();
                self.last_commit_at.store(now, Ordering::Relaxed);
            }
            let last_checkpoint = self.last_checkpoint_at.load(Ordering::Relaxed);
            if now.saturating_sub(last_checkpoint) >= self.config.archive_checkpoint_secs {
                let _ = self.checkpoint_archives(now);
                self.last_checkpoint_at.store(now, Ordering::Relaxed);
            }
            let totals = self.archives.journal_totals();
            self.registry
                .gauge("archive.journal_bytes")
                .set(totals.durable_bytes);
            self.registry
                .gauge("archive.journal_pending_bytes")
                .set(totals.pending_bytes);
        }
        if self.config.self_telemetry {
            self.publish_self(now);
        }
        // Push continuous-query deltas for whatever this round changed.
        // After the store swaps (and after publish_self, so self.*
        // subscribers see this round's numbers), before the round span
        // closes — a push round-trip is bounded by one poll round.
        if let Some(subs) = self.subs.get() {
            self.meter
                .time(WorkCategory::QueryServe, || subs.run_round());
        }
        drop(round);
        results
    }

    /// Poll one source slot: the slot's own lock covers the fetch/parse,
    /// its archive shard's lock covers the archiving, and neither is
    /// held across the other longer than needed — so workers on other
    /// sources never wait behind this one.
    fn poll_slot(
        &self,
        slot: &Mutex<SourcePoller>,
        transport: &dyn Transport,
        now: u64,
        round_id: u64,
        budget: &RoundBudget,
    ) -> Result<(), GmetadError> {
        let inflight = self.registry.gauge("poll_inflight");
        inflight.add(1);
        let slot_start = Instant::now();
        // Opened before the slot lock so the span times what the old
        // histogram did: lock wait included.
        let mut trace = self.tracer.round_span("round.poll", round_id);
        let mut poller = slot.lock();
        let name = poller.cfg().name.clone();
        trace.set_source(&name);
        let backoff_before = poller.polls_backoff;
        let outcome = poller.poll_bounded(
            transport,
            self.config.tree_mode,
            self.config.fetch_timeout,
            &self.config.retry,
            &self.meter,
            now,
            budget,
        );
        // A backoff round (every breaker open, only the steady-retry
        // probe ran) is near-free; its timing is kept apart so the real
        // per-round quantiles aren't diluted by no-op rounds.
        let idle = poller.polls_backoff != backoff_before;
        drop(poller);
        let result = match outcome {
            Ok(state) => {
                if self.config.archive != ArchiveMode::Off {
                    let shard = self.archives.shard(&name);
                    let mut set = shard.lock();
                    self.meter.time(WorkCategory::Archive, || {
                        archive_source(&mut set, &state, self.config.tree_mode, now)
                    });
                    // A very large source can outgrow the round-end group
                    // commit; fsync its shard early so the pending batch
                    // stays bounded. Other shards are untouched.
                    if set.journal_pending_bytes() >= INLINE_COMMIT_BYTES {
                        let commit_start = Instant::now();
                        match set.commit_journal() {
                            Ok(_) => {
                                self.registry.counter("archive.journal_commits_total").inc();
                                self.registry
                                    .histogram("archive.journal_commit_us")
                                    .record_duration(commit_start.elapsed());
                            }
                            Err(_) => {
                                self.registry.counter("archive.journal_errors_total").inc();
                            }
                        }
                    }
                }
                self.store.replace(state);
                Ok(())
            }
            Err(e) => {
                // Keep the last good snapshot and walk the staleness
                // lifecycle: Stale keeps serving the old data, Down
                // rewrites the summary so hosts_down propagates up the
                // tree, Expired prunes the snapshot entirely. Stale and
                // Down sources also record the downtime in the archives
                // (§3.1's zero records); an Expired source's archives
                // are dropped with its snapshot, so the `archives`
                // gauge tracks live sources instead of drifting.
                match self.store.degrade(&name, now, &self.config.lifecycle) {
                    Degradation::Stale | Degradation::Down
                        if self.config.archive != ArchiveMode::Off =>
                    {
                        if let Some(shard) = self.archives.get(&name) {
                            let mut set = shard.lock();
                            self.meter.time(WorkCategory::Archive, || {
                                write_unknowns(&mut set, &name, now)
                            });
                        }
                    }
                    Degradation::Expired => {
                        self.archives.remove(&name);
                    }
                    _ => {}
                }
                Err(e)
            }
        };
        let elapsed = slot_start.elapsed();
        // A backoff round reclassifies the trace span so its near-free
        // timing records under `round.poll_idle_us` (the span's drop
        // feeds the path-named histogram); real polls land in
        // `round.poll_us` with their outcome stamped for the trace log.
        let per_source = if idle {
            trace.set_path("round.poll_idle");
            trace.set_outcome("backoff");
            "round_idle_us"
        } else {
            if result.is_err() {
                trace.set_outcome("failed");
            }
            "round_us"
        };
        drop(trace);
        self.registry
            .histogram(&format!("source.{name}.{per_source}"))
            .record_duration(elapsed);
        inflight.sub(1);
        result
    }

    /// Mirror the store's monotone work counters into the registry
    /// after each round (advanced by the delta since the last mirror, so
    /// the registry stays a faithful running total without extra state).
    fn publish_store_stats(&self) {
        let stats = self.store.stats();
        let mirror = |name: &str, total: u64| {
            let counter = self.registry.counter(name);
            counter.add(total.saturating_sub(counter.get()));
        };
        mirror("store.replaces", stats.replaces);
        mirror("store.root_merges", stats.root_merges);
        mirror("store.root_merge_inputs", stats.root_merge_inputs);
        mirror("store.source_touches", stats.source_touches);
        mirror("store.list_rebuilds", stats.list_rebuilds);
        mirror("summary.delta_applied", stats.deltas_applied);
        mirror("summary.rebuilds", stats.summary_rebuilds);
    }

    /// Name of the synthetic cluster this daemon publishes its own
    /// telemetry under when `self_telemetry` is enabled.
    pub fn self_cluster_name(&self) -> String {
        format!("{}-monitor", self.config.grid_name)
    }

    /// Name of the synthetic host carrying the `self.*` metrics.
    pub fn self_host_name(&self) -> String {
        format!("{}-gmeta", self.config.grid_name)
    }

    /// "Monitor the monitor": distil the telemetry registry into
    /// ordinary Ganglia metrics on a synthetic `<grid>-monitor` cluster
    /// with one host, `<grid>-gmeta`, and feed it through the same
    /// store/archive path as any polled source. From there the metrics
    /// are summarized upward, archived to RRD, and answerable via path
    /// queries — the system monitors itself through its own data
    /// language.
    fn publish_self(&self, now: u64) {
        let snap = self.registry.snapshot();
        let queries_total = snap.counter("queries_total").unwrap_or(0);
        let queries_last = self
            .queries_at_last_round
            .swap(queries_total, Ordering::Relaxed);
        let p99_ms = |name: &str| {
            snap.histogram(name)
                .map(|h| h.quantile(0.99) as f64 / 1000.0)
                .unwrap_or(0.0)
        };
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let metric = |name: &str, value: f64, units: &str| {
            let mut entry = MetricEntry::new(name, MetricValue::Double(value));
            entry.units = units.into();
            entry.source = "gmetad".into();
            entry
        };
        let serve_requests = counter("serve.requests_total");
        let serve_hits = counter("serve.cache_hits_total");
        let metrics = vec![
            metric("self.fetch_p99_ms", p99_ms("fetch_us"), "ms"),
            metric("self.parse_p99_ms", p99_ms("parse_us"), "ms"),
            metric("self.summarize_p99_ms", p99_ms("summarize_us"), "ms"),
            metric("self.archive_p99_ms", p99_ms("archive_us"), "ms"),
            metric("self.query_p99_ms", p99_ms("query_us"), "ms"),
            metric(
                "self.cpu_busy_ms",
                self.meter.total_busy().as_secs_f64() * 1e3,
                "ms",
            ),
            metric("self.polls_ok_total", counter("polls_ok_total"), "polls"),
            metric(
                "self.polls_failed_total",
                counter("polls_failed_total"),
                "polls",
            ),
            metric(
                "self.polls_backoff_total",
                counter("polls_backoff_total"),
                "polls",
            ),
            metric(
                "self.breaker_opens_total",
                counter("breaker_opens_total"),
                "transitions",
            ),
            metric("self.bytes_in_total", counter("bytes_in_total"), "bytes"),
            // Delta-aware ingest: how much of each round was served from
            // the fingerprint cache instead of re-parsed.
            metric(
                "self.ingest_hosts_reused_total",
                counter("ingest.hosts_reused"),
                "hosts",
            ),
            metric(
                "self.ingest_hosts_rebuilt_total",
                counter("ingest.hosts_rebuilt"),
                "hosts",
            ),
            metric(
                "self.ingest_docs_reused_total",
                counter("ingest.docs_reused"),
                "rounds",
            ),
            metric(
                "self.intern_atoms_live",
                snap.gauge("ingest.atoms_live").unwrap_or(0) as f64,
                "atoms",
            ),
            // Store summary maintenance: incremental deltas vs
            // anti-drift rebuilds.
            metric(
                "self.summary_deltas_total",
                counter("summary.delta_applied"),
                "deltas",
            ),
            metric(
                "self.summary_rebuilds_total",
                counter("summary.rebuilds"),
                "rebuilds",
            ),
            metric("self.queries_total", queries_total as f64, "queries"),
            metric(
                "self.queries_per_round",
                queries_total.saturating_sub(queries_last) as f64,
                "queries",
            ),
            // The GQL query/subscription surface.
            metric(
                "self.gql_queries_total",
                counter("query.gql_total"),
                "queries",
            ),
            metric(
                "self.query_errors_total",
                counter("query.errors_total"),
                "queries",
            ),
            metric(
                "self.subs_active",
                snap.gauge("sub.active").unwrap_or(0) as f64,
                "subscriptions",
            ),
            metric(
                "self.sub_frames_total",
                counter("sub.pushed_frames_total"),
                "frames",
            ),
            metric(
                "self.sub_bytes_total",
                counter("sub.pushed_bytes_total"),
                "bytes",
            ),
            metric(
                "self.sub_evicted_total",
                counter("sub.evicted_total"),
                "subscriptions",
            ),
            metric(
                "self.archive_updates_total",
                self.archive_updates() as f64,
                "updates",
            ),
            metric("self.archives", self.archive_count() as f64, "archives"),
            metric(
                "self.archive_journal_bytes",
                snap.gauge("archive.journal_bytes").unwrap_or(0) as f64,
                "bytes",
            ),
            metric(
                "self.sources",
                snap.gauge("sources").unwrap_or(0) as f64,
                "sources",
            ),
            // The serving front tier (when the daemon's ports run
            // through `query_tier`/`dump_tier`, which share this
            // registry).
            metric("self.serve_requests_total", serve_requests, "requests"),
            metric(
                "self.serve_cache_hit_ratio",
                if serve_requests > 0.0 {
                    serve_hits / serve_requests
                } else {
                    0.0
                },
                "ratio",
            ),
            metric(
                "self.serve_shed_total",
                counter("serve.shed_total"),
                "requests",
            ),
            metric(
                "self.serve_ratelimited_total",
                counter("serve.ratelimited_total"),
                "requests",
            ),
            metric(
                "self.serve_evicted_total",
                counter("serve.evicted_total"),
                "connections",
            ),
            metric(
                "self.serve_latency_p99_ms",
                p99_ms("serve.latency_us"),
                "ms",
            ),
            // Federation-wide freshness: p99 host data age and per-hop
            // grid lag as seen at this level, plus the two edge-policy
            // counters. Republished as self.* so a root query reads the
            // whole tree's lag profile level by level.
            metric(
                "self.freshness_age_p99_s",
                snap.histogram("freshness.age_s")
                    .map(|h| h.quantile(0.99) as f64)
                    .unwrap_or(0.0),
                "s",
            ),
            metric(
                "self.freshness_hop_lag_p99_s",
                snap.histogram("freshness.hop_lag_s")
                    .map(|h| h.quantile(0.99) as f64)
                    .unwrap_or(0.0),
                "s",
            ),
            metric(
                "self.freshness_missing_ts_total",
                counter("freshness.missing_ts"),
                "stamps",
            ),
            metric(
                "self.freshness_skew_total",
                counter("freshness.skew_total"),
                "stamps",
            ),
        ];
        let mut host = HostNode::new(self.self_host_name(), "127.0.0.1");
        host.reported = Some(now);
        host.tn = 0;
        host.metrics = metrics;
        let mut cluster = ClusterNode::with_hosts(self.self_cluster_name(), vec![host]);
        cluster.localtime = Some(now);
        let summary = self
            .meter
            .time(WorkCategory::Summarize, || cluster.summary());
        let state = SourceState::cluster(self.self_cluster_name(), cluster, summary, now);
        if self.config.archive != ArchiveMode::Off {
            let shard = self.archives.shard(&self.self_cluster_name());
            let mut set = shard.lock();
            self.meter.time(WorkCategory::Archive, || {
                archive_source(&mut set, &state, self.config.tree_mode, now)
            });
        }
        self.store.replace(state);
    }

    /// Evaluate a parsed GQL query over this daemon's store, returning
    /// the row set and the store revision it reflects. Down sources
    /// contribute in summary form (their rewritten `hosts_down`
    /// summaries), exactly as path queries serve them; in `summary`
    /// scope the daemon's own grid rollup appears as one more node.
    /// Retries if a poll round swaps the store mid-walk, so the rows
    /// and revision always correspond.
    pub fn gql_rows(&self, query: &GqlQuery) -> (RowSet, u64) {
        loop {
            let revision = self.store.revision();
            let sources = self.store.list();
            let root_summary = self.store.root_summary();
            let mut roots: Vec<RootRef<'_>> = Vec::with_capacity(sources.len() + 1);
            for state in sources.iter() {
                let down = matches!(state.status, crate::store::SourceStatus::Down { .. });
                match (&state.data, down) {
                    (crate::store::SourceData::Cluster(c), false) => {
                        roots.push(RootRef::Cluster(c));
                    }
                    (crate::store::SourceData::Grid(g), false) => {
                        roots.push(RootRef::Grid(g));
                    }
                    (crate::store::SourceData::Cluster(_), true) => {
                        roots.push(RootRef::ClusterSummary {
                            name: &state.name,
                            summary: &state.summary,
                        });
                    }
                    (crate::store::SourceData::Grid(_), true) => {
                        roots.push(RootRef::GridSummary {
                            name: &state.name,
                            summary: &state.summary,
                        });
                    }
                }
            }
            if query.is_summary() {
                roots.push(RootRef::GridSummary {
                    name: &self.config.grid_name,
                    summary: &root_summary,
                });
            }
            let rows = query.evaluate("", &roots);
            if self.store.revision() == revision {
                return (rows, revision);
            }
        }
    }

    /// The continuous-query subscription registry, shared by every tier
    /// built from this daemon. Created on first use; evaluation holds a
    /// weak reference so the registry never keeps the daemon alive.
    pub fn subscription_registry(self: &Arc<Self>) -> Arc<SubscriptionRegistry> {
        let registry = self.subs.get_or_init(|| {
            let daemon = Arc::downgrade(self);
            Arc::new(SubscriptionRegistry::new(
                Box::new(move |query| match daemon.upgrade() {
                    Some(daemon) => daemon.gql_rows(query),
                    None => (Vec::new(), 0),
                }),
                self.config.max_subscriptions,
                self.config.sub_queue_depth,
                &self.registry,
            ))
        });
        Arc::clone(registry)
    }

    /// Answer one query string (the interactive-port protocol). Malformed
    /// queries produce a well-formed `<ERROR>` document whose `OFFSET`
    /// attribute is the byte position of the problem in the request.
    pub fn query(&self, raw: &str) -> String {
        let parsed = Query::parse_located(raw);
        // `?filter=telemetry` asks about the daemon, not the monitored
        // tree: answer with a standalone TELEMETRY document. Served
        // outside the QueryServe timing so reading the meters doesn't
        // perturb them.
        if let Ok(query) = &parsed {
            if query.filter == Some(Filter::Telemetry) {
                self.registry.counter("telemetry_queries_total").inc();
                return self.telemetry_xml();
            }
            // Likewise `?filter=trace`: the structured span-event log,
            // as JSON rather than XML — it's for tooling, not browsers.
            if query.filter == Some(Filter::Trace) {
                self.registry.counter("trace_queries_total").inc();
                return self.trace_json();
            }
        }
        self.registry.counter("queries_total").inc();
        self.meter.time(WorkCategory::QueryServe, || {
            match parsed {
                Ok(query) => {
                    // `?filter=gql:<expr>` evaluates over the whole
                    // tree, whatever the path says (like telemetry and
                    // trace, it is a root-level view).
                    if let Some(Filter::Gql(expr)) = &query.filter {
                        self.registry.counter("query.gql_total").inc();
                        return match GqlQuery::parse(expr) {
                            Ok(compiled) => {
                                let (rows, revision) = self.gql_rows(&compiled);
                                render_xml(&rows, revision)
                            }
                            // Unreachable in practice — the expression
                            // was validated when the query parsed — but
                            // never hang a client over it.
                            Err(e) => error_xml(e.offset, &e.message),
                        };
                    }
                    self.registry
                        .histogram("query.depth")
                        .record(query.depth() as u64);
                    query_engine::answer(&self.store, &self.config, &query, self.clock())
                }
                Err((e, offset)) => {
                    // Never hang a client: a malformed query gets a
                    // complete <ERROR> document pointing at the byte
                    // where parsing failed.
                    self.registry.counter("query.errors_total").inc();
                    error_xml(offset, &e.to_string())
                }
            }
        })
    }

    /// A transport handler serving this daemon's query port.
    pub fn handler(self: &Arc<Self>) -> Arc<dyn RequestHandler> {
        let daemon = Arc::clone(self);
        Arc::new(move |request: &str| daemon.query(request))
    }

    /// A transport handler for the `xml_port` service: the full dump,
    /// whatever the request line says — gmetad 2.5's behaviour, where
    /// connecting to 8651 streams the whole tree.
    pub fn dump_handler(self: &Arc<Self>) -> Arc<dyn RequestHandler> {
        let daemon = Arc::clone(self);
        Arc::new(move |_request: &str| daemon.query("/"))
    }

    /// Wrap the interactive (path-query) service in a serving front
    /// tier: revision-keyed response cache plus admission control,
    /// instrumented into this daemon's registry. The cache key is the
    /// store's mutation counter, so responses stay byte-identical to a
    /// fresh render until the next poll round installs new snapshots.
    pub fn query_tier(self: &Arc<Self>, options: ServeOptions) -> Arc<FrontTier> {
        let store_revision = {
            let daemon = Arc::clone(self);
            move || daemon.store.revision()
        };
        let subs = self
            .config
            .subscriptions
            .then(|| self.subscription_registry());
        FrontTier::new_with_subscriptions(
            self.handler(),
            store_revision,
            options,
            Arc::clone(&self.registry),
            subs,
        )
    }

    /// Wrap the `xml_port` (full dump) service in a serving front tier.
    /// Shares the registry — and therefore the `serve.*` instruments —
    /// with [`Gmetad::query_tier`], matching gmetad where both ports are
    /// one daemon.
    pub fn dump_tier(self: &Arc<Self>, options: ServeOptions) -> Arc<FrontTier> {
        let store_revision = {
            let daemon = Arc::clone(self);
            move || daemon.store.revision()
        };
        FrontTier::new(
            self.dump_handler(),
            store_revision,
            options,
            Arc::clone(&self.registry),
        )
    }

    /// Bind this daemon's query port at `addr`.
    pub fn serve_on(
        self: &Arc<Self>,
        transport: &dyn Transport,
        addr: &Addr,
    ) -> Result<Box<dyn ServerGuard>, ganglia_net::NetError> {
        transport.serve(addr, self.handler())
    }

    /// Fetch archived history for one metric (forensics, alarms, the web
    /// frontend's graphs).
    pub fn fetch_history(
        &self,
        key: &MetricKey,
        cf: ConsolidationFn,
        start: u64,
        end: u64,
    ) -> Option<Series> {
        self.archives.fetch(key, cf, start, end)
    }

    /// Number of metric archives this daemon maintains.
    pub fn archive_count(&self) -> usize {
        self.archives.archive_count()
    }

    /// Total RRD updates this daemon has performed.
    pub fn archive_updates(&self) -> u64 {
        self.archives.update_count()
    }

    /// Flush archives to disk if a persistence directory is configured.
    pub fn flush_archives(&self) -> Result<usize, ganglia_rrd::RrdError> {
        self.archives.flush()
    }

    /// Whether the archive tier journals updates (requires both
    /// `archive_journal on` and a persistence directory).
    pub fn archive_journal_enabled(&self) -> bool {
        self.archives.journal_enabled()
    }

    /// Rebuild archive state from disk after a restart: load every
    /// checkpointed `.rrd` file, drop any torn journal tail at the first
    /// bad CRC, and replay surviving journal records idempotently.
    pub fn recover_archives(&self) -> Result<ArchiveRecovery, ganglia_rrd::RrdError> {
        let report = self.archives.recover()?;
        self.registry
            .counter("archive.replayed_total")
            .add(report.replayed);
        self.registry
            .counter("archive.torn_tails_total")
            .add(report.torn_tails);
        Ok(report)
    }

    /// Group-commit every shard's pending journal records (one fsync per
    /// shard). Returns the bytes made durable.
    pub fn commit_archive_journal(&self) -> Result<u64, ganglia_rrd::RrdError> {
        let commit_start = Instant::now();
        match self.archives.commit_journals() {
            Ok(bytes) => {
                self.registry.counter("archive.journal_commits_total").inc();
                self.registry
                    .histogram("archive.journal_commit_us")
                    .record_duration(commit_start.elapsed());
                Ok(bytes)
            }
            Err(e) => {
                self.registry.counter("archive.journal_errors_total").inc();
                Err(e)
            }
        }
    }

    /// Checkpoint every shard: atomically rewrite all dirty `.rrd` files
    /// and truncate the journals. Returns the files written.
    pub fn checkpoint_archives(&self, now: u64) -> Result<usize, ganglia_rrd::RrdError> {
        let checkpoint_start = Instant::now();
        let files = self.archives.checkpoint(now).inspect_err(|_| {
            self.registry
                .counter("archive.checkpoint_errors_total")
                .inc()
        })?;
        self.registry.counter("archive.checkpoints_total").inc();
        self.registry
            .counter("archive.checkpoint_files_total")
            .add(files as u64);
        self.registry
            .histogram("archive.checkpoint_us")
            .record_duration(checkpoint_start.elapsed());
        Ok(files)
    }

    /// Checkpoint at most `max_files` dirty databases (incremental I/O
    /// bound; a shard's journal is truncated only once it fully drains).
    pub fn checkpoint_archives_partial(
        &self,
        now: u64,
        max_files: usize,
    ) -> Result<CheckpointTotals, ganglia_rrd::RrdError> {
        self.archives.checkpoint_partial(now, max_files)
    }

    /// Every archived metric key, sorted (crash-consistency audits).
    pub fn archive_keys(&self) -> Vec<MetricKey> {
        self.archives.keys()
    }

    /// Journal/durability status of one source's shard.
    pub fn archive_journal_stats(&self, source: &str) -> Option<ShardJournal> {
        self.archives.shard_journal(source)
    }

    /// Aggregate journal accounting across every shard.
    pub fn archive_journal_totals(&self) -> ganglia_rrd::JournalStats {
        self.archives.journal_totals()
    }

    /// Per-source poller statistics and health.
    pub fn poller_stats(&self) -> Vec<PollerStats> {
        self.pollers
            .read()
            .iter()
            .map(|slot| {
                let p = slot.lock();
                let name = p.cfg().name.clone();
                let phase = self.store.get(&name).map(|s| s.status);
                PollerStats {
                    name,
                    polls_ok: p.polls_ok,
                    polls_failed: p.polls_failed,
                    polls_backoff: p.polls_backoff,
                    failovers: p.failovers,
                    consecutive_failures: p.consecutive_failures,
                    breaker: p.current_breaker(),
                    phase,
                }
            })
            .collect()
    }

    /// Add a data source at runtime (used by the self-organizing join
    /// extension). Returns false if a source with that name exists.
    pub fn add_source(&self, cfg: crate::config::DataSourceCfg) -> bool {
        let mut pollers = self.pollers.write();
        if pollers
            .iter()
            .any(|slot| slot.lock().cfg().name == cfg.name)
        {
            return false;
        }
        pollers.push(Arc::new(Mutex::new(SourcePoller::new(cfg))));
        true
    }

    /// Remove a data source (and its stored snapshot and archives) at
    /// runtime.
    pub fn remove_source(&self, name: &str) -> bool {
        let mut pollers = self.pollers.write();
        let before = pollers.len();
        pollers.retain(|slot| slot.lock().cfg().name != name);
        let removed = pollers.len() != before;
        if removed {
            self.store.remove(name);
            self.archives.remove(name);
        }
        removed
    }

    /// Names of currently configured sources.
    pub fn source_names(&self) -> Vec<String> {
        self.pollers
            .read()
            .iter()
            .map(|slot| slot.lock().cfg().name.clone())
            .collect()
    }

    /// Run the daemon on real wall-clock time in a background thread:
    /// poll every `poll_interval` seconds until `stop` is set.
    pub fn run_background(
        self: Arc<Self>,
        transport: Arc<dyn Transport>,
        stop: Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let interval = Duration::from_secs(self.config.poll_interval.max(1));
            let epoch = std::time::SystemTime::UNIX_EPOCH;
            while !stop.load(Ordering::SeqCst) {
                let now = std::time::SystemTime::now()
                    .duration_since(epoch)
                    .map(|d| d.as_secs())
                    .unwrap_or(0);
                let _ = self.poll_all(transport.as_ref(), now);
                // Sleep in small slices so stop is prompt.
                let mut slept = Duration::ZERO;
                while slept < interval && !stop.load(Ordering::SeqCst) {
                    let slice = Duration::from_millis(50).min(interval - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DataSourceCfg, TreeMode};
    use crate::store::SourceStatus;
    use ganglia_gmond::pseudo::ServedPseudoCluster;
    use ganglia_gmond::PseudoGmond;
    use ganglia_metrics::parse_document;
    use ganglia_net::SimNet;

    fn deploy(mode: TreeMode) -> (Arc<SimNet>, ServedPseudoCluster, Arc<Gmetad>) {
        let net = SimNet::new(1);
        let served = ServedPseudoCluster::serve(&net, PseudoGmond::new("meteor", 8, 42, 0), 2);
        let config = GmetadConfig::new("sdsc")
            .with_mode(mode)
            .with_source(DataSourceCfg::new("meteor", served.addrs().to_vec()).unwrap());
        let gmetad = Gmetad::new(config);
        (net, served, gmetad)
    }

    #[test]
    fn polls_populate_store_and_archives() {
        let (net, _served, gmetad) = deploy(TreeMode::NLevel);
        let results = gmetad.poll_all(&net, 15);
        assert!(results[0].is_ok());
        let state = gmetad.store().get("meteor").unwrap();
        assert_eq!(state.host_count(), 8);
        assert_eq!(state.status, SourceStatus::Fresh);
        // 8 hosts × 29 numeric metrics + 29 summary metrics (5 of the
        // 34 built-ins are strings and have no history).
        assert_eq!(gmetad.archive_count(), 8 * 29 + 29);
        assert!(gmetad.meter().total_busy() > Duration::ZERO);
    }

    #[test]
    fn query_port_serves_selected_subtrees() {
        let (net, _served, gmetad) = deploy(TreeMode::NLevel);
        gmetad.poll_all(&net, 15);
        let guard = gmetad.serve_on(&net, &Addr::new("sdsc-gmeta")).unwrap();
        let full = net
            .fetch(&guard.addr(), "/", Duration::from_secs(1))
            .unwrap();
        let host = net
            .fetch(&guard.addr(), "/meteor/meteor-0003", Duration::from_secs(1))
            .unwrap();
        assert!(host.len() < full.len() / 4);
        let doc = parse_document(&host).unwrap();
        assert_eq!(doc.host_count(), 1);
    }

    #[test]
    fn failure_marks_stale_and_records_unknowns() {
        let (net, _served, gmetad) = deploy(TreeMode::NLevel);
        gmetad.poll_all(&net, 15);
        let updates_before = gmetad.archive_updates();
        net.partition_prefix("meteor", true);
        let results = gmetad.poll_all(&net, 30);
        assert!(results[0].is_err());
        let state = gmetad.store().get("meteor").unwrap();
        assert_eq!(state.status, SourceStatus::Stale { since: 30 });
        assert_eq!(state.host_count(), 8, "last good snapshot retained");
        assert!(
            gmetad.archive_updates() > updates_before,
            "zero records written during downtime"
        );
        let stats = gmetad.poller_stats();
        assert_eq!(stats[0].polls_ok, 1);
        assert_eq!(stats[0].polls_failed, 1);
        assert_eq!(stats[0].consecutive_failures, 1);
        assert_eq!(stats[0].phase, Some(SourceStatus::Stale { since: 30 }));
    }

    #[test]
    fn sustained_failure_walks_down_and_rewrites_summary() {
        let (net, _served, gmetad) = deploy(TreeMode::NLevel);
        gmetad.poll_all(&net, 15);
        net.partition_prefix("meteor", true);
        // Default lifecycle: Down after TN > 60s from the last good poll.
        gmetad.poll_all(&net, 30);
        gmetad.poll_all(&net, 90);
        let state = gmetad.store().get("meteor").unwrap();
        assert_eq!(state.status, SourceStatus::Down { since: 90 });
        assert_eq!(state.summary.hosts_up, 0);
        assert_eq!(state.summary.hosts_down, 8);
        assert!(state.summary.metrics.is_empty());
        let root = gmetad.store().root_summary();
        assert_eq!(root.hosts_up, 0);
        assert_eq!(root.hosts_down, 8);
        // The query port reports the outage.
        let xml = gmetad.query("/");
        assert!(xml.contains("UP=\"0\""), "{xml}");
        assert!(xml.contains("DOWN=\"8\""), "{xml}");
        // Healing restores a fresh snapshot and full summary.
        net.partition_prefix("meteor", false);
        gmetad.poll_all(&net, 105);
        let state = gmetad.store().get("meteor").unwrap();
        assert_eq!(state.status, SourceStatus::Fresh);
        assert_eq!(state.summary.hosts_up, 8);
    }

    #[test]
    fn breaker_opens_after_threshold_and_stats_report_it() {
        let (net, _served, gmetad) = deploy(TreeMode::NLevel);
        gmetad.poll_all(&net, 15);
        net.partition_prefix("meteor", true);
        // Default threshold is 3 consecutive failures per endpoint; after
        // enough rounds every endpoint's breaker is open.
        for round in 1..=4 {
            gmetad.poll_all(&net, 15 + round * 15);
        }
        let stats = gmetad.poller_stats();
        assert_eq!(stats[0].consecutive_failures, 4);
        assert!(
            matches!(stats[0].breaker, BreakerState::Open { .. }),
            "expected open breaker, got {}",
            stats[0].breaker
        );
    }

    #[test]
    fn bad_query_yields_error_document_with_byte_offset() {
        let (net, _served, gmetad) = deploy(TreeMode::NLevel);
        gmetad.poll_all(&net, 15);
        // "/a//b" — the empty segment is detected at byte 3.
        let response = gmetad.query("/a//b?frob=1");
        assert!(
            response.starts_with("<?xml version=\"1.0\"?>"),
            "{response}"
        );
        assert!(response.contains("<ERROR SOURCE=\"gmetad\" OFFSET=\"3\">"));
        assert!(response.contains("empty segment"));
        // A malformed GQL expression is located within the whole input.
        let input = "/?filter=gql:metric =";
        let response = gmetad.query(input);
        assert!(
            response.contains("OFFSET=\"20\""),
            "expected the lone '=' at byte 20: {response}"
        );
        assert_eq!(
            gmetad.telemetry_snapshot().counter("query.errors_total"),
            Some(2)
        );
    }

    #[test]
    fn gql_filter_queries_the_tree() {
        let (net, _served, gmetad) = deploy(TreeMode::NLevel);
        gmetad.poll_all(&net, 15);
        let response = gmetad.query("/?filter=gql:metric == load_one | count");
        assert!(response.contains("<GQL REVISION="), "{response}");
        // 8 hosts, one load_one each, folded into one count row.
        assert!(response.contains("VAL=\"8\""), "{response}");
        assert!(response.contains("N=\"8\""), "{response}");
        // Summary scope sees the cluster roll-up and the root grid.
        let response = gmetad.query("/?filter=gql:summary | metric == #hosts_up");
        assert!(response.contains("CLUSTER=\"meteor\""), "{response}");
        assert!(response.contains("CLUSTER=\"sdsc\""), "{response}");
        assert_eq!(
            gmetad.telemetry_snapshot().counter("query.gql_total"),
            Some(2)
        );
    }

    #[test]
    fn subscriptions_push_deltas_after_poll_rounds() {
        use ganglia_query::{Delta, Mirror};
        let (net, served, gmetad) = deploy(TreeMode::NLevel);
        gmetad.poll_all(&net, 15);
        let subs = gmetad.subscription_registry();
        let handle = subs
            .subscribe("viewer", "metric == load_one | avg by cluster")
            .unwrap();
        let mut mirror = Mirror::new();
        mirror.apply(&Delta::parse(&handle.initial).unwrap());
        assert_eq!(mirror.len(), 1, "one cluster average");
        // A round that changes readings pushes a delta...
        served.advance(30);
        gmetad.poll_all(&net, 30);
        let frame = handle.next(Duration::from_secs(2)).unwrap();
        mirror.apply(&Delta::parse(&frame).unwrap());
        // ...and the replayed mirror matches a fresh one-shot query.
        let compiled = GqlQuery::parse("metric == load_one | avg by cluster").unwrap();
        let (rows, revision) = gmetad.gql_rows(&compiled);
        assert_eq!(mirror.render(), render_xml(&rows, revision));
    }

    #[test]
    fn dynamic_source_management() {
        let (_net, _served, gmetad) = deploy(TreeMode::NLevel);
        assert!(DataSourceCfg::new("ghost", vec![]).is_err());
        assert!(
            !gmetad.add_source(DataSourceCfg::new("meteor", vec![Addr::new("meteor/n0")]).unwrap())
        );
        assert!(
            gmetad.add_source(DataSourceCfg::new("nashi", vec![Addr::new("nashi/n0")]).unwrap())
        );
        assert_eq!(gmetad.source_names(), vec!["meteor", "nashi"]);
        assert!(gmetad.remove_source("nashi"));
        assert!(!gmetad.remove_source("nashi"));
        assert_eq!(gmetad.source_names(), vec!["meteor"]);
    }

    #[test]
    fn background_thread_polls_and_stops() {
        let (net, _served, gmetad) = deploy(TreeMode::NLevel);
        let stop = Arc::new(AtomicBool::new(false));
        let transport: Arc<dyn Transport> = Arc::new(Arc::clone(&net));
        let handle = Arc::clone(&gmetad).run_background(transport, Arc::clone(&stop));
        // Wait for at least one poll.
        for _ in 0..100 {
            if !gmetad.store().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(gmetad.store().len(), 1);
        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn two_level_tree_summarizes_at_the_parent() {
        // meteor -> sdsc gmetad -> root gmetad, N-level.
        let (net, _served, sdsc) = deploy(TreeMode::NLevel);
        sdsc.poll_all(&net, 15);
        let _guard = sdsc.serve_on(&net, &Addr::new("sdsc-gmeta")).unwrap();
        let root_cfg = GmetadConfig::new("root")
            .with_source(DataSourceCfg::new("sdsc", vec![Addr::new("sdsc-gmeta")]).unwrap());
        let root = Gmetad::new(root_cfg);
        root.poll_all(&net, 16);
        let state = root.store().get("sdsc").unwrap();
        assert_eq!(state.summary.hosts_up, 8);
        // Root archives ONLY summaries for the remote grid.
        assert_eq!(root.archive_count(), 29);
        // And its own report presents sdsc as a summary grid with the
        // authority pointer.
        let xml = root.query("/");
        assert!(xml.contains("AUTHORITY=\"http://sdsc/ganglia/\""));
        assert!(xml.contains("<HOSTS UP=\"8\""));
    }

    #[test]
    fn polls_feed_freshness_histograms() {
        let (net, served, gmetad) = deploy(TreeMode::NLevel);
        // The pseudo cluster last rendered at t=0; polling at t=15 sees
        // 15-second-old host reports and a 15-second hop lag.
        gmetad.poll_all(&net, 15);
        let snap = gmetad.telemetry_snapshot();
        let ages = snap.histogram("freshness.source.meteor.age_s").unwrap();
        assert_eq!(ages.count, 8);
        assert_eq!(ages.max, 15);
        assert_eq!(snap.histogram("freshness.hop_lag_s").unwrap().max, 15);
        assert_eq!(snap.counter("freshness.missing_ts"), None);
        // A re-render at poll time drives the ages to zero.
        served.advance(30);
        gmetad.poll_all(&net, 30);
        let snap = gmetad.telemetry_snapshot();
        assert_eq!(
            snap.histogram("freshness.source.meteor.age_s").unwrap().min,
            0
        );
    }

    #[test]
    fn trace_filter_serves_round_correlated_json() {
        use ganglia_telemetry::json;
        let (net, _served, gmetad) = deploy(TreeMode::NLevel);
        gmetad.poll_all(&net, 15);
        gmetad.poll_all(&net, 30);
        let raw = gmetad.query("/?filter=trace");
        let doc = json::parse(&raw).expect("trace output is valid JSON");
        assert_eq!(
            doc.get("source").and_then(|v| v.as_str()),
            Some("gmetad:sdsc")
        );
        assert_eq!(doc.get("round").and_then(|v| v.as_u64()), Some(2));
        let events = doc.get("events").expect("events array");
        let mut polls = 0;
        let mut last_poll_round = 0;
        let mut i = 0;
        while let Some(event) = events.index(i) {
            i += 1;
            let round = event.get("round").and_then(|v| v.as_u64()).unwrap();
            assert!((1..=2).contains(&round), "round {round} out of range");
            if event.get("stage").and_then(|v| v.as_str()) == Some("poll") {
                polls += 1;
                assert_eq!(event.get("source").and_then(|v| v.as_str()), Some("meteor"));
                assert_eq!(event.get("outcome").and_then(|v| v.as_str()), Some("ok"));
                assert!(round >= last_poll_round, "poll rounds must be monotone");
                last_poll_round = round;
            }
        }
        assert_eq!(polls, 2, "one poll event per round");
        // Failures stamp their outcome into the trace.
        net.partition_prefix("meteor", true);
        gmetad.poll_all(&net, 45);
        let raw = gmetad.query("/?filter=trace");
        assert!(
            raw.contains("\"outcome\":\"failed\""),
            "failed poll missing from trace: {raw}"
        );
    }

    #[test]
    fn failed_checkpoint_is_counted_and_keeps_the_journal() {
        let net = SimNet::new(1);
        let served = ServedPseudoCluster::serve(&net, PseudoGmond::new("meteor", 8, 42, 0), 1);
        let root = std::env::temp_dir().join(format!("gmetad-cp-err-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        // The source's archive directory is a regular file, so every
        // checkpoint write under it fails with NotADirectory.
        std::fs::write(root.join("meteor"), b"not a directory").unwrap();
        let mut config = GmetadConfig::new("sdsc")
            .with_source(DataSourceCfg::new("meteor", served.addrs().to_vec()).unwrap());
        config.archive = ArchiveMode::Directory(root.clone());
        config.archive_journal = true;
        config.archive_checkpoint_secs = 0;
        let gmetad = Gmetad::new(config);

        let results = gmetad.poll_all(&net, 15);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        let snap = gmetad.telemetry_snapshot();
        assert_eq!(snap.counter("archive.checkpoint_errors_total"), Some(1));
        assert_eq!(snap.counter("archive.checkpoints_total"), None);
        // The round's journal records are still the only durable copy of
        // its updates, so they were not truncated: a truncated journal
        // holds only its ~20-byte header, one round here journals KBs.
        let journal = gmetad.archive_journal_stats("meteor").unwrap();
        assert!(journal.stats.durable_bytes > 1024, "{journal:?}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
