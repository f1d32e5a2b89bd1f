//! Per-source polling with fail-over and endpoint circuit breaking.
//!
//! Each data source lists several redundant endpoints (any gmon node can
//! serve the whole cluster). The poller tries them in order starting at
//! the last one that worked: a stop failure moves on immediately, and a
//! completely unreachable source is retried "at a steady frequency,
//! ensuring that failures do not cause permanent fissures in the
//! monitoring tree" (paper §2.1) — every poll round still probes at
//! least one endpoint, forever.
//!
//! What the steady retry no longer does is hammer: each endpoint carries
//! an [`EndpointHealth`] circuit breaker, and once an endpoint has
//! failed [`RetryPolicy::breaker_threshold`] times in a row it is only
//! probed on a capped exponential-backoff schedule. A round in which
//! every breaker is open degenerates to exactly one probe — the
//! endpoint whose breaker re-closes soonest — instead of one
//! timeout-costing attempt per redundant address.

use std::time::{Duration, Instant};

use std::sync::Arc;

use ganglia_metrics::model::{GridBody, GridNode, SummaryBody};
use ganglia_metrics::{GridItem, Ingester};
use ganglia_net::transport::{FetchBuffer, Transport};
use ganglia_net::NetError;
use ganglia_telemetry::{Counter, HistogramHandle, Registry};

use crate::config::{DataSourceCfg, TreeMode};
use crate::error::GmetadError;
use crate::freshness::FreshnessRecorder;
use crate::health::{endpoint_seed, BreakerState, EndpointHealth, RetryPolicy};
use crate::instrument::{WorkCategory, WorkMeter};
use crate::store::SourceState;

/// The request an N-level parent sends every source: a gmetad answers
/// it with its grid in summary form (every source's summary, O(C·m)),
/// a gmond ignores its request line and sends its cluster.
pub const SUMMARY_REQUEST: &str = "/?filter=summary";

/// The request line a parent of `mode` polls its sources with. An
/// N-level parent keeps only a remote grid's summary, so it asks for
/// the summary form unless `full_dump_links` asks for the paper's full
/// dump; a 1-level parent keeps everything and always asks for `/`.
/// Either answer folds to the same stored state.
pub fn poll_request(mode: TreeMode, full_dump_links: bool) -> &'static str {
    match mode {
        TreeMode::NLevel if !full_dump_links => SUMMARY_REQUEST,
        _ => "/",
    }
}

/// Wall-clock budget for one poll round. Each endpoint attempt's
/// timeout is clamped to the remaining budget, so a hung source
/// degrades to a timeout failure at the round deadline instead of
/// stalling the whole round behind its full per-endpoint timeouts.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundBudget {
    deadline: Option<Instant>,
}

impl RoundBudget {
    /// No deadline: every attempt gets the full fetch timeout.
    pub fn unbounded() -> RoundBudget {
        RoundBudget { deadline: None }
    }

    /// Every attempt must finish by `deadline`.
    pub fn until(deadline: Instant) -> RoundBudget {
        RoundBudget {
            deadline: Some(deadline),
        }
    }

    /// Clamp a per-attempt timeout to the remaining budget. `None`
    /// means the budget is spent: do not attempt at all.
    pub fn clamp(&self, timeout: Duration) -> Option<Duration> {
        match self.deadline {
            None => Some(timeout),
            Some(deadline) => {
                let left = deadline.checked_duration_since(Instant::now())?;
                if left.is_zero() {
                    None
                } else {
                    Some(timeout.min(left))
                }
            }
        }
    }
}

/// Why a whole round failed, with the counter taxonomy the caller
/// needs: a round where the normal rotation probed nothing (every
/// breaker open) is "backoff, did not probe", not "probed and failed".
struct FetchFailure {
    errors: Vec<NetError>,
    /// The rotation skipped every endpoint: only the steady-retry
    /// forced probe (if the budget allowed one) ran this round.
    breaker_idle: bool,
    /// The round budget expired before every endpoint could be tried.
    deadline_hit: bool,
}

/// Polling state for one data source.
#[derive(Debug)]
pub struct SourcePoller {
    cfg: DataSourceCfg,
    /// Index of the endpoint that served the last successful poll.
    cursor: usize,
    /// Per-endpoint health, parallel to `cfg.addrs`.
    health: Vec<EndpointHealth>,
    /// Delta-aware parser: reuses the previous round's host nodes and
    /// summary contributions when their bytes did not change.
    ingester: Ingester,
    /// Reusable response buffer (keeps its allocation across rounds).
    buf: FetchBuffer,
    /// This source's instruments in the registry it is polled with.
    instruments: Option<SourceInstruments>,
    /// Consecutive fully-failed rounds.
    pub consecutive_failures: u32,
    /// Lifetime counters.
    pub polls_ok: u64,
    pub polls_failed: u64,
    /// Failed rounds in which every breaker was open, so the normal
    /// rotation probed nothing (at most the steady-retry probe ran).
    /// Kept separate from `polls_failed` so backoff rounds don't read
    /// as fresh evidence of trouble.
    pub polls_backoff: u64,
    pub failovers: u64,
}

impl SourcePoller {
    /// A poller for one configured source. [`DataSourceCfg::new`]
    /// guarantees a non-empty address list.
    pub fn new(cfg: DataSourceCfg) -> SourcePoller {
        let health = cfg
            .addrs
            .iter()
            .map(|addr| EndpointHealth::new(endpoint_seed(addr.as_str())))
            .collect();
        SourcePoller {
            cfg,
            cursor: 0,
            health,
            ingester: Ingester::new(),
            buf: FetchBuffer::new(),
            instruments: None,
            consecutive_failures: 0,
            polls_ok: 0,
            polls_failed: 0,
            polls_backoff: 0,
            failovers: 0,
        }
    }

    /// The source configuration.
    pub fn cfg(&self) -> &DataSourceCfg {
        &self.cfg
    }

    /// The endpoint currently preferred.
    pub fn current_addr(&self) -> &ganglia_net::Addr {
        &self.cfg.addrs[self.cursor]
    }

    /// Health records, parallel to `cfg().addrs`.
    pub fn endpoint_health(&self) -> &[EndpointHealth] {
        &self.health
    }

    /// Breaker state of the currently preferred endpoint.
    pub fn current_breaker(&self) -> BreakerState {
        self.health[self.cursor].breaker
    }

    /// One poll round: fetch (with fail-over and circuit breaking),
    /// parse, and build the new snapshot. The request is what a default
    /// gmetad of `mode` sends ([`poll_request`]). On total failure every
    /// attempted endpoint's error is reported.
    pub fn poll(
        &mut self,
        transport: &dyn Transport,
        mode: TreeMode,
        timeout: Duration,
        policy: &RetryPolicy,
        meter: &WorkMeter,
        now: u64,
    ) -> Result<SourceState, GmetadError> {
        self.poll_bounded(
            transport,
            mode,
            poll_request(mode, false),
            timeout,
            policy,
            meter,
            now,
            &RoundBudget::unbounded(),
        )
    }

    /// [`SourcePoller::poll`] sending `request`, under a wall-clock
    /// [`RoundBudget`]: each endpoint attempt's timeout is clamped to
    /// the remaining budget, and once the budget is spent the remaining
    /// endpoints fail with a timeout instead of being probed.
    #[allow(clippy::too_many_arguments)]
    pub fn poll_bounded(
        &mut self,
        transport: &dyn Transport,
        mode: TreeMode,
        request: &str,
        timeout: Duration,
        policy: &RetryPolicy,
        meter: &WorkMeter,
        now: u64,
        budget: &RoundBudget,
    ) -> Result<SourceState, GmetadError> {
        // The response buffer is moved out for the duration of the round
        // so the borrow checker lets `self` methods take it by parameter;
        // it is restored (with its allocation and size hint) either way.
        let mut buf = std::mem::take(&mut self.buf);
        let result = self.poll_inner(
            transport, mode, request, timeout, policy, meter, now, budget, &mut buf,
        );
        self.buf = buf;
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn poll_inner(
        &mut self,
        transport: &dyn Transport,
        mode: TreeMode,
        request: &str,
        timeout: Duration,
        policy: &RetryPolicy,
        meter: &WorkMeter,
        now: u64,
        budget: &RoundBudget,
        buf: &mut FetchBuffer,
    ) -> Result<SourceState, GmetadError> {
        let registry = std::sync::Arc::clone(meter.registry());
        let fetch_start = Instant::now();
        let served_by = match self
            .fetch_with_failover(transport, request, timeout, policy, meter, now, budget, buf)
        {
            Ok(served) => served,
            Err(failure) => {
                self.consecutive_failures += 1;
                if failure.deadline_hit {
                    registry.counter("polls_deadline_total").inc();
                }
                if failure.breaker_idle {
                    // Backoff round: nothing (or only the steady
                    // probe) ran. Counted apart from real failures
                    // so telemetry distinguishes "probed and
                    // failed" from "backoff, did not probe".
                    self.polls_backoff += 1;
                    registry.counter("polls_backoff_total").inc();
                } else {
                    self.polls_failed += 1;
                    registry.counter("polls_failed_total").inc();
                }
                return Err(GmetadError::AllHostsFailed {
                    source: self.cfg.name.clone(),
                    errors: failure.errors,
                });
            }
        };
        // Per-source telemetry alongside the category-wide accounting:
        // fetch latency, bytes on the wire, parse latency.
        let fetch_elapsed = fetch_start.elapsed();
        let bytes = buf.len() as u64;
        let source = self.instruments(&registry);
        source.fetch_us().record_duration(fetch_elapsed);
        registry.counter("bytes_in_total").add(bytes);
        source.bytes_in().add(bytes);
        let parse_start = Instant::now();
        let ingested = match self.ingester.ingest(buf.as_str()) {
            Ok(ingested) if !ingested.doc.items.is_empty() => ingested,
            failed => {
                meter.record(WorkCategory::Parse, parse_start.elapsed());
                // A garbage or truncated report counts against the
                // endpoint that served it: enough of them in a row and
                // its breaker opens, failing the source over. So does
                // a refusal: storing its empty document would replace
                // the last good snapshot with zero hosts.
                self.record_failure_counting_transitions(served_by, now, policy, meter);
                self.polls_failed += 1;
                self.consecutive_failures += 1;
                registry.counter("polls_failed_total").inc();
                let source = self.cfg.name.clone();
                return Err(match failed {
                    Err(error) => {
                        registry.counter("parse_errors_total").inc();
                        GmetadError::BadReport { source, error }
                    }
                    Ok(_) => GmetadError::EmptyReport { source },
                });
            }
        };
        let stats = ingested.stats;
        // The ingester times its internal summary merges; book those as
        // Summarize and the remainder of the call as Parse, mirroring
        // the split the rebuild-every-round path reported.
        let total = parse_start.elapsed();
        meter.record(
            WorkCategory::Parse,
            total.saturating_sub(stats.summarize_time),
        );
        meter.record_busy_only(WorkCategory::Summarize, stats.summarize_time);
        self.instruments(&registry)
            .parse_us()
            .record_duration(total);
        registry.counter("ingest.bytes_total").add(stats.bytes);
        registry
            .counter("ingest.hosts_reused")
            .add(stats.hosts_reused);
        registry
            .counter("ingest.hosts_rebuilt")
            .add(stats.hosts_rebuilt);
        registry
            .counter("ingest.summaries_reused")
            .add(stats.summaries_reused);
        registry
            .counter("ingest.summaries_direct")
            .add(stats.summaries_direct);
        registry
            .counter("ingest.dup_fallbacks")
            .add(stats.dup_fallbacks);
        if stats.doc_reused {
            registry.counter("ingest.docs_reused").inc();
        }
        self.health[served_by].record_success(now);
        self.polls_ok += 1;
        self.consecutive_failures = 0;
        registry.counter("polls_ok_total").inc();
        self.instruments(&registry)
            .record_freshness(&ingested.doc, now);
        Ok(build_state_prepared(
            &self.cfg.name,
            ingested.doc,
            ingested.summary,
            mode,
            now,
        ))
    }

    /// Fetch into `buf`, returning the index of the endpoint that
    /// served the response.
    #[allow(clippy::too_many_arguments)]
    fn fetch_with_failover(
        &mut self,
        transport: &dyn Transport,
        request: &str,
        timeout: Duration,
        policy: &RetryPolicy,
        meter: &WorkMeter,
        now: u64,
        budget: &RoundBudget,
        buf: &mut FetchBuffer,
    ) -> Result<usize, FetchFailure> {
        let addr_count = self.cfg.addrs.len();
        let mut errors = Vec::new();
        let mut attempted = false;
        let mut deadline_hit = false;
        for attempt in 0..addr_count {
            let idx = (self.cursor + attempt) % addr_count;
            if !self.health[idx].allows_attempt(now) {
                continue;
            }
            let Some(clamped) = budget.clamp(timeout) else {
                // The round deadline passed before this endpoint could
                // be probed: it fails with a timeout, but its breaker
                // is not charged — there is no evidence against it.
                errors.push(NetError::Timeout(self.cfg.addrs[idx].clone()));
                attempted = true;
                deadline_hit = true;
                break;
            };
            attempted = true;
            match self.try_endpoint(
                idx, transport, request, clamped, policy, meter, now, false, buf,
            ) {
                Ok(()) => {
                    if attempt > 0 {
                        self.failovers += 1;
                        self.cursor = idx; // stick with the node that works
                    }
                    return Ok(idx);
                }
                Err(e) => errors.push(e),
            }
        }
        if !attempted {
            // Every breaker is open. The paper's steady-retry guarantee
            // (§2.1) still holds: probe the one endpoint whose breaker
            // re-closes soonest, so a healed source is rediscovered
            // within one poll round of its deadline — and a dead one
            // costs a single timeout per round, not one per address.
            let idx = (0..addr_count)
                .min_by_key(|&i| (self.health[i].next_probe_at(now), i))
                .expect("validated cfg has at least one address");
            match budget.clamp(timeout) {
                None => {
                    errors.push(NetError::Timeout(self.cfg.addrs[idx].clone()));
                    deadline_hit = true;
                }
                Some(clamped) => {
                    match self.try_endpoint(
                        idx, transport, request, clamped, policy, meter, now, true, buf,
                    ) {
                        Ok(()) => {
                            if idx != self.cursor {
                                self.failovers += 1;
                                self.cursor = idx;
                            }
                            return Ok(idx);
                        }
                        Err(e) => errors.push(e),
                    }
                }
            }
            return Err(FetchFailure {
                errors,
                breaker_idle: true,
                deadline_hit,
            });
        }
        Err(FetchFailure {
            errors,
            breaker_idle: false,
            deadline_hit,
        })
    }

    /// One exchange with one endpoint, updating its health record.
    /// `forced` marks a steady-retry probe made while every breaker was
    /// open: its duration still counts as fetch busy-time, but the
    /// sample lands in the `fetch_probe_us` histogram so the main fetch
    /// quantiles keep describing live rotations only.
    #[allow(clippy::too_many_arguments)]
    fn try_endpoint(
        &mut self,
        idx: usize,
        transport: &dyn Transport,
        request: &str,
        timeout: Duration,
        policy: &RetryPolicy,
        meter: &WorkMeter,
        now: u64,
        forced: bool,
        buf: &mut FetchBuffer,
    ) -> Result<(), NetError> {
        self.health[idx].begin_attempt(now);
        let addr = &self.cfg.addrs[idx];
        let start = Instant::now();
        let result = transport
            .fetch_into(addr, request, timeout, buf)
            .map(|_| ());
        let elapsed = start.elapsed();
        if forced {
            meter.record_busy_only(WorkCategory::Fetch, elapsed);
            meter
                .registry()
                .histogram("fetch_probe_us")
                .record_duration(elapsed);
        } else {
            meter.record(WorkCategory::Fetch, elapsed);
        }
        match &result {
            // Success is recorded only after the report parses (see
            // `poll`); a fetch that returns garbage must not close the
            // breaker.
            Ok(_) => {}
            Err(_) => self.record_failure_counting_transitions(idx, now, policy, meter),
        }
        result
    }

    /// Record an endpoint failure, counting closed→open breaker
    /// transitions into the telemetry registry.
    fn record_failure_counting_transitions(
        &mut self,
        idx: usize,
        now: u64,
        policy: &RetryPolicy,
        meter: &WorkMeter,
    ) {
        let was_open = matches!(self.health[idx].breaker, BreakerState::Open { .. });
        self.health[idx].record_failure(now, policy);
        if !was_open && matches!(self.health[idx].breaker, BreakerState::Open { .. }) {
            let registry = meter.registry();
            registry.counter("breaker_opens_total").inc();
            self.instruments(registry).breaker_opens().inc();
        }
    }

    /// This source's instruments, tied to `registry` the first time the
    /// poller records anything; a gmetad polls each of its pollers with
    /// its one meter.
    fn instruments(&mut self, registry: &Arc<Registry>) -> &mut SourceInstruments {
        let name = &self.cfg.name;
        self.instruments
            .get_or_insert_with(|| SourceInstruments::new(name, registry))
    }

    /// The histogram a finished poll slot's wall time goes to:
    /// `source.<name>.round_idle_us` for a backoff round, else
    /// `source.<name>.round_us`.
    pub(crate) fn round_histogram(
        &mut self,
        registry: &Arc<Registry>,
        idle: bool,
    ) -> HistogramHandle {
        let source = self.instruments(registry);
        let (slot, suffix) = if idle {
            (&mut source.round_idle_us, "round_idle_us")
        } else {
            (&mut source.round_us, "round_us")
        };
        histogram(&source.registry, &source.prefix, slot, suffix).clone()
    }
}

/// One source's `source.<name>.*` and `freshness.*` instruments. Each
/// is resolved from the registry the first time it records, so the
/// registry holds exactly the names and values per-poll lookups gave,
/// and then kept: a steady-state poll formats no instrument name.
#[derive(Debug)]
struct SourceInstruments {
    registry: Arc<Registry>,
    /// `source.<name>.`
    prefix: String,
    fetch_us: Option<HistogramHandle>,
    bytes_in: Option<Counter>,
    parse_us: Option<HistogramHandle>,
    breaker_opens: Option<Counter>,
    round_us: Option<HistogramHandle>,
    round_idle_us: Option<HistogramHandle>,
    freshness: FreshnessRecorder,
}

fn histogram<'a>(
    registry: &Registry,
    prefix: &str,
    slot: &'a mut Option<HistogramHandle>,
    suffix: &str,
) -> &'a HistogramHandle {
    slot.get_or_insert_with(|| registry.histogram(&format!("{prefix}{suffix}")))
}

fn counter<'a>(
    registry: &Registry,
    prefix: &str,
    slot: &'a mut Option<Counter>,
    suffix: &str,
) -> &'a Counter {
    slot.get_or_insert_with(|| registry.counter(&format!("{prefix}{suffix}")))
}

impl SourceInstruments {
    fn new(source: &str, registry: &Arc<Registry>) -> SourceInstruments {
        SourceInstruments {
            registry: Arc::clone(registry),
            prefix: format!("source.{source}."),
            fetch_us: None,
            bytes_in: None,
            parse_us: None,
            breaker_opens: None,
            round_us: None,
            round_idle_us: None,
            freshness: FreshnessRecorder::new(source),
        }
    }

    fn fetch_us(&mut self) -> &HistogramHandle {
        histogram(&self.registry, &self.prefix, &mut self.fetch_us, "fetch_us")
    }

    fn bytes_in(&mut self) -> &Counter {
        counter(
            &self.registry,
            &self.prefix,
            &mut self.bytes_in,
            "bytes_in_total",
        )
    }

    fn parse_us(&mut self) -> &HistogramHandle {
        histogram(&self.registry, &self.prefix, &mut self.parse_us, "parse_us")
    }

    fn breaker_opens(&mut self) -> &Counter {
        counter(
            &self.registry,
            &self.prefix,
            &mut self.breaker_opens,
            "breaker_opens_total",
        )
    }

    fn record_freshness(&mut self, doc: &ganglia_metrics::GangliaDoc, now: u64) {
        self.freshness.record(&self.registry, doc, now);
    }
}

/// Turn a parsed child report into this gmetad's stored snapshot.
///
/// * A gmond report (one `CLUSTER`) is a **local** cluster: kept at full
///   detail — this gmetad is its authority.
/// * A gmetad report (a `GRID`) is a **remote** grid: "Gmeta only keeps
///   numerical summaries of data from clusters it is not an authority
///   on" (§3.2) under the N-level design; the 1-level design keeps the
///   whole expansion.
pub fn build_state(
    source_name: &str,
    doc: ganglia_metrics::GangliaDoc,
    mode: TreeMode,
    meter: &WorkMeter,
    now: u64,
) -> SourceState {
    // A single item's summary verbatim, otherwise the in-order merge a
    // synthetic wrapping grid computes — the rollup an `Ingester` makes.
    let summary = meter.time(WorkCategory::Summarize, || match doc.items.as_slice() {
        [item] => item.summary(),
        items => {
            let mut merged = SummaryBody::default();
            for item in items {
                merged.merge(&item.summary());
            }
            merged
        }
    });
    build_state_prepared(source_name, doc, Arc::new(summary), mode, now)
}

/// [`build_state`] with the rollup already computed (or reused) by the
/// [`Ingester`], so nothing is re-summarized here — an unchanged round
/// installs the previous round's `Arc`'d summary untouched.
pub fn build_state_prepared(
    source_name: &str,
    doc: ganglia_metrics::GangliaDoc,
    summary: Arc<SummaryBody>,
    mode: TreeMode,
    now: u64,
) -> SourceState {
    // A well-formed child report carries exactly one top-level item; a
    // report with several (nonstandard) is wrapped in a synthetic grid.
    let item = if doc.items.len() == 1 {
        doc.items.into_iter().next().expect("len checked")
    } else {
        GridItem::Grid(GridNode::with_items(source_name.to_string(), doc.items))
    };
    match item {
        GridItem::Cluster(cluster) => SourceState::cluster(source_name, cluster, summary, now),
        GridItem::Grid(grid) => {
            let stored = match mode {
                TreeMode::NLevel => GridNode {
                    name: grid.name,
                    authority: grid.authority,
                    localtime: grid.localtime,
                    body: GridBody::Summary((*summary).clone()),
                },
                TreeMode::OneLevel => grid,
            };
            SourceState::grid(source_name, stored, summary, now)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SourceData;
    use ganglia_net::{Addr, SimNet};
    use std::sync::Arc as StdArc;

    const TIMEOUT: Duration = Duration::from_millis(100);

    fn cluster_xml(name: &str, hosts: usize) -> String {
        let mut xml = format!("<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmond\"><CLUSTER NAME=\"{name}\" LOCALTIME=\"10\">");
        for i in 0..hosts {
            xml.push_str(&format!(
                "<HOST NAME=\"n{i}\" IP=\"1.1.1.{i}\" REPORTED=\"10\" TN=\"1\" TMAX=\"20\" DMAX=\"0\">\
                 <METRIC NAME=\"load_one\" VAL=\"0.5\" TYPE=\"float\" SLOPE=\"both\"/></HOST>"
            ));
        }
        xml.push_str("</CLUSTER></GANGLIA_XML>");
        xml
    }

    fn serve_static(
        net: &StdArc<SimNet>,
        addr: &str,
        body: String,
    ) -> Box<dyn ganglia_net::ServerGuard> {
        net.serve(&Addr::new(addr), StdArc::new(move |_: &str| body.clone()))
            .unwrap()
    }

    #[test]
    fn poll_parses_cluster_source() {
        let net = SimNet::new(1);
        let _g = serve_static(&net, "meteor/n0", cluster_xml("meteor", 3));
        let meter = WorkMeter::new();
        let mut poller =
            SourcePoller::new(DataSourceCfg::new("meteor", vec![Addr::new("meteor/n0")]).unwrap());
        let state = poller
            .poll(
                &net,
                TreeMode::NLevel,
                TIMEOUT,
                &RetryPolicy::default(),
                &meter,
                100,
            )
            .unwrap();
        assert_eq!(state.host_count(), 3);
        assert!(matches!(state.data, SourceData::Cluster(_)));
        assert_eq!(state.summary.hosts_up, 3);
        assert_eq!(poller.polls_ok, 1);
        assert!(meter.busy(WorkCategory::Parse) > Duration::ZERO);
        assert!(meter.busy(WorkCategory::Fetch) > Duration::ZERO);
    }

    #[test]
    fn failover_tries_addresses_in_order_and_sticks() {
        let net = SimNet::new(1);
        let _g0 = serve_static(&net, "meteor/n0", cluster_xml("meteor", 1));
        let _g1 = serve_static(&net, "meteor/n1", cluster_xml("meteor", 1));
        net.set_down(&Addr::new("meteor/n0"), true);
        let meter = WorkMeter::new();
        let mut poller = SourcePoller::new(
            DataSourceCfg::new(
                "meteor",
                vec![Addr::new("meteor/n0"), Addr::new("meteor/n1")],
            )
            .unwrap(),
        );
        poller
            .poll(
                &net,
                TreeMode::NLevel,
                TIMEOUT,
                &RetryPolicy::default(),
                &meter,
                10,
            )
            .unwrap();
        assert_eq!(poller.failovers, 1);
        assert_eq!(poller.current_addr(), &Addr::new("meteor/n1"));
        // Next poll goes straight to n1 (no extra failover).
        poller
            .poll(
                &net,
                TreeMode::NLevel,
                TIMEOUT,
                &RetryPolicy::default(),
                &meter,
                20,
            )
            .unwrap();
        assert_eq!(poller.failovers, 1);
        // When n0 recovers, the poller keeps using n1 until it fails.
        net.set_down(&Addr::new("meteor/n0"), false);
        poller
            .poll(
                &net,
                TreeMode::NLevel,
                TIMEOUT,
                &RetryPolicy::default(),
                &meter,
                30,
            )
            .unwrap();
        assert_eq!(poller.current_addr(), &Addr::new("meteor/n1"));
    }

    #[test]
    fn total_failure_reports_all_errors_and_recovers() {
        let net = SimNet::new(1);
        let _g0 = serve_static(&net, "meteor/n0", cluster_xml("meteor", 1));
        let _g1 = serve_static(&net, "meteor/n1", cluster_xml("meteor", 1));
        net.partition_prefix("meteor", true);
        let meter = WorkMeter::new();
        let mut poller = SourcePoller::new(
            DataSourceCfg::new(
                "meteor",
                vec![Addr::new("meteor/n0"), Addr::new("meteor/n1")],
            )
            .unwrap(),
        );
        for round in 1..=3u64 {
            let err = poller
                .poll(
                    &net,
                    TreeMode::NLevel,
                    TIMEOUT,
                    &RetryPolicy::default(),
                    &meter,
                    round * 15,
                )
                .unwrap_err();
            match err {
                GmetadError::AllHostsFailed { source, errors } => {
                    assert_eq!(source, "meteor");
                    assert_eq!(errors.len(), 2);
                }
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(poller.consecutive_failures, 3);
        // Steady retry: the partition heals and the next round succeeds.
        net.partition_prefix("meteor", false);
        poller
            .poll(
                &net,
                TreeMode::NLevel,
                TIMEOUT,
                &RetryPolicy::default(),
                &meter,
                60,
            )
            .unwrap();
        assert_eq!(poller.consecutive_failures, 0);
    }

    #[test]
    fn bad_xml_is_a_bad_report() {
        let net = SimNet::new(1);
        let _g = serve_static(&net, "meteor/n0", "<BOGUS".to_string());
        let meter = WorkMeter::new();
        let mut poller =
            SourcePoller::new(DataSourceCfg::new("meteor", vec![Addr::new("meteor/n0")]).unwrap());
        assert!(matches!(
            poller.poll(
                &net,
                TreeMode::NLevel,
                TIMEOUT,
                &RetryPolicy::default(),
                &meter,
                10
            ),
            Err(GmetadError::BadReport { .. })
        ));
    }

    #[test]
    fn breaker_idle_rounds_count_as_backoff_not_failure() {
        let net = SimNet::new(1);
        let _g = serve_static(&net, "meteor/n0", cluster_xml("meteor", 1));
        net.partition_prefix("meteor", true);
        let meter = WorkMeter::new();
        let mut poller =
            SourcePoller::new(DataSourceCfg::new("meteor", vec![Addr::new("meteor/n0")]).unwrap());
        // Default threshold 3: three live rounds, all real failures.
        for round in 1..=3u64 {
            let _ = poller.poll(
                &net,
                TreeMode::NLevel,
                TIMEOUT,
                &RetryPolicy::default(),
                &meter,
                round * 15,
            );
        }
        assert_eq!(poller.polls_failed, 3);
        assert_eq!(poller.polls_backoff, 0);
        // The breaker opened at t=45 with backoff >= 15s (jitter only
        // lengthens it), so t=50 is a backoff round: only the forced
        // steady-retry probe runs, and it is tagged, not counted as a
        // fresh failure.
        let _ = poller.poll(
            &net,
            TreeMode::NLevel,
            TIMEOUT,
            &RetryPolicy::default(),
            &meter,
            50,
        );
        assert_eq!(poller.polls_failed, 3, "backoff round is not a failure");
        assert_eq!(poller.polls_backoff, 1);
        assert_eq!(poller.consecutive_failures, 4, "lifecycle still advances");
        let snap = meter.registry().snapshot();
        assert_eq!(snap.counter("polls_failed_total"), Some(3));
        assert_eq!(snap.counter("polls_backoff_total"), Some(1));
        // The probe's latency sample went to the probe histogram, so
        // the fetch quantiles keep describing live rotations only.
        assert_eq!(snap.histogram("fetch_us").map(|h| h.count), Some(3));
        assert_eq!(snap.histogram("fetch_probe_us").map(|h| h.count), Some(1));
    }

    #[test]
    fn spent_round_budget_fails_fast_without_charging_breakers() {
        let net = SimNet::new(1);
        let _g0 = serve_static(&net, "m/n0", cluster_xml("m", 1));
        let _g1 = serve_static(&net, "m/n1", cluster_xml("m", 1));
        let meter = WorkMeter::new();
        let mut poller = SourcePoller::new(
            DataSourceCfg::new("m", vec![Addr::new("m/n0"), Addr::new("m/n1")]).unwrap(),
        );
        let spent = RoundBudget::until(
            Instant::now()
                .checked_sub(Duration::from_millis(1))
                .expect("process uptime exceeds 1ms"),
        );
        let err = poller
            .poll_bounded(
                &net,
                TreeMode::NLevel,
                "/",
                TIMEOUT,
                &RetryPolicy::default(),
                &meter,
                10,
                &spent,
            )
            .unwrap_err();
        match err {
            GmetadError::AllHostsFailed { source, errors } => {
                assert_eq!(source, "m");
                assert!(matches!(errors[0], ganglia_net::NetError::Timeout(_)));
            }
            other => panic!("unexpected {other}"),
        }
        assert_eq!(poller.polls_failed, 1);
        assert_eq!(poller.consecutive_failures, 1);
        assert!(
            poller
                .endpoint_health()
                .iter()
                .all(|h| h.breaker == BreakerState::Closed && h.consecutive_failures == 0),
            "unprobed endpoints must not be charged"
        );
        let snap = meter.registry().snapshot();
        assert_eq!(snap.counter("polls_deadline_total"), Some(1));
        // With budget left, the same poller succeeds (clamped timeout).
        let roomy = RoundBudget::until(Instant::now() + Duration::from_secs(5));
        poller
            .poll_bounded(
                &net,
                TreeMode::NLevel,
                "/",
                TIMEOUT,
                &RetryPolicy::default(),
                &meter,
                20,
                &roomy,
            )
            .unwrap();
        assert_eq!(poller.consecutive_failures, 0);
    }

    #[test]
    fn round_budget_caps_a_hung_endpoint() {
        let net = SimNet::new(1);
        let _g = serve_static(&net, "slow/n0", cluster_xml("slow", 1));
        // The endpoint hangs for 10s; the round budget allows ~50ms.
        net.set_wire_delay(&Addr::new("slow/n0"), Duration::from_secs(10));
        let meter = WorkMeter::new();
        let mut poller =
            SourcePoller::new(DataSourceCfg::new("slow", vec![Addr::new("slow/n0")]).unwrap());
        let budget = RoundBudget::until(Instant::now() + Duration::from_millis(50));
        let start = Instant::now();
        let err = poller
            .poll_bounded(
                &net,
                TreeMode::NLevel,
                "/",
                Duration::from_secs(10),
                &RetryPolicy::default(),
                &meter,
                10,
                &budget,
            )
            .unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "deadline must cap the wait, waited {:?}",
            start.elapsed()
        );
        assert!(matches!(err, GmetadError::AllHostsFailed { .. }));
        // The endpoint was really probed and timed out, so this one IS
        // breaker-counted.
        assert_eq!(poller.endpoint_health()[0].consecutive_failures, 1);
        assert_eq!(poller.polls_failed, 1);
    }

    #[test]
    fn per_source_instruments_are_made_only_when_recorded() {
        let net = SimNet::new(1);
        let _g = serve_static(&net, "meteor/n0", cluster_xml("meteor", 2));
        let mut poller =
            SourcePoller::new(DataSourceCfg::new("meteor", vec![Addr::new("meteor/n0")]).unwrap());
        let meter = WorkMeter::new();
        for now in [10, 20] {
            poller
                .poll(
                    &net,
                    TreeMode::NLevel,
                    TIMEOUT,
                    &RetryPolicy::default(),
                    &meter,
                    now,
                )
                .unwrap();
        }
        let snap = meter.registry().snapshot();
        let count = |name: &str| snap.histogram(name).map(|h| h.count);
        assert_eq!(count("source.meteor.fetch_us"), Some(2));
        assert_eq!(count("source.meteor.parse_us"), Some(2));
        assert_eq!(count("freshness.source.meteor.age_s"), Some(4));
        assert_eq!(count("freshness.depth0.hop_lag_s"), Some(2));
        assert_eq!(
            snap.counter("source.meteor.bytes_in_total"),
            snap.counter("bytes_in_total")
        );
        // Nothing opened a breaker, so that instrument was never made.
        assert_eq!(snap.counter("source.meteor.breaker_opens_total"), None);
    }

    #[test]
    fn grid_source_is_summarized_under_nlevel() {
        let grid_xml = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmetad">
            <GRID NAME="sdsc" AUTHORITY="http://sdsc/" LOCALTIME="9">
              <CLUSTER NAME="meteor" LOCALTIME="9">
                <HOST NAME="n0" IP="1.1.1.1" REPORTED="9" TN="1" TMAX="20" DMAX="0">
                  <METRIC NAME="load_one" VAL="2.0" TYPE="float" SLOPE="both"/>
                </HOST>
              </CLUSTER>
            </GRID></GANGLIA_XML>"#;
        let net = SimNet::new(1);
        let _g = serve_static(&net, "sdsc-gmeta", grid_xml.to_string());
        let meter = WorkMeter::new();
        let cfg = DataSourceCfg::new("sdsc", vec![Addr::new("sdsc-gmeta")]).unwrap();

        let mut n_poller = SourcePoller::new(cfg.clone());
        let n_state = n_poller
            .poll(
                &net,
                TreeMode::NLevel,
                TIMEOUT,
                &RetryPolicy::default(),
                &meter,
                10,
            )
            .unwrap();
        let SourceData::Grid(grid) = &n_state.data else {
            panic!()
        };
        assert!(matches!(grid.body, GridBody::Summary(_)));
        assert_eq!(grid.authority, "http://sdsc/");
        assert_eq!(n_state.summary.hosts_up, 1);

        let mut one_poller = SourcePoller::new(cfg);
        let one_state = one_poller
            .poll(
                &net,
                TreeMode::OneLevel,
                TIMEOUT,
                &RetryPolicy::default(),
                &meter,
                10,
            )
            .unwrap();
        let SourceData::Grid(grid) = &one_state.data else {
            panic!()
        };
        assert!(
            matches!(grid.body, GridBody::Items(_)),
            "1-level keeps detail"
        );
    }

    #[test]
    fn reused_summary_arc_skips_the_store_delta_path() {
        // The delta-aware ingest reinstalls the previous round's
        // summary `Arc` when a source did not change; the store
        // recognizes the identical pointer and skips delta work
        // entirely. An unchanged round must cost zero summary updates.
        use crate::store::Store;
        use ganglia_metrics::ClusterNode;
        let doc = ganglia_metrics::GangliaDoc::gmond(ClusterNode::with_hosts(
            "meteor",
            vec![ganglia_metrics::HostNode::new("n0", "10.0.0.1")],
        ));
        let summary: Arc<SummaryBody> = Arc::new(match &doc.items[0] {
            GridItem::Cluster(c) => c.summary(),
            GridItem::Grid(g) => g.summary(),
        });
        let store = Store::new();
        store.replace(build_state_prepared(
            "meteor",
            doc.clone(),
            Arc::clone(&summary),
            TreeMode::NLevel,
            1,
        ));
        let first = store.stats();
        store.replace(build_state_prepared(
            "meteor",
            doc,
            Arc::clone(&summary),
            TreeMode::NLevel,
            2,
        ));
        let second = store.stats();
        assert_eq!(second.replaces, first.replaces + 1);
        assert_eq!(
            second.deltas_applied, first.deltas_applied,
            "unchanged round must not apply a summary delta"
        );
    }
}
