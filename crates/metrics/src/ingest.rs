//! Delta-aware ingest: parse a child report while reusing everything
//! that did not change since the previous round.
//!
//! Between poll rounds a gmond tree is ~95% byte-identical — only a few
//! metric values move — yet a plain [`crate::parse_document`] call
//! rebuilds every node and recomputes every summary from scratch. The
//! [`Ingester`] keeps a per-source cache keyed by content fingerprint:
//!
//! * **whole document** — if the report's bytes are identical to the
//!   previous round, the cached [`GangliaDoc`] (refcounted host nodes)
//!   and summary are returned without parsing at all;
//! * **per `<HOST>` subtree** — otherwise each host's byte span is
//!   delimited with the parser's raw skip (no events, no attribute
//!   vectors) and fingerprinted; a hit reuses the previous round's
//!   `Arc<HostNode>`, a miss re-parses just that span **through the
//!   streaming no-DOM machine** ([`crate::stream`]): events land in one
//!   reusable scratch, so the only allocations a rebuild performs are
//!   the ones the new node itself needs;
//! * **cluster summary** — if the roster of host fingerprints is
//!   unchanged, the cached summary `Arc` is reused outright. Otherwise
//!   the summary is recomputed by whichever strategy is cheaper for the
//!   observed churn: merging cached per-host contributions in host order
//!   (low churn — contributions are computed lazily and memoized), or
//!   one direct [`SummaryBody::from_hosts`] pass (high churn — most
//!   contributions would have to be rebuilt anyway). Both are
//!   bitwise-identical: same f64 addition order, same first-seen metric
//!   ordering.
//!
//! The worst case is deliberately bounded: a 100%-churn round does the
//! same model-node construction a plain `parse_document` does, plus one
//! cheap raw byte scan per host — no per-event allocation, no per-host
//! summary bookkeeping. `repro_ingest --smoke` gates this (speedup ≥
//! 1.0x at 100% churn) alongside the 0%-churn fast path.
//!
//! The invariant the rest of the system depends on: an [`Ingester`]
//! produces exactly the document and summary a fresh
//! [`crate::parse_document`] + [`ClusterNode::summary`] would — rendered
//! XML stays byte-identical, so revision-keyed response caches and RRD
//! archives never observe the cache.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ganglia_xml::names::{self, attr};
use ganglia_xml::{AttrScratch, PullParser, StreamEvent};

use crate::atom::Atom;
use crate::codec::ParseError;
use crate::model::{
    ClusterBody, ClusterNode, GangliaDoc, GridBody, GridItem, GridNode, HostNode, MetricSummary,
    SummaryBody,
};
use crate::stream;

type Result<T> = std::result::Result<T, ParseError>;

/// A fast 64-bit content fingerprint (fx-hash style: 8 bytes per step,
/// length mixed in). Not cryptographic — it only gates reuse of data we
/// already hold, so a collision's worst case is serving the previous
/// round's bytes for one host.
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    // Four independent lanes over 32-byte blocks: the rotate-xor-mul
    // chains have no cross-lane dependency, so the CPU pipelines them
    // (~3-4x the single-lane throughput on host-span-sized inputs).
    let mut lanes = [
        0x9e37_79b9_7f4a_7c15u64 ^ (bytes.len() as u64).wrapping_mul(K),
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
        0x2545_f491_4f6c_dd1d,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        let w0 = u64::from_le_bytes(block[0..8].try_into().expect("8-byte lane"));
        let w1 = u64::from_le_bytes(block[8..16].try_into().expect("8-byte lane"));
        let w2 = u64::from_le_bytes(block[16..24].try_into().expect("8-byte lane"));
        let w3 = u64::from_le_bytes(block[24..32].try_into().expect("8-byte lane"));
        lanes[0] = (lanes[0].rotate_left(5) ^ w0).wrapping_mul(K);
        lanes[1] = (lanes[1].rotate_left(5) ^ w1).wrapping_mul(K);
        lanes[2] = (lanes[2].rotate_left(5) ^ w2).wrapping_mul(K);
        lanes[3] = (lanes[3].rotate_left(5) ^ w3).wrapping_mul(K);
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = (h.rotate_left(11) ^ lane).wrapping_mul(K);
    }
    let mut chunks = blocks.remainder().chunks_exact(8);
    for chunk in &mut chunks {
        let v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ v).wrapping_mul(K);
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= u64::from(b) << (8 * i);
    }
    (h.rotate_left(5) ^ tail).wrapping_mul(K)
}

/// Single-lane fx-style hasher for the ingest cache maps. The keys are
/// host and cluster names that arrive fingerprint-checked from the same
/// trusted child every round — there is no adversarial collision surface
/// to defend with SipHash, and the default hasher's per-lookup cost is
/// measurable at a hundred-plus probes per round.
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
        }
        let mut tail = bytes.len() as u64;
        for &b in chunks.remainder() {
            tail = (tail << 8) | u64::from(b);
        }
        self.0 = (self.0.rotate_left(5) ^ tail).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Clone, Copy, Default)]
struct FxBuildHasher;

impl std::hash::BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;
    fn build_hasher(&self) -> FxHasher {
        FxHasher(0x9e37_79b9_7f4a_7c15)
    }
}

/// Bitwise-identical twin of [`SummaryBody::from_hosts`], tuned for the
/// steady-state roster the ingester sees: hosts in a cluster report the
/// same metric set in the same order, so each metric is first matched
/// against the slot *after* the previous hit — one interned-pointer
/// comparison — and only falls back to a name scan when a host's metric
/// set diverges. Slots are created in the same first-seen order and the
/// f64 sums accumulate in the same sequence as `from_hosts`' hash-map
/// index, so the result is bit-for-bit identical (asserted by tests).
/// `from_hosts` remains the reference implementation; this is the
/// production path for full-roster recomputes.
fn summarize_hosts<'a>(hosts: impl IntoIterator<Item = &'a HostNode>) -> SummaryBody {
    let mut summary = SummaryBody::default();
    for host in hosts {
        if !host.is_up() {
            summary.hosts_down += 1;
            continue;
        }
        summary.hosts_up += 1;
        let mut cursor = 0usize;
        for metric in &host.metrics {
            let Some(x) = metric.value.as_f64() else {
                continue; // non-numeric metrics are not summarizable
            };
            match summary.metrics.get_mut(cursor) {
                Some(entry) if entry.name == metric.name => {
                    entry.sum += x;
                    entry.num += 1;
                    cursor += 1;
                }
                _ => match summary.metrics.iter().position(|m| m.name == metric.name) {
                    Some(slot) => {
                        let entry = &mut summary.metrics[slot];
                        entry.sum += x;
                        entry.num += 1;
                        cursor = slot + 1;
                    }
                    None => {
                        summary.metrics.push(MetricSummary {
                            name: metric.name.clone(),
                            sum: x,
                            num: 1,
                            ty: metric.value.metric_type(),
                            units: metric.units.clone(),
                            slope: metric.slope,
                            source: metric.source.clone(),
                        });
                        cursor = summary.metrics.len();
                    }
                },
            }
        }
    }
    summary
}

/// What one [`Ingester::ingest`] round did, for telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    /// Bytes of input processed this round.
    pub bytes: u64,
    /// The whole report was byte-identical to the previous round.
    pub doc_reused: bool,
    /// Hosts served from the fingerprint cache (includes all detail
    /// hosts when the whole document was reused).
    pub hosts_reused: u64,
    /// Hosts re-parsed because their bytes changed (or were new).
    pub hosts_rebuilt: u64,
    /// Cluster summaries reused outright (unchanged host roster).
    pub summaries_reused: u64,
    /// Cluster summaries recomputed with one direct `from_hosts` pass
    /// because most of the roster was rebuilt this round.
    pub summaries_direct: u64,
    /// Rounds that hit the duplicate-host-name full-rebuild fallback.
    pub dup_fallbacks: u64,
    /// Time spent merging summaries this round.
    pub summarize_time: Duration,
}

/// The result of one ingest round.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// The parsed document; unchanged hosts share `Arc`s with the
    /// previous round.
    pub doc: GangliaDoc,
    /// The document's rolled-up summary: the single top-level item's
    /// summary, or the merge of all items in order (exactly what a
    /// synthetic wrapping grid would compute).
    pub summary: Arc<SummaryBody>,
    pub stats: IngestStats,
}

type FxMap<K, V> = HashMap<K, V, FxBuildHasher>;

struct HostEntry {
    fp: u64,
    node: Arc<HostNode>,
    /// `SummaryBody::from_host(&node)` — this host's additive share of
    /// the cluster summary. Computed lazily the first time a contrib
    /// merge needs it; `Some` implies it matches `node`.
    contrib: Option<SummaryBody>,
    round: u64,
}

struct ClusterCache {
    hosts: FxMap<Atom, HostEntry>,
    /// Fingerprint of the ordered roster of host fingerprints the cached
    /// `summary` was computed from.
    roster_fp: u64,
    summary: Arc<SummaryBody>,
    round: u64,
    /// Metric count of the last host parsed in this cluster — pre-sizes
    /// the next rebuild's metric vector (hosts in a cluster report the
    /// same metric set in practice).
    metrics_hint: usize,
    /// Scan strategy, adapted from the previous round's observed churn.
    ///
    /// * `false` (skip mode, low churn): each `<HOST>` span is raw-skipped
    ///   and fingerprinted first; only misses are parsed. Unchanged hosts
    ///   cost one byte scan, but a miss scans its span twice.
    /// * `true` (direct mode, high churn): each host is parsed through
    ///   the streaming machine in the same pass that delimits its span,
    ///   then fingerprinted. Every host pays one parse, but nothing is
    ///   scanned twice — so a 100%-churn round costs no more than a
    ///   plain parse.
    ///
    /// A new cluster starts in direct mode (a cold cache misses every
    /// span by definition); after each round the mode follows whether
    /// at least half the roster was rebuilt.
    direct_mode: bool,
}

struct CachedDoc {
    /// The previous round's input, verbatim. Whole-document reuse is a
    /// direct byte comparison against this: memcmp runs far faster
    /// than any hash, and on a changed report it exits at the first
    /// differing byte — so a churned round pays microseconds here, not
    /// a full scan. Costs one report copy per source, the same order
    /// as the fetch buffer that read it.
    text: String,
    doc: GangliaDoc,
    summary: Arc<SummaryBody>,
    /// Full-detail hosts in `doc` (counted once, for reuse stats).
    detail_hosts: u64,
}

/// Per-source delta-aware parser. One per polled data source; not
/// shared across sources (fingerprints are only meaningful against the
/// same child's previous report).
#[derive(Default)]
pub struct Ingester {
    clusters: FxMap<String, ClusterCache>,
    cached: Option<CachedDoc>,
    round: u64,
    /// Consecutive rounds whose bytes missed the whole-document cache.
    /// Once the source is observably churning every round, refreshing
    /// the cached copy is pure overhead and is suspended (see
    /// `ingest_with`).
    doc_miss_streak: u8,
    /// Reusable event scratch for the streaming machine.
    scratch: AttrScratch,
}

impl std::fmt::Debug for Ingester {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ingester")
            .field("round", &self.round)
            .field("clusters", &self.clusters.len())
            .field(
                "cached_hosts",
                &self.cached.as_ref().map(|c| c.detail_hosts),
            )
            .finish()
    }
}

impl Ingester {
    pub fn new() -> Ingester {
        Ingester::default()
    }

    /// Parse `input`, reusing cached subtrees where the bytes match the
    /// previous round. Produces exactly what `parse_document` + a fresh
    /// summary computation would.
    pub fn ingest(&mut self, input: &str) -> Result<Ingested> {
        // The scratch moves out for the duration of the walk so it can
        // be borrowed alongside the cluster caches; it is restored even
        // on error (errors are rare, but the warmed buffers are not free).
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.ingest_with(input, &mut scratch);
        self.scratch = scratch;
        result
    }

    fn ingest_with(&mut self, input: &str, scratch: &mut AttrScratch) -> Result<Ingested> {
        let mut stats = IngestStats {
            bytes: input.len() as u64,
            ..IngestStats::default()
        };
        if let Some(cached) = &self.cached {
            if cached.text == input {
                stats.doc_reused = true;
                stats.hosts_reused = cached.detail_hosts;
                let out = Ingested {
                    doc: cached.doc.clone(),
                    summary: Arc::clone(&cached.summary),
                    stats,
                };
                self.doc_miss_streak = 0;
                return Ok(out);
            }
        }
        self.round += 1;
        let round = self.round;

        let mut parser = PullParser::new(input);
        // Skip the prolog to the root element; the parser itself
        // rejects text or a close tag here.
        let root_name = loop {
            match parser.next_event_into(scratch)? {
                Some(StreamEvent::Start { name, .. }) => break name,
                Some(_) => continue,
                None => return Err(ParseError::BadRoot("(empty)".into())),
            }
        };
        if root_name != names::GANGLIA_XML {
            return Err(ParseError::BadRoot(root_name.to_string()));
        }
        let mut doc = GangliaDoc {
            version: stream::optional_string(input, scratch, attr::VERSION),
            source: stream::optional_string(input, scratch, attr::SOURCE),
            items: Vec::new(),
        };
        let mut item_summaries: Vec<Arc<SummaryBody>> = Vec::new();
        loop {
            match parser.next_event_into(scratch)? {
                Some(StreamEvent::Start { name, .. }) => match name {
                    names::GRID => {
                        let hdr = stream::grid_header(input, scratch)?;
                        let (grid, summary) = self.ingest_grid(
                            &mut parser,
                            input,
                            scratch,
                            hdr,
                            "",
                            round,
                            &mut stats,
                        )?;
                        doc.items.push(GridItem::Grid(grid));
                        item_summaries.push(summary);
                    }
                    names::CLUSTER => {
                        let hdr = stream::cluster_header(input, scratch)?;
                        let (cluster, summary) = self.ingest_cluster(
                            &mut parser,
                            input,
                            scratch,
                            hdr,
                            "",
                            round,
                            &mut stats,
                        )?;
                        doc.items.push(GridItem::Cluster(cluster));
                        item_summaries.push(summary);
                    }
                    other => {
                        return Err(ParseError::UnexpectedTag {
                            parent: names::GANGLIA_XML.into(),
                            tag: other.to_string(),
                        })
                    }
                },
                Some(StreamEvent::End { .. }) => break,
                Some(_) => continue,
                None => break,
            }
        }

        // Document summary: a single item's summary verbatim, otherwise
        // the in-order merge a synthetic wrapping grid would compute.
        let summary = if item_summaries.len() == 1 {
            item_summaries.pop().expect("len checked")
        } else {
            let t0 = Instant::now();
            let mut merged = SummaryBody::default();
            for s in &item_summaries {
                merged.merge(s);
            }
            stats.summarize_time += t0.elapsed();
            Arc::new(merged)
        };

        // Drop cache entries for clusters and hosts that vanished.
        self.clusters.retain(|_, c| c.round == round);
        for cache in self.clusters.values_mut() {
            cache.hosts.retain(|_, h| h.round == round);
        }
        // Refresh the whole-document cache only while byte-identical
        // repeats are plausible. After two consecutive missed rounds the
        // source is observably churning every round, and the
        // report-sized copy each round would be the dominant delta-path
        // overhead — so the previous snapshot is kept instead (an exact
        // repeat of *it* still hits), and the first fully quiet round
        // (nothing rebuilt) resumes refreshing.
        if stats.hosts_rebuilt == 0 {
            self.doc_miss_streak = 0;
        } else {
            self.doc_miss_streak = self.doc_miss_streak.saturating_add(1);
        }
        if self.doc_miss_streak < 2 {
            let detail_hosts = count_detail_hosts(&doc);
            // Reuse the previous round's text allocation for the new copy.
            let mut text = self.cached.take().map(|c| c.text).unwrap_or_default();
            text.clear();
            text.push_str(input);
            self.cached = Some(CachedDoc {
                text,
                doc: doc.clone(),
                summary: Arc::clone(&summary),
                detail_hosts,
            });
        }
        Ok(Ingested {
            doc,
            summary,
            stats,
        })
    }

    /// Mirror of the streaming grid parser, recursing through nested
    /// grids and routing clusters through the host cache. Returns the
    /// node plus its summary (what `GridNode::summary()` would compute).
    #[allow(clippy::too_many_arguments)]
    fn ingest_grid(
        &mut self,
        parser: &mut PullParser<'_>,
        input: &str,
        scratch: &mut AttrScratch,
        header: stream::GridHeader,
        path: &str,
        round: u64,
        stats: &mut IngestStats,
    ) -> Result<(GridNode, Arc<SummaryBody>)> {
        let child_path = if path.is_empty() {
            header.name.clone()
        } else {
            format!("{path}/{}", header.name)
        };
        let mut items: Vec<GridItem> = Vec::new();
        let mut child_summaries: Vec<Arc<SummaryBody>> = Vec::new();
        let mut summary: Option<SummaryBody> = None;
        loop {
            match parser.next_event_into(scratch)? {
                Some(StreamEvent::Start { name: tag, .. }) => match tag {
                    names::GRID => {
                        let hdr = stream::grid_header(input, scratch)?;
                        let (grid, s) = self.ingest_grid(
                            parser,
                            input,
                            scratch,
                            hdr,
                            &child_path,
                            round,
                            stats,
                        )?;
                        items.push(GridItem::Grid(grid));
                        child_summaries.push(s);
                    }
                    names::CLUSTER => {
                        let hdr = stream::cluster_header(input, scratch)?;
                        let (cluster, s) = self.ingest_cluster(
                            parser,
                            input,
                            scratch,
                            hdr,
                            &child_path,
                            round,
                            stats,
                        )?;
                        items.push(GridItem::Cluster(cluster));
                        child_summaries.push(s);
                    }
                    names::HOSTS => {
                        let body = summary.get_or_insert_with(SummaryBody::default);
                        body.hosts_up =
                            stream::parse_num(input, scratch, names::HOSTS, attr::UP, 0u32)?;
                        body.hosts_down =
                            stream::parse_num(input, scratch, names::HOSTS, attr::DOWN, 0u32)?;
                        parser.skip_subtree_into(scratch)?;
                    }
                    names::METRICS => {
                        let body = summary.get_or_insert_with(SummaryBody::default);
                        body.metrics
                            .push(stream::parse_metric_summary(input, scratch)?);
                        parser.skip_subtree_into(scratch)?;
                    }
                    other => {
                        return Err(ParseError::UnexpectedTag {
                            parent: names::GRID.into(),
                            tag: other.to_string(),
                        })
                    }
                },
                Some(StreamEvent::End { .. }) => break,
                Some(_) => continue,
                None => break,
            }
        }
        let (body, grid_summary) = match summary {
            Some(s) if items.is_empty() => {
                let arc = Arc::new(s.clone());
                (GridBody::Summary(s), arc)
            }
            // Expanded form kept; summary recomputed from children, in
            // order, exactly as `GridNode::summary()` does.
            Some(_) | None => {
                let t0 = Instant::now();
                let mut merged = SummaryBody::default();
                for s in &child_summaries {
                    merged.merge(s);
                }
                stats.summarize_time += t0.elapsed();
                (GridBody::Items(items), Arc::new(merged))
            }
        };
        Ok((
            GridNode {
                name: header.name,
                authority: header.authority,
                localtime: header.localtime,
                body,
            },
            grid_summary,
        ))
    }

    /// Mirror of the streaming cluster parser with the delta path: each
    /// `<HOST>` span is fingerprinted before it is parsed.
    #[allow(clippy::too_many_arguments)]
    fn ingest_cluster(
        &mut self,
        parser: &mut PullParser<'_>,
        input: &str,
        scratch: &mut AttrScratch,
        header: stream::ClusterHeader,
        path: &str,
        round: u64,
        stats: &mut IngestStats,
    ) -> Result<(ClusterNode, Arc<SummaryBody>)> {
        let key = if path.is_empty() {
            header.name.clone()
        } else {
            format!("{path}/{}", header.name)
        };
        let cache = self.clusters.entry(key).or_insert_with(|| ClusterCache {
            hosts: FxMap::default(),
            roster_fp: 0,
            summary: Arc::new(SummaryBody::default()),
            round: 0,
            metrics_hint: 0,
            direct_mode: true,
        });

        let mut hosts: Vec<Arc<HostNode>> = Vec::with_capacity(cache.hosts.len());
        // Host names in document order, with a duplicate flag: the
        // summary contribution merge needs both.
        let mut roster: Vec<Atom> = Vec::with_capacity(cache.hosts.len());
        let mut duplicate_names = false;
        let mut rebuilt_here = 0usize;
        let mut roster_fp = 0xcafe_f00d_dead_beefu64;
        let mut summary: Option<SummaryBody> = None;
        loop {
            match parser.next_event_into(scratch)? {
                Some(StreamEvent::Start { name: tag, .. }) => match tag {
                    names::HOST => {
                        let span_start = parser.last_event_start();
                        let (host_name, fp, parsed) = if cache.direct_mode {
                            // Direct mode: parse in the same pass that
                            // delimits the span — nothing is scanned
                            // twice. The node's own interned name keys
                            // the cache (no second intern).
                            let node =
                                stream::parse_host(parser, input, scratch, cache.metrics_hint)?;
                            let span = &input[span_start..parser.offset()];
                            (
                                node.name.clone(),
                                fingerprint64(span.as_bytes()),
                                Some(node),
                            )
                        } else {
                            // Skip mode: raw-skip and fingerprint first;
                            // parse only on a miss.
                            let host_name = Atom::new(stream::required(
                                input,
                                scratch,
                                names::HOST,
                                attr::NAME,
                            )?);
                            parser.skip_subtree_raw()?;
                            let span = &input[span_start..parser.offset()];
                            (host_name, fingerprint64(span.as_bytes()), None)
                        };
                        roster_fp =
                            (roster_fp.rotate_left(7) ^ fp).wrapping_mul(0x517c_c1b7_2722_0a95);
                        let reuse = cache
                            .hosts
                            .get(&host_name)
                            .is_some_and(|entry| entry.fp == fp);
                        if reuse {
                            // Unchanged bytes: the cached entry (node Arc
                            // and memoized contribution) is still exact,
                            // even if direct mode parsed eagerly.
                            let entry = cache.hosts.get_mut(&host_name).expect("checked above");
                            if entry.round == round {
                                duplicate_names = true;
                            }
                            entry.round = round;
                            hosts.push(Arc::clone(&entry.node));
                            stats.hosts_reused += 1;
                        } else {
                            // Span miss: in skip mode the host is parsed
                            // now, through the streaming machine over its
                            // span. Full well-formedness checks apply;
                            // the only allocations are the node's own.
                            let node = match parsed {
                                Some(node) => node,
                                None => {
                                    let span = &input[span_start..parser.offset()];
                                    stream::parse_host_span(span, scratch, cache.metrics_hint)?
                                }
                            };
                            let node = Arc::new(node);
                            cache.metrics_hint = node.metrics.len();
                            if cache
                                .hosts
                                .get(&host_name)
                                .is_some_and(|entry| entry.round == round)
                            {
                                duplicate_names = true;
                            }
                            hosts.push(Arc::clone(&node));
                            cache.hosts.insert(
                                host_name.clone(),
                                HostEntry {
                                    fp,
                                    node,
                                    contrib: None,
                                    round,
                                },
                            );
                            rebuilt_here += 1;
                            stats.hosts_rebuilt += 1;
                        }
                        roster.push(host_name);
                    }
                    names::HOSTS => {
                        let body = summary.get_or_insert_with(SummaryBody::default);
                        body.hosts_up =
                            stream::parse_num(input, scratch, names::HOSTS, attr::UP, 0u32)?;
                        body.hosts_down =
                            stream::parse_num(input, scratch, names::HOSTS, attr::DOWN, 0u32)?;
                        parser.skip_subtree_into(scratch)?;
                    }
                    names::METRICS => {
                        let body = summary.get_or_insert_with(SummaryBody::default);
                        body.metrics
                            .push(stream::parse_metric_summary(input, scratch)?);
                        parser.skip_subtree_into(scratch)?;
                    }
                    other => {
                        return Err(ParseError::UnexpectedTag {
                            parent: names::CLUSTER.into(),
                            tag: other.to_string(),
                        })
                    }
                },
                Some(StreamEvent::End { .. }) => break,
                Some(_) => continue,
                None => break,
            }
        }
        cache.round = round;
        // Adapt the scan strategy to the churn just observed: if at
        // least half the roster was rebuilt, next round parses directly
        // (one scan per host); otherwise it skips-and-fingerprints.
        if !roster.is_empty() {
            cache.direct_mode = rebuilt_here * 2 >= roster.len();
        }

        let (body, cluster_summary) = match (hosts.is_empty(), summary) {
            (false, Some(_)) => return Err(ParseError::MixedClusterBody(header.name)),
            (true, Some(s)) => {
                let arc = Arc::new(s.clone());
                (ClusterBody::Summary(s), arc)
            }
            (_, None) => {
                let cluster_summary = if !roster.is_empty() && cache.roster_fp == roster_fp {
                    // Same hosts, same bytes, same order: the previous
                    // round's merged summary is still exact.
                    stats.summaries_reused += 1;
                    Arc::clone(&cache.summary)
                } else {
                    let t0 = Instant::now();
                    let merged = if duplicate_names {
                        // Pathological roster (two hosts sharing a name):
                        // the per-name contribution cache cannot represent
                        // it, so fall back to the direct computation.
                        stats.dup_fallbacks += 1;
                        summarize_hosts(hosts.iter().map(|h| &**h))
                    } else if !roster.is_empty() && rebuilt_here * 2 >= roster.len() {
                        // High churn: most contributions would have to be
                        // rebuilt anyway, so one direct pass over the
                        // nodes is cheaper — and bitwise-identical to the
                        // contribution merge (same addition order).
                        stats.summaries_direct += 1;
                        summarize_hosts(hosts.iter().map(|h| &**h))
                    } else {
                        let mut merged = SummaryBody::default();
                        for host_name in &roster {
                            let entry = cache
                                .hosts
                                .get_mut(host_name)
                                .expect("roster entries cached");
                            if entry.contrib.is_none() {
                                entry.contrib = Some(SummaryBody::from_host(&entry.node));
                            }
                            merged.merge(entry.contrib.as_ref().expect("just filled"));
                        }
                        merged
                    };
                    stats.summarize_time += t0.elapsed();
                    let merged = Arc::new(merged);
                    cache.roster_fp = roster_fp;
                    cache.summary = Arc::clone(&merged);
                    merged
                };
                (ClusterBody::Hosts(hosts), cluster_summary)
            }
        };
        Ok((
            ClusterNode {
                name: header.name,
                owner: header.owner,
                latlong: header.latlong,
                url: header.url,
                localtime: header.localtime,
                body,
            },
            cluster_summary,
        ))
    }
}

fn count_detail_hosts(doc: &GangliaDoc) -> u64 {
    fn in_item(item: &GridItem) -> u64 {
        match item {
            GridItem::Cluster(c) => match &c.body {
                ClusterBody::Hosts(hosts) => hosts.len() as u64,
                ClusterBody::Summary(_) => 0,
            },
            GridItem::Grid(g) => match &g.body {
                GridBody::Items(items) => items.iter().map(in_item).sum(),
                GridBody::Summary(_) => 0,
            },
        }
    }
    doc.items.iter().map(in_item).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_document, write_document};

    fn cluster_xml(hosts: &[(u32, f64)]) -> String {
        let mut xml = String::from(
            "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmond\">\
             <CLUSTER NAME=\"meteor\" LOCALTIME=\"100\">",
        );
        for (i, load) in hosts {
            xml.push_str(&format!(
                "<HOST NAME=\"n{i}\" IP=\"10.0.0.{i}\" REPORTED=\"90\" TN=\"5\" TMAX=\"20\" DMAX=\"0\">\
                 <METRIC NAME=\"load_one\" VAL=\"{load}\" TYPE=\"float\" UNITS=\"\" TN=\"5\" TMAX=\"70\" DMAX=\"0\" SLOPE=\"both\" SOURCE=\"gmond\"/>\
                 <METRIC NAME=\"cpu_num\" VAL=\"2\" TYPE=\"int32\" UNITS=\"CPUs\" TN=\"5\" TMAX=\"1200\" DMAX=\"0\" SLOPE=\"zero\" SOURCE=\"gmond\"/>\
                 </HOST>"
            ));
        }
        xml.push_str("</CLUSTER></GANGLIA_XML>");
        xml
    }

    #[test]
    fn matches_plain_parse_cold_and_warm() {
        let a = cluster_xml(&[(0, 0.5), (1, 1.5), (2, 0.25)]);
        let b = cluster_xml(&[(0, 0.5), (1, 9.0), (2, 0.25)]);
        let mut ingester = Ingester::new();
        for xml in [&a, &a, &b, &a] {
            let got = ingester.ingest(xml).unwrap();
            let want = parse_document(xml).unwrap();
            assert_eq!(got.doc, want);
            let want_summary = match &want.items[0] {
                GridItem::Cluster(c) => c.summary(),
                GridItem::Grid(g) => g.summary(),
            };
            assert_eq!(*got.summary, want_summary);
            assert_eq!(write_document(&got.doc), write_document(&want));
        }
    }

    #[test]
    fn identical_round_reuses_document() {
        let xml = cluster_xml(&[(0, 0.5), (1, 1.5)]);
        let mut ingester = Ingester::new();
        let first = ingester.ingest(&xml).unwrap();
        assert!(!first.stats.doc_reused);
        assert_eq!(first.stats.hosts_rebuilt, 2);
        let second = ingester.ingest(&xml).unwrap();
        assert!(second.stats.doc_reused);
        assert_eq!(second.stats.hosts_reused, 2);
        assert!(Arc::ptr_eq(&first.summary, &second.summary));
        // The reused doc shares host nodes with the first round.
        let (GridItem::Cluster(c1), GridItem::Cluster(c2)) =
            (&first.doc.items[0], &second.doc.items[0])
        else {
            panic!("expected clusters");
        };
        let (ClusterBody::Hosts(h1), ClusterBody::Hosts(h2)) = (&c1.body, &c2.body) else {
            panic!("expected hosts");
        };
        assert!(Arc::ptr_eq(&h1[0], &h2[0]));
    }

    #[test]
    fn partial_churn_reuses_unchanged_hosts() {
        let a = cluster_xml(&[(0, 0.5), (1, 1.5), (2, 0.25)]);
        let b = cluster_xml(&[(0, 0.5), (1, 7.75), (2, 0.25)]);
        let mut ingester = Ingester::new();
        ingester.ingest(&a).unwrap();
        let second = ingester.ingest(&b).unwrap();
        assert!(!second.stats.doc_reused);
        assert_eq!(second.stats.hosts_reused, 2);
        assert_eq!(second.stats.hosts_rebuilt, 1);
        assert_eq!(second.doc, parse_document(&b).unwrap());
    }

    #[test]
    fn unchanged_roster_reuses_cluster_summary() {
        let xml = cluster_xml(&[(0, 0.5), (1, 1.5)]);
        // Two inputs with identical hosts but different whole-document
        // bytes (comment), so the doc fast path misses but the host
        // roster matches.
        let with_comment = xml.replace("</CLUSTER>", "</CLUSTER><!-- tick -->");
        let mut ingester = Ingester::new();
        let first = ingester.ingest(&xml).unwrap();
        let second = ingester.ingest(&with_comment).unwrap();
        assert!(!second.stats.doc_reused);
        assert_eq!(second.stats.summaries_reused, 1);
        assert!(Arc::ptr_eq(&first.summary, &second.summary));
    }

    #[test]
    fn vanished_hosts_are_pruned_and_recounted() {
        let three = cluster_xml(&[(0, 0.5), (1, 1.5), (2, 0.25)]);
        let two = cluster_xml(&[(0, 0.5), (2, 0.25)]);
        let mut ingester = Ingester::new();
        ingester.ingest(&three).unwrap();
        let shrunk = ingester.ingest(&two).unwrap();
        assert_eq!(shrunk.summary.hosts_up, 2);
        assert_eq!(shrunk.doc, parse_document(&two).unwrap());
        // Bring n1 back: it was pruned, so it must be rebuilt.
        let back = ingester.ingest(&three).unwrap();
        assert_eq!(back.stats.hosts_rebuilt, 1);
        assert_eq!(back.stats.hosts_reused, 2);
    }

    #[test]
    fn summary_form_and_grid_docs_match_plain_parse() {
        let grid = r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmetad">
<GRID NAME="SDSC" AUTHORITY="http://sdsc/" LOCALTIME="7">
 <CLUSTER NAME="meteor" LOCALTIME="7">
  <HOST NAME="n0" IP="1.1.1.1" REPORTED="7" TN="1" TMAX="20" DMAX="0">
   <METRIC NAME="load_one" VAL="2.0" TYPE="float" SLOPE="both"/>
  </HOST>
 </CLUSTER>
 <GRID NAME="ATTIC" AUTHORITY="http://attic/">
  <HOSTS UP="10" DOWN="1"/>
  <METRICS NAME="cpu_num" SUM="20" NUM="10" TYPE="int32"/>
 </GRID>
</GRID>
</GANGLIA_XML>"#;
        let mut ingester = Ingester::new();
        for _ in 0..2 {
            let got = ingester.ingest(grid).unwrap();
            let want = parse_document(grid).unwrap();
            assert_eq!(got.doc, want);
            let GridItem::Grid(g) = &want.items[0] else {
                panic!("expected grid");
            };
            assert_eq!(*got.summary, g.summary());
        }
    }

    #[test]
    fn down_host_contributions_stay_exact() {
        // TN > TMAX*4 marks the host down: counted, metrics excluded.
        let xml = "<GANGLIA_XML><CLUSTER NAME=\"c\" LOCALTIME=\"5\">\
                   <HOST NAME=\"dead\" IP=\"1.1.1.1\" REPORTED=\"1\" TN=\"500\" TMAX=\"20\" DMAX=\"0\">\
                   <METRIC NAME=\"load_one\" VAL=\"9.0\" TYPE=\"float\" SLOPE=\"both\"/></HOST>\
                   <HOST NAME=\"alive\" IP=\"1.1.1.2\" REPORTED=\"1\" TN=\"1\" TMAX=\"20\" DMAX=\"0\">\
                   <METRIC NAME=\"load_one\" VAL=\"1.0\" TYPE=\"float\" SLOPE=\"both\"/></HOST>\
                   </CLUSTER></GANGLIA_XML>";
        let mut ingester = Ingester::new();
        let got = ingester.ingest(xml).unwrap();
        assert_eq!(got.summary.hosts_up, 1);
        assert_eq!(got.summary.hosts_down, 1);
        assert_eq!(got.summary.metric("load_one").unwrap().sum, 1.0);
    }

    #[test]
    fn bad_reports_still_error() {
        let mut ingester = Ingester::new();
        assert!(ingester.ingest("<BOGUS").is_err());
        assert!(ingester.ingest("<HTML/>").is_err());
        // A good round still works after errors.
        let xml = cluster_xml(&[(0, 0.5)]);
        assert!(ingester.ingest(&xml).is_ok());
    }

    #[test]
    fn fingerprint_distinguishes_and_repeats() {
        let a = fingerprint64(b"<HOST NAME=\"n0\"/>");
        let b = fingerprint64(b"<HOST NAME=\"n1\"/>");
        assert_ne!(a, b);
        assert_eq!(a, fingerprint64(b"<HOST NAME=\"n0\"/>"));
        assert_ne!(fingerprint64(b""), fingerprint64(b"\0"));
    }

    #[test]
    fn summarize_hosts_matches_from_hosts_exactly() {
        // The cursor-based summarizer must be bit-for-bit `from_hosts`,
        // including on rosters that defeat the fast path: down hosts,
        // hosts with divergent metric sets, reordered metrics, duplicate
        // metric names within one host, and non-numeric values.
        let mk = |name: &str, tn: u32, metrics: &[(&str, &str)]| {
            let mut xml = format!(
                "<HOST NAME=\"{name}\" IP=\"1.1.1.1\" REPORTED=\"90\" TN=\"{tn}\" TMAX=\"20\" DMAX=\"0\">"
            );
            for (m, v) in metrics {
                xml.push_str(&format!(
                    "<METRIC NAME=\"{m}\" VAL=\"{v}\" TYPE=\"float\" SLOPE=\"both\"/>"
                ));
            }
            xml.push_str("</HOST>");
            let mut scratch = AttrScratch::new();
            stream::parse_host_span(&xml, &mut scratch, 0).unwrap()
        };
        let mut str_host = mk("s", 5, &[("os", "0")]);
        str_host.metrics[0].value = crate::value::MetricValue::String("linux".into());
        let hosts = [
            mk("a", 5, &[("load", "0.5"), ("cpu", "2"), ("mem", "4.0")]),
            mk("b", 5, &[("load", "1.5"), ("cpu", "4"), ("mem", "8.0")]),
            mk("dead", 500, &[("load", "9.0")]),
            mk("c", 5, &[("cpu", "8"), ("load", "2.5")]), // reordered
            mk("d", 5, &[("load", "0.25"), ("disk", "10.0")]), // divergent set
            mk("e", 5, &[("load", "1.0"), ("load", "2.0")]), // dup name
            str_host,
        ];
        let want = SummaryBody::from_hosts(hosts.iter());
        let got = summarize_hosts(hosts.iter());
        assert_eq!(got, want);
        assert_eq!(got.metrics.len(), want.metrics.len());
        for (g, w) in got.metrics.iter().zip(&want.metrics) {
            assert_eq!(g.name, w.name, "slot order must match");
            assert_eq!(g.sum.to_bits(), w.sum.to_bits(), "f64 bits must match");
        }
    }

    #[test]
    fn summary_strategies_agree_across_churn_levels() {
        // Rounds engineered to exercise every strategy: full rebuild
        // (direct), one-host churn (contribution merge), no churn
        // (summary Arc reuse) — each must match the plain parser.
        let rounds = [
            cluster_xml(&[(0, 0.5), (1, 1.5), (2, 2.5), (3, 3.5)]),
            cluster_xml(&[(0, 5.5), (1, 6.5), (2, 7.5), (3, 8.5)]), // 100% churn
            cluster_xml(&[(0, 5.5), (1, 0.25), (2, 7.5), (3, 8.5)]), // 25% churn
            // 0% host churn but different document bytes, so the
            // whole-doc fast path misses and the roster check decides.
            cluster_xml(&[(0, 5.5), (1, 0.25), (2, 7.5), (3, 8.5)])
                .replace("</GANGLIA_XML>", "<!-- tick --></GANGLIA_XML>"),
        ];
        let mut ingester = Ingester::new();
        let mut direct = 0;
        let mut reused = 0;
        for xml in &rounds {
            let got = ingester.ingest(xml).unwrap();
            let want = parse_document(xml).unwrap();
            assert_eq!(got.doc, want);
            let GridItem::Cluster(c) = &want.items[0] else {
                panic!("expected cluster");
            };
            assert_eq!(*got.summary, c.summary());
            direct += got.stats.summaries_direct;
            reused += got.stats.summaries_reused;
        }
        assert!(direct >= 2, "cold + 100%-churn rounds go direct");
        assert!(reused >= 1, "0%-churn round reuses the summary Arc");
    }

    #[test]
    fn duplicate_host_round_then_normal_round_stays_exact() {
        // Satellite audit: a duplicate-name round must not leave stale
        // fingerprints or contributions that poison the next round.
        let normal = cluster_xml(&[(0, 0.5), (1, 1.5)]);
        // Duplicate with *different* bytes: the second n0 wins the cache
        // slot.
        let dup = normal.replace(
            "</CLUSTER>",
            "<HOST NAME=\"n0\" IP=\"10.0.0.9\" REPORTED=\"90\" TN=\"5\" TMAX=\"20\" DMAX=\"0\">\
             <METRIC NAME=\"load_one\" VAL=\"4.5\" TYPE=\"float\" UNITS=\"\" TN=\"5\" TMAX=\"70\" DMAX=\"0\" SLOPE=\"both\" SOURCE=\"gmond\"/>\
             </HOST></CLUSTER>",
        );
        let mut ingester = Ingester::new();
        ingester.ingest(&normal).unwrap();
        let dup_round = ingester.ingest(&dup).unwrap();
        assert!(dup_round.stats.dup_fallbacks >= 1);
        assert_eq!(dup_round.doc, parse_document(&dup).unwrap());
        let GridItem::Cluster(c) = &parse_document(&dup).unwrap().items[0] else {
            panic!("expected cluster");
        };
        assert_eq!(*dup_round.summary, c.summary());
        // Back to normal: byte-identical to the plain parser, with sane
        // counters (n0's cache entry holds the *second* duplicate's
        // bytes, so the original n0 must rebuild; n1 is reusable). A
        // comment makes the document bytes differ from round one so the
        // whole-doc cache misses and the host cache actually decides.
        let normal_tick = normal.replace("</GANGLIA_XML>", "<!-- tick --></GANGLIA_XML>");
        let after = ingester.ingest(&normal_tick).unwrap();
        let want = parse_document(&normal_tick).unwrap();
        assert_eq!(after.doc, want);
        assert_eq!(write_document(&after.doc), write_document(&want));
        let GridItem::Cluster(c) = &want.items[0] else {
            panic!("expected cluster");
        };
        assert_eq!(*after.summary, c.summary());
        assert_eq!(after.stats.hosts_reused, 1);
        assert_eq!(after.stats.hosts_rebuilt, 1);
        assert_eq!(after.stats.dup_fallbacks, 0);
    }
}
