//! Delta-aware ingest: parse a child report while reusing everything
//! that did not change since the previous round.
//!
//! Between poll rounds a gmond tree is ~95% byte-identical — only a few
//! metric values move — yet a plain [`crate::parse_document`] call
//! rebuilds every node and recomputes every summary from scratch. The
//! [`Ingester`] runs the model parser's one document walk
//! ([`crate::stream`]) with a host hook and a summary rollup of its own,
//! and keeps a per-source cache keyed by content fingerprint:
//!
//! * **whole document** — if the report's bytes are identical to the
//!   previous round, the cached [`GangliaDoc`] (refcounted host nodes)
//!   and summary are returned without parsing at all;
//! * **per `<HOST>` subtree** — otherwise the host hook fingerprints
//!   each host's byte span; a hit reuses the previous round's
//!   `Arc<HostNode>`, a miss builds the node **through the streaming
//!   no-DOM machine**, so the only allocations a rebuild performs are the
//!   ones the new node itself needs. Under low churn a span is first
//!   delimited with the parser's raw skip (no events, no attribute
//!   vectors) and parsed only on a miss; under high churn each host is
//!   parsed in the pass that delimits it;
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
//! span fingerprint per host — no per-event allocation, no per-host
//! summary bookkeeping. `repro ingest` gates this (speedup ≥ 1.0x at
//! 100% churn) alongside the 0%-churn fast path.
//!
//! The invariant the rest of the system depends on: an [`Ingester`]
//! produces exactly the document and summary a fresh
//! [`crate::parse_document`] + [`crate::ClusterNode::summary`] would —
//! rendered XML stays byte-identical, so revision-keyed response caches
//! and RRD archives never observe the cache — and a report that fails
//! fails with exactly `parse_document`'s error.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ganglia_xml::names::{self, attr};
use ganglia_xml::{AttrScratch, PullParser};

use crate::atom::Atom;
use crate::codec::ParseError;
use crate::model::{GangliaDoc, HostNode, SummaryBody};
use crate::stream::{self, Walk};

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
    /// `SummaryBody::from_hosts([&node])` — this host's additive share
    /// of the cluster summary. Computed lazily the first time a contrib
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

impl Default for ClusterCache {
    fn default() -> Self {
        ClusterCache {
            hosts: FxMap::default(),
            roster_fp: 0,
            summary: Arc::new(SummaryBody::default()),
            round: 0,
            metrics_hint: 0,
            direct_mode: true,
        }
    }
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
    /// `ingest_walked`).
    doc_miss_streak: u8,
    /// Reusable event scratch for the streaming machine.
    scratch: AttrScratch,
    /// Reusable buffer for cluster cache keys (`grid/…/cluster`).
    path: String,
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
    /// summary computation would — including, on failure, exactly
    /// `parse_document`'s error. Skip mode delimits hosts with a raw
    /// scan and re-parses a changed span on its own, so its error could
    /// name a different fault or count offsets from the span; errors are
    /// rare, so a failed round re-runs the one-shot walk for its error.
    pub fn ingest(&mut self, input: &str) -> Result<Ingested> {
        self.ingest_walked(input)
            .map_err(|err| crate::parse_document(input).err().unwrap_or(err))
    }

    fn ingest_walked(&mut self, input: &str) -> Result<Ingested> {
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
        self.path.clear();
        let mut walk = DeltaWalk {
            clusters: &mut self.clusters,
            path: &mut self.path,
            round,
            stats: &mut stats,
        };
        let (doc, summary) = stream::walk_document(input, &mut self.scratch, &mut walk)?;

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
            // Reuse the previous round's text allocation for the new copy.
            let mut text = self.cached.take().map(|c| c.text).unwrap_or_default();
            text.clear();
            text.push_str(input);
            self.cached = Some(CachedDoc {
                text,
                doc: doc.clone(),
                summary: Arc::clone(&summary),
                // Every detail host passes the host hook exactly once.
                detail_hosts: stats.hosts_reused + stats.hosts_rebuilt,
            });
        }
        Ok(Ingested {
            doc,
            summary,
            stats,
        })
    }
}

/// One walked round: the model parser's walk with the host cache as its
/// host hook and `Arc`'d summaries as its rollups.
struct DeltaWalk<'a> {
    clusters: &'a mut FxMap<String, ClusterCache>,
    /// `grid/…/` prefix of the element being walked.
    path: &'a mut String,
    round: u64,
    stats: &'a mut IngestStats,
}

/// One cluster of a walked round: its cache and what the round has seen.
struct ClusterRound<'a> {
    cache: &'a mut ClusterCache,
    stats: &'a mut IngestStats,
    round: u64,
    roster_fp: u64,
    rebuilt: usize,
    /// Two hosts in the roster share a name: the per-name contribution
    /// cache cannot represent the roster.
    duplicate_names: bool,
}

impl Walk for DeltaWalk<'_> {
    type Cluster<'c>
        = ClusterRound<'c>
    where
        Self: 'c;
    type Summary = Arc<SummaryBody>;

    fn enter_grid(&mut self, name: &str) {
        self.path.push_str(name);
        self.path.push('/');
    }

    fn leave_grid(&mut self, name: &str) {
        self.path.truncate(self.path.len() - name.len() - 1);
    }

    fn cluster(&mut self, name: &str) -> ClusterRound<'_> {
        let prefix = self.path.len();
        self.path.push_str(name);
        if !self.clusters.contains_key(self.path.as_str()) {
            self.clusters
                .insert(self.path.clone(), ClusterCache::default());
        }
        let cache = self
            .clusters
            .get_mut(self.path.as_str())
            .expect("inserted above");
        self.path.truncate(prefix);
        ClusterRound {
            cache,
            stats: &mut *self.stats,
            round: self.round,
            roster_fp: 0xcafe_f00d_dead_beef,
            rebuilt: 0,
            duplicate_names: false,
        }
    }

    fn hosts_hint(cluster: &ClusterRound<'_>) -> usize {
        cluster.cache.hosts.len()
    }

    /// The delta path: each `<HOST>` span is fingerprinted, and a span
    /// whose bytes match the cached entry reuses its node.
    fn host(
        c: &mut ClusterRound<'_>,
        parser: &mut PullParser<'_>,
        input: &str,
        scratch: &mut AttrScratch,
    ) -> Result<Arc<HostNode>> {
        let span_start = parser.last_event_start();
        let (name, parsed) = if c.cache.direct_mode {
            // Direct mode: parse in the same pass that delimits the span
            // — nothing is scanned twice. The node's own interned name
            // keys the cache (no second intern).
            let node = stream::parse_host(parser, input, scratch, c.cache.metrics_hint)?;
            (node.name.clone(), Some(node))
        } else {
            // Skip mode: raw-skip and fingerprint first; parse only on a
            // miss.
            let name = Atom::new(stream::required(input, scratch, names::HOST, attr::NAME)?);
            parser.skip_subtree_raw()?;
            (name, None)
        };
        let span = &input[span_start..parser.offset()];
        let fp = fingerprint64(span.as_bytes());
        c.roster_fp = (c.roster_fp.rotate_left(7) ^ fp).wrapping_mul(0x517c_c1b7_2722_0a95);
        if let Some(entry) = c.cache.hosts.get_mut(&name).filter(|e| e.fp == fp) {
            // Unchanged bytes: the cached entry (node Arc and memoized
            // contribution) is still exact, even if direct mode parsed
            // eagerly.
            c.duplicate_names |= entry.round == c.round;
            entry.round = c.round;
            c.stats.hosts_reused += 1;
            return Ok(Arc::clone(&entry.node));
        }
        // Span miss: in skip mode the host is parsed now, through the
        // streaming machine over its span. Full well-formedness checks
        // apply; the only allocations are the node's own.
        let node = match parsed {
            Some(node) => node,
            None => stream::parse_host_span(span, scratch, c.cache.metrics_hint)?,
        };
        let node = Arc::new(node);
        c.cache.metrics_hint = node.metrics.len();
        let entry = HostEntry {
            fp,
            node: Arc::clone(&node),
            contrib: None,
            round: c.round,
        };
        if let Some(old) = c.cache.hosts.insert(name, entry) {
            c.duplicate_names |= old.round == c.round;
        }
        c.rebuilt += 1;
        c.stats.hosts_rebuilt += 1;
        Ok(node)
    }

    /// The cluster summary: the cached `Arc` when the roster of host
    /// fingerprints is unchanged, else recomputed by whichever strategy
    /// is cheaper for the observed churn.
    fn hosts(c: ClusterRound<'_>, hosts: &[Arc<HostNode>]) -> Arc<SummaryBody> {
        let ClusterRound {
            cache,
            stats,
            round,
            roster_fp,
            rebuilt,
            duplicate_names,
        } = c;
        cache.round = round;
        // Adapt the scan strategy to the churn just observed: if at
        // least half the roster was rebuilt, next round parses directly
        // (one scan per host); otherwise it skips-and-fingerprints.
        let churned = !hosts.is_empty() && rebuilt * 2 >= hosts.len();
        if !hosts.is_empty() {
            cache.direct_mode = churned;
            if cache.roster_fp == roster_fp {
                // Same hosts, same bytes, same order: the previous
                // round's merged summary is still exact.
                stats.summaries_reused += 1;
                return Arc::clone(&cache.summary);
            }
        }
        let t0 = Instant::now();
        let merged = if duplicate_names || churned {
            // Duplicate names defeat the per-name contribution cache;
            // under high churn most contributions would have to be
            // rebuilt anyway. One direct pass over the nodes is
            // bitwise-identical to the contribution merge (same
            // addition order).
            if duplicate_names {
                stats.dup_fallbacks += 1;
            } else {
                stats.summaries_direct += 1;
            }
            SummaryBody::from_hosts(hosts.iter().map(|h| &**h))
        } else {
            let mut merged = SummaryBody::default();
            for host in hosts {
                let entry = cache
                    .hosts
                    .get_mut(&host.name)
                    .expect("roster entries cached");
                let contrib = entry
                    .contrib
                    .get_or_insert_with(|| SummaryBody::from_hosts([&*entry.node]));
                merged.merge(contrib);
            }
            merged
        };
        stats.summarize_time += t0.elapsed();
        let merged = Arc::new(merged);
        cache.roster_fp = roster_fp;
        cache.summary = Arc::clone(&merged);
        merged
    }

    fn summary(&mut self, body: &SummaryBody) -> Arc<SummaryBody> {
        Arc::new(body.clone())
    }

    /// Children's summaries merged in order, exactly as
    /// `GridNode::summary()` does.
    fn merge(&mut self, items: Vec<Arc<SummaryBody>>) -> Arc<SummaryBody> {
        let t0 = Instant::now();
        let mut merged = SummaryBody::default();
        for s in &items {
            merged.merge(s);
        }
        self.stats.summarize_time += t0.elapsed();
        Arc::new(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClusterBody, GridItem};
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

    fn host_xml(name: &str, load: f64) -> String {
        format!(
            "<HOST NAME=\"{name}\" IP=\"10.0.0.1\" REPORTED=\"90\" TN=\"5\" TMAX=\"20\" DMAX=\"0\">\
             <METRIC NAME=\"load_one\" VAL=\"{load}\" TYPE=\"float\" SLOPE=\"both\"/></HOST>"
        )
    }

    /// Ingest `xml` and check it against the plain parse and the
    /// document's own summary.
    fn ingest_exact(ingester: &mut Ingester, xml: &str) -> IngestStats {
        let got = ingester.ingest(xml).unwrap();
        let want = parse_document(xml).unwrap();
        assert_eq!(got.doc, want);
        assert_eq!(write_document(&got.doc), write_document(&want));
        let GridItem::Grid(g) = &want.items[0] else {
            panic!("expected grid");
        };
        assert_eq!(*got.summary, g.summary());
        got.stats
    }

    #[test]
    fn nested_grid_hosts_are_reused_across_rounds() {
        // A child gmetad's dump nests its clusters in grids: the cache
        // keys below a GRID must be stable across rounds, in both scan
        // modes (round 2 parses directly, round 3 skips).
        let report = |localtime: u32| {
            format!(
                "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmetad\">\
                 <GRID NAME=\"top\" AUTHORITY=\"http://top/\" LOCALTIME=\"{localtime}\">\
                 <GRID NAME=\"mid\" AUTHORITY=\"http://mid/\" LOCALTIME=\"{localtime}\">\
                 <CLUSTER NAME=\"deep\" LOCALTIME=\"{localtime}\">{}{}</CLUSTER></GRID>\
                 <CLUSTER NAME=\"near\" LOCALTIME=\"{localtime}\">{}{}{}</CLUSTER>\
                 </GRID></GANGLIA_XML>",
                host_xml("d0", 0.5),
                host_xml("d1", 1.5),
                host_xml("n0", 2.5),
                host_xml("n1", 3.5),
                host_xml("n2", 4.5),
            )
        };
        let mut ingester = Ingester::new();
        let cold = ingest_exact(&mut ingester, &report(100));
        assert_eq!((cold.hosts_reused, cold.hosts_rebuilt), (0, 5));
        for localtime in [115, 130] {
            let warm = ingest_exact(&mut ingester, &report(localtime));
            assert!(!warm.doc_reused);
            assert_eq!((warm.hosts_reused, warm.hosts_rebuilt), (5, 0));
            assert_eq!(warm.summaries_reused, 2);
        }
    }

    #[test]
    fn same_named_clusters_under_different_grids_keep_separate_caches() {
        let report = |east_load: f64| {
            format!(
                "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmetad\"><GRID NAME=\"top\">\
                 <GRID NAME=\"east\"><CLUSTER NAME=\"c\">{}{}</CLUSTER></GRID>\
                 <GRID NAME=\"west\"><CLUSTER NAME=\"c\">{}{}</CLUSTER></GRID>\
                 </GRID></GANGLIA_XML>",
                host_xml("h0", east_load),
                host_xml("h1", 1.0),
                host_xml("h0", 7.0),
                host_xml("h1", 8.0),
            )
        };
        let mut ingester = Ingester::new();
        let cold = ingest_exact(&mut ingester, &report(0.5));
        assert_eq!(cold.hosts_rebuilt, 4);
        assert_eq!(cold.dup_fallbacks, 0);
        // Only east/c's h0 changes: west/c keeps its own entries.
        for load in [0.75, 0.25] {
            let warm = ingest_exact(&mut ingester, &report(load));
            assert_eq!((warm.hosts_reused, warm.hosts_rebuilt), (3, 1));
            assert_eq!(warm.dup_fallbacks, 0);
        }
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

    /// The name-indexed fold `from_hosts` used before it took the cursor
    /// fold: a hash map from metric name to slot, no ordering heuristic.
    fn name_indexed_fold(hosts: &[HostNode]) -> SummaryBody {
        let mut summary = SummaryBody::default();
        let mut index: HashMap<&str, usize> = HashMap::new();
        for host in hosts {
            if !host.is_up() {
                summary.hosts_down += 1;
                continue;
            }
            summary.hosts_up += 1;
            for metric in &host.metrics {
                let Some(x) = metric.value.as_f64() else {
                    continue;
                };
                match index.get(metric.name.as_str()) {
                    Some(&slot) => {
                        summary.metrics[slot].sum += x;
                        summary.metrics[slot].num += 1;
                    }
                    None => {
                        index.insert(metric.name.as_str(), summary.metrics.len());
                        summary.metrics.push(crate::model::MetricSummary {
                            name: metric.name.clone(),
                            sum: x,
                            num: 1,
                            ty: metric.value.metric_type(),
                            units: metric.units.clone(),
                            slope: metric.slope,
                            source: metric.source.clone(),
                        });
                    }
                }
            }
        }
        summary
    }

    #[test]
    fn summarize_hosts_matches_from_hosts_exactly() {
        // The cursor fold in `from_hosts` must be bit-for-bit the
        // name-indexed fold, including on rosters that defeat the fast
        // path: down hosts, hosts with divergent metric sets, reordered
        // metrics, duplicate metric names within one host, and
        // non-numeric values — and one host at a time, which is how the
        // contribution merge calls it.
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
        let rosters = std::iter::once(&hosts[..]).chain(hosts.chunks(1));
        for roster in rosters {
            let want = name_indexed_fold(roster);
            let got = SummaryBody::from_hosts(roster);
            assert_eq!(got, want);
            assert_eq!(got.metrics.len(), want.metrics.len());
            for (g, w) in got.metrics.iter().zip(&want.metrics) {
                assert_eq!(g.name, w.name, "slot order must match");
                assert_eq!(g.sum.to_bits(), w.sum.to_bits(), "f64 bits must match");
            }
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
