//! Data-age accounting: how stale is the data by the time it gets here?
//!
//! The paper's wide-area claim lives or dies on end-to-end freshness —
//! a root gmetad serving a 3-level tree answers queries from data that
//! crossed every level on its own polling cadence. This module rides
//! the ingest path: each time a source's report is parsed, it walks the
//! typed document once and records, per tree depth,
//!
//! * **host data age** — poll wall-clock minus the host's `REPORTED`
//!   stamp (`freshness.age_s`, `freshness.depth<d>.age_s`,
//!   `freshness.source.<name>.age_s`), and
//! * **per-hop lag** — poll wall-clock minus the child grid/cluster's
//!   `LOCALTIME` (`freshness.hop_lag_s` and friends) — "how far behind
//!   its child's render clock is this monitor".
//!
//! Two explicit edge policies (the satellite fixes of this layer):
//!
//! * A missing `REPORTED`/`LOCALTIME` (they are `#IMPLIED` in the DTD)
//!   is *skipped* — counted in `freshness.missing_ts`, never recorded
//!   as an age. The old `parse_num(..., 0)` default would have read as
//!   epoch 1970, ~56 years of lag.
//! * A timestamp ahead of the local clock (child clock skew) clamps to
//!   age 0 and increments `freshness.skew_total` instead of
//!   underflowing `u64` subtraction.
//!
//! The histograms flow through the ordinary telemetry channel, so
//! `gstat --telemetry` on the root shows the whole tree's lag profile
//! and `publish_self` re-publishes the p99s as `self.*` metrics.

use ganglia_metrics::model::{ClusterNode, GangliaDoc, GridBody, GridItem, GridNode};
use ganglia_telemetry::{Counter, HistogramHandle, Registry};

/// Depth labels are capped so a pathological or adversarial tree can't
/// mint unbounded histogram names; everything at or below this depth
/// shares the final bucket.
const MAX_DEPTH_LABEL: usize = 8;

/// Walk one ingested report and feed the `freshness.*` instruments.
/// `now` is the poll wall-clock (the logical clock under the sim);
/// depth 0 is the report's top-level item. A one-shot
/// [`FreshnessRecorder`]: it resolves every instrument it records.
pub fn record_freshness(registry: &Registry, source: &str, doc: &GangliaDoc, now: u64) {
    FreshnessRecorder::new(source).record(registry, doc, now);
}

/// One source's `freshness.*` instruments. Each handle is resolved from
/// the registry the first time it records and kept, so a steady-state
/// poll formats no instrument name and takes no registry lock. Keep one
/// recorder per (registry, source) pair.
#[derive(Debug)]
pub struct FreshnessRecorder {
    source: String,
    age: AgeHistograms,
    hop_lag: AgeHistograms,
    missing_ts: Option<Counter>,
    skew: Option<Counter>,
}

/// One kind of age (`age_s` or `hop_lag_s`) under its three names:
/// global, per depth label, per source.
#[derive(Debug, Default)]
struct AgeHistograms {
    all: Option<HistogramHandle>,
    by_depth: [Option<HistogramHandle>; MAX_DEPTH_LABEL + 1],
    by_source: Option<HistogramHandle>,
}

impl AgeHistograms {
    fn record(&mut self, registry: &Registry, kind: &str, source: &str, depth: usize, age: u64) {
        let d = depth.min(MAX_DEPTH_LABEL);
        self.all
            .get_or_insert_with(|| registry.histogram(&format!("freshness.{kind}")))
            .record(age);
        self.by_depth[d]
            .get_or_insert_with(|| registry.histogram(&format!("freshness.depth{d}.{kind}")))
            .record(age);
        self.by_source
            .get_or_insert_with(|| registry.histogram(&format!("freshness.source.{source}.{kind}")))
            .record(age);
    }
}

impl FreshnessRecorder {
    /// A recorder for `source` that has resolved nothing yet.
    pub fn new(source: &str) -> FreshnessRecorder {
        FreshnessRecorder {
            source: source.to_string(),
            age: AgeHistograms::default(),
            hop_lag: AgeHistograms::default(),
            missing_ts: None,
            skew: None,
        }
    }

    /// Walk one ingested report of this source into `registry`.
    pub fn record(&mut self, registry: &Registry, doc: &GangliaDoc, now: u64) {
        let mut walk = Walk {
            recorder: self,
            registry,
            now,
        };
        for item in &doc.items {
            walk.item(item, 0);
        }
    }
}

struct Walk<'a> {
    recorder: &'a mut FreshnessRecorder,
    registry: &'a Registry,
    now: u64,
}

impl Walk<'_> {
    /// Age of a timestamp under the missing/skew policy: `None` when
    /// the attribute was absent (counted, skipped), clamped to 0 when
    /// the child's clock is ahead of ours (counted, clamped).
    fn age_of(&mut self, stamp: Option<u64>) -> Option<u64> {
        let registry = self.registry;
        match stamp {
            None => {
                self.recorder
                    .missing_ts
                    .get_or_insert_with(|| registry.counter("freshness.missing_ts"))
                    .inc();
                None
            }
            Some(t) if t > self.now => {
                self.recorder
                    .skew
                    .get_or_insert_with(|| registry.counter("freshness.skew_total"))
                    .inc();
                Some(0)
            }
            Some(t) => Some(self.now - t),
        }
    }

    fn item(&mut self, item: &GridItem, depth: usize) {
        match item {
            GridItem::Cluster(c) => self.cluster(c, depth),
            GridItem::Grid(g) => self.grid(g, depth),
        }
    }

    fn grid(&mut self, grid: &GridNode, depth: usize) {
        self.record_hop(grid.localtime, depth);
        if let GridBody::Items(items) = &grid.body {
            for item in items {
                self.item(item, depth + 1);
            }
        }
    }

    fn cluster(&mut self, cluster: &ClusterNode, depth: usize) {
        self.record_hop(cluster.localtime, depth);
        if let ganglia_metrics::model::ClusterBody::Hosts(hosts) = &cluster.body {
            for host in hosts {
                if let Some(age) = self.age_of(host.reported) {
                    let r = &mut *self.recorder;
                    r.age.record(self.registry, "age_s", &r.source, depth, age);
                }
            }
        }
    }

    fn record_hop(&mut self, localtime: Option<u64>, depth: usize) {
        if let Some(lag) = self.age_of(localtime) {
            let r = &mut *self.recorder;
            r.hop_lag
                .record(self.registry, "hop_lag_s", &r.source, depth, lag);
        }
    }
}

/// Per-source p99 data age in seconds, for the `gmetad --once` AGE
/// column: host ages when the source delivers full detail, falling
/// back to the hop lag when it is summary-only (N-level remote grids
/// carry no `REPORTED` stamps to the parent).
pub fn source_age_p99(snapshot: &ganglia_telemetry::Snapshot, source: &str) -> Option<u64> {
    let of = |name: String| {
        snapshot
            .histogram(&name)
            .filter(|h| h.count > 0)
            .map(|h| h.quantile(0.99))
    };
    of(format!("freshness.source.{source}.age_s"))
        .or_else(|| of(format!("freshness.source.{source}.hop_lag_s")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganglia_metrics::model::{ClusterNode, GridNode, HostNode};

    fn host(name: &str, reported: Option<u64>) -> HostNode {
        let mut h = HostNode::new(name, "10.0.0.1");
        h.reported = reported;
        h
    }

    #[test]
    fn ages_land_in_global_depth_and_source_histograms() {
        let registry = Registry::new();
        let mut cluster =
            ClusterNode::with_hosts("meteor", vec![host("a", Some(70)), host("b", Some(90))]);
        cluster.localtime = Some(95);
        let doc = GangliaDoc::gmond(cluster);
        record_freshness(&registry, "meteor", &doc, 100);
        let snap = registry.snapshot();
        let ages = snap.histogram("freshness.age_s").unwrap();
        assert_eq!(ages.count, 2);
        assert_eq!(ages.min, 10);
        assert_eq!(ages.max, 30);
        assert_eq!(snap.histogram("freshness.depth0.age_s").unwrap().count, 2);
        assert_eq!(
            snap.histogram("freshness.source.meteor.age_s")
                .unwrap()
                .count,
            2
        );
        let hop = snap.histogram("freshness.hop_lag_s").unwrap();
        assert_eq!(hop.count, 1);
        assert_eq!(hop.max, 5);
        assert_eq!(snap.counter("freshness.missing_ts"), None);
        assert_eq!(snap.counter("freshness.skew_total"), None);
    }

    #[test]
    fn nested_grids_record_per_depth() {
        let registry = Registry::new();
        let mut inner_cluster = ClusterNode::with_hosts("c", vec![host("h", Some(80))]);
        inner_cluster.localtime = Some(85);
        let mut inner = GridNode::with_items("inner", vec![GridItem::Cluster(inner_cluster)]);
        inner.localtime = Some(90);
        let mut outer = GridNode::with_items("outer", vec![GridItem::Grid(inner)]);
        outer.localtime = Some(95);
        let doc = GangliaDoc {
            version: "2.5.4".into(),
            source: "gmetad".into(),
            items: vec![GridItem::Grid(outer)],
        };
        record_freshness(&registry, "outer", &doc, 100);
        let snap = registry.snapshot();
        // Hop lags: outer grid at depth 0 (5s), inner grid depth 1
        // (10s), cluster depth 2 (15s); host age 20s at depth 2.
        assert_eq!(snap.histogram("freshness.depth0.hop_lag_s").unwrap().max, 5);
        assert_eq!(
            snap.histogram("freshness.depth1.hop_lag_s").unwrap().max,
            10
        );
        assert_eq!(
            snap.histogram("freshness.depth2.hop_lag_s").unwrap().max,
            15
        );
        assert_eq!(snap.histogram("freshness.depth2.age_s").unwrap().max, 20);
        assert_eq!(snap.histogram("freshness.hop_lag_s").unwrap().count, 3);
    }

    #[test]
    fn missing_timestamps_are_counted_not_aged() {
        let registry = Registry::new();
        // No LOCALTIME on the cluster, no REPORTED on either host.
        let cluster = ClusterNode::with_hosts("c", vec![host("a", None), host("b", None)]);
        let doc = GangliaDoc::gmond(cluster);
        record_freshness(&registry, "c", &doc, 100);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("freshness.missing_ts"), Some(3));
        assert!(snap.histogram("freshness.age_s").is_none());
        assert!(snap.histogram("freshness.hop_lag_s").is_none());
    }

    #[test]
    fn clock_skew_clamps_to_zero_and_counts() {
        let registry = Registry::new();
        // Child clock 50s ahead of the poller's.
        let mut cluster = ClusterNode::with_hosts("c", vec![host("a", Some(150))]);
        cluster.localtime = Some(150);
        let doc = GangliaDoc::gmond(cluster);
        record_freshness(&registry, "c", &doc, 100);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("freshness.skew_total"), Some(2));
        let ages = snap.histogram("freshness.age_s").unwrap();
        assert_eq!(ages.count, 1);
        assert_eq!(ages.max, 0, "skewed age clamps to 0, never underflows");
    }

    #[test]
    fn depth_labels_are_capped() {
        let registry = Registry::new();
        // A 12-deep grid chain; depths 8.. share the depth8 label.
        let mut item = GridItem::Cluster({
            let mut c = ClusterNode::with_hosts("leaf", vec![]);
            c.localtime = Some(99);
            c
        });
        for level in 0..12 {
            let mut grid = GridNode::with_items(format!("g{level}"), vec![item]);
            grid.localtime = Some(99);
            item = GridItem::Grid(grid);
        }
        let doc = GangliaDoc {
            version: "2.5.4".into(),
            source: "gmetad".into(),
            items: vec![item],
        };
        record_freshness(&registry, "deep", &doc, 100);
        let snap = registry.snapshot();
        assert_eq!(
            snap.histogram("freshness.depth8.hop_lag_s").unwrap().count,
            5
        );
        assert!(snap.histogram("freshness.depth9.hop_lag_s").is_none());
    }

    #[test]
    fn source_age_p99_prefers_host_ages_then_hop_lag() {
        let registry = Registry::new();
        let mut detail = ClusterNode::with_hosts("detail", vec![host("a", Some(40))]);
        detail.localtime = Some(90);
        record_freshness(&registry, "detail", &GangliaDoc::gmond(detail), 100);
        // Summary-only grid source: hop lag is all the parent can see.
        let grid = GridNode {
            name: "remote".into(),
            authority: "http://remote/".into(),
            localtime: Some(70),
            body: GridBody::Summary(Default::default()),
        };
        let doc = GangliaDoc {
            version: "2.5.4".into(),
            source: "gmetad".into(),
            items: vec![GridItem::Grid(grid)],
        };
        record_freshness(&registry, "remote", &doc, 100);
        let snap = registry.snapshot();
        assert_eq!(source_age_p99(&snap, "detail"), Some(60));
        assert_eq!(source_age_p99(&snap, "remote"), Some(30));
        assert_eq!(source_age_p99(&snap, "absent"), None);
    }
}
