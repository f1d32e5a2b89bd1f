//! The typed Ganglia monitoring tree.
//!
//! A document is a `GANGLIA_XML` root containing grids and clusters. A
//! grid is "a collection of clusters and other grids" (paper §3.2); a
//! cluster holds hosts; a host holds metrics. Both grids and clusters can
//! appear in **summary form** — the additive reduction of paper §3.2 —
//! where each numeric metric is replaced by its `SUM` over a known set of
//! `NUM` hosts, and liveness collapses to `UP`/`DOWN` counts.

use std::sync::Arc;

use crate::atom::Atom;
use crate::slope::Slope;
use crate::value::{MetricType, MetricValue};

/// One metric sample on one host (`<METRIC .../>`).
///
/// The name-like fields (`name`, `units`, `source`) are interned
/// [`Atom`]s: the same few hundred spellings repeat on every host in
/// every round, so each is stored once process-wide.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    pub name: Atom,
    pub value: MetricValue,
    pub units: Atom,
    /// Seconds since the metric was last updated.
    pub tn: u32,
    /// Maximum expected seconds between updates.
    pub tmax: u32,
    /// Seconds after which the metric should be deleted (0 = never).
    pub dmax: u32,
    pub slope: Slope,
    /// Which subsystem reported the metric (`gmond`, `gmetric`, ...).
    pub source: Atom,
}

impl MetricEntry {
    /// A metric with Ganglia's default bookkeeping attributes.
    pub fn new(name: impl Into<Atom>, value: MetricValue) -> Self {
        MetricEntry {
            name: name.into(),
            value,
            units: Atom::empty(),
            tn: 0,
            tmax: 60,
            dmax: 0,
            slope: Slope::Both,
            source: Atom::new("gmond"),
        }
    }
}

/// One host and its metrics (`<HOST ...>`).
#[derive(Debug, Clone, PartialEq)]
pub struct HostNode {
    pub name: Atom,
    pub ip: String,
    /// When the host last reported (epoch seconds). `None` when the
    /// report carried no `REPORTED` attribute (it is `#IMPLIED` in the
    /// DTD) — explicit absence, so freshness accounting can skip the
    /// host instead of treating it as epoch 0 (~56 years stale).
    pub reported: Option<u64>,
    /// Seconds since the host's last heartbeat.
    pub tn: u32,
    pub tmax: u32,
    pub dmax: u32,
    pub location: String,
    /// When the host's gmond started (epoch seconds, 0 if unknown).
    pub gmond_started: u64,
    pub metrics: Vec<MetricEntry>,
}

impl HostNode {
    /// A host with default bookkeeping.
    pub fn new(name: impl Into<Atom>, ip: impl Into<String>) -> Self {
        HostNode {
            name: name.into(),
            ip: ip.into(),
            reported: None,
            tn: 0,
            tmax: 20,
            dmax: 0,
            location: String::new(),
            gmond_started: 0,
            metrics: Vec::new(),
        }
    }

    /// Ganglia's liveness heuristic: a host is up while its heartbeat age
    /// stays within four reporting intervals.
    pub fn is_up(&self) -> bool {
        self.tn <= self.tmax.saturating_mul(4)
    }

    /// Look up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&MetricEntry> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Summary form of one metric over a host set (`<METRICS .../>`).
///
/// "A summary contains enough information to determine a metric's sum and
/// mean" (paper §3.2): the additive reduction keeps `SUM` and the set
/// size `NUM` and nothing else — standard deviation and median are
/// deliberately not recoverable.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    pub name: Atom,
    pub sum: f64,
    pub num: u32,
    pub ty: MetricType,
    pub units: Atom,
    pub slope: Slope,
    pub source: Atom,
}

impl MetricSummary {
    /// The mean, if the set is non-empty.
    pub fn mean(&self) -> Option<f64> {
        (self.num > 0).then(|| self.sum / f64::from(self.num))
    }
}

/// Summary form of a cluster or grid: host counts plus per-metric
/// reductions (`<HOSTS .../>` followed by `<METRICS .../>` entries).
///
/// # Examples
///
/// ```
/// use ganglia_metrics::model::{HostNode, MetricEntry, SummaryBody};
/// use ganglia_metrics::MetricValue;
///
/// let mut a = HostNode::new("n0", "10.0.0.1");
/// a.metrics.push(MetricEntry::new("cpu_num", MetricValue::Uint16(2)));
/// let mut b = HostNode::new("n1", "10.0.0.2");
/// b.metrics.push(MetricEntry::new("cpu_num", MetricValue::Uint16(4)));
///
/// let summary = SummaryBody::from_hosts([&a, &b]);
/// let cpu = summary.metric("cpu_num").unwrap();
/// assert_eq!(cpu.sum, 6.0);
/// assert_eq!(cpu.num, 2);
/// assert_eq!(cpu.mean(), Some(3.0)); // the only derivable statistics (§3.2)
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SummaryBody {
    pub hosts_up: u32,
    pub hosts_down: u32,
    pub metrics: Vec<MetricSummary>,
}

impl SummaryBody {
    /// Compute the summary of a set of hosts. Metrics from hosts that are
    /// down are excluded (their last-known values no longer describe the
    /// cluster), but the hosts themselves are counted in `DOWN`.
    ///
    /// Slots appear in first-seen order and each slot's f64 sum
    /// accumulates in host order. Hosts in a cluster report the same
    /// metric set in the same order, so each metric is first matched
    /// against the slot after the previous hit — one interned-pointer
    /// comparison — and only a host whose metric set diverges pays a
    /// scan of the slots.
    pub fn from_hosts<'a>(hosts: impl IntoIterator<Item = &'a HostNode>) -> SummaryBody {
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
                let slot = match summary.metrics.get(cursor) {
                    Some(entry) if entry.name == metric.name => Some(cursor),
                    _ => summary.metrics.iter().position(|m| m.name == metric.name),
                };
                match slot {
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
                }
            }
        }
        summary
    }

    /// Merge another summary into this one. This is the additive
    /// composition step a gmeta performs when rolling child summaries up
    /// into a grid summary. The counts come off the wire, so they
    /// saturate at `u32::MAX` instead of overflowing.
    pub fn merge(&mut self, other: &SummaryBody) {
        self.hosts_up = self.hosts_up.saturating_add(other.hosts_up);
        self.hosts_down = self.hosts_down.saturating_add(other.hosts_down);
        for theirs in &other.metrics {
            match self.metrics.iter_mut().find(|m| m.name == theirs.name) {
                Some(mine) => {
                    mine.sum += theirs.sum;
                    mine.num = mine.num.saturating_add(theirs.num);
                }
                None => self.metrics.push(theirs.clone()),
            }
        }
    }

    /// Total hosts covered by this summary (saturating at `u32::MAX`).
    pub fn hosts_total(&self) -> u32 {
        self.hosts_up.saturating_add(self.hosts_down)
    }

    /// Look up a metric summary by name.
    pub fn metric(&self, name: &str) -> Option<&MetricSummary> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// The payload of a cluster: either full host detail or a summary.
///
/// Hosts sit behind `Arc` so the delta-aware ingest can carry unchanged
/// nodes across poll rounds (and snapshot clones) without deep-copying
/// them; a round where nothing changed clones refcounts, not subtrees.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterBody {
    Hosts(Vec<Arc<HostNode>>),
    Summary(SummaryBody),
}

/// One cluster (`<CLUSTER ...>`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterNode {
    pub name: String,
    pub owner: String,
    pub latlong: String,
    /// Where a higher-resolution view of this cluster lives.
    pub url: String,
    /// The cluster's local time when the report was generated. `None`
    /// when the report carried no `LOCALTIME` attribute.
    pub localtime: Option<u64>,
    pub body: ClusterBody,
}

impl ClusterNode {
    /// A full-detail cluster.
    pub fn with_hosts(name: impl Into<String>, hosts: Vec<HostNode>) -> Self {
        ClusterNode::with_shared_hosts(name, hosts.into_iter().map(Arc::new).collect())
    }

    /// A full-detail cluster over already-shared host nodes (the form
    /// the delta-aware ingest produces).
    pub fn with_shared_hosts(name: impl Into<String>, hosts: Vec<Arc<HostNode>>) -> Self {
        ClusterNode {
            name: name.into(),
            owner: String::new(),
            latlong: String::new(),
            url: String::new(),
            localtime: None,
            body: ClusterBody::Hosts(hosts),
        }
    }

    /// The summary of this cluster, computing it if the body is full.
    pub fn summary(&self) -> SummaryBody {
        match &self.body {
            ClusterBody::Hosts(hosts) => SummaryBody::from_hosts(hosts.iter().map(|h| &**h)),
            ClusterBody::Summary(s) => s.clone(),
        }
    }

    /// Number of hosts described (full detail or summary counts).
    pub fn host_count(&self) -> usize {
        match &self.body {
            ClusterBody::Hosts(hosts) => hosts.len(),
            ClusterBody::Summary(s) => s.hosts_total() as usize,
        }
    }

    /// Find a host by name in a full-detail body.
    pub fn host(&self, name: &str) -> Option<&HostNode> {
        match &self.body {
            ClusterBody::Hosts(hosts) => hosts.iter().find(|h| h.name == name).map(|h| h.as_ref()),
            ClusterBody::Summary(_) => None,
        }
    }
}

/// A child of a grid: a cluster or a nested grid.
#[derive(Debug, Clone, PartialEq)]
pub enum GridItem {
    Cluster(ClusterNode),
    Grid(GridNode),
}

impl GridItem {
    /// The child's name.
    pub fn name(&self) -> &str {
        match self {
            GridItem::Cluster(c) => &c.name,
            GridItem::Grid(g) => &g.name,
        }
    }

    /// The child's summary (computed or stored).
    pub fn summary(&self) -> SummaryBody {
        match self {
            GridItem::Cluster(c) => c.summary(),
            GridItem::Grid(g) => g.summary(),
        }
    }
}

/// The payload of a grid: expanded children or a summary.
#[derive(Debug, Clone, PartialEq)]
pub enum GridBody {
    Items(Vec<GridItem>),
    Summary(SummaryBody),
}

/// One grid (`<GRID ...>`).
#[derive(Debug, Clone, PartialEq)]
pub struct GridNode {
    pub name: String,
    /// URL of the gmeta that is the authority for this grid. Upstream
    /// nodes follow these pointers to locate the highest-resolution view
    /// (paper §3.2).
    pub authority: String,
    /// The grid's local time when the report was generated. `None`
    /// when the report carried no `LOCALTIME` attribute.
    pub localtime: Option<u64>,
    pub body: GridBody,
}

impl GridNode {
    /// An expanded grid.
    pub fn with_items(name: impl Into<String>, items: Vec<GridItem>) -> Self {
        GridNode {
            name: name.into(),
            authority: String::new(),
            localtime: None,
            body: GridBody::Items(items),
        }
    }

    /// The summary of this grid, composing child summaries if expanded.
    pub fn summary(&self) -> SummaryBody {
        match &self.body {
            GridBody::Items(items) => {
                let mut total = SummaryBody::default();
                for item in items {
                    total.merge(&item.summary());
                }
                total
            }
            GridBody::Summary(s) => s.clone(),
        }
    }

    /// Find a direct child by name.
    pub fn item(&self, name: &str) -> Option<&GridItem> {
        match &self.body {
            GridBody::Items(items) => items.iter().find(|i| i.name() == name),
            GridBody::Summary(_) => None,
        }
    }

    /// Total number of hosts described anywhere under this grid.
    pub fn host_count(&self) -> usize {
        match &self.body {
            GridBody::Items(items) => items
                .iter()
                .map(|i| match i {
                    GridItem::Cluster(c) => c.host_count(),
                    GridItem::Grid(g) => g.host_count(),
                })
                .sum(),
            GridBody::Summary(s) => s.hosts_total() as usize,
        }
    }
}

/// A complete report (`<GANGLIA_XML ...>`).
#[derive(Debug, Clone, PartialEq)]
pub struct GangliaDoc {
    /// Monitor-core version string.
    pub version: String,
    /// Which daemon produced the report (`gmond` or `gmetad`).
    pub source: String,
    /// Top-level children. A gmond report holds exactly one cluster; a
    /// gmetad report holds one grid.
    pub items: Vec<GridItem>,
}

impl GangliaDoc {
    /// An empty gmetad-style document.
    pub fn gmetad() -> Self {
        GangliaDoc {
            version: "2.5.4".to_string(),
            source: "gmetad".to_string(),
            items: Vec::new(),
        }
    }

    /// A gmond-style document wrapping one cluster.
    pub fn gmond(cluster: ClusterNode) -> Self {
        GangliaDoc {
            version: "2.5.4".to_string(),
            source: "gmond".to_string(),
            items: vec![GridItem::Cluster(cluster)],
        }
    }

    /// Total hosts described by the document.
    pub fn host_count(&self) -> usize {
        self.items
            .iter()
            .map(|i| match i {
                GridItem::Cluster(c) => c.host_count(),
                GridItem::Grid(g) => g.host_count(),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_with(name: &str, metrics: &[(&str, f64)]) -> HostNode {
        let mut host = HostNode::new(name, "10.0.0.1");
        for (metric_name, value) in metrics {
            host.metrics
                .push(MetricEntry::new(*metric_name, MetricValue::Double(*value)));
        }
        host
    }

    #[test]
    fn summary_sums_numeric_metrics() {
        let hosts = vec![
            host_with("a", &[("load_one", 0.5), ("cpu_num", 2.0)]),
            host_with("b", &[("load_one", 1.5), ("cpu_num", 4.0)]),
        ];
        let summary = SummaryBody::from_hosts(&hosts);
        assert_eq!(summary.hosts_up, 2);
        assert_eq!(summary.hosts_down, 0);
        let load = summary.metric("load_one").unwrap();
        assert_eq!(load.sum, 2.0);
        assert_eq!(load.num, 2);
        assert_eq!(load.mean(), Some(1.0));
    }

    #[test]
    fn summary_skips_string_metrics() {
        let mut host = host_with("a", &[("load_one", 1.0)]);
        host.metrics.push(MetricEntry::new(
            "os_name",
            MetricValue::String("Linux".into()),
        ));
        let summary = SummaryBody::from_hosts([&host]);
        assert!(summary.metric("os_name").is_none());
        assert!(summary.metric("load_one").is_some());
    }

    #[test]
    fn down_hosts_counted_but_not_summed() {
        let mut down = host_with("dead", &[("load_one", 99.0)]);
        down.tn = 1000;
        down.tmax = 20;
        assert!(!down.is_up());
        let up = host_with("alive", &[("load_one", 1.0)]);
        let summary = SummaryBody::from_hosts([&down, &up]);
        assert_eq!(summary.hosts_up, 1);
        assert_eq!(summary.hosts_down, 1);
        assert_eq!(summary.metric("load_one").unwrap().sum, 1.0);
        assert_eq!(summary.hosts_total(), 2);
    }

    #[test]
    fn merge_is_additive() {
        let a = SummaryBody {
            hosts_up: 10,
            hosts_down: 1,
            metrics: vec![MetricSummary {
                name: "cpu_num".into(),
                sum: 20.0,
                num: 10,
                ty: MetricType::Uint16,
                units: "CPUs".into(),
                slope: Slope::Zero,
                source: "gmond".into(),
            }],
        };
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.hosts_up, 20);
        let m = b.metric("cpu_num").unwrap();
        assert_eq!(m.sum, 40.0);
        assert_eq!(m.num, 20);
        // The paper's fig 3 example: SUM=20 NUM=10 means mean 2 CPUs.
        assert_eq!(m.mean(), Some(2.0));
    }

    #[test]
    fn merge_saturates_counts_from_the_wire() {
        let wide = |up: u32, down: u32, num: u32| SummaryBody {
            hosts_up: up,
            hosts_down: down,
            metrics: vec![MetricSummary {
                name: "cpu_num".into(),
                sum: 1.0,
                num,
                ty: MetricType::Uint16,
                units: "CPUs".into(),
                slope: Slope::Zero,
                source: "gmond".into(),
            }],
        };
        let mut merged = wide(u32::MAX, 1, u32::MAX);
        merged.merge(&wide(2, u32::MAX, 2));
        assert_eq!(merged.hosts_up, u32::MAX);
        assert_eq!(merged.hosts_down, u32::MAX);
        assert_eq!(merged.metric("cpu_num").unwrap().num, u32::MAX);
        assert_eq!(merged.hosts_total(), u32::MAX);
    }

    #[test]
    fn merge_adds_unseen_metrics() {
        let mut a = SummaryBody::default();
        let b = SummaryBody {
            hosts_up: 1,
            hosts_down: 0,
            metrics: vec![MetricSummary {
                name: "load_one".into(),
                sum: 0.89,
                num: 1,
                ty: MetricType::Float,
                units: Atom::empty(),
                slope: Slope::Both,
                source: "gmond".into(),
            }],
        };
        a.merge(&b);
        assert_eq!(a.metrics.len(), 1);
    }

    #[test]
    fn grid_summary_composes_hierarchically() {
        let cluster_a =
            ClusterNode::with_hosts("meteor", vec![host_with("m0", &[("cpu_num", 2.0)])]);
        let cluster_b =
            ClusterNode::with_hosts("nashi", vec![host_with("n0", &[("cpu_num", 4.0)])]);
        let inner = GridNode::with_items("attic", vec![GridItem::Cluster(cluster_b)]);
        let outer = GridNode::with_items(
            "sdsc",
            vec![GridItem::Cluster(cluster_a), GridItem::Grid(inner)],
        );
        let summary = outer.summary();
        assert_eq!(summary.hosts_up, 2);
        assert_eq!(summary.metric("cpu_num").unwrap().sum, 6.0);
        assert_eq!(outer.host_count(), 2);
    }

    #[test]
    fn summary_grid_body_reports_stored_summary() {
        let stored = SummaryBody {
            hosts_up: 10,
            hosts_down: 1,
            metrics: vec![],
        };
        let grid = GridNode {
            name: "ATTIC".into(),
            authority: "http://attic/".into(),
            localtime: None,
            body: GridBody::Summary(stored.clone()),
        };
        assert_eq!(grid.summary(), stored);
        assert_eq!(grid.host_count(), 11);
        assert!(grid.item("anything").is_none());
    }

    #[test]
    fn host_is_up_boundary() {
        let mut host = HostNode::new("h", "1.2.3.4");
        host.tmax = 20;
        host.tn = 80;
        assert!(host.is_up());
        host.tn = 81;
        assert!(!host.is_up());
    }

    #[test]
    fn doc_host_count() {
        let doc = GangliaDoc::gmond(ClusterNode::with_hosts(
            "c",
            vec![host_with("a", &[]), host_with("b", &[])],
        ));
        assert_eq!(doc.host_count(), 2);
    }

    #[test]
    fn cluster_host_lookup() {
        let cluster = ClusterNode::with_hosts("c", vec![host_with("a", &[("load_one", 1.0)])]);
        assert!(cluster.host("a").is_some());
        assert!(cluster.host("z").is_none());
        let host = cluster.host("a").unwrap();
        assert!(host.metric("load_one").is_some());
        assert!(host.metric("load_two").is_none());
    }
}
