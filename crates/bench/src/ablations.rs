//! Ablations of the design choices DESIGN.md calls out, and median
//! timings of the hot paths the paper's design arguments rest on.
//!
//! Each ablation reports a timed row and a counted-work row, the design
//! against the alternative it replaced:
//! * summary vs union (§3.2): a parent ingesting a child gmetad's
//!   summary report vs the union of its subtree — bytes parsed;
//! * hash vs scan (§3.3.2): host lookup in the three-level hash store
//!   vs a linear scan of the cluster — probes;
//! * background vs query-time parse (§3.3.1): answering from the
//!   pre-parsed store vs parsing the child XML on the query path —
//!   allocations;
//! * full vs summary-only archives (§4.3's "superfluous metric
//!   archives"): one archiving round of a remote grid — RRD updates.

use ganglia_core::{archive, poller, query_engine, GmetadConfig, SourceState, Store, TreeMode};
use ganglia_core::{SourceData, WorkMeter};
use ganglia_gmond::PseudoGmond;
use ganglia_metrics::model::{ClusterBody, GridNode, SummaryBody};
use ganglia_metrics::{parse_document, GangliaDoc, GridItem};
use ganglia_query::Query;
use ganglia_rrd::{ganglia_default_spec, DataSourceDef, RraDef, Rrd, RrdSet, RrdSpec};

use crate::{count_allocs, median_ns, Op, Params, Report, Row};

/// One measured number for the design and for the alternative it
/// replaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pair {
    pub design: f64,
    pub alternative: f64,
}

/// Everything the four ablations measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationResult {
    pub ingest_ns: Pair,
    pub parsed_bytes: Pair,
    pub lookup_ns: Pair,
    pub lookup_probes: Pair,
    pub query_ns: Pair,
    pub query_allocs: Pair,
    pub archive_round_ns: Pair,
    pub archive_round_updates: Pair,
}

/// The ablations as rows, each design against its alternative. Gate:
/// the union report is more than 4x the summary report's bytes.
pub fn ablation_rows(r: &AblationResult) -> Vec<Row> {
    let row = |stage: &str, metric: &str, pair: Pair| {
        Row::new(stage, metric, pair.design).vs(pair.alternative)
    };
    vec![
        row("summary vs union", "ingest_ns", r.ingest_ns),
        row("summary vs union", "parsed_bytes", r.parsed_bytes),
        Row::new(
            "summary vs union",
            "union_over_summary_x",
            r.parsed_bytes.alternative / r.parsed_bytes.design,
        )
        .gate(Op::Gt, 4),
        row("hash vs scan", "lookup_ns", r.lookup_ns),
        row("hash vs scan", "probes", r.lookup_probes),
        row("background vs query-time parse", "query_ns", r.query_ns),
        row(
            "background vs query-time parse",
            "allocs_per_query",
            r.query_allocs,
        ),
        row(
            "summary-only vs full archives",
            "archive_round_ns",
            r.archive_round_ns,
        ),
        row(
            "summary-only vs full archives",
            "rrd_updates_per_round",
            r.archive_round_updates,
        ),
    ]
}

fn state(name: &str, doc: GangliaDoc, mode: TreeMode) -> SourceState {
    poller::build_state(name, doc, mode, &WorkMeter::new(), 0)
}

fn pseudo_state(name: &str, hosts: usize, seed: u64) -> SourceState {
    let doc =
        parse_document(PseudoGmond::new(name, hosts, seed, 0).xml()).expect("pseudo XML parses");
    state(name, doc, TreeMode::NLevel)
}

/// One archiving round of `state` into a fresh compact set: median
/// time and updates per round.
fn archive_round(state: &SourceState, mode: TreeMode) -> (f64, f64) {
    let mut set = RrdSet::with_spec_factory(|key, start| RrdSpec {
        step: 15,
        start,
        data_source: DataSourceDef::gauge(key.metric.clone(), 120),
        archives: vec![RraDef::average(1, 64)],
    });
    let mut t = 0u64;
    let ns = median_ns(|| {
        t += 15;
        archive::archive_source(&mut set, state, mode, t)
    });
    (
        ns,
        archive::archive_source(&mut set, state, mode, t + 15).updates as f64,
    )
}

pub fn run_ablations(_: &Params) -> Result<Report, String> {
    // A child gmetad over four 50-host clusters: what its parent
    // downloads under each policy.
    let child = Store::new();
    let mut items = Vec::new();
    for i in 0..4u64 {
        let name = format!("c{i}");
        let doc =
            parse_document(PseudoGmond::new(&name, 50, i, 0).xml()).expect("pseudo XML parses");
        items.extend(doc.items.iter().cloned());
        child.replace(state(&name, doc, TreeMode::NLevel));
    }
    let config = GmetadConfig::new("child");
    let answer =
        |q: &str| query_engine::answer(&child, &config, &Query::parse(q).expect("query parses"), 0);
    let (union_xml, summary_xml) = (answer("/"), answer("/?filter=summary"));
    let ingest = |xml: &str, mode| {
        median_ns(|| {
            state(
                "child",
                parse_document(xml).expect("child XML parses"),
                mode,
            )
        })
    };

    // Host lookup in a 500-host cluster, the scan's worst case.
    let cluster = pseudo_state("meteor", 500, 42);
    let target = "meteor-0499";
    let SourceData::Cluster(node) = &cluster.data else {
        unreachable!("a gmond report is a cluster")
    };
    let ClusterBody::Hosts(hosts) = &node.body else {
        unreachable!("a parsed cluster carries its hosts")
    };
    let scan_probes = hosts
        .iter()
        .position(|h| h.name == target)
        .expect("target host exists")
        + 1;

    // A host query against the store vs parsing the cluster per query.
    let xml = PseudoGmond::new("meteor", 200, 42, 0).xml().to_string();
    let store = Store::new();
    store.replace(pseudo_state("meteor", 200, 42));
    let sdsc = GmetadConfig::new("sdsc");
    let host_query = Query::parse("/meteor/meteor-0100").expect("query parses");
    let from_store = || query_engine::answer(&store, &sdsc, &host_query, 0);
    let at_query_time = || {
        let fresh = Store::new();
        let doc = parse_document(&xml).expect("pseudo XML parses");
        fresh.replace(state("meteor", doc, TreeMode::NLevel));
        query_engine::answer(&fresh, &sdsc, &host_query, 0)
    };

    // The same four clusters as one remote grid, fully expanded.
    let grid = GangliaDoc {
        version: "2.5.4".into(),
        source: "gmetad".into(),
        items: vec![GridItem::Grid(GridNode::with_items("child", items))],
    };
    let full = state("child", grid.clone(), TreeMode::OneLevel);
    let summary_only = state("child", grid, TreeMode::NLevel);
    let (full_ns, full_updates) = archive_round(&full, TreeMode::OneLevel);
    let (summary_ns, summary_updates) = archive_round(&summary_only, TreeMode::NLevel);

    let result = AblationResult {
        ingest_ns: Pair {
            design: ingest(&summary_xml, TreeMode::NLevel),
            alternative: ingest(&union_xml, TreeMode::OneLevel),
        },
        parsed_bytes: Pair {
            design: summary_xml.len() as f64,
            alternative: union_xml.len() as f64,
        },
        lookup_ns: Pair {
            design: median_ns(|| cluster.host(target).is_some()),
            alternative: median_ns(|| hosts.iter().any(|h| h.name == target)),
        },
        lookup_probes: Pair {
            // One probe of the host index.
            design: 1.0,
            alternative: scan_probes as f64,
        },
        query_ns: Pair {
            design: median_ns(from_store),
            alternative: median_ns(at_query_time),
        },
        query_allocs: Pair {
            design: count_allocs(from_store).1 as f64,
            alternative: count_allocs(at_query_time).1 as f64,
        },
        archive_round_ns: Pair {
            design: summary_ns,
            alternative: full_ns,
        },
        archive_round_updates: Pair {
            design: summary_updates,
            alternative: full_updates,
        },
    };
    Ok(Report {
        experiment: "ablations",
        params: vec![
            ("child_clusters", "4x50 hosts".into()),
            ("lookup_cluster_hosts", hosts.len().to_string()),
        ],
        rows: ablation_rows(&result),
    })
}

/// Median timings of the hot paths: parse (the dominant gmetad cost,
/// §3.3.1), additive summarization (§3.2), the six fig-4 query kinds
/// over the three-level hash store, one RRD ladder update (§3.1, §5)
/// and a 12-way summary merge.
pub fn run_micro(_: &Params) -> Result<Report, String> {
    let mut rows = Vec::new();
    let mut time = |stage: String, ns: f64| rows.push(Row::new(stage, "median_ns", ns));
    for hosts in [10, 100] {
        let xml = PseudoGmond::new("meteor", hosts, 42, 0).xml().to_string();
        time(
            format!("parse {hosts} hosts"),
            median_ns(|| parse_document(&xml)),
        );
    }
    let pseudos = [100, 500].map(|hosts| PseudoGmond::new("meteor", hosts, 42, 0));
    let clusters = pseudos
        .each_ref()
        .map(|pseudo| match &pseudo.doc().items[0] {
            GridItem::Cluster(cluster) => cluster,
            GridItem::Grid(_) => unreachable!("a gmond report is a cluster"),
        });
    for cluster in clusters {
        time(
            format!("summarize {} hosts", cluster.host_count()),
            median_ns(|| cluster.summary()),
        );
    }
    let store = Store::new();
    for i in 0..12u64 {
        store.replace(pseudo_state(&format!("cluster-{i:02}"), 100, i));
    }
    let config = GmetadConfig::new("sdsc");
    for (label, query) in [
        ("root_full", "/"),
        ("meta_summary", "/?filter=summary"),
        ("cluster_full", "/cluster-03"),
        ("cluster_summary", "/cluster-03?filter=summary"),
        ("host", "/cluster-03/cluster-03-0042"),
        ("metric", "/cluster-03/cluster-03-0042/load_one"),
    ] {
        let query = Query::parse(query).expect("query parses");
        time(
            format!("fig4 query {label}"),
            median_ns(|| query_engine::answer(&store, &config, &query, 0)),
        );
    }
    let mut rrd = Rrd::create(ganglia_default_spec("load_one", 0)).expect("default spec is valid");
    let mut t = 0u64;
    time(
        "rrd ladder update".into(),
        median_ns(|| {
            t += 15;
            rrd.update(t, 1.25).expect("monotone update")
        }),
    );
    let child = clusters[0].summary();
    time(
        "summary merge 12-way".into(),
        median_ns(|| {
            let mut total = SummaryBody::default();
            for _ in 0..12 {
                total.merge(&child);
            }
            total
        }),
    );
    Ok(Report {
        experiment: "micro",
        params: vec![("samples", "21".into())],
        rows,
    })
}
