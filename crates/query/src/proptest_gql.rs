//! Property tests for GQL: the parser/evaluator must never panic on
//! arbitrary input (expressions arrive from the network), the fused
//! evaluator must agree with the naive reference on random trees, and
//! delta replay must reconstruct the full result byte-identically.
//!
//! A module of the crate rather than an integration test, because the
//! reference evaluator is test-only.

use ganglia_metrics::model::{ClusterNode, GangliaDoc, GridItem, GridNode, HostNode, MetricEntry};
use ganglia_metrics::MetricValue;
use proptest::prelude::*;

use crate::gql::{diff, doc_roots, render_xml, Delta, GqlQuery, Mirror};

// ---------------------------------------------------------------
// Random monitoring trees
// ---------------------------------------------------------------

fn arb_metric() -> impl Strategy<Value = MetricEntry> {
    (
        prop::sample::select(vec![
            "load_one",
            "cpu_num",
            "mem_free",
            "os_name",
            "disk_total",
        ]),
        prop_oneof![
            (0.0f64..1e6).prop_map(MetricValue::Double),
            (0u32..4096).prop_map(MetricValue::Uint32),
            Just(MetricValue::String("Linux".to_string())),
        ],
        prop::sample::select(vec!["", "KB", "MB", "%", "s", "MHz", "CPUs"]),
    )
        .prop_map(|(name, value, units)| {
            let mut m = MetricEntry::new(name, value);
            m.units = units.into();
            m
        })
}

fn arb_host(tag: &'static str) -> impl Strategy<Value = HostNode> {
    (
        0u8..8,
        prop::collection::vec(arb_metric(), 0..5),
        prop::bool::weighted(0.15),
    )
        .prop_map(move |(idx, metrics, down)| {
            let mut host = HostNode::new(format!("{tag}{idx}"), "10.0.0.1");
            if down {
                host.tn = host.tmax * 4 + 1; // over the liveness threshold
            }
            host.metrics = metrics;
            host
        })
}

fn arb_cluster(tag: &'static str) -> impl Strategy<Value = ClusterNode> {
    (
        prop::sample::select(vec!["meteor", "nashi", "attic", "torii"]),
        prop::collection::vec(arb_host(tag), 0..4),
    )
        .prop_map(|(name, hosts)| ClusterNode::with_hosts(name, hosts))
}

fn arb_doc() -> impl Strategy<Value = GangliaDoc> {
    (
        prop::collection::vec(arb_cluster("a"), 0..3),
        prop::collection::vec(arb_cluster("b"), 0..3),
    )
        .prop_map(|(top, nested)| {
            let mut items: Vec<GridItem> = top.into_iter().map(GridItem::Cluster).collect();
            if !nested.is_empty() {
                items.push(GridItem::Grid(GridNode::with_items(
                    "sdsc",
                    nested.into_iter().map(GridItem::Cluster).collect(),
                )));
            }
            GangliaDoc {
                version: "2.5.4".to_string(),
                source: "gmetad".to_string(),
                items,
            }
        })
}

// ---------------------------------------------------------------
// Random (valid) expressions
// ---------------------------------------------------------------

fn arb_stage() -> impl Strategy<Value = String> {
    let field = prop::sample::select(vec!["grid", "cluster", "host", "metric"]);
    let name_op = prop::sample::select(vec!["~", "==", "!="]);
    let literal = prop::sample::select(vec![
        "load_one",
        "meteor",
        "a0",
        "^m",
        "o.e$",
        "#hosts_up",
        "[a-z]+",
        "x|y",
    ]);
    let cmp = prop::sample::select(vec![">", ">=", "<", "<=", "==", "!="]);
    let number = prop::sample::select(vec!["0", "1", "100", "2.5", "1e3", "1KB", "2MHz", "50%"]);
    let agg = prop::sample::select(vec!["sum", "avg", "max", "min", "count"]);
    let select = prop::sample::select(vec![
        "select val",
        "select host, val",
        "select grid, cluster, host, metric, val, units",
        "select units",
    ]);
    prop_oneof![
        (field.clone(), name_op, literal).prop_map(|(f, op, lit)| format!("{f} {op} \"{lit}\"")),
        (cmp, number).prop_map(|(c, n)| format!("val {c} {n}")),
        select.prop_map(str::to_string),
        (agg, prop::option::of(field)).prop_map(|(a, by)| match by {
            Some(f) => format!("{a} by {f}"),
            None => a.to_string(),
        }),
        (1usize..6).prop_map(|k| format!("top {k}")),
    ]
}

fn arb_expr() -> impl Strategy<Value = String> {
    (prop::bool::ANY, prop::collection::vec(arb_stage(), 1..4)).prop_map(|(summary, stages)| {
        let mut parts: Vec<String> = Vec::new();
        if summary {
            parts.push("summary".to_string());
        }
        parts.extend(stages);
        parts.join(" | ")
    })
}

// ---------------------------------------------------------------
// Properties
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn parser_never_panics_and_offsets_stay_in_bounds(expr in "[ -~]{0,96}") {
        match GqlQuery::parse(&expr) {
            Ok(_) => {}
            Err(e) => prop_assert!(e.offset <= expr.len().max(1)),
        }
    }

    #[test]
    fn evaluator_never_panics_on_arbitrary_parsed_input(
        expr in "[ -~]{0,64}",
        doc in arb_doc(),
    ) {
        if let Ok(q) = GqlQuery::parse(&expr) {
            let _ = q.evaluate_doc(&doc);
        }
    }

    #[test]
    fn generated_expressions_always_parse(expr in arb_expr()) {
        prop_assert!(GqlQuery::parse(&expr).is_ok(), "failed to parse {expr:?}");
    }

    #[test]
    fn fused_evaluator_agrees_with_reference(expr in arb_expr(), doc in arb_doc()) {
        let q = GqlQuery::parse(&expr).expect("generated expressions parse");
        let roots = doc_roots(&doc);
        let fused = q.evaluate("", &roots);
        let reference = q.evaluate_reference("", &roots);
        prop_assert_eq!(fused, reference, "disagreement on {}", expr);
    }

    #[test]
    fn result_sets_are_canonical(expr in arb_expr(), doc in arb_doc()) {
        let q = GqlQuery::parse(&expr).expect("generated expressions parse");
        let rows = q.evaluate_doc(&doc);
        for pair in rows.windows(2) {
            prop_assert!(pair[0].key < pair[1].key, "unsorted or duplicate keys");
        }
    }

    #[test]
    fn delta_replay_reconstructs_renders_byte_identically(
        expr in arb_expr(),
        docs in prop::collection::vec(arb_doc(), 1..5),
    ) {
        let q = GqlQuery::parse(&expr).expect("generated expressions parse");
        let mut mirror = Mirror::new();
        let mut prev = Vec::new();
        for (round, doc) in docs.iter().enumerate() {
            let revision = round as u64 + 1;
            let rows = q.evaluate_doc(doc);
            let delta = if round == 0 {
                Delta::snapshot(&rows, revision)
            } else {
                diff(&prev, &rows, revision)
            };
            // Wire round-trip before replaying, as a subscriber would.
            let decoded = Delta::parse(&delta.encode()).expect("own encoding parses");
            mirror.apply(&decoded);
            prop_assert_eq!(mirror.render(), render_xml(&rows, revision));
            prev = rows;
        }
    }
}
