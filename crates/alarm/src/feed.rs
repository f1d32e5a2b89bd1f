//! Drive the alarm engine from GQL continuous queries — the only way
//! observations reach it.
//!
//! Every [`Rule`] compiles to one GQL expression ([`rule_expr`]), the
//! resulting rows map back to the engine's `(rule, subject, value)`
//! observations ([`rule_observations`]), and the observations drive the
//! hysteresis state machine via
//! [`AlarmEngine::apply_observations`](crate::engine::AlarmEngine::apply_observations).
//! A gmetad that already evaluates GQL subscriptions after each poll
//! round pushes each rule's matching rows to the alarm pipeline; the
//! alarm tier has no document walker of its own.
//!
//! [`AlarmFeed`] bundles the compiled queries with an engine for
//! callers that hold documents ([`AlarmFeed::evaluate_doc`]) or row
//! sets; subscription clients can instead pull
//! [`AlarmFeed::expressions`], subscribe each one, and hand mirrored
//! rows to [`AlarmFeed::apply_rows`].

use ganglia_metrics::model::GangliaDoc;
use ganglia_query::gql::{GqlQuery, Row, HOSTS_DOWN};

use crate::engine::{AlarmEngine, AlarmEvent};
use crate::rule::{Matcher, Rule, Signal};
use crate::sink::AlarmSink;

/// Quote a literal for embedding in a GQL expression.
fn quote(lit: &str) -> String {
    let mut out = String::with_capacity(lit.len() + 2);
    out.push('"');
    for c in lit.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

fn matcher_stage(field: &str, matcher: &Matcher) -> Option<String> {
    match matcher {
        Matcher::Any => None,
        Matcher::Exact(name) => Some(format!("{field} == {}", quote(name))),
        Matcher::Pattern(re) => Some(format!("{field} ~ {}", quote(re.pattern()))),
    }
}

/// The GQL expression equivalent to one alarm rule, or `None` for the
/// one unrepresentable (and meaningless) combination: a per-host rule
/// watching the summary-only `HostsDown` signal.
pub fn rule_expr(rule: &Rule) -> Option<String> {
    let mut stages: Vec<String> = Vec::new();
    match &rule.host {
        None => {
            stages.push("summary".to_string());
            stages.extend(matcher_stage("cluster", &rule.cluster));
            let metric = match &rule.signal {
                Signal::Metric(name) => name.as_str(),
                Signal::HostsDown => HOSTS_DOWN,
            };
            stages.push(format!("metric == {}", quote(metric)));
        }
        Some(host) => {
            let Signal::Metric(metric) = &rule.signal else {
                return None; // HostsDown is summary-only
            };
            stages.extend(matcher_stage("cluster", &rule.cluster));
            stages.extend(matcher_stage("host", host));
            stages.push(format!("metric == {}", quote(metric)));
        }
    }
    Some(stages.join(" | "))
}

/// Map one rule's GQL result rows back to engine observations. Summary
/// rules subject on the cluster/grid name (the summary row's CLUSTER
/// column carries both); per-host rules subject on `cluster/host`.
/// Rows without a numeric value observe nothing.
pub fn rule_observations(rule: &Rule, rows: &[Row]) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for row in rows {
        let Some(value) = row.value else { continue };
        let subject = if rule.host.is_none() {
            row.cluster.clone()
        } else {
            format!("{}/{}", row.cluster, row.host)
        };
        out.push((rule.name.clone(), subject, value));
    }
    out
}

/// One rule with its compiled continuous query.
struct CompiledRule {
    rule: Rule,
    query: GqlQuery,
}

/// An alarm engine fed by GQL queries.
pub struct AlarmFeed {
    engine: AlarmEngine,
    compiled: Vec<CompiledRule>,
}

impl AlarmFeed {
    /// Compile each rule to its GQL expression. Rules that compile to
    /// nothing (per-host `HostsDown`) are carried by the engine but
    /// never observe anything.
    pub fn new(rules: Vec<Rule>) -> AlarmFeed {
        let compiled = rules
            .iter()
            .filter_map(|rule| {
                let source = rule_expr(rule)?;
                let query = GqlQuery::parse(&source)
                    .unwrap_or_else(|e| panic!("generated GQL {source:?} must parse: {e:?}"));
                Some(CompiledRule {
                    rule: rule.clone(),
                    query,
                })
            })
            .collect();
        AlarmFeed {
            engine: AlarmEngine::new(rules),
            compiled,
        }
    }

    /// The underlying engine (status queries).
    pub fn engine(&self) -> &AlarmEngine {
        &self.engine
    }

    /// `(rule name, GQL source)` pairs — what a subscription client
    /// sends as `#subscribe` expressions, one per rule.
    pub fn expressions(&self) -> Vec<(&str, &str)> {
        self.compiled
            .iter()
            .map(|c| (c.rule.name.as_str(), c.query.source()))
            .collect()
    }

    /// Evaluate every rule's query against a full document and drive
    /// the state machine.
    pub fn evaluate_doc(
        &mut self,
        doc: &GangliaDoc,
        now: u64,
        sink: &dyn AlarmSink,
    ) -> Vec<AlarmEvent> {
        let mut observations = Vec::new();
        for c in &self.compiled {
            let rows = c.query.evaluate_doc(doc);
            observations.extend(rule_observations(&c.rule, &rows));
        }
        self.engine.apply_observations(observations, now, sink)
    }

    /// Drive the state machine with externally evaluated rows (e.g. a
    /// subscription mirror), keyed by rule name. Rules without an entry
    /// observe nothing this round.
    pub fn apply_rows(
        &mut self,
        rows_by_rule: &[(&str, &[Row])],
        now: u64,
        sink: &dyn AlarmSink,
    ) -> Vec<AlarmEvent> {
        let mut observations = Vec::new();
        for c in &self.compiled {
            if let Some((_, rows)) = rows_by_rule.iter().find(|(name, _)| *name == c.rule.name) {
                observations.extend(rule_observations(&c.rule, rows));
            }
        }
        self.engine.apply_observations(observations, now, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Comparison;
    use crate::sink::MemorySink;
    use ganglia_metrics::model::{
        ClusterNode, GridBody, GridItem, GridNode, HostNode, MetricEntry,
    };
    use ganglia_metrics::MetricValue;
    use ganglia_query::RegexLite;

    fn test_doc() -> GangliaDoc {
        // Two clusters with hosts plus a summary-only remote grid, so
        // every observation path (cluster summary, grid summary,
        // per-host) is exercised.
        let mk_cluster = |name: &str, loads: &[f64], down: usize| {
            let hosts: Vec<HostNode> = loads
                .iter()
                .enumerate()
                .map(|(i, load)| {
                    let mut h = HostNode::new(format!("n{i}"), "10.0.0.1");
                    if i < down {
                        h.tn = 10_000;
                    }
                    h.metrics
                        .push(MetricEntry::new("load_one", MetricValue::Double(*load)));
                    h
                })
                .collect();
            ClusterNode::with_hosts(name, hosts)
        };
        let meteor = mk_cluster("meteor", &[6.0, 1.0, 0.5, 9.0], 1);
        let nashi = mk_cluster("nashi", &[0.1, 0.2], 0);
        let attic = GridNode {
            name: "attic".into(),
            authority: String::new(),
            localtime: None,
            body: GridBody::Summary(meteor.summary()),
        };
        GangliaDoc {
            version: "2.5.4".into(),
            source: "gmetad".into(),
            items: vec![
                GridItem::Cluster(meteor),
                GridItem::Cluster(nashi),
                GridItem::Grid(attic),
            ],
        }
    }

    fn test_rules() -> Vec<Rule> {
        vec![
            Rule::summary(
                "load-high",
                Matcher::Any,
                Signal::Metric("load_one".into()),
                Comparison::Above(2.0),
            ),
            Rule::summary(
                "dead-hosts",
                Matcher::Pattern(RegexLite::new("^(meteor|attic)$").unwrap()),
                Signal::HostsDown,
                Comparison::Above(0.0),
            ),
            Rule::per_host(
                "hot",
                Matcher::Exact("meteor".into()),
                Matcher::Pattern(RegexLite::new("^n[03]$").unwrap()),
                "load_one",
                Comparison::Above(5.0),
            )
            .hold_for(30),
        ]
    }

    #[test]
    fn rule_exprs_compile() {
        for rule in test_rules() {
            let source = rule_expr(&rule).unwrap();
            GqlQuery::parse(&source)
                .unwrap_or_else(|e| panic!("{source:?} failed to parse: {e:?}"));
        }
        // The summary-only signal on a per-host rule is unrepresentable.
        let bogus = Rule {
            name: "bogus".into(),
            cluster: Matcher::Any,
            host: Some(Matcher::Any),
            signal: Signal::HostsDown,
            comparison: Comparison::Above(0.0),
            hold_secs: 0,
        };
        assert_eq!(rule_expr(&bogus), None);
    }

    #[test]
    fn literals_are_quoted() {
        let rule = Rule::summary(
            "odd",
            Matcher::Exact("we\"ird\\name".into()),
            Signal::Metric("load one".into()),
            Comparison::Above(0.0),
        );
        let source = rule_expr(&rule).unwrap();
        let query = GqlQuery::parse(&source).unwrap();
        assert_eq!(query.source(), source);
    }

    #[test]
    fn five_round_scenario_matches_event_table() {
        // A multi-round scenario that raises, holds and fires alarms on
        // every observation path: cluster summaries, a summary-form grid
        // and per-host rows (a down host's metric included). nashi's
        // mean load (0.15) never breaches, and rules not matching a
        // subject never observe it.
        use crate::engine::{AlarmKind, AlarmStatus};
        let raised = |rule: &str, subject: &str, value: f64, at: u64| AlarmEvent {
            rule: rule.into(),
            subject: subject.into(),
            kind: AlarmKind::Raised,
            value,
            at,
        };
        let table: [(u64, Vec<AlarmEvent>); 5] = [
            (
                0,
                vec![
                    raised("dead-hosts", "attic", 1.0, 0),
                    raised("dead-hosts", "meteor", 1.0, 0),
                    raised("load-high", "attic", 3.5, 0),
                    raised("load-high", "meteor", 3.5, 0),
                ],
            ),
            (15, vec![]),
            (
                30,
                vec![
                    raised("hot", "meteor/n0", 6.0, 30),
                    raised("hot", "meteor/n3", 9.0, 30),
                ],
            ),
            (45, vec![]),
            (60, vec![]),
        ];
        let doc = test_doc();
        let mut feed = AlarmFeed::new(test_rules());
        let sink = MemorySink::new();
        for (now, want) in &table {
            let mut got = feed.evaluate_doc(&doc, *now, &sink);
            got.sort_by_key(|e| (e.rule.clone(), e.subject.clone()));
            assert_eq!(&got, want, "diverged at t={now}");
            if *now == 15 {
                // The per-host rule is holding, not firing.
                assert_eq!(
                    feed.engine().status("hot", "meteor/n3"),
                    AlarmStatus::Pending { since: 0 }
                );
            }
        }
        let firing: Vec<(String, String)> = [
            ("dead-hosts", "attic"),
            ("dead-hosts", "meteor"),
            ("hot", "meteor/n0"),
            ("hot", "meteor/n3"),
            ("load-high", "attic"),
            ("load-high", "meteor"),
        ]
        .iter()
        .map(|(rule, subject)| (rule.to_string(), subject.to_string()))
        .collect();
        assert_eq!(feed.engine().firing(), firing);
        assert_eq!(sink.events().len(), 6);
    }

    #[test]
    fn apply_rows_drives_the_engine() {
        let mut feed = AlarmFeed::new(vec![Rule::summary(
            "load-high",
            Matcher::Any,
            Signal::Metric("load_one".into()),
            Comparison::Above(2.0),
        )]);
        let exprs = feed.expressions();
        assert_eq!(exprs.len(), 1);
        assert_eq!(exprs[0].0, "load-high");
        // Rows as a subscription mirror would hold them.
        let query = GqlQuery::parse(exprs[0].1).unwrap();
        let rows = query.evaluate_doc(&test_doc());
        let sink = MemorySink::new();
        // Both the meteor cluster and the attic grid (whose summary
        // mirrors meteor's) breach the threshold; nashi does not.
        let mut events = feed.apply_rows(&[("load-high", &rows)], 0, &sink);
        events.sort_by(|a, b| a.subject.cmp(&b.subject));
        let subjects: Vec<&str> = events.iter().map(|e| e.subject.as_str()).collect();
        assert_eq!(subjects, vec!["attic", "meteor"], "{events:?}");
    }
}
