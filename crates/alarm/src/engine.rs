//! The alarm state machine. Observations reach it from GQL rows
//! ([`crate::feed`]); it owns no document walk of its own.

use std::collections::HashMap;

use crate::rule::Rule;
use crate::sink::AlarmSink;

/// Alarm lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlarmStatus {
    /// Condition not violated.
    Ok,
    /// Violated, waiting out `hold_secs` (since the recorded time).
    Pending { since: u64 },
    /// Alarm raised.
    Firing { since: u64 },
}

/// A state transition worth telling a human about.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmEvent {
    pub rule: String,
    /// `cluster` or `cluster/host`.
    pub subject: String,
    pub kind: AlarmKind,
    /// The observed value at the transition.
    pub value: f64,
    pub at: u64,
}

/// The transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlarmKind {
    Raised,
    Cleared,
}

/// The per-`(rule, subject)` alarm states of a rule set.
pub struct AlarmEngine {
    rules: Vec<Rule>,
    states: HashMap<(String, String), AlarmStatus>,
}

impl AlarmEngine {
    /// An engine with a rule set.
    pub fn new(rules: Vec<Rule>) -> AlarmEngine {
        AlarmEngine {
            rules,
            states: HashMap::new(),
        }
    }

    /// The current status of one `(rule, subject)` pair.
    pub fn status(&self, rule: &str, subject: &str) -> AlarmStatus {
        self.states
            .get(&(rule.to_string(), subject.to_string()))
            .copied()
            .unwrap_or(AlarmStatus::Ok)
    }

    /// All currently-firing `(rule, subject)` pairs.
    pub fn firing(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .states
            .iter()
            .filter(|(_, s)| matches!(s, AlarmStatus::Firing { .. }))
            .map(|(k, _)| k.clone())
            .collect();
        out.sort();
        out
    }

    /// Drive the hysteresis state machine with pre-gathered
    /// `(rule name, subject, value)` observations, as the GQL feed
    /// ([`crate::feed`]) gathers them from a document or a subscription
    /// mirror.
    pub fn apply_observations(
        &mut self,
        observations: Vec<(String, String, f64)>,
        now: u64,
        sink: &dyn AlarmSink,
    ) -> Vec<AlarmEvent> {
        let mut events = Vec::new();
        for (rule_name, subject, value) in observations {
            // An observation for a rule this engine doesn't know is
            // dropped rather than panicking: feeds are configured
            // separately from the engine.
            let Some(rule) = self.rules.iter().find(|r| r.name == rule_name) else {
                continue;
            };
            let violated = rule.comparison.violated_by(value);
            let key = (rule_name.clone(), subject.clone());
            let current = self.states.get(&key).copied().unwrap_or(AlarmStatus::Ok);
            let next = match (current, violated) {
                (AlarmStatus::Ok, true) => {
                    if rule.hold_secs == 0 {
                        events.push(AlarmEvent {
                            rule: rule_name,
                            subject,
                            kind: AlarmKind::Raised,
                            value,
                            at: now,
                        });
                        AlarmStatus::Firing { since: now }
                    } else {
                        AlarmStatus::Pending { since: now }
                    }
                }
                (AlarmStatus::Pending { since }, true) => {
                    if now.saturating_sub(since) >= rule.hold_secs {
                        events.push(AlarmEvent {
                            rule: rule_name,
                            subject,
                            kind: AlarmKind::Raised,
                            value,
                            at: now,
                        });
                        AlarmStatus::Firing { since }
                    } else {
                        AlarmStatus::Pending { since }
                    }
                }
                (AlarmStatus::Firing { since }, true) => AlarmStatus::Firing { since },
                (AlarmStatus::Firing { .. }, false) => {
                    events.push(AlarmEvent {
                        rule: rule_name,
                        subject,
                        kind: AlarmKind::Cleared,
                        value,
                        at: now,
                    });
                    AlarmStatus::Ok
                }
                (_, false) => AlarmStatus::Ok,
            };
            if next == AlarmStatus::Ok {
                self.states.remove(&key);
            } else {
                self.states.insert(key, next);
            }
        }
        for event in &events {
            sink.notify(event);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::AlarmFeed;
    use crate::rule::{Comparison, Matcher, Signal};
    use crate::sink::MemorySink;
    use ganglia_metrics::model::{
        ClusterNode, GangliaDoc, GridBody, GridItem, GridNode, HostNode, MetricEntry, SummaryBody,
    };
    use ganglia_metrics::MetricValue;

    fn doc_with_load(load: f64, hosts_down: usize) -> GangliaDoc {
        let hosts: Vec<HostNode> = (0..4)
            .map(|i| {
                let mut h = HostNode::new(format!("n{i}"), "10.0.0.1");
                if i < hosts_down {
                    h.tn = 10_000;
                }
                h.metrics
                    .push(MetricEntry::new("load_one", MetricValue::Double(load)));
                h
            })
            .collect();
        let cluster = ClusterNode::with_hosts("meteor", hosts);
        GangliaDoc::gmond(cluster)
    }

    #[test]
    fn immediate_rule_raises_and_clears() {
        let rules = vec![Rule::summary(
            "load-high",
            Matcher::Exact("meteor".into()),
            Signal::Metric("load_one".into()),
            Comparison::Above(2.0),
        )];
        let mut feed = AlarmFeed::new(rules);
        let sink = MemorySink::new();

        let events = feed.evaluate_doc(&doc_with_load(3.0, 0), 10, &sink);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, AlarmKind::Raised);
        assert_eq!(events[0].subject, "meteor");
        assert_eq!(feed.engine().firing().len(), 1);

        // Still violated: no new events.
        assert!(feed
            .evaluate_doc(&doc_with_load(3.5, 0), 25, &sink)
            .is_empty());

        // Recovered: cleared.
        let events = feed.evaluate_doc(&doc_with_load(0.5, 0), 40, &sink);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, AlarmKind::Cleared);
        assert!(feed.engine().firing().is_empty());
        assert_eq!(sink.events().len(), 2);
    }

    #[test]
    fn hold_secs_requires_persistence() {
        let rules = vec![Rule::summary(
            "load-high",
            Matcher::Any,
            Signal::Metric("load_one".into()),
            Comparison::Above(2.0),
        )
        .hold_for(30)];
        let mut feed = AlarmFeed::new(rules);
        let sink = MemorySink::new();

        assert!(feed
            .evaluate_doc(&doc_with_load(3.0, 0), 0, &sink)
            .is_empty());
        assert_eq!(
            feed.engine().status("load-high", "meteor"),
            AlarmStatus::Pending { since: 0 }
        );
        // A dip resets the pending state.
        assert!(feed
            .evaluate_doc(&doc_with_load(1.0, 0), 15, &sink)
            .is_empty());
        assert_eq!(feed.engine().status("load-high", "meteor"), AlarmStatus::Ok);
        // Violation must persist the full hold time.
        assert!(feed
            .evaluate_doc(&doc_with_load(3.0, 0), 30, &sink)
            .is_empty());
        assert!(feed
            .evaluate_doc(&doc_with_load(3.0, 0), 45, &sink)
            .is_empty());
        let events = feed.evaluate_doc(&doc_with_load(3.0, 0), 60, &sink);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, AlarmKind::Raised);
    }

    #[test]
    fn hosts_down_rule() {
        let rules = vec![Rule::summary(
            "dead-hosts",
            Matcher::Any,
            Signal::HostsDown,
            Comparison::Above(0.0),
        )];
        let mut feed = AlarmFeed::new(rules);
        let sink = MemorySink::new();
        assert!(feed
            .evaluate_doc(&doc_with_load(1.0, 0), 0, &sink)
            .is_empty());
        let events = feed.evaluate_doc(&doc_with_load(1.0, 2), 15, &sink);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].value, 2.0);
    }

    #[test]
    fn per_host_rule_tracks_each_host() {
        let rules = vec![Rule::per_host(
            "hot",
            Matcher::Any,
            Matcher::Pattern(ganglia_query::RegexLite::new("^n[01]$").unwrap()),
            "load_one",
            Comparison::Above(2.0),
        )];
        let mut feed = AlarmFeed::new(rules);
        let sink = MemorySink::new();
        let events = feed.evaluate_doc(&doc_with_load(5.0, 0), 0, &sink);
        // Only n0 and n1 match the host pattern.
        assert_eq!(events.len(), 2);
        let subjects: Vec<&str> = events.iter().map(|e| e.subject.as_str()).collect();
        assert_eq!(subjects, vec!["meteor/n0", "meteor/n1"]);
    }

    #[test]
    fn summary_rules_work_on_grid_summaries() {
        // An N-level parent only has the grid's summary — rules still
        // evaluate (on the mean).
        let summary = SummaryBody {
            hosts_up: 10,
            hosts_down: 3,
            metrics: vec![ganglia_metrics::MetricSummary {
                name: "load_one".into(),
                sum: 50.0,
                num: 10,
                ty: ganglia_metrics::MetricType::Float,
                units: Default::default(),
                slope: ganglia_metrics::Slope::Both,
                source: "gmond".into(),
            }],
        };
        let grid = GridNode {
            name: "attic".into(),
            authority: String::new(),
            localtime: None,
            body: GridBody::Summary(summary),
        };
        let doc = GangliaDoc {
            version: "2.5.4".into(),
            source: "gmetad".into(),
            items: vec![GridItem::Grid(grid)],
        };
        let rules = vec![
            Rule::summary(
                "grid-load",
                Matcher::Any,
                Signal::Metric("load_one".into()),
                Comparison::Above(4.0),
            ),
            Rule::summary(
                "grid-dead",
                Matcher::Any,
                Signal::HostsDown,
                Comparison::Above(2.0),
            ),
        ];
        let mut feed = AlarmFeed::new(rules);
        let sink = MemorySink::new();
        let events = feed.evaluate_doc(&doc, 0, &sink);
        assert_eq!(events.len(), 2, "{events:?}");
    }
}
