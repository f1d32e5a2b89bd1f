//! The §5 limitation, quantified: "the way we currently employ the
//! metric archiving tools is not scalable with the number of numeric
//! metrics gathered per host... our archiving technique makes too many
//! updates to the file-based databases."
//!
//! This experiment measures a gmetad's per-round archiving work as the
//! per-host metric count grows, holding the host count fixed — showing
//! the linear blow-up the paper warns about — and, alongside it, the
//! upstream traffic series that backs the O(m)-vs-O(C·H·m) claim of
//! §3.2.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ganglia_core::telemetry::Histogram;
use ganglia_core::{archive, poller, DataSourceCfg, Gmetad, GmetadConfig, TreeMode, WorkMeter};
use ganglia_metrics::codec::write_document;
use ganglia_metrics::definition::{MetricDefinition, Synth};
use ganglia_metrics::model::{ClusterNode, GangliaDoc, HostNode, MetricEntry};
use ganglia_metrics::{MetricType, MetricValue, Slope};
use ganglia_net::transport::Transport;
use ganglia_net::{Addr, SimNet};
use ganglia_rrd::{DataSourceDef, RraDef, RrdSet, RrdSpec};

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct LimitsRow {
    pub metrics_per_host: usize,
    /// RRD updates one poll round performs.
    pub updates_per_round: u64,
    /// Mean wall time of an archiving round.
    pub archive_time: Duration,
    /// Median per-round archive time over the measured rounds.
    pub archive_time_p50: Duration,
    /// Worst-case-ish per-round archive time (p99 of the round
    /// histogram; with few rounds this is the max).
    pub archive_time_p99: Duration,
}

/// The whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LimitsResult {
    pub hosts: usize,
    pub rows: Vec<LimitsRow>,
}

impl LimitsResult {
    /// Updates per metric should be constant — the blow-up is linear in
    /// the metric count, which is exactly the §5 complaint.
    pub fn updates_scale_linearly(&self) -> bool {
        self.rows
            .iter()
            .all(|row| row.updates_per_round == ((self.hosts + 1) * row.metrics_per_host) as u64)
    }
}

/// Build a synthetic cluster document with `metrics_per_host` numeric
/// metrics on each of `hosts` hosts.
pub fn synthetic_cluster(hosts: usize, metrics_per_host: usize, value: f64) -> GangliaDoc {
    let host_nodes: Vec<HostNode> = (0..hosts)
        .map(|h| {
            let mut host = HostNode::new(format!("n{h:04}"), "10.0.0.1");
            host.metrics = (0..metrics_per_host)
                .map(|m| MetricEntry::new(format!("metric_{m:03}"), MetricValue::Double(value)))
                .collect();
            host
        })
        .collect();
    GangliaDoc::gmond(ClusterNode::with_hosts("synthetic", host_nodes))
}

/// Run the sweep: archive one cluster snapshot per metric count.
pub fn run_limits(hosts: usize, metric_counts: &[usize], rounds: u64) -> LimitsResult {
    let meter = WorkMeter::new();
    let rows = metric_counts
        .iter()
        .map(|&metrics_per_host| {
            let doc = synthetic_cluster(hosts, metrics_per_host, 1.0);
            let state = poller::build_state("synthetic", doc, TreeMode::NLevel, &meter, 0);
            let mut set = RrdSet::with_spec_factory(|key, start| RrdSpec {
                step: 15,
                start,
                data_sources: vec![DataSourceDef::gauge(key.metric.clone(), 120)],
                archives: vec![RraDef::average(1, 64)],
            });
            // Warm round creates the databases; measured rounds are the
            // steady-state update cost.
            archive::archive_source(&mut set, &state, TreeMode::NLevel, 15);
            let before = set.update_count();
            let rounds_us = Histogram::new();
            let start = Instant::now();
            for round in 0..rounds {
                let round_start = Instant::now();
                archive::archive_source(&mut set, &state, TreeMode::NLevel, 30 + round * 15);
                rounds_us.record(round_start.elapsed().as_micros().min(u64::MAX as u128) as u64);
            }
            let archive_time = start.elapsed() / rounds as u32;
            let updates_per_round = (set.update_count() - before) / rounds;
            let quantiles = rounds_us.snapshot();
            LimitsRow {
                metrics_per_host,
                updates_per_round,
                archive_time,
                archive_time_p50: Duration::from_micros(quantiles.quantile(0.50)),
                archive_time_p99: Duration::from_micros(quantiles.quantile(0.99)),
            }
        })
        .collect();
    LimitsResult { hosts, rows }
}

/// One before/after pair for the sequential-vs-parallel poll round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundScalingResult {
    pub sources: usize,
    /// Wire delay every source's endpoint imposes on each fetch.
    pub per_source_delay: Duration,
    /// Round wall-clock with one poll worker (the old behaviour).
    pub sequential_round: Duration,
    /// Round wall-clock with `poll_concurrency = 0` (auto fan-out).
    pub parallel_round: Duration,
}

impl RoundScalingResult {
    pub fn speedup(&self) -> f64 {
        self.sequential_round.as_secs_f64() / self.parallel_round.as_secs_f64().max(1e-9)
    }
}

/// Quantify the poll-round fix: a sequential round pays the *sum* of
/// its sources' latencies, a parallel round pays roughly the *max*.
/// Each source is served with a real wire delay, so the numbers are
/// honest wall-clock, not simulation time.
pub fn run_round_scaling(sources: usize, per_source_delay: Duration) -> RoundScalingResult {
    let net = SimNet::new(5);
    let guards: Vec<_> = (0..sources)
        .map(|s| {
            let addr = Addr::new(format!("limits-{s}/n0"));
            let body = write_document(&synthetic_cluster(4, 4, 1.0));
            let guard = net
                .serve(&addr, Arc::new(move |_: &str| body.clone()))
                .expect("fresh sim address");
            net.set_wire_delay(&addr, per_source_delay);
            guard
        })
        .collect();

    let round = |concurrency: usize| {
        let mut config = GmetadConfig::new("limits").with_poll_concurrency(concurrency);
        for s in 0..sources {
            let addr = Addr::new(format!("limits-{s}/n0"));
            config =
                config.with_source(DataSourceCfg::new(format!("limits-{s}"), vec![addr]).unwrap());
        }
        let gmetad = Gmetad::new(config);
        let start = Instant::now();
        let results = gmetad.poll_all(&net, 15);
        let elapsed = start.elapsed();
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        elapsed
    };
    let sequential_round = round(1);
    let parallel_round = round(0);
    drop(guards);
    RoundScalingResult {
        sources,
        per_source_delay,
        sequential_round,
        parallel_round,
    }
}

/// A user-defined (gmetric-style) metric definition, for tests that
/// grow the per-host metric set of a live cluster.
pub fn user_metric(name: &'static str) -> MetricDefinition {
    MetricDefinition {
        name,
        ty: MetricType::Double,
        units: "units",
        slope: Slope::Both,
        collect_every: 20,
        value_threshold: 0.0,
        tmax: 60,
        dmax: 0,
        synth: Synth::Uniform {
            min: 0.0,
            max: 100.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_grow_linearly_with_metric_count() {
        let result = run_limits(20, &[10, 20, 40], 3);
        assert!(result.updates_scale_linearly(), "{result:?}");
        // 21 series per metric (20 hosts + 1 summary).
        assert_eq!(result.rows[0].updates_per_round, 21 * 10);
        assert_eq!(result.rows[2].updates_per_round, 21 * 40);
        // Quantiles bracket the mean sensibly: p50 <= p99, both nonzero.
        for row in &result.rows {
            assert!(row.archive_time_p50 <= row.archive_time_p99, "{row:?}");
            assert!(row.archive_time_p99 > Duration::ZERO, "{row:?}");
        }
    }

    #[test]
    fn parallel_round_beats_sequential_on_wall_clock() {
        let result = run_round_scaling(4, Duration::from_millis(60));
        // Sequential pays the sum of the delays...
        assert!(
            result.sequential_round >= Duration::from_millis(4 * 60),
            "{result:?}"
        );
        // ...parallel only the slowest source plus slack.
        assert!(
            result.parallel_round < result.sequential_round,
            "{result:?}"
        );
        assert!(result.speedup() > 1.0, "{result:?}");
    }

    #[test]
    fn synthetic_cluster_shape() {
        let doc = synthetic_cluster(3, 7, 2.5);
        assert_eq!(doc.host_count(), 3);
        let ganglia_metrics::GridItem::Cluster(c) = &doc.items[0] else {
            panic!()
        };
        assert_eq!(c.host("n0000").unwrap().metrics.len(), 7);
    }
}
