//! Figure 5: per-gmeta CPU utilization in the monitoring tree.
//!
//! "To determine scaling benefits of the N-level monitor over the
//! 1-level design, we measure the CPU utilization of every gmeta node in
//! the monitoring tree from figure 2. In this experiment, each of the
//! twelve monitored clusters has 100 hosts." (§4.2)
//!
//! Expected shape (§4.3): the 1-level design concentrates load at the
//! root and ucsd; the N-level design pushes computation to the leaves
//! (which pay a summarization penalty) and drastically reduces non-leaf
//! load.

use ganglia_core::telemetry::Snapshot;
use ganglia_core::TreeMode;

use crate::deploy::{Deployment, DeploymentParams, MonitorWindow};
use crate::topology::fig2_tree;

/// Experiment knobs. Defaults reproduce the paper's setup at a
/// laptop-friendly number of measured rounds.
#[derive(Debug, Clone)]
pub struct Fig5Params {
    /// Hosts per cluster (paper: 100).
    pub hosts_per_cluster: usize,
    /// Unmeasured rounds to reach steady state (archive creation,
    /// fail-over settling).
    pub warmup_rounds: u64,
    /// Measured rounds; the virtual window is `rounds × 15 s` (the paper
    /// used a 60-minute window = 240 rounds; CPU% is a ratio, so fewer
    /// rounds give the same figure with more variance).
    pub measured_rounds: u64,
    pub seed: u64,
}

impl Default for Fig5Params {
    fn default() -> Self {
        Fig5Params {
            hosts_per_cluster: 100,
            warmup_rounds: 2,
            measured_rounds: 8,
            seed: 42,
        }
    }
}

/// One bar pair of figure 5, with the counted work behind each bar
/// (RRD updates and report bytes fetched over the measured window).
/// Timed CPU% swings with machine load; the counts do not.
///
/// The N-level bars are the paper's gmetad: parents poll full dumps.
/// The `summary_link_*` columns are N-level with parents polling
/// per-source summaries, which stores and archives the same data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    pub monitor: String,
    pub one_level_pct: f64,
    pub n_level_pct: f64,
    pub one_level_rrd_updates: u64,
    pub n_level_rrd_updates: u64,
    pub one_level_bytes_fetched: u64,
    pub n_level_bytes_fetched: u64,
    pub summary_link_pct: f64,
    pub summary_link_rrd_updates: u64,
    pub summary_link_bytes_fetched: u64,
}

/// One monitor's self-telemetry under each design, captured over the
/// measured window (counters, gauges, latency histograms).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Telemetry {
    pub monitor: String,
    pub one_level: Snapshot,
    pub n_level: Snapshot,
}

/// The whole figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    pub rows: Vec<Fig5Row>,
    /// Per-monitor instrument snapshots backing the CPU numbers, so the
    /// reproduction can report latency quantiles, not just utilization.
    pub telemetry: Vec<Fig5Telemetry>,
    pub params_hosts: usize,
}

impl Fig5Result {
    /// Row lookup.
    pub fn monitor(&self, name: &str) -> &Fig5Row {
        self.rows
            .iter()
            .find(|r| r.monitor == name)
            .expect("figure rows cover every monitor")
    }

    /// Sum across monitors per design — feeds figure 6's data point at
    /// the same cluster size.
    pub fn aggregates(&self) -> (f64, f64) {
        (
            self.rows.iter().map(|r| r.one_level_pct).sum(),
            self.rows.iter().map(|r| r.n_level_pct).sum(),
        )
    }
}

fn measure(mode: TreeMode, full_dump_links: bool, params: &Fig5Params) -> Vec<MonitorWindow> {
    Deployment::build(
        fig2_tree(params.hosts_per_cluster),
        DeploymentParams {
            mode,
            full_dump_links,
            seed: params.seed,
            ..DeploymentParams::default()
        },
    )
    .measure_window(params.warmup_rounds, params.measured_rounds)
}

/// Run the figure-5 experiment: both designs over the figure-2 tree,
/// N-level on full-dump links as the paper ran it and on summary links.
pub fn run_fig5(params: &Fig5Params) -> Fig5Result {
    let one_level = measure(TreeMode::OneLevel, false, params);
    let n_level = measure(TreeMode::NLevel, true, params);
    let summary_links = measure(TreeMode::NLevel, false, params);
    let mut rows = Vec::new();
    let mut telemetry = Vec::new();
    for ((one, n), s) in one_level.into_iter().zip(n_level).zip(summary_links) {
        debug_assert_eq!(one.monitor, n.monitor);
        rows.push(Fig5Row {
            monitor: one.monitor.clone(),
            one_level_pct: one.cpu_pct,
            n_level_pct: n.cpu_pct,
            one_level_rrd_updates: one.rrd_updates,
            n_level_rrd_updates: n.rrd_updates,
            one_level_bytes_fetched: one.bytes_fetched,
            n_level_bytes_fetched: n.bytes_fetched,
            summary_link_pct: s.cpu_pct,
            summary_link_rrd_updates: s.rrd_updates,
            summary_link_bytes_fetched: s.bytes_fetched,
        });
        telemetry.push(Fig5Telemetry {
            monitor: one.monitor,
            one_level: one.telemetry,
            n_level: n.telemetry,
        });
    }
    Fig5Result {
        rows,
        telemetry,
        params_hosts: params.hosts_per_cluster,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down figure 5 that still exhibits the paper's shape.
    /// (The full 100-host version runs in `repro fig5`.)
    #[test]
    fn fig5_shape_holds_at_reduced_scale() {
        let result = run_fig5(&Fig5Params {
            hosts_per_cluster: 30,
            warmup_rounds: 1,
            measured_rounds: 5,
            seed: 7,
        });
        assert_eq!(result.rows.len(), 6);

        // Each shape claim is asserted on the figure's counted columns
        // (RRD updates, report bytes fetched), which depend only on the
        // seed; the timed CPU% the figure plots swings with machine load.
        let one = |r: &Fig5Row| (r.one_level_rrd_updates, r.one_level_bytes_fetched);
        let n = |r: &Fig5Row| (r.n_level_rrd_updates, r.n_level_bytes_fetched);

        // 1-level concentrates load at the root of the tree.
        let (root, leaf) = (result.monitor("root"), result.monitor("attic"));
        assert!(
            one(root).0 > one(leaf).0 && one(root).1 > one(leaf).1,
            "1-level root {:?} must exceed leaf {:?}",
            one(root),
            one(leaf)
        );

        // N-level drastically reduces root load relative to 1-level.
        assert!(
            (n(root).0 as f64) < one(root).0 as f64 / 1.4
                && (n(root).1 as f64) < one(root).1 as f64 / 1.4,
            "N-level root {:?} vs 1-level {:?}",
            n(root),
            one(root)
        );

        // Interior node ucsd benefits the same way. Its children are
        // leaves, whose reports are the same under both designs, so its
        // saving is archive work alone.
        let ucsd = result.monitor("ucsd");
        assert!(ucsd.n_level_rrd_updates < ucsd.one_level_rrd_updates);

        // Summary links archive exactly what full-dump links do, and
        // every parent fetches less.
        for row in &result.rows {
            assert_eq!(row.summary_link_rrd_updates, row.n_level_rrd_updates);
            assert!(row.summary_link_bytes_fetched <= row.n_level_bytes_fetched);
        }
        assert!(root.summary_link_bytes_fetched * 2 < root.n_level_bytes_fetched);

        // Aggregate work is lower under N-level (no duplicate archives).
        let total = |f: &dyn Fn(&Fig5Row) -> (u64, u64)| {
            result
                .rows
                .iter()
                .map(f)
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        };
        let (one_total, n_total) = (total(&one), total(&n));
        assert!(
            n_total.0 < one_total.0 && n_total.1 < one_total.1,
            "aggregate N-level {n_total:?} vs 1-level {one_total:?}"
        );

        // The telemetry snapshots ride along: the root fetched and
        // parsed something every measured round under both designs.
        let root_telemetry = result
            .telemetry
            .iter()
            .find(|t| t.monitor == "root")
            .unwrap();
        for snap in [&root_telemetry.one_level, &root_telemetry.n_level] {
            assert!(snap.histogram("fetch_us").unwrap().count > 0);
            assert!(snap.histogram("parse_us").unwrap().count > 0);
            assert!(snap.counter("polls_ok_total").unwrap() > 0);
        }
    }
}
