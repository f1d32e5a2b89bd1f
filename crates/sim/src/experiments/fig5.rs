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

use crate::deploy::{Deployment, DeploymentParams};
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

/// One bar pair of figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    pub monitor: String,
    pub one_level_pct: f64,
    pub n_level_pct: f64,
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

fn measure(mode: TreeMode, params: &Fig5Params) -> Vec<(String, f64, Snapshot)> {
    let mut deployment = Deployment::build(
        fig2_tree(params.hosts_per_cluster),
        DeploymentParams {
            mode,
            seed: params.seed,
            ..DeploymentParams::default()
        },
    );
    deployment.run_rounds(params.warmup_rounds);
    deployment.reset_meters();
    deployment.run_rounds(params.measured_rounds);
    let telemetry = deployment.telemetry_report();
    deployment
        .cpu_report()
        .rows
        .into_iter()
        .zip(telemetry)
        .map(|(row, (telemetry_monitor, snapshot))| {
            debug_assert_eq!(row.monitor, telemetry_monitor);
            (row.monitor, row.percent, snapshot)
        })
        .collect()
}

/// Run the figure-5 experiment: both designs over the figure-2 tree.
pub fn run_fig5(params: &Fig5Params) -> Fig5Result {
    let one_level = measure(TreeMode::OneLevel, params);
    let n_level = measure(TreeMode::NLevel, params);
    let mut rows = Vec::new();
    let mut telemetry = Vec::new();
    for ((monitor, one_pct, one_snap), (n_monitor, n_pct, n_snap)) in
        one_level.into_iter().zip(n_level)
    {
        debug_assert_eq!(monitor, n_monitor);
        rows.push(Fig5Row {
            monitor: monitor.clone(),
            one_level_pct: one_pct,
            n_level_pct: n_pct,
        });
        telemetry.push(Fig5Telemetry {
            monitor,
            one_level: one_snap,
            n_level: n_snap,
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
    use crate::deploy::tests::{counted_work, Work};

    /// A scaled-down figure 5 that still exhibits the paper's shape.
    /// (The full 100-host version runs in the reproduction binary and
    /// the benches.)
    #[test]
    fn fig5_shape_holds_at_reduced_scale() {
        let result = run_fig5(&Fig5Params {
            hosts_per_cluster: 30,
            warmup_rounds: 1,
            measured_rounds: 5,
            seed: 7,
        });
        assert_eq!(result.rows.len(), 6);

        // Each shape claim is asserted on work that deployments built
        // like `run_fig5`'s count per monitor (RRD updates, report bytes
        // fetched), which depends only on the seed; the timed CPU% the
        // figure plots swings with machine load.
        let count = |mode| counted_work(fig2_tree(30), mode, 7, 1, 5);
        let (one, n) = (count(TreeMode::OneLevel), count(TreeMode::NLevel));

        // 1-level concentrates load at the root of the tree.
        let (root_one, leaf_one) = (one["root"], one["attic"]);
        assert!(
            root_one.archive_updates > leaf_one.archive_updates
                && root_one.bytes_in > leaf_one.bytes_in,
            "1-level root {root_one:?} must exceed leaf {leaf_one:?}"
        );

        // N-level drastically reduces root load relative to 1-level.
        let root_n = n["root"];
        assert!(
            (root_n.archive_updates as f64) < root_one.archive_updates as f64 / 1.4
                && (root_n.bytes_in as f64) < root_one.bytes_in as f64 / 1.4,
            "N-level root {root_n:?} vs 1-level {root_one:?}"
        );

        // Interior node ucsd benefits the same way. Its children are
        // leaves, whose reports are the same under both designs, so its
        // saving is archive work alone.
        assert!(n["ucsd"].archive_updates < one["ucsd"].archive_updates);

        // Aggregate work is lower under N-level (no duplicate archives).
        let one_total: Work = one.values().copied().sum();
        let n_total: Work = n.values().copied().sum();
        assert!(
            n_total.archive_updates < one_total.archive_updates
                && n_total.bytes_in < one_total.bytes_in,
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
