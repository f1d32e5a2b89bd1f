//! Figure 6: aggregate CPU utilization vs cluster size.
//!
//! "The monitoring tree is kept unchanged, while the size of the 12
//! monitored clusters increases. The y-axis is the sum of the CPU
//! utilization across all gmeta nodes." (§4.2)
//!
//! Expected shape (§4.3): the N-level design scales linearly with a low
//! slope; the 1-level version has a higher slope and "a slight upward
//! curve" from root saturation and duplicated archives. At every point
//! the N-level aggregate is below the 1-level one.

use ganglia_core::TreeMode;

use crate::deploy::{Deployment, DeploymentParams};
use crate::topology::fig2_tree;

/// Experiment knobs.
#[derive(Debug, Clone)]
pub struct Fig6Params {
    /// Cluster sizes to sweep (paper: 10–500 hosts).
    pub cluster_sizes: Vec<usize>,
    pub warmup_rounds: u64,
    pub measured_rounds: u64,
    pub seed: u64,
}

impl Default for Fig6Params {
    fn default() -> Self {
        Fig6Params {
            cluster_sizes: vec![10, 50, 100, 150, 200, 300, 400, 500],
            warmup_rounds: 1,
            measured_rounds: 4,
            seed: 42,
        }
    }
}

/// One x-position of figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    pub cluster_size: usize,
    pub one_level_aggregate_pct: f64,
    pub n_level_aggregate_pct: f64,
}

/// The whole figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Result {
    pub rows: Vec<Fig6Row>,
}

impl Fig6Result {
    /// Least-squares slope of aggregate CPU% per host, per design —
    /// used to compare scaling behaviour.
    pub fn slopes(&self) -> (f64, f64) {
        (
            slope(
                self.rows
                    .iter()
                    .map(|r| (r.cluster_size as f64, r.one_level_aggregate_pct)),
            ),
            slope(
                self.rows
                    .iter()
                    .map(|r| (r.cluster_size as f64, r.n_level_aggregate_pct)),
            ),
        )
    }
}

fn slope(points: impl Iterator<Item = (f64, f64)>) -> f64 {
    let pts: Vec<(f64, f64)> = points.collect();
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return 0.0;
    }
    (n * sxy - sx * sy) / denom
}

fn aggregate(mode: TreeMode, hosts: usize, params: &Fig6Params) -> f64 {
    let mut deployment = Deployment::build(
        fig2_tree(hosts),
        DeploymentParams {
            mode,
            seed: params.seed,
            ..DeploymentParams::default()
        },
    );
    deployment.run_rounds(params.warmup_rounds);
    deployment.reset_meters();
    deployment.run_rounds(params.measured_rounds);
    deployment.cpu_report().aggregate_percent()
}

/// Run the figure-6 sweep.
pub fn run_fig6(params: &Fig6Params) -> Fig6Result {
    let rows = params
        .cluster_sizes
        .iter()
        .map(|&cluster_size| Fig6Row {
            cluster_size,
            one_level_aggregate_pct: aggregate(TreeMode::OneLevel, cluster_size, params),
            n_level_aggregate_pct: aggregate(TreeMode::NLevel, cluster_size, params),
        })
        .collect();
    Fig6Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::tests::{counted_work, Work};

    #[test]
    fn slope_helper_is_least_squares() {
        let s = slope([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)].into_iter());
        assert!((s - 2.0).abs() < 1e-9);
        assert_eq!(slope(std::iter::empty()), 0.0);
    }

    /// A scaled-down figure 6 (three sizes) exhibiting the paper's
    /// ordering properties, asserted on work the deployments count per
    /// monitor (RRD updates, report bytes fetched), which depends only
    /// on the seed; the timed CPU% the figure plots swings with machine
    /// load.
    #[test]
    fn fig6_shape_holds_at_reduced_scale() {
        let sizes = [10, 30, 60];
        let aggregate = |mode, hosts| -> Work {
            counted_work(fig2_tree(hosts), mode, 7, 1, 4)
                .into_values()
                .sum()
        };
        let rows: Vec<(usize, Work, Work)> = sizes
            .iter()
            .map(|&hosts| {
                let one = aggregate(TreeMode::OneLevel, hosts);
                (hosts, one, aggregate(TreeMode::NLevel, hosts))
            })
            .collect();
        // N-level aggregate below 1-level at every point (§4.3: "In all
        // data points the aggregate CPU usage is less for the N-level
        // monitor").
        for (hosts, one, n) in &rows {
            assert!(
                n.archive_updates < one.archive_updates && n.bytes_in < one.bytes_in,
                "at {hosts} hosts: N {n:?} vs 1 {one:?}"
            );
        }
        // Work grows with cluster size for both designs.
        let (first, last) = (&rows[0].1, &rows[2].1);
        assert!(last.archive_updates > first.archive_updates);
        assert!(last.bytes_in > first.bytes_in);
        // The 1-level slope is steeper.
        let slope_of = |work: fn(&(usize, Work, Work)) -> u64| {
            slope(rows.iter().map(|row| (row.0 as f64, work(row) as f64)))
        };
        let updates = (
            slope_of(|r| r.1.archive_updates),
            slope_of(|r| r.2.archive_updates),
        );
        let bytes = (slope_of(|r| r.1.bytes_in), slope_of(|r| r.2.bytes_in));
        assert!(
            updates.0 > updates.1,
            "archive-update slopes (1-level, N-level): {updates:?}"
        );
        assert!(
            bytes.0 > bytes.1,
            "bytes-in slopes (1-level, N-level): {bytes:?}"
        );
    }
}
