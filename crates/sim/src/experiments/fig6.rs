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

/// One x-position of figure 6, with the counted work behind each
/// aggregate (RRD updates and report bytes fetched, summed over the six
/// monitors). Timed CPU% can dip where the counts cannot.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    pub cluster_size: usize,
    pub one_level_aggregate_pct: f64,
    pub n_level_aggregate_pct: f64,
    pub one_level_rrd_updates: u64,
    pub n_level_rrd_updates: u64,
    pub one_level_bytes_fetched: u64,
    pub n_level_bytes_fetched: u64,
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

/// Aggregate (CPU%, RRD updates, bytes fetched) over every monitor.
fn aggregate(mode: TreeMode, hosts: usize, params: &Fig6Params) -> (f64, u64, u64) {
    Deployment::build(
        fig2_tree(hosts),
        DeploymentParams {
            mode,
            // N-level as the paper's gmetad ran it: parents poll full dumps.
            full_dump_links: true,
            seed: params.seed,
            ..DeploymentParams::default()
        },
    )
    .measure_window(params.warmup_rounds, params.measured_rounds)
    .iter()
    .fold((0.0, 0, 0), |(pct, updates, bytes), m| {
        (
            pct + m.cpu_pct,
            updates + m.rrd_updates,
            bytes + m.bytes_fetched,
        )
    })
}

/// Run the figure-6 sweep.
pub fn run_fig6(params: &Fig6Params) -> Fig6Result {
    let rows = params
        .cluster_sizes
        .iter()
        .map(|&cluster_size| {
            let one = aggregate(TreeMode::OneLevel, cluster_size, params);
            let n = aggregate(TreeMode::NLevel, cluster_size, params);
            Fig6Row {
                cluster_size,
                one_level_aggregate_pct: one.0,
                n_level_aggregate_pct: n.0,
                one_level_rrd_updates: one.1,
                n_level_rrd_updates: n.1,
                one_level_bytes_fetched: one.2,
                n_level_bytes_fetched: n.2,
            }
        })
        .collect();
    Fig6Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_helper_is_least_squares() {
        let s = slope([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)].into_iter());
        assert!((s - 2.0).abs() < 1e-9);
        assert_eq!(slope(std::iter::empty()), 0.0);
    }

    /// A scaled-down figure 6 (three sizes) exhibiting the paper's
    /// ordering properties, asserted on the figure's counted columns
    /// (RRD updates, report bytes fetched), which depend only on the
    /// seed; the timed CPU% the figure plots swings with machine load.
    #[test]
    fn fig6_shape_holds_at_reduced_scale() {
        let result = run_fig6(&Fig6Params {
            cluster_sizes: vec![10, 30, 60],
            warmup_rounds: 1,
            measured_rounds: 4,
            seed: 7,
        });
        let rows = &result.rows;
        // N-level aggregate below 1-level at every point (§4.3: "In all
        // data points the aggregate CPU usage is less for the N-level
        // monitor").
        for row in rows {
            assert!(
                row.n_level_rrd_updates < row.one_level_rrd_updates
                    && row.n_level_bytes_fetched < row.one_level_bytes_fetched,
                "{row:?}"
            );
        }
        // Work grows with cluster size for both designs.
        let (first, last) = (&rows[0], &rows[2]);
        assert!(last.one_level_rrd_updates > first.one_level_rrd_updates);
        assert!(last.one_level_bytes_fetched > first.one_level_bytes_fetched);
        // The 1-level slope is steeper.
        let slope_of = |work: fn(&Fig6Row) -> u64| {
            slope(
                rows.iter()
                    .map(|row| (row.cluster_size as f64, work(row) as f64)),
            )
        };
        let updates = (
            slope_of(|r| r.one_level_rrd_updates),
            slope_of(|r| r.n_level_rrd_updates),
        );
        let bytes = (
            slope_of(|r| r.one_level_bytes_fetched),
            slope_of(|r| r.n_level_bytes_fetched),
        );
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
