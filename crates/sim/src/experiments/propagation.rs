//! Propagation lag: root-visible data age vs federation depth.
//!
//! The paper's tree trades freshness for scale — each gmetad level
//! re-polls on its own cadence, so data crossing `L` monitor levels can
//! be up to `L × poll_interval` old by the time the root serves it.
//! This experiment drives monitor chains of varying depth under both
//! poll orders the sim supports:
//!
//! * **children-first** ([`Deployment::run_round`]) — the best case:
//!   every level re-polls after its child refreshed, ages stay ~0;
//! * **parents-first** ([`Deployment::run_round_top_down`]) — the worst
//!   case: each level serves what its child assembled last round, so
//!   the root sees `(levels − 1) × poll_interval` of age.
//!
//! Either way the measured root-visible age must stay within
//! `levels × poll_interval + ε` — the claim `repro freshness` gates.
//!
//! Root-visible age is read from the `freshness.*` instruments: the
//! 1-level root sees host `REPORTED` stamps directly
//! (`freshness.age_s`); the N-level root only sees its child's render
//! clock, so the end-to-end age is the per-level `depth0.hop_lag_s`
//! summed down the chain plus the leaf monitor's own host ages. That
//! reading needs no host stamp above the leaf monitor, so it is the
//! same on summary links (which carry none) and full-dump links.

use ganglia_core::TreeMode;

use crate::deploy::{Deployment, DeploymentParams};
use crate::topology::chain_tree;

/// Experiment knobs.
#[derive(Debug, Clone)]
pub struct PropagationParams {
    /// Chain depths (number of monitor levels) to sweep.
    pub levels: Vec<usize>,
    /// Poll intervals (seconds) to sweep.
    pub poll_intervals: Vec<u64>,
    /// Hosts in the leaf cluster.
    pub hosts: usize,
    /// Steady-state rounds measured after the pipeline fills (the
    /// deepest chain needs `levels` rounds before leaf data reaches the
    /// root at all).
    pub steady_rounds: u64,
    pub seed: u64,
    /// N-level parents poll full dumps instead of per-source summaries.
    pub full_dump_links: bool,
}

impl Default for PropagationParams {
    fn default() -> Self {
        PropagationParams {
            levels: vec![2, 3, 4],
            poll_intervals: vec![5, 15],
            hosts: 8,
            steady_rounds: 4,
            seed: 42,
            full_dump_links: false,
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationRow {
    pub mode: TreeMode,
    pub levels: usize,
    pub poll_interval: u64,
    /// Worst-case (parents-first) order when true.
    pub top_down: bool,
    /// Root-visible p99 data age, seconds.
    pub root_age_p99_s: u64,
    /// The freshness bound this configuration must respect.
    pub bound_s: u64,
}

/// The whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationResult {
    pub rows: Vec<PropagationRow>,
}

impl PropagationResult {
    /// Whether every configuration kept root age within its bound.
    pub fn all_within_bound(&self) -> bool {
        self.rows.iter().all(|r| r.root_age_p99_s <= r.bound_s)
    }

    /// Worst measured age across the sweep.
    pub fn worst_age_s(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.root_age_p99_s)
            .max()
            .unwrap_or(0)
    }
}

/// Slack added to the `levels × poll_interval` freshness bound.
pub const BOUND_EPSILON_S: u64 = 1;

fn p99_of(snapshot: &ganglia_core::telemetry::Snapshot, name: &str) -> u64 {
    snapshot
        .histogram(name)
        .filter(|h| h.count > 0)
        .map_or(0, |h| h.quantile(0.99))
}

/// Root-visible p99 data age for one deployment, by mode.
fn root_visible_age(deployment: &Deployment, mode: TreeMode) -> u64 {
    let report = deployment.telemetry_report();
    match mode {
        // Host REPORTED stamps reach the root intact: read them there.
        TreeMode::OneLevel => p99_of(&report[0].1, "freshness.age_s"),
        // The root only sees its child's render clock; accumulate the
        // immediate hop lag at every level, plus the host ages the leaf
        // monitor itself observed.
        TreeMode::NLevel => {
            let hops: u64 = report
                .iter()
                .map(|(_, snap)| p99_of(snap, "freshness.depth0.hop_lag_s"))
                .sum();
            let leaf_age = report
                .last()
                .map_or(0, |(_, snap)| p99_of(snap, "freshness.age_s"));
            hops + leaf_age
        }
    }
}

fn measure(
    mode: TreeMode,
    levels: usize,
    poll_interval: u64,
    top_down: bool,
    params: &PropagationParams,
) -> PropagationRow {
    let mut deployment = Deployment::build(
        chain_tree(levels, params.hosts),
        DeploymentParams {
            mode,
            full_dump_links: params.full_dump_links,
            poll_interval,
            seed: params.seed,
            archive: false,
            ..DeploymentParams::default()
        },
    );
    let rounds = levels as u64 + params.steady_rounds;
    if top_down {
        deployment.run_rounds_top_down(rounds);
    } else {
        deployment.run_rounds(rounds);
    }
    PropagationRow {
        mode,
        levels,
        poll_interval,
        top_down,
        root_age_p99_s: root_visible_age(&deployment, mode),
        bound_s: levels as u64 * poll_interval + BOUND_EPSILON_S,
    }
}

/// Run the propagation-lag sweep: every (mode, depth, interval, order)
/// combination.
pub fn run_propagation_lag(params: &PropagationParams) -> PropagationResult {
    let mut rows = Vec::new();
    for &levels in &params.levels {
        for &poll_interval in &params.poll_intervals {
            for mode in [TreeMode::NLevel, TreeMode::OneLevel] {
                for top_down in [false, true] {
                    rows.push(measure(mode, levels, poll_interval, top_down, params));
                }
            }
        }
    }
    PropagationResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ages_stay_within_the_level_bound() {
        let result = run_propagation_lag(&PropagationParams {
            levels: vec![2, 3],
            poll_intervals: vec![15],
            hosts: 4,
            steady_rounds: 3,
            seed: 7,
            full_dump_links: false,
        });
        assert_eq!(result.rows.len(), 2 * 2 * 2);
        for row in &result.rows {
            assert!(
                row.root_age_p99_s <= row.bound_s,
                "{:?} levels={} interval={} top_down={}: age {} > bound {}",
                row.mode,
                row.levels,
                row.poll_interval,
                row.top_down,
                row.root_age_p99_s,
                row.bound_s
            );
        }
        assert!(result.all_within_bound());
    }

    #[test]
    fn worst_case_order_accumulates_one_interval_per_level() {
        let params = PropagationParams {
            levels: vec![3],
            poll_intervals: vec![15],
            hosts: 4,
            steady_rounds: 4,
            seed: 7,
            full_dump_links: false,
        };
        let result = run_propagation_lag(&params);
        for mode in [TreeMode::NLevel, TreeMode::OneLevel] {
            let age_of = |top_down: bool| {
                result
                    .rows
                    .iter()
                    .find(|r| r.mode == mode && r.top_down == top_down)
                    .unwrap()
                    .root_age_p99_s
            };
            // Children-first: every level re-polls freshly-assembled
            // data, ages stay at zero.
            assert_eq!(age_of(false), 0, "{mode:?} best case");
            // Parents-first: each of the two monitor-to-monitor hops
            // adds a full poll interval.
            assert_eq!(age_of(true), 30, "{mode:?} worst case");
        }
    }

    #[test]
    fn root_visible_age_is_the_same_on_both_link_modes() {
        let params = PropagationParams {
            levels: vec![2, 3],
            poll_intervals: vec![15],
            hosts: 4,
            steady_rounds: 3,
            seed: 7,
            full_dump_links: false,
        };
        let summary_links = run_propagation_lag(&params);
        let full_dumps = run_propagation_lag(&PropagationParams {
            full_dump_links: true,
            ..params
        });
        assert_eq!(summary_links, full_dumps);
        assert!(summary_links.worst_age_s() > 0);
    }
}
