//! Upstream-traffic measurement: the O(m)-vs-O(C·H·m) claim of §3.2.
//!
//! "By summarizing remote cluster data, we dramatically reduce the
//! amount of information sent along edges of the monitoring tree."
//! The simulated network counts the bytes every endpoint serves, so the
//! reduction can be read directly off the wire rather than inferred
//! from CPU time. Three settings: the 1-level design, N-level parents
//! polling full dumps (each monitor still sends its local clusters at
//! full detail) and N-level parents polling per-source summaries
//! (every source in summary form, O(C·m) per link).

use ganglia_core::TreeMode;

use crate::deploy::{Deployment, DeploymentParams};
use crate::topology::fig2_tree;

/// Bytes served by one monitor's query port over the measured rounds,
/// under the 1-level design and under N-level on both link modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficRow {
    pub monitor: String,
    pub one_level_bytes: u64,
    /// N-level, parents polling full dumps (the paper's gmetad).
    pub full_dump_bytes: u64,
    /// N-level, parents polling per-source summaries.
    pub summary_link_bytes: u64,
}

/// The whole measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficResult {
    pub hosts_per_cluster: usize,
    pub rounds: u64,
    pub rows: Vec<TrafficRow>,
    /// Whether the N-level root rendered `/` and `/?filter=summary`
    /// byte-identically on both link modes after every round.
    pub root_render_identical: bool,
}

impl TrafficResult {
    /// Row lookup.
    pub fn monitor(&self, name: &str) -> &TrafficRow {
        self.rows
            .iter()
            .find(|r| r.monitor == name)
            .expect("rows cover every monitor")
    }
}

/// Measure upstream bytes per monitor under the 1-level design and
/// both N-level link modes, checking the N-level roots agree.
pub fn run_traffic(hosts_per_cluster: usize, rounds: u64, seed: u64) -> TrafficResult {
    let build = |mode, full_dump_links| {
        Deployment::build(
            fig2_tree(hosts_per_cluster),
            DeploymentParams {
                mode,
                full_dump_links,
                seed,
                archive: false, // pure traffic measurement
                ..DeploymentParams::default()
            },
        )
    };
    let mut designs = [
        build(TreeMode::OneLevel, false),
        build(TreeMode::NLevel, true),
        build(TreeMode::NLevel, false),
    ];
    let mut root_render_identical = true;
    for round in 0..=rounds {
        for deployment in &mut designs {
            if round == 1 {
                deployment.net().stats().reset(); // after one settling round
            }
            deployment.run_round();
        }
        let [_, full_dump, summary] = &designs;
        root_render_identical &= ["/", "/?filter=summary"].iter().all(|request| {
            full_dump.monitor("root").query(request) == summary.monitor("root").query(request)
        });
    }
    let [one, full_dump, summary] = &designs;
    let served = |deployment: &Deployment, name: &str| {
        deployment
            .net()
            .stats()
            .get(&deployment.gmeta_addr(name))
            .bytes_served
    };
    let rows = one
        .tree()
        .breadth_first()
        .into_iter()
        .map(|monitor| TrafficRow {
            one_level_bytes: served(one, &monitor),
            full_dump_bytes: served(full_dump, &monitor),
            summary_link_bytes: served(summary, &monitor),
            monitor,
        })
        .collect();
    TrafficResult {
        hosts_per_cluster,
        rounds,
        rows,
        root_render_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_monitors_serve_far_less_upstream_under_nlevel() {
        let result = run_traffic(20, 2, 7);
        // ucsd carries physics+math's four clusters: their detail
        // collapses to summaries under N-level.
        let ucsd = result.monitor("ucsd");
        assert!(
            ucsd.full_dump_bytes * 2 < ucsd.one_level_bytes,
            "ucsd: {} vs {}",
            ucsd.full_dump_bytes,
            ucsd.one_level_bytes
        );
        // On full-dump links, leaf monitors (attic) serve their local
        // clusters at full detail either way: the two designs are
        // within ~2× there.
        let attic = result.monitor("attic");
        let ratio = attic.one_level_bytes as f64 / attic.full_dump_bytes.max(1) as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "attic ratio {ratio} ({} vs {})",
            attic.one_level_bytes,
            attic.full_dump_bytes
        );
        // On summary links every monitor sends each source in summary
        // form, O(C·m): local clusters no longer go upstream in detail.
        for row in result.rows.iter().filter(|r| r.monitor != "root") {
            assert!(
                row.summary_link_bytes * 4 < row.full_dump_bytes,
                "{}: summary links {} vs full dumps {}",
                row.monitor,
                row.summary_link_bytes,
                row.full_dump_bytes
            );
        }
        // The root serves nothing upstream (it has no parent).
        let root = result.monitor("root");
        assert_eq!(
            (
                root.one_level_bytes,
                root.full_dump_bytes,
                root.summary_link_bytes
            ),
            (0, 0, 0)
        );
        assert!(result.root_render_identical);
    }
}
