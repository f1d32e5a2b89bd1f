//! Instantiate a monitoring tree over the simulated network.
//!
//! Leaves are pseudo-gmond clusters served at redundant addresses;
//! monitors are real [`Gmetad`] daemons serving their query ports at
//! `"{name}-gmeta"`. Rounds advance a virtual clock by the poll
//! interval: pseudo clusters reroll their metrics, then every monitor
//! polls its sources in deepest-first order so each round's leaf data
//! reaches the root deterministically (the live deployment would do the
//! same thing asynchronously).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ganglia_core::telemetry::Snapshot;
use ganglia_core::{ArchiveMode, DataSourceCfg, Gmetad, GmetadConfig, TreeMode};
use ganglia_gmond::pseudo::ServedPseudoCluster;
use ganglia_gmond::PseudoGmond;
use ganglia_net::transport::ServerGuard;
use ganglia_net::{Addr, SimNet};
use ganglia_rrd::{DataSourceDef, RraDef, RrdSpec};
use ganglia_web::ViewerClient;

use crate::cpu::CpuReport;
use crate::topology::TreeSpec;

/// Knobs for a deployment.
#[derive(Debug, Clone)]
pub struct DeploymentParams {
    pub mode: TreeMode,
    /// Seconds between poll rounds (the paper's default is 15).
    pub poll_interval: u64,
    pub seed: u64,
    /// Redundant serving addresses per pseudo cluster (fail-over
    /// targets).
    pub redundant_addrs: usize,
    /// Whether monitors archive to RRDs.
    pub archive: bool,
    /// Whether monitors publish their own telemetry as a synthetic
    /// `{name}-monitor` cluster each round ("monitor the monitor").
    pub self_telemetry: bool,
    /// Poll workers per monitor (`0` = automatic, `1` = the old
    /// sequential round).
    pub poll_concurrency: usize,
}

impl Default for DeploymentParams {
    fn default() -> Self {
        DeploymentParams {
            mode: TreeMode::NLevel,
            poll_interval: 15,
            seed: 42,
            redundant_addrs: 2,
            archive: true,
            self_telemetry: false,
            poll_concurrency: 0,
        }
    }
}

impl DeploymentParams {
    /// Same parameters with a different tree mode.
    pub fn with_mode(mut self, mode: TreeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Same parameters with self-telemetry publication toggled.
    pub fn with_self_telemetry(mut self, on: bool) -> Self {
        self.self_telemetry = on;
        self
    }

    /// Same parameters with a pinned poll worker count.
    pub fn with_poll_concurrency(mut self, workers: usize) -> Self {
        self.poll_concurrency = workers;
        self
    }
}

/// One monitor's cost over a measurement window: timed CPU% next to
/// counted work. The counts depend only on the topology and the seed,
/// never on how loaded the machine running the experiment is.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorWindow {
    pub monitor: String,
    pub cpu_pct: f64,
    /// RRD updates archived in the window ([`Gmetad::archive_updates`]).
    pub rrd_updates: u64,
    /// Report bytes fetched from sources in the window (`bytes_in_total`).
    pub bytes_fetched: u64,
    /// Every instrument, zeroed at the start of the window.
    pub telemetry: Snapshot,
}

/// A running monitoring tree.
pub struct Deployment {
    net: Arc<SimNet>,
    tree: TreeSpec,
    params: DeploymentParams,
    clusters: HashMap<String, ServedPseudoCluster>,
    monitors: HashMap<String, Arc<Gmetad>>,
    _guards: Vec<Box<dyn ServerGuard>>,
    poll_order: Vec<String>,
    now: u64,
    rounds_since_reset: u64,
}

impl Deployment {
    /// Build and wire a tree. Panics on an invalid tree spec (caller
    /// bug, not a runtime condition).
    pub fn build(tree: TreeSpec, params: DeploymentParams) -> Deployment {
        tree.validate().expect("deployment requires a valid tree");
        let net = SimNet::new(params.seed);
        let mut clusters = HashMap::new();
        let mut monitors = HashMap::new();
        let mut guards: Vec<Box<dyn ServerGuard>> = Vec::new();

        for monitor in &tree.monitors {
            for cluster_spec in &monitor.local_clusters {
                let seed = params.seed ^ stable_hash(&cluster_spec.name);
                let pseudo = PseudoGmond::new(&cluster_spec.name, cluster_spec.hosts, seed, 0);
                let served = ServedPseudoCluster::serve(&net, pseudo, params.redundant_addrs);
                clusters.insert(cluster_spec.name.clone(), served);
            }
        }
        for monitor in &tree.monitors {
            let mut config = GmetadConfig::new(&monitor.name)
                .with_mode(params.mode)
                .with_self_telemetry(params.self_telemetry)
                .with_poll_concurrency(params.poll_concurrency);
            config.poll_interval = params.poll_interval;
            config.archive = if params.archive {
                ArchiveMode::InMemory
            } else {
                ArchiveMode::Off
            };
            for cluster_spec in &monitor.local_clusters {
                let served = &clusters[&cluster_spec.name];
                config = config.with_source(
                    DataSourceCfg::new(&cluster_spec.name, served.addrs().to_vec())
                        .expect("served clusters always have addresses"),
                );
            }
            for child in &monitor.children {
                config = config.with_source(
                    DataSourceCfg::new(child, vec![gmeta_addr_of(child)])
                        .expect("child monitors always have an address"),
                );
            }
            let poll_interval = params.poll_interval;
            let gmetad = Gmetad::with_archive_spec(
                config,
                // Compact archives: one full-resolution ring. Update cost
                // (what the experiments measure) is the same as the
                // five-archive ladder's hot path; memory is ~50× smaller,
                // which matters with 37k archives at the 1-level root.
                Some(Arc::new(move |key, start| RrdSpec {
                    step: poll_interval,
                    start,
                    data_sources: vec![DataSourceDef::gauge(key.metric.clone(), poll_interval * 8)],
                    archives: vec![RraDef::average(1, 64)],
                })),
            );
            guards.push(
                gmetad
                    .serve_on(&net, &gmeta_addr_of(&monitor.name))
                    .expect("monitor addresses are unique"),
            );
            monitors.insert(monitor.name.clone(), gmetad);
        }
        let poll_order = tree.bottom_up();
        Deployment {
            net,
            tree,
            params,
            clusters,
            monitors,
            _guards: guards,
            poll_order,
            now: 0,
            rounds_since_reset: 0,
        }
    }

    /// The simulated network (fault injection, traffic stats).
    pub fn net(&self) -> &Arc<SimNet> {
        &self.net
    }

    /// The tree this deployment runs.
    pub fn tree(&self) -> &TreeSpec {
        &self.tree
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// One monitor daemon.
    pub fn monitor(&self, name: &str) -> &Arc<Gmetad> {
        &self.monitors[name]
    }

    /// The query-port address of a monitor.
    pub fn gmeta_addr(&self, name: &str) -> Addr {
        gmeta_addr_of(name)
    }

    /// A viewer client pointed at one monitor.
    pub fn viewer(&self, monitor: &str) -> ViewerClient {
        ViewerClient::new(Arc::new(Arc::clone(&self.net)), gmeta_addr_of(monitor))
    }

    /// Advance one poll round: clusters reroll, every monitor polls its
    /// sources, children before parents.
    pub fn run_round(&mut self) {
        self.now += self.params.poll_interval;
        self.rounds_since_reset += 1;
        for served in self.clusters.values() {
            served.advance(self.now);
        }
        for name in &self.poll_order {
            let monitor = &self.monitors[name];
            let _ = monitor.poll_all(&self.net, self.now);
        }
    }

    /// Advance several rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.run_round();
        }
    }

    /// Advance one poll round polling parents *before* children — the
    /// worst-case propagation order. A parent sees only what its child
    /// assembled last round, so every monitor level adds one full poll
    /// interval of data age by the time leaf data reaches the root. A
    /// live deployment with unsynchronized pollers lands between this
    /// and [`run_round`]'s children-first best case.
    ///
    /// [`run_round`]: Deployment::run_round
    pub fn run_round_top_down(&mut self) {
        self.now += self.params.poll_interval;
        self.rounds_since_reset += 1;
        for served in self.clusters.values() {
            served.advance(self.now);
        }
        for name in self.tree.breadth_first() {
            let monitor = &self.monitors[&name];
            let _ = monitor.poll_all(&self.net, self.now);
        }
    }

    /// Advance several worst-case (parents-first) rounds.
    pub fn run_rounds_top_down(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.run_round_top_down();
        }
    }

    /// Zero every monitor's meter and the round counter (start of a
    /// measurement window).
    pub fn reset_meters(&mut self) {
        for monitor in self.monitors.values() {
            monitor.meter().reset();
        }
        self.rounds_since_reset = 0;
    }

    /// CPU report over the window since the last reset, rows in
    /// breadth-first tree order (matching the paper's figure-5 x-axis).
    pub fn cpu_report(&self) -> CpuReport {
        let window = Duration::from_secs(self.rounds_since_reset * self.params.poll_interval);
        let order = self.tree.breadth_first();
        let pairs: Vec<(&str, &ganglia_core::WorkMeter)> = order
            .iter()
            .map(|name| (name.as_str(), &**self.monitors[name].meter()))
            .collect();
        CpuReport::collect(window, pairs)
    }

    /// Telemetry snapshot of every monitor, rows in breadth-first tree
    /// order (matching [`Self::cpu_report`]).
    pub fn telemetry_report(&self) -> Vec<(String, Snapshot)> {
        self.tree
            .breadth_first()
            .iter()
            .map(|name| (name.clone(), self.monitors[name].telemetry_snapshot()))
            .collect()
    }

    /// Run `warmup` unmeasured rounds, then `measured` rounds, and
    /// report every monitor's window in breadth-first tree order
    /// (matching [`Self::cpu_report`]).
    pub fn measure_window(&mut self, warmup: u64, measured: u64) -> Vec<MonitorWindow> {
        self.run_rounds(warmup);
        self.reset_meters();
        let order = self.tree.breadth_first();
        let before: Vec<u64> = order
            .iter()
            .map(|name| self.monitors[name].archive_updates())
            .collect();
        self.run_rounds(measured);
        let cpu = self.cpu_report();
        order
            .iter()
            .zip(before)
            .zip(cpu.rows)
            .map(|((name, before), cpu)| {
                let monitor = &self.monitors[name];
                let telemetry = monitor.telemetry_snapshot();
                MonitorWindow {
                    monitor: name.clone(),
                    cpu_pct: cpu.percent,
                    rrd_updates: monitor.archive_updates() - before,
                    bytes_fetched: telemetry.counter("bytes_in_total").unwrap_or(0),
                    telemetry,
                }
            })
            .collect()
    }

    // -- fault injection ------------------------------------------------

    /// Stop-fail one serving node of a pseudo cluster.
    pub fn kill_cluster_node(&self, cluster: &str, node: usize) {
        let addr = self.clusters[cluster].addrs()[node].clone();
        self.net.set_down(&addr, true);
    }

    /// Recover a serving node.
    pub fn restore_cluster_node(&self, cluster: &str, node: usize) {
        let addr = self.clusters[cluster].addrs()[node].clone();
        self.net.set_down(&addr, false);
    }

    /// Partition (or heal) an entire cluster.
    pub fn partition_cluster(&self, cluster: &str, cut: bool) {
        self.net.partition_prefix(cluster, cut);
    }

    /// Stop-fail (or recover) a whole monitor daemon.
    pub fn set_monitor_down(&self, monitor: &str, down: bool) {
        self.net.set_down(&gmeta_addr_of(monitor), down);
    }

    /// Make one serving node of a pseudo cluster drop a fraction of its
    /// exchanges (0.0 clears the fault).
    pub fn set_cluster_node_flakiness(&self, cluster: &str, node: usize, drop_probability: f64) {
        let addr = self.clusters[cluster].addrs()[node].clone();
        self.net.set_flakiness(&addr, drop_probability);
    }

    /// Delay one serving node's responses (`Duration::ZERO` clears);
    /// delays at or beyond the poller's fetch timeout trip it.
    pub fn set_cluster_node_latency(&self, cluster: &str, node: usize, latency: Duration) {
        let addr = self.clusters[cluster].addrs()[node].clone();
        self.net.set_latency(&addr, latency);
    }

    /// Make one serving node really block for `delay` before answering
    /// (`Duration::ZERO` clears). Unlike [`set_cluster_node_latency`]'s
    /// simulated comparison against the timeout, this burns wall-clock
    /// time — the fault parallel polling exists to contain.
    ///
    /// [`set_cluster_node_latency`]: Deployment::set_cluster_node_latency
    pub fn set_cluster_node_wire_delay(&self, cluster: &str, node: usize, delay: Duration) {
        let addr = self.clusters[cluster].addrs()[node].clone();
        self.net.set_wire_delay(&addr, delay);
    }

    /// Truncate one serving node's responses to `bytes` (`None` clears).
    pub fn set_cluster_node_truncation(&self, cluster: &str, node: usize, bytes: Option<usize>) {
        let addr = self.clusters[cluster].addrs()[node].clone();
        self.net.set_truncation(&addr, bytes);
    }

    /// Corrupt (or stop corrupting) one serving node's responses.
    pub fn set_cluster_node_garbage(&self, cluster: &str, node: usize, enabled: bool) {
        let addr = self.clusters[cluster].addrs()[node].clone();
        self.net.set_garbage(&addr, enabled);
    }

    /// Delay (or stop delaying) a whole monitor daemon's query port.
    pub fn set_monitor_latency(&self, monitor: &str, latency: Duration) {
        self.net.set_latency(&gmeta_addr_of(monitor), latency);
    }
}

fn gmeta_addr_of(name: &str) -> Addr {
    Addr::new(format!("{name}-gmeta"))
}

/// FNV-1a, for stable per-cluster seeds.
fn stable_hash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::fig2_tree;
    use ganglia_core::SourceStatus;

    fn small_deployment(mode: TreeMode) -> Deployment {
        Deployment::build(fig2_tree(5), DeploymentParams::default().with_mode(mode))
    }

    #[test]
    fn one_round_propagates_leaves_to_root() {
        let mut deployment = small_deployment(TreeMode::NLevel);
        deployment.run_round();
        let root = deployment.monitor("root");
        // Root sees 4 sources: 2 local clusters + ucsd + sdsc.
        assert_eq!(root.store().len(), 4);
        // All 60 hosts are visible in the root's summary.
        assert_eq!(root.store().root_summary().hosts_total(), 60);
    }

    #[test]
    fn nlevel_root_stores_summaries_onelevel_stores_detail() {
        let mut n = small_deployment(TreeMode::NLevel);
        n.run_round();
        let state = n.monitor("root").store().get("ucsd").unwrap();
        let ganglia_core::SourceData::Grid(grid) = &state.data else {
            panic!()
        };
        assert!(matches!(
            grid.body,
            ganglia_metrics::model::GridBody::Summary(_)
        ));

        let mut one = small_deployment(TreeMode::OneLevel);
        one.run_round();
        let state = one.monitor("root").store().get("ucsd").unwrap();
        let ganglia_core::SourceData::Grid(grid) = &state.data else {
            panic!()
        };
        assert!(matches!(
            grid.body,
            ganglia_metrics::model::GridBody::Items(_)
        ));
        // 1-level root archives every host; N-level root archives far
        // fewer databases.
        assert!(one.monitor("root").archive_count() > n.monitor("root").archive_count() * 5);
    }

    #[test]
    fn cpu_report_covers_all_monitors_in_bfs_order() {
        let mut deployment = small_deployment(TreeMode::NLevel);
        deployment.run_rounds(2);
        deployment.reset_meters();
        deployment.run_rounds(3);
        let report = deployment.cpu_report();
        let names: Vec<&str> = report.rows.iter().map(|r| r.monitor.as_str()).collect();
        assert_eq!(
            names,
            vec!["root", "ucsd", "sdsc", "physics", "math", "attic"]
        );
        assert_eq!(report.window, Duration::from_secs(45));
        assert!(report.aggregate_percent() > 0.0);
    }

    #[test]
    fn failover_inside_a_deployment() {
        let mut deployment = small_deployment(TreeMode::NLevel);
        deployment.run_round();
        deployment.kill_cluster_node("sdsc-c0", 0);
        deployment.run_round();
        let sdsc = deployment.monitor("sdsc");
        let stats = sdsc.poller_stats();
        let row = stats.iter().find(|s| s.name == "sdsc-c0").unwrap();
        assert_eq!(row.polls_failed, 0, "no failed polls: failover succeeded");
        assert_eq!(row.failovers, 1, "one failover");
        let state = sdsc.store().get("sdsc-c0").unwrap();
        assert_eq!(state.status, SourceStatus::Fresh);
    }

    #[test]
    fn partition_marks_source_stale_and_heals() {
        let mut deployment = small_deployment(TreeMode::NLevel);
        deployment.run_round();
        deployment.partition_cluster("sdsc-c0", true);
        deployment.run_round();
        let sdsc = deployment.monitor("sdsc").clone();
        assert!(matches!(
            sdsc.store().get("sdsc-c0").unwrap().status,
            SourceStatus::Stale { .. }
        ));
        deployment.partition_cluster("sdsc-c0", false);
        deployment.run_round();
        assert_eq!(
            sdsc.store().get("sdsc-c0").unwrap().status,
            SourceStatus::Fresh
        );
    }

    #[test]
    fn corrupt_and_slow_endpoints_surface_as_typed_errors() {
        use ganglia_core::GmetadError;
        let mut deployment = small_deployment(TreeMode::NLevel);
        deployment.run_round();
        let sdsc = deployment.monitor("sdsc").clone();
        let hosts_before = sdsc.store().get("sdsc-c0").unwrap().host_count();
        assert!(hosts_before > 0);

        // Garbage on the preferred node: the transport "succeeds", the
        // parse does not — a BadReport, not a network error.
        deployment.set_cluster_node_garbage("sdsc-c0", 0, true);
        let errors: Vec<GmetadError> = sdsc
            .poll_all(deployment.net(), 30)
            .into_iter()
            .filter_map(Result::err)
            .collect();
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, GmetadError::BadReport { source, .. } if source == "sdsc-c0")),
            "expected BadReport, got {errors:?}"
        );
        deployment.set_cluster_node_garbage("sdsc-c0", 0, false);

        // Truncation: same story, the XML dies mid-transfer.
        deployment.set_cluster_node_truncation("sdsc-c0", 0, Some(60));
        let errors: Vec<GmetadError> = sdsc
            .poll_all(deployment.net(), 45)
            .into_iter()
            .filter_map(Result::err)
            .collect();
        assert!(
            errors
                .iter()
                .any(|e| matches!(e, GmetadError::BadReport { source, .. } if source == "sdsc-c0")),
            "expected BadReport, got {errors:?}"
        );
        deployment.set_cluster_node_truncation("sdsc-c0", 0, None);

        // Latency past the fetch timeout on every redundant node: the
        // source fails outright, each endpoint reporting a timeout.
        deployment.set_cluster_node_latency("sdsc-c0", 0, Duration::from_secs(30));
        deployment.set_cluster_node_latency("sdsc-c0", 1, Duration::from_secs(30));
        let errors: Vec<GmetadError> = sdsc
            .poll_all(deployment.net(), 60)
            .into_iter()
            .filter_map(Result::err)
            .collect();
        let timeout_failure = errors.iter().find_map(|e| match e {
            GmetadError::AllHostsFailed { source, errors } if source == "sdsc-c0" => Some(errors),
            _ => None,
        });
        let net_errors = timeout_failure.expect("latency must fail the whole source");
        assert!(net_errors
            .iter()
            .all(|e| matches!(e, ganglia_net::NetError::Timeout(_))));

        // Throughout, the store kept serving the last good snapshot.
        let state = sdsc.store().get("sdsc-c0").unwrap();
        assert_eq!(state.host_count(), hosts_before);
        assert!(matches!(state.status, SourceStatus::Stale { .. }));

        // Clearing the faults heals the source (fail-over to the
        // still-closed endpoint if the first one's breaker is open).
        deployment.set_cluster_node_latency("sdsc-c0", 0, Duration::ZERO);
        deployment.set_cluster_node_latency("sdsc-c0", 1, Duration::ZERO);
        sdsc.poll_all(deployment.net(), 75);
        assert_eq!(
            sdsc.store().get("sdsc-c0").unwrap().status,
            SourceStatus::Fresh
        );
    }

    #[test]
    fn monitor_failure_degrades_gracefully() {
        let mut deployment = small_deployment(TreeMode::NLevel);
        deployment.run_round();
        deployment.set_monitor_down("sdsc", true);
        deployment.run_round();
        let root = deployment.monitor("root").clone();
        assert!(matches!(
            root.store().get("sdsc").unwrap().status,
            SourceStatus::Stale { .. }
        ));
        // Last-good summary still answers meta queries.
        assert_eq!(root.store().root_summary().hosts_total(), 60);
        deployment.set_monitor_down("sdsc", false);
        deployment.run_round();
        assert_eq!(
            root.store().get("sdsc").unwrap().status,
            SourceStatus::Fresh
        );
    }
}
