//! Summary links and full-dump links give byte-identical N-level parents.
//!
//! An N-level parent keeps only a remote grid's summary. On summary
//! links it asks a child gmetad's xml_port for `/?filter=summary` and
//! folds the child's per-source summaries; on full-dump links it asks
//! for `/` and folds the child's hosts itself. Each per-source summary
//! is the child's own in-order fold of those same hosts, and every SUM
//! prints at round-trip precision, so both parents must store, archive
//! and serve exactly the same bytes.

use std::fmt::Write;
use std::sync::{Arc, RwLock};

use ganglia::core::{
    ArchiveMode, DataSourceCfg, Gmetad, GmetadConfig, LifecyclePolicy, SourceStatus, TreeMode,
};
use ganglia::net::transport::ServerGuard;
use ganglia::net::{Addr, SimNet, Transport};
use ganglia::rrd::{ConsolidationFn, MetricKey};

const INTERVAL: u64 = 15;

/// A pseudo cluster whose report this test writes: each host's values
/// derive from the round it last changed in, so a round's churn is
/// exactly the hosts it re-stamps.
struct Cluster {
    name: &'static str,
    changed_at: Vec<u64>,
    report: Arc<RwLock<String>>,
}

impl Cluster {
    fn new(name: &'static str, hosts: usize) -> Cluster {
        Cluster {
            name,
            changed_at: vec![0; hosts],
            report: Arc::default(),
        }
    }

    /// Re-stamp `percent`% of the hosts (rotating, so every host churns
    /// over time) and render the report at `now`.
    fn advance(&mut self, round: u64, percent: usize, now: u64) {
        let hosts = self.changed_at.len();
        let changed = (hosts * percent).div_ceil(100);
        for k in 0..changed {
            let i = (round as usize * 3 + k) % hosts;
            self.changed_at[i] = round;
        }
        let mut xml = format!(
            "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmond\">\
             <CLUSTER NAME=\"{}\" LOCALTIME=\"{now}\">",
            self.name
        );
        for (i, &epoch) in self.changed_at.iter().enumerate() {
            // Host 7 stopped reporting (TN far past 4 × TMAX): down.
            let tn = if i == 7 { 400 } else { 1 };
            let reported = epoch * INTERVAL;
            write!(
                xml,
                "<HOST NAME=\"{}-n{i}\" IP=\"10.0.0.{i}\" REPORTED=\"{reported}\" \
                 TN=\"{tn}\" TMAX=\"20\" DMAX=\"0\">",
                self.name
            )
            .unwrap();
            let seed = epoch * 31 + i as u64 * 17 + self.name.len() as u64;
            // Host 5's metric set diverges: an extra metric first, and
            // no load_one.
            if i == 5 {
                metric(&mut xml, "gpu_util", &format!("{}", seed % 97), "uint32");
            } else {
                let load = (seed % 1000) as f32 / 7.0;
                metric(&mut xml, "load_one", &load.to_string(), "float");
            }
            // Integer-valued sums.
            metric(
                &mut xml,
                "cpu_num",
                if i % 2 == 0 { "2" } else { "4" },
                "uint16",
            );
            let bytes = (seed as f64) * 0.1 + 1e-3 / (i as f64 + 1.0);
            metric(&mut xml, "bytes_in", &bytes.to_string(), "double");
            // Host 3 reports an unknown value: this metric's sum is NaN.
            let temp = if i == 3 {
                "NaN".to_string()
            } else {
                format!("{}", 30 + seed % 9)
            };
            metric(&mut xml, "cpu_temp", &temp, "float");
            // A negative zero on every host: the sum is -0.
            metric(&mut xml, "skew", "-0", "double");
            metric(&mut xml, "os_name", "Linux", "string");
            xml.push_str("</HOST>");
        }
        xml.push_str("</CLUSTER></GANGLIA_XML>");
        *self.report.write().unwrap() = xml;
    }

    fn serve(&self, net: &Arc<SimNet>) -> Box<dyn ServerGuard> {
        let report = Arc::clone(&self.report);
        net.serve(
            &Addr::new(self.name),
            Arc::new(move |_: &str| report.read().unwrap().clone()),
        )
        .unwrap()
    }
}

fn metric(xml: &mut String, name: &str, val: &str, ty: &str) {
    write!(
        xml,
        "<METRIC NAME=\"{name}\" VAL=\"{val}\" TYPE=\"{ty}\" UNITS=\"\" TN=\"1\" \
         TMAX=\"60\" DMAX=\"0\" SLOPE=\"both\" SOURCE=\"gmond\"/>"
    )
    .unwrap();
}

fn gmetad(name: &str, mode: TreeMode, full_dump_links: bool, sources: &[&str]) -> Arc<Gmetad> {
    let mut config = GmetadConfig::new(name)
        .with_mode(mode)
        .with_full_dump_links(full_dump_links)
        .with_archive(ArchiveMode::InMemory)
        .with_lifecycle(LifecyclePolicy {
            down_after_secs: 20,
            expire_after_secs: 3600,
        });
    for source in sources {
        config = config.with_source(DataSourceCfg::new(*source, vec![Addr::new(*source)]).unwrap());
    }
    Gmetad::new(config)
}

/// Everything one parent stores, archives and serves, as text: f64s
/// print through `Debug`, so `-0` and NaN are told apart from `0`.
fn parent_state(parent: &Gmetad, sources: &[&str], now: u64) -> String {
    let mut out = String::new();
    for request in ["/", "/?filter=summary"] {
        writeln!(out, "{request}: {}", parent.query(request)).unwrap();
    }
    writeln!(out, "root: {:?}", parent.store().root_summary()).unwrap();
    for &source in sources {
        let state = parent.store().get(source).expect("every source polled");
        writeln!(out, "{source}: {:?} {:?}", state.status, state.data).unwrap();
        writeln!(out, "{source} summary: {:?}", state.summary).unwrap();
        for m in &state.summary.metrics {
            let key = MetricKey::summary_metric(source, m.name.as_str());
            let series = parent.fetch_history(&key, ConsolidationFn::Average, 0, now);
            writeln!(out, "{source}/{}: {series:?}", m.name).unwrap();
        }
    }
    writeln!(
        out,
        "archives: {} updates: {}",
        parent.archive_count(),
        parent.archive_updates()
    )
    .unwrap();
    out
}

#[test]
fn summary_and_full_dump_links_give_identical_parents() {
    let net = SimNet::new(3);
    let mut clusters = vec![
        Cluster::new("alpha", 12),
        Cluster::new("beta", 9),
        Cluster::new("gamma", 10),
        Cluster::new("delta", 8),
        Cluster::new("dead", 8),
    ];
    let mut guards: Vec<Box<dyn ServerGuard>> = clusters.iter().map(|c| c.serve(&net)).collect();

    // The grandchild gives the N-level child a nested grid; the 1-level
    // child stores that grid expanded.
    let grandchild = gmetad("gc", TreeMode::NLevel, false, &["gamma"]);
    let nlevel = gmetad(
        "nl",
        TreeMode::NLevel,
        false,
        &["alpha", "beta", "gc", "dead"],
    );
    let onelevel = gmetad("one", TreeMode::OneLevel, false, &["delta", "gc"]);
    let empty = gmetad("empty", TreeMode::NLevel, false, &[]);
    let children = [&grandchild, &nlevel, &onelevel, &empty];
    for child in children {
        let name = child.config().grid_name.clone();
        guards.push(net.serve(&Addr::new(name), child.dump_handler()).unwrap());
    }
    // A gmetad built before summary links: its xml_port answers the full
    // dump whatever it is asked.
    let legacy = Arc::clone(&nlevel);
    guards.push(
        net.serve(
            &Addr::new("legacy"),
            Arc::new(move |_: &str| legacy.query("/")),
        )
        .unwrap(),
    );

    let sources = ["nl", "one", "empty", "legacy"];
    let summary_parent = gmetad("top", TreeMode::NLevel, false, &sources);
    let full_parent = gmetad("top", TreeMode::NLevel, true, &sources);

    // Cold round, then 0%, 10% and 100% churn rounds twice over. The
    // "dead" cluster stops answering after round 2 and is Down at the
    // N-level child from round 4 on.
    let churn = [100, 0, 10, 100, 0, 10, 100];
    for (round, &percent) in (1u64..).zip(churn.iter()) {
        let now = round * INTERVAL;
        for cluster in &mut clusters {
            cluster.advance(round, percent, now);
        }
        if round == 3 {
            net.set_down(&Addr::new("dead"), true);
        }
        for monitor in children.iter().chain([&&summary_parent, &&full_parent]) {
            monitor.poll_all(&net, now);
        }
        let summary_state = parent_state(&summary_parent, &sources, now);
        let full_state = parent_state(&full_parent, &sources, now);
        assert!(
            summary_state == full_state,
            "round {round} ({percent}% churn): parents differ\n--- summary links\n\
             {summary_state}\n--- full-dump links\n{full_state}"
        );
    }

    // The rounds covered what they claim to.
    assert!(matches!(
        nlevel.store().get("dead").unwrap().status,
        SourceStatus::Down { .. }
    ));
    let child = summary_parent.store().get("nl").unwrap().summary.clone();
    assert!(child.hosts_down > 0, "down hosts reach the parents");
    let sum = |name: &str| child.metric(name).map(|m| m.sum);
    assert!(sum("cpu_temp").is_some_and(f64::is_nan));
    assert!(sum("skew").is_some_and(|s| s == 0.0 && s.is_sign_negative()));
    assert!(sum("cpu_num").is_some_and(|s| s == s.trunc()));
    assert!(sum("gpu_util").is_some());
    let top = summary_parent.query("/");
    assert!(
        top.contains("SUM=\"NaN\"") && top.contains("SUM=\"-0\""),
        "{top}"
    );
    // The child rendered its summary form for the summary-link parent
    // and its full dump for the other: the links carried different
    // bytes to the same result.
    let bytes = |parent: &Gmetad| {
        parent
            .telemetry_snapshot()
            .counter("source.nl.bytes_in_total")
            .unwrap()
    };
    assert!(bytes(&summary_parent) * 3 < bytes(&full_parent));
    drop(guards);
}
