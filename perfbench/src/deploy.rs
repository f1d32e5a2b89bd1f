//! A monitoring tree wired over loopback TCP the way the binaries wire
//! it: pseudo-gmond report ports through `TcpTransport::serve`, and per
//! gmetad a `gmetad.conf` parsed by `parse_conf`, archive recovery, and
//! both ports bound through `PooledServer` with the conf's serve options.

use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, RwLock};

use ganglia::core::conf::parse_conf;
use ganglia::core::Gmetad;
use ganglia::gmond::PseudoGmond;
use ganglia::net::{Addr, ServerGuard, TcpTransport, Transport};
use ganglia::serve::PooledServer;
use ganglia::sim::{ClusterSpec, MonitorSpec, TreeSpec};

/// Logical time of the cold round; every later round is one 15 s poll
/// interval after the previous one.
pub const COLD_ROUND_AT: u64 = 15;

/// Archive checkpoint cadence in logical seconds, longer than any run.
/// A default-cadence (300 s) checkpoint rewrites every archive file
/// with two fsyncs each: on a disk-backed checkout that is 12-16 s per
/// fig-2 checkpoint round, which no per-run budget holds. Journal
/// appends and the per-round group commit stay on their defaults.
pub const CHECKPOINT_SECS: u64 = 86_400;

/// Where a gmetad sits in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Polls only pseudo-gmond clusters.
    Leaf,
    /// Polls child gmetads and is polled by a parent.
    Mid,
    /// The top of the tree.
    Root,
}

impl Level {
    pub const ALL: [Level; 3] = [Level::Leaf, Level::Mid, Level::Root];

    pub fn label(self) -> &'static str {
        match self {
            Level::Leaf => "leaf",
            Level::Mid => "mid",
            Level::Root => "root",
        }
    }
}

/// The bytes one report port serves, shared with its handler.
#[derive(Clone, Default)]
pub struct ReportSlot(Arc<RwLock<String>>);

impl ReportSlot {
    /// Serve `xml` from now on.
    pub fn set(&self, xml: String) {
        *self.0.write().unwrap_or_else(|e| e.into_inner()) = xml;
    }

    /// The report served right now.
    pub fn get(&self) -> String {
        self.0.read().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// A pseudo-gmond: the generator and the bytes its report port serves.
pub struct Cluster {
    pub name: String,
    /// Index of the gmetad that polls this cluster.
    pub monitor: usize,
    pub gen: PseudoGmond,
    /// The bound report port.
    pub addr: Addr,
    pub slot: ReportSlot,
    guard: Option<Box<dyn ServerGuard>>,
}

impl Cluster {
    /// Reroll every host's values at `now` and serve the new report.
    pub fn reroll(&mut self, now: u64) {
        self.gen.advance(now);
        self.slot.set(self.gen.xml().to_string());
    }
}

/// One gmetad with both of its ports.
pub struct Monitor {
    pub name: String,
    pub level: Level,
    pub daemon: Arc<Gmetad>,
    /// The interactive (path-query) port.
    pub query_addr: Addr,
    /// The xml (full dump) port, which parents poll.
    pub xml_addr: Addr,
    /// Names of the child gmetads this one polls.
    pub children: Vec<String>,
    guards: Vec<Box<dyn ServerGuard>>,
}

/// Daemon settings a deployment resolved (for the record).
#[derive(Debug, Clone)]
pub struct Resolved {
    pub poll_workers: Vec<usize>,
    pub server_threads: usize,
    pub store_shards: usize,
}

/// A running tree. Monitors are kept in bottom-up poll order.
pub struct Deployment {
    pub clusters: Vec<Cluster>,
    pub monitors: Vec<Monitor>,
    /// Logical time of the latest round.
    pub now: u64,
    pub resolved: Resolved,
}

/// `sources` clusters of `hosts` hosts under one gmetad.
pub fn wide_tree(sources: usize, hosts: usize) -> TreeSpec {
    TreeSpec {
        root: "wide".to_string(),
        monitors: vec![MonitorSpec {
            name: "wide".to_string(),
            children: Vec::new(),
            local_clusters: (0..sources)
                .map(|i| ClusterSpec {
                    name: format!("src{i:02}"),
                    hosts,
                })
                .collect(),
        }],
    }
}

/// Pseudo-gmond generators for every cluster of `tree`, with initial
/// reports rendered at `now`. Seeds derive from `seed` and the cluster
/// name, so the same seed gives the same reports.
pub fn generators(tree: &TreeSpec, seed: u64, now: u64) -> Vec<PseudoGmond> {
    tree.monitors
        .iter()
        .flat_map(|m| m.local_clusters.iter())
        .map(|c| PseudoGmond::new(&c.name, c.hosts, seed ^ fnv1a(&c.name), now))
        .collect()
}

impl Deployment {
    /// Bind every report port and start every gmetad (children first, so
    /// each parent's conf names its children's bound xml ports).
    /// Archives live under `dir`, one root per gmetad.
    pub fn start(
        tree: &TreeSpec,
        gens: Vec<PseudoGmond>,
        dir: &Path,
    ) -> Result<Deployment, String> {
        tree.validate().map_err(|e| e.to_string())?;
        let order = tree.bottom_up();
        let monitor_index = |name: &str| order.iter().position(|m| m == name);
        let transport = TcpTransport::new();
        let mut clusters = Vec::with_capacity(gens.len());
        for gen in gens {
            let name = gen.name().to_string();
            let owner = tree
                .monitors
                .iter()
                .find(|m| m.local_clusters.iter().any(|c| c.name == name))
                .and_then(|m| monitor_index(&m.name))
                .ok_or_else(|| format!("cluster {name} has no gmetad"))?;
            let slot = ReportSlot::default();
            slot.set(gen.xml().to_string());
            let handler_slot = slot.clone();
            let guard = transport
                .serve(
                    &Addr::new("127.0.0.1:0"),
                    Arc::new(move |_: &str| handler_slot.get()),
                )
                .map_err(|e| format!("cannot bind report port for {name}: {e}"))?;
            clusters.push(Cluster {
                addr: guard.addr(),
                name,
                monitor: owner,
                gen,
                slot,
                guard: Some(guard),
            });
        }
        let mut monitors: Vec<Monitor> = Vec::with_capacity(order.len());
        let mut resolved = Resolved {
            poll_workers: Vec::new(),
            server_threads: 0,
            store_shards: 0,
        };
        for name in &order {
            let spec = tree
                .monitor(name)
                .ok_or_else(|| format!("unknown gmetad {name}"))?;
            let level = if *name == tree.root {
                Level::Root
            } else if spec.children.is_empty() {
                Level::Leaf
            } else {
                Level::Mid
            };
            let [query_port, xml_port] = free_ports()?;
            let mut conf = format!("gridname \"{name}\"\n");
            for cluster in &clusters {
                if spec.local_clusters.iter().any(|c| c.name == cluster.name) {
                    conf.push_str(&format!(
                        "data_source \"{}\" {}\n",
                        cluster.name, cluster.addr
                    ));
                }
            }
            for child in &spec.children {
                let child_monitor = monitors
                    .iter()
                    .find(|m| &m.name == child)
                    .ok_or_else(|| format!("child {child} must start before {name}"))?;
                conf.push_str(&format!(
                    "data_source \"{child}\" {}\n",
                    child_monitor.xml_addr
                ));
            }
            let rrd_root = dir.join(name);
            conf.push_str(&format!(
                "bind \"127.0.0.1\"\n\
                 xml_port {xml_port}\n\
                 interactive_port {query_port}\n\
                 rrd_rootdir \"{}\"\n\
                 archive_journal on\n\
                 archive_checkpoint_secs {CHECKPOINT_SECS}\n",
                rrd_root.display()
            ));
            let parsed = parse_conf(&conf).map_err(|e| format!("{name}: {e}"))?;
            resolved.poll_workers.push(
                parsed
                    .config
                    .effective_concurrency(parsed.config.data_sources.len()),
            );
            resolved.server_threads = parsed.serve.workers;
            resolved.store_shards = parsed.config.resolved_store_shards();
            let daemon = Gmetad::new(parsed.config);
            if daemon.archive_journal_enabled() {
                daemon
                    .recover_archives()
                    .map_err(|e| format!("{name}: archive recovery failed: {e}"))?;
            }
            let query_bind = Addr::new(format!("{}:{}", parsed.bind, parsed.interactive_port));
            let query_guard =
                PooledServer::bind(&query_bind, daemon.query_tier(parsed.serve.clone()))
                    .map_err(|e| format!("{name}: cannot bind {query_bind}: {e}"))?;
            let xml_bind = Addr::new(format!("{}:{}", parsed.bind, parsed.xml_port));
            let xml_guard = PooledServer::bind(&xml_bind, daemon.dump_tier(parsed.serve.clone()))
                .map_err(|e| format!("{name}: cannot bind {xml_bind}: {e}"))?;
            monitors.push(Monitor {
                name: name.clone(),
                level,
                query_addr: query_guard.addr(),
                xml_addr: xml_guard.addr(),
                daemon,
                children: spec.children.clone(),
                guards: vec![query_guard, xml_guard],
            });
        }
        Ok(Deployment {
            clusters,
            monitors,
            now: COLD_ROUND_AT,
            resolved,
        })
    }

    /// The top gmetad.
    pub fn root(&self) -> &Monitor {
        self.monitors
            .iter()
            .find(|m| m.level == Level::Root)
            .expect("every tree has a root")
    }

    /// Total hosts over every cluster.
    pub fn host_count(&self) -> usize {
        self.clusters.iter().map(|c| c.gen.host_count()).sum()
    }

    /// Stop every server (children's report ports last), then the
    /// daemons, and wait for their threads.
    pub fn stop(&mut self) {
        for monitor in self.monitors.iter_mut().rev() {
            monitor.guards.clear();
        }
        for cluster in &mut self.clusters {
            cluster.guard = None;
        }
        self.monitors.clear();
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Two distinct loopback ports that were free a moment ago (the conf
/// names its ports before the daemon that binds them exists). Both
/// listeners are held until both ports are read, so they differ.
fn free_ports() -> Result<[u16; 2], String> {
    let bind = || TcpListener::bind("127.0.0.1:0").map_err(|e| format!("no free port: {e}"));
    let (a, b) = (bind()?, bind()?);
    let port = |l: &TcpListener| {
        l.local_addr()
            .map(|addr| addr.port())
            .map_err(|e| format!("no free port: {e}"))
    };
    Ok([port(&a)?, port(&b)?])
}

/// FNV-1a, for stable per-cluster seeds.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}
