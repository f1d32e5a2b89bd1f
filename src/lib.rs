//! # ganglia-rs
//!
//! A from-scratch Rust reproduction of *Wide Area Cluster Monitoring
//! with Ganglia* (Sacerdoti, Katz, Massie, Culler — IEEE CLUSTER 2003):
//! the Gmeta wide-area monitor with its N-level summarizing tree and
//! path-query engine, the Gmon local-area monitor it aggregates, and the
//! full experimental harness from the paper's evaluation section.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`xml`] | `ganglia-xml` | the Ganglia XML data language (pull parser, writer) |
//! | [`metrics`] | `ganglia-metrics` | metric types, built-in metric set, the typed monitoring tree |
//! | [`rrd`] | `ganglia-rrd` | round-robin time-series database (RRDtool-style) |
//! | [`net`] | `ganglia-net` | transports: deterministic in-memory network + real TCP |
//! | [`gmond`] | `ganglia-gmond` | local-area monitor: multicast soft-state membership, pseudo-gmond |
//! | [`core`] | `ganglia-core` | **gmetad**: polling, fail-over, summarizing store, query engine, archiving |
//! | [`query`] | `ganglia-query` | path-query language + regex-lite extension |
//! | [`serve`] | `ganglia-serve` | query-serving front tier: worker pool, response cache, admission control |
//! | [`web`] | `ganglia-web` | the web-frontend viewer (meta/cluster/host views) |
//! | [`alarm`] | `ganglia-alarm` | alarm rules + state machine (paper future work) |
//! | [`sim`] | `ganglia-sim` | deployment simulator and the paper's experiments |
//! | [`telemetry`] | `ganglia-telemetry` | self-telemetry: metrics registry, spans, snapshots |
//!
//! ## Quickstart
//!
//! ```
//! use ganglia::core::{DataSourceCfg, Gmetad, GmetadConfig};
//! use ganglia::gmond::pseudo::ServedPseudoCluster;
//! use ganglia::gmond::PseudoGmond;
//! use ganglia::net::SimNet;
//!
//! // A 16-host cluster served at two redundant addresses…
//! let net = SimNet::new(1);
//! let cluster = ServedPseudoCluster::serve(&net, PseudoGmond::new("meteor", 16, 7, 0), 2);
//!
//! // …monitored by a gmetad…
//! let config = GmetadConfig::new("sdsc")
//!     .with_source(DataSourceCfg::new("meteor", cluster.addrs().to_vec()).unwrap());
//! let gmetad = Gmetad::new(config);
//! gmetad.poll_all(&net, 15);
//!
//! // …which now answers path queries (paper fig 4).
//! let xml = gmetad.query("/meteor/meteor-0003");
//! assert!(xml.contains("meteor-0003"));
//! ```

pub use ganglia_alarm as alarm;
pub use ganglia_core as core;
pub use ganglia_gmond as gmond;
pub use ganglia_metrics as metrics;
pub use ganglia_net as net;
pub use ganglia_query as query;
pub use ganglia_rrd as rrd;
pub use ganglia_serve as serve;
pub use ganglia_sim as sim;
pub use ganglia_telemetry as telemetry;
pub use ganglia_web as web;
pub use ganglia_xml as xml;
