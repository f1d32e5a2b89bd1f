//! Metric types and the typed Ganglia monitoring-tree model.
//!
//! The wide-area monitor "concerns itself only with a metric's type and
//! context: which host, and in which cluster it originated from" (paper
//! §1). This crate defines those types:
//!
//! * [`value::MetricValue`] / [`value::MetricType`] — the value lattice of
//!   the Ganglia DTD (`int8`..`uint32`, `float`, `double`, `string`,
//!   `timestamp`);
//! * [`slope::Slope`] — how a metric is expected to change, which drives
//!   both gmond's send scheduling and RRD archiving;
//! * [`definition`] — the ~30 built-in host metrics gmond collects, with
//!   their collection schedules and value thresholds, plus a registry for
//!   user-defined key-value metrics;
//! * [`model`] — the typed monitoring tree (`GRID` / `CLUSTER` / `HOST` /
//!   `METRIC`, and the summary forms `HOSTS` / `METRICS`), including the
//!   additive-reduction summaries of paper §3.2, all folded by one
//!   summarizer ([`SummaryBody::from_hosts`]);
//! * [`stream`] — the model parser ([`parse_document`]): an event-driven
//!   machine over the pull parser with reusable scratch and no DOM, and
//!   the one document walk, generic over a host hook;
//! * [`codec`] — serialization of the model back to Ganglia XML;
//! * [`atom`] — the intern table behind the model's [`atom::Atom`] name
//!   fields: the same few hundred strings repeat across every host and
//!   every round, so they are stored once and shared;
//! * [`ingest`] — the delta-aware parse path: runs the same walk with a
//!   host hook that fingerprints each `<HOST>` subtree and reuses the
//!   previous round's `Arc`'d nodes and summary contributions when the
//!   bytes did not change.

pub mod atom;
pub mod codec;
pub mod definition;
pub mod ingest;
pub mod model;
pub mod slope;
pub mod stream;
pub mod value;

pub use atom::{intern_stats, Atom, InternStats};
pub use codec::{
    render_document_into, write_document, write_document_hinted, ParseError, RenderHint,
};
pub use definition::{builtin_metrics, MetricDefinition, MetricRegistry};
pub use ingest::{fingerprint64, IngestStats, Ingested, Ingester};
pub use model::{
    ClusterBody, ClusterNode, GangliaDoc, GridBody, GridItem, GridNode, HostNode, MetricEntry,
    MetricSummary, SummaryBody,
};
pub use slope::Slope;
pub use stream::parse_document;
pub use value::{MetricType, MetricValue};
