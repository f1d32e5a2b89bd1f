//! Self-telemetry for the monitor itself.
//!
//! The paper's evaluation (§4.2 Fig. 5/6, §4.3 Table 1) is built on
//! measurements *of the monitoring system* — gmetad CPU by work
//! category, frontend parse latencies — and Zhang, Freschl & Schopf
//! argue that a monitoring system's own overhead distributions are
//! first-class results. This crate gives every component in the
//! workspace the machinery to produce those numbers about itself:
//!
//! - [`Registry`] — a lock-light home for named monotonic [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed latency [`Histogram`]s with
//!   p50/p95/p99/max estimation. Handles are interned `Arc`s: the hot
//!   path is a single atomic op, the registry lock is touched only on
//!   first use of a name.
//! - [`Tracer`] / [`Span`] — hierarchical timing spans whose dotted
//!   paths feed the histogram layer on drop (`round.fetch` →
//!   `round.fetch_us`) and, optionally, a bounded structured event log
//!   stamped with an injectable [`LogicalClock`] so simulation runs
//!   stay deterministic.
//! - [`Snapshot`] — a point-in-time copy of the registry, renderable as
//!   an aligned table (`gmetad --once`, `gstat --telemetry`) or a
//!   standalone `TELEMETRY` XML document served over the query channel.
//!   XML round-trips losslessly (histogram buckets travel in sparse
//!   form) so a viewer can compute quantiles on the far side of the
//!   wire.
//! - [`json`] — a dependency-free JSON value parser the `repro` harness
//!   uses to check every report it writes.
//!
//! Naming scheme: histograms end in their unit (`fetch_us`), dotted
//! segments express hierarchy (`source.sdsc.fetch_us`), and metrics a
//! daemon republishes about itself into the Ganglia tree carry the
//! `self.` prefix (`self.fetch_p99_ms`).

pub mod clock;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use clock::LogicalClock;
pub use histogram::{bucket_index, bucket_lower_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, HistogramHandle, Registry};
pub use snapshot::{json_string, Snapshot, TelemetryError};
pub use span::{Span, SpanEvent, Tracer};
