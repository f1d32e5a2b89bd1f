//! The wide-area Gmeta monitor — the paper's primary contribution.
//!
//! A gmetad sits in a monitoring tree (paper fig 2): its children are
//! clusters running gmond, or other gmetads; its parent (if any) polls it
//! the same way it polls its children. This crate implements both gmetad
//! designs the paper evaluates:
//!
//! * the **1-level** design (§2.1 / monitor-core 2.5.1): every node
//!   "reports the union of its children's data to its parent, and will
//!   process and archive data for all clusters in its subtree";
//! * the **N-level** design (§2.2–2.3 / monitor-core 2.5.4): `GRID` tags
//!   make the tree explicit, remote grids are kept only as additive
//!   summaries with an authority URL pointing at the higher-resolution
//!   holder, and a path-query engine serves single subtrees from a
//!   three-level hash-table store.
//!
//! Module map:
//!
//! * [`config`] — data sources (each with a redundant host list), tree
//!   mode, polling interval, archive mode;
//! * [`poller`] — per-source polling with gmond fail-over and steady
//!   retry (§2.1's failure handling);
//! * [`health`] — per-endpoint circuit breakers with capped
//!   exponential backoff, and the staleness-lifecycle thresholds
//!   (Fresh → Stale → Down → Expired) the store enforces;
//! * [`store`] — the hash-table store of §3.3.2 ("our approach
//!   approximates a DOM design where each XML tag name keys into a hash
//!   table"), with the grid's root reduction kept exactly and
//!   incrementally (an exact `f64` accumulator per metric);
//! * [`query_engine`] — path queries over the store, including the
//!   cluster-summary filter;
//! * [`archive`] — RRD archiving: full host archives for local clusters,
//!   summary-only archives for remote grids (N-level), or full
//!   duplicates of the entire subtree (1-level), held in per-source
//!   shards so parallel workers archive without a global lock;
//! * [`gmetad`] — the assembled daemon: background summarization on the
//!   polling time-scale (poll rounds fan out across sources on a
//!   scoped worker pool), query serving from the latest fully-parsed
//!   snapshot (§3.3.1);
//! * [`instrument`] — per-category CPU accounting used by the paper's
//!   experiments, backed by the `ganglia-telemetry` registry so
//!   counters, gauges, and latency histograms share one snapshot; when
//!   `self_telemetry` is enabled the daemon republishes that snapshot
//!   as a synthetic `<grid>-monitor` cluster of `self.*` metrics —
//!   archived, summarized, and path-queryable like any other source —
//!   and serves the raw instruments for `/?filter=telemetry`;
//! * [`freshness`] — federation-wide data-age accounting: per-depth
//!   and per-source histograms of host data age and per-hop grid lag,
//!   with explicit handling of missing timestamps and clock skew;
//! * [`join`] — extension (paper §5 future work): MDS-style
//!   self-organizing tree membership with certificate-checked join
//!   messages and soft-state pruning;
//! * [`sha256`] — a from-scratch SHA-256 used by [`join`]'s HMAC
//!   certificates;
//! * [`conf`] — `gmetad.conf` parsing for the standalone daemon binary.

pub mod archive;
pub mod conf;
pub mod config;
pub mod error;
mod exact_sum;
pub mod freshness;
pub mod gmetad;
pub mod health;
pub mod instrument;
pub mod join;
pub mod poller;
pub mod query_engine;
pub mod sha256;
pub mod store;

pub use config::{ArchiveMode, DataSourceCfg, GmetadConfig, InvalidDataSource, TreeMode};
pub use error::GmetadError;
pub use gmetad::{Gmetad, PollerStats};
pub use health::{BreakerState, EndpointHealth, LifecyclePolicy, RetryPolicy};
pub use instrument::{WorkCategory, WorkMeter};
pub use poller::{RoundBudget, SourcePoller};
pub use store::{Degradation, SourceData, SourceState, SourceStatus, Store};

// Re-exported so binaries and experiments don't need a direct
// dependency for the common telemetry types.
pub use ganglia_telemetry as telemetry;
