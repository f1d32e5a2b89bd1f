//! The paper's experiments, one module per table/figure.
//!
//! Each experiment returns a structured result so the `repro` harness
//! and the integration tests share one implementation. "Since we
//! emphasize relative timings rather than absolute ones, a consistent
//! measurement strategy is more critical than the specific collection
//! method used" (§4.1) — the assertions in the test suite check the
//! paper's *shapes* (who wins, roughly by how much, where load sits in
//! the tree), not absolute numbers.

pub mod bandwidth;
pub mod federation;
pub mod fig5;
pub mod fig6;
pub mod ingest;
pub mod limits;
pub mod propagation;
pub mod query;
pub mod serving;
pub mod table1;
pub mod traffic;

pub use bandwidth::{run_bandwidth, BandwidthResult};
pub use federation::{
    run_federation_scale, FederationParams, FederationResult, IdentityRow, LatencyRow, LevelRow,
    ThroughputRow,
};
pub use fig5::{run_fig5, Fig5Params, Fig5Result, Fig5Telemetry};
pub use fig6::{run_fig6, Fig6Params, Fig6Result};
pub use ingest::{
    baseline_pass, byte_identical, churn_corpus, delta_pass, run_ingest_churn, DeltaTotals,
    IngestParams, IngestResult, IngestRow,
};
pub use limits::{run_limits, LimitsResult, LimitsRow};
pub use propagation::{
    run_propagation_lag, PropagationParams, PropagationResult, PropagationRow, BOUND_EPSILON_S,
};
pub use query::{run_query_churn, QueryParams, QueryResult, QueryRow};
pub use serving::{
    run_serving, run_slow_client_isolation, IsolationResult, ServingParams, ServingResult,
    ServingSide,
};
pub use table1::{run_table1, Table1Params, Table1Result};
pub use traffic::{run_traffic, TrafficResult, TrafficRow};
