//! The serve tier: cached full-dump throughput against
//! render-per-request under concurrent clients, and good-client p99
//! while stalled peers sit on the pool over real TCP.

use ganglia_sim::experiments::{
    run_serving, run_slow_client_isolation, IsolationResult, ServingParams, ServingResult,
};

use crate::{Op, Params, Report, Row};

/// Serving as rows, cached against render-per-request. Gates: the cache
/// carries ≥5x the throughput and answers at least half the requests,
/// good clients' p99 stays under 2 s with stalled peers (a wedged port
/// would push it toward the 5 s client timeout), and the read deadline
/// evicts every stalled peer.
pub fn serving_rows(result: &ServingResult, isolation: &IsolationResult) -> Vec<Row> {
    let (cached, rendered) = (&result.cached, &result.rendered);
    let requests = result.params.clients * result.params.requests_per_client;
    vec![
        Row::new("full dump", "dump_bytes", result.dump_bytes),
        Row::new("full dump", "throughput_rps", cached.throughput_rps).vs(rendered.throughput_rps),
        Row::new("full dump", "speedup_x", result.speedup()).gate(Op::Ge, 5),
        Row::new("full dump", "renders", cached.renders).vs(rendered.renders),
        Row::new("full dump", "cache_hits", cached.cache_hits)
            .vs(rendered.cache_hits)
            .gate(Op::Ge, requests / 2),
        Row::new("full dump", "latency_p99_us", cached.latency_p99_us).vs(rendered.latency_p99_us),
        Row::new(
            "stalled peers",
            "good_client_p99_us",
            isolation.contended_p99_us,
        )
        .vs(isolation.baseline_p99_us)
        .gate(Op::Lt, 2_000_000),
        Row::new("stalled peers", "evictions", isolation.evictions)
            .gate(Op::Ge, isolation.stalled_clients),
    ]
}

pub fn run(p: &Params) -> Result<Report, String> {
    // 64 concurrent clients in every mode — the concurrency is the
    // experiment; smoke only shrinks the store and the request count.
    let params = ServingParams {
        clusters: if p.smoke { 2 } else { 4 },
        hosts_per_cluster: if p.smoke { 24 } else { 48 },
        clients: p.get("clients", 64, 64)?.max(1),
        requests_per_client: p.get("requests", 50, 10)?,
    };
    let (good_clients, stalled) = (4, 2);
    let isolation_requests = if p.smoke { 25 } else { 100 };
    let result = run_serving(params);
    let isolation = run_slow_client_isolation(good_clients, isolation_requests, stalled);
    Ok(Report {
        experiment: "serving",
        params: vec![
            ("clients", params.clients.to_string()),
            ("requests", params.requests_per_client.to_string()),
            ("clusters", params.clusters.to_string()),
            ("hosts_per_cluster", params.hosts_per_cluster.to_string()),
            ("good_clients", good_clients.to_string()),
            ("stalled_clients", isolation.stalled_clients.to_string()),
            ("isolation_requests", isolation_requests.to_string()),
        ],
        rows: serving_rows(&result, &isolation),
    })
}
