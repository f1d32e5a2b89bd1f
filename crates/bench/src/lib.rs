//! Shared helpers for the reproduction binaries and criterion benches.
//!
//! Each table/figure in the paper has a binary that regenerates it
//! (`repro_fig5`, `repro_fig6`, `repro_table1`; `repro_all` runs the
//! lot) and a criterion bench over the same code. The helpers here
//! render results in the paper's layout so the output reads against the
//! original figures directly.

use std::fmt::Write;
use std::time::{Duration, Instant};

use ganglia_core::telemetry::{Histogram, Registry};
use ganglia_core::TreeMode;
use ganglia_sim::experiments::table1::View;
use ganglia_sim::experiments::{
    FederationResult, Fig5Result, Fig6Result, IngestResult, IsolationResult, PropagationResult,
    QueryResult, ServingResult, Table1Result, ThroughputRow,
};

/// Allocation counts measured by the `repro_ingest` binary's counting
/// allocator at one churn level: total heap allocations per *warm*
/// round (the cold parse round is excluded on both sides).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestAllocReport {
    /// Fraction of hosts whose bytes change every round.
    pub churn: f64,
    pub baseline_allocs_per_round: u64,
    pub delta_allocs_per_round: u64,
}

impl IngestAllocReport {
    /// Baseline allocations over delta allocations per round.
    pub fn reduction(&self) -> f64 {
        self.baseline_allocs_per_round as f64 / self.delta_allocs_per_round.max(1) as f64
    }

    /// Delta-path allocations beyond the baseline's, per round. The
    /// worst-case gate bounds this by a constant: the streaming rebuild
    /// must not add per-host allocation overhead.
    pub fn overhead(&self) -> i64 {
        self.delta_allocs_per_round as i64 - self.baseline_allocs_per_round as i64
    }
}

/// Render figure 5 as an aligned table (one bar pair per monitor).
pub fn render_fig5(result: &Fig5Result) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5 — Wide-Area Scalability: CPU%% by gmeta monitor \
         ({} hosts/cluster, 12 clusters)",
        result.params_hosts
    );
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12}",
        "monitor", "1-level %", "N-level %"
    );
    for row in &result.rows {
        let _ = writeln!(
            out,
            "{:<10} {:>12.4} {:>12.4}",
            row.monitor, row.one_level_pct, row.n_level_pct
        );
    }
    let (one, n) = result.aggregates();
    let _ = writeln!(
        out,
        "{:<10} {:>12.4} {:>12.4}   (sum over monitors)",
        "TOTAL", one, n
    );
    out
}

/// Render figure 5 — rows plus every monitor's telemetry snapshot — as
/// a machine-readable JSON object for the bench harness and CI smoke
/// job. Parseable by [`ganglia_core::telemetry::json::parse`].
pub fn render_fig5_json(result: &Fig5Result) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"figure\":\"fig5\",\"hosts_per_cluster\":{},\"rows\":[",
        result.params_hosts
    );
    for (i, row) in result.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"monitor\":\"{}\",\"one_level_pct\":{:.6},\"n_level_pct\":{:.6}}}",
            row.monitor, row.one_level_pct, row.n_level_pct
        );
    }
    out.push_str("],\"telemetry\":[");
    for (i, t) in result.telemetry.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"monitor\":\"{}\",\"one_level\":{},\"n_level\":{}}}",
            t.monitor,
            t.one_level.to_json(),
            t.n_level.to_json()
        );
    }
    out.push_str("]}");
    out
}

/// Estimate the wall-clock cost the telemetry layer added to a run:
/// microbenchmark one histogram record plus one counter add, then
/// multiply by the number of samples actually recorded. Used by the
/// smoke test to assert instrumentation stays below a few percent of
/// the measured window.
pub fn estimated_telemetry_overhead(total_samples: u64) -> Duration {
    const ITERS: u64 = 100_000;
    let histogram = Histogram::new();
    let registry = Registry::new();
    let counter = registry.counter("bench.overhead_probe");
    let start = Instant::now();
    for i in 0..ITERS {
        histogram.record(i);
        counter.add(1);
    }
    let per_op = start.elapsed() / ITERS as u32;
    per_op * total_samples.min(u64::from(u32::MAX)) as u32
}

/// Render figure 6 as an aligned table (one point per cluster size).
pub fn render_fig6(result: &Fig6Result) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6 — Aggregate CPU%% over 6 gmeta nodes vs cluster size"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>12} {:>12}",
        "cluster size", "1-level %", "N-level %"
    );
    for row in &result.rows {
        let _ = writeln!(
            out,
            "{:>12} {:>12.4} {:>12.4}",
            row.cluster_size, row.one_level_aggregate_pct, row.n_level_aggregate_pct
        );
    }
    let (one_slope, n_slope) = result.slopes();
    let _ = writeln!(
        out,
        "slope (CPU%% per host): 1-level {one_slope:.6}, N-level {n_slope:.6}"
    );
    out
}

/// Render table 1 in the paper's exact row/column layout.
pub fn render_table1(result: &Table1Result) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — Time (in sec) for the web frontend to query and parse \
         Ganglia XML from the sdsc gmeta node"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>12}",
        "", "Meta", "Cluster", "Host"
    );
    let row = |label: &str, f: &dyn Fn(View) -> String, out: &mut String| {
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>12} {:>12}",
            label,
            f(View::Meta),
            f(View::Cluster),
            f(View::Host)
        );
    };
    row(
        "1-level",
        &|v| {
            format!(
                "{:.6}",
                result.view(v).one_level.download_and_parse().as_secs_f64()
            )
        },
        &mut out,
    );
    row(
        "N-level",
        &|v| {
            format!(
                "{:.6}",
                result.view(v).n_level.download_and_parse().as_secs_f64()
            )
        },
        &mut out,
    );
    row(
        "Speedup",
        &|v| format!("{:.1}", result.view(v).speedup()),
        &mut out,
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "XML bytes downloaded per view: meta {} -> {}, cluster {} -> {}, host {} -> {}",
        result.view(View::Meta).one_level.xml_bytes,
        result.view(View::Meta).n_level.xml_bytes,
        result.view(View::Cluster).one_level.xml_bytes,
        result.view(View::Cluster).n_level.xml_bytes,
        result.view(View::Host).one_level.xml_bytes,
        result.view(View::Host).n_level.xml_bytes,
    );
    out
}

/// Render the serving experiment as an aligned cached-vs-rendered
/// table plus the slow-client isolation summary.
pub fn render_serving(result: &ServingResult, isolation: &IsolationResult) -> String {
    let mut out = String::new();
    let p = &result.params;
    let _ = writeln!(
        out,
        "Serving — full-dump throughput, {} clients × {} requests \
         ({} clusters × {} hosts, dump {} bytes)",
        p.clients, p.requests_per_client, p.clusters, p.hosts_per_cluster, result.dump_bytes
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>10} {:>10} {:>12}",
        "design", "dumps/sec", "renders", "hits", "p99 (us)"
    );
    for (label, side) in [
        ("render-per-request", &result.rendered),
        ("cached", &result.cached),
    ] {
        let _ = writeln!(
            out,
            "{:<18} {:>12.1} {:>10} {:>10} {:>12}",
            label, side.throughput_rps, side.renders, side.cache_hits, side.latency_p99_us
        );
    }
    let _ = writeln!(out, "cache speedup: {:.1}x", result.speedup());
    let _ = writeln!(
        out,
        "slow-client isolation: good-client p99 {}us alone, {}us with {} stalled \
         peers ({} deadline evictions)",
        isolation.baseline_p99_us,
        isolation.contended_p99_us,
        isolation.stalled_clients,
        isolation.evictions
    );
    out
}

/// Render the serving results as machine-readable JSON for the CI
/// smoke job. Parseable by [`ganglia_core::telemetry::json::parse`].
pub fn render_serving_json(result: &ServingResult, isolation: &IsolationResult) -> String {
    let mut out = String::from("{");
    let p = &result.params;
    let _ = write!(
        out,
        "\"experiment\":\"serving\",\"clusters\":{},\"hosts_per_cluster\":{},\
         \"clients\":{},\"requests_per_client\":{},\"dump_bytes\":{},",
        p.clusters, p.hosts_per_cluster, p.clients, p.requests_per_client, result.dump_bytes
    );
    let side = |label: &str, s: &ganglia_sim::experiments::ServingSide| {
        format!(
            "\"{label}\":{{\"throughput_rps\":{:.3},\"renders\":{},\"cache_hits\":{},\
             \"latency_p99_us\":{}}}",
            s.throughput_rps, s.renders, s.cache_hits, s.latency_p99_us
        )
    };
    let _ = write!(
        out,
        "{},{},\"speedup\":{:.3},",
        side("rendered", &result.rendered),
        side("cached", &result.cached),
        result.speedup()
    );
    let _ = write!(
        out,
        "\"isolation\":{{\"baseline_p99_us\":{},\"contended_p99_us\":{},\
         \"stalled_clients\":{},\"evictions\":{}}}",
        isolation.baseline_p99_us,
        isolation.contended_p99_us,
        isolation.stalled_clients,
        isolation.evictions
    );
    out.push('}');
    out
}

/// Render the ingest churn sweep as an aligned baseline-vs-delta table.
pub fn render_ingest(result: &IngestResult, allocs: &[IngestAllocReport]) -> String {
    let mut out = String::new();
    let p = &result.params;
    let _ = writeln!(
        out,
        "Ingest — rebuild-every-round vs delta-aware merge, {} hosts × {} metrics, \
         {} rounds per churn level",
        p.hosts, p.metrics_per_host, p.rounds
    );
    let _ = writeln!(
        out,
        "{:>7} {:>12} {:>12} {:>9} {:>12} {:>12} {:>10} {:>11}",
        "churn",
        "baseline ms",
        "delta ms",
        "speedup",
        "hosts reuse",
        "hosts parse",
        "doc reuse",
        "byte-ident"
    );
    for row in &result.rows {
        let _ = writeln!(
            out,
            "{:>6.0}% {:>12.2} {:>12.2} {:>8.1}x {:>12} {:>12} {:>10} {:>11}",
            row.churn * 100.0,
            row.baseline_elapsed.as_secs_f64() * 1e3,
            row.delta_elapsed.as_secs_f64() * 1e3,
            row.speedup(),
            row.hosts_reused,
            row.hosts_rebuilt,
            row.docs_reused,
            row.byte_identical
        );
    }
    let _ = writeln!(
        out,
        "fig3 corpus byte-identical through delta path: {}",
        result.fig3_identical
    );
    for a in allocs {
        let _ = writeln!(
            out,
            "allocations per round at {:.0}% churn: baseline {}, delta {} \
             ({:.1}x reduction, overhead {:+})",
            a.churn * 100.0,
            a.baseline_allocs_per_round,
            a.delta_allocs_per_round,
            a.reduction(),
            a.overhead()
        );
    }
    out
}

/// Render the ingest results as machine-readable JSON for the CI smoke
/// job. Parseable by [`ganglia_core::telemetry::json::parse`].
pub fn render_ingest_json(result: &IngestResult, allocs: &[IngestAllocReport]) -> String {
    let mut out = String::from("{");
    let p = &result.params;
    let _ = write!(
        out,
        "\"experiment\":\"ingest\",\"hosts\":{},\"metrics_per_host\":{},\"rounds\":{},\
         \"fig3_identical\":{},\"rows\":[",
        p.hosts, p.metrics_per_host, p.rounds, result.fig3_identical
    );
    for (i, row) in result.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"churn\":{:.3},\"report_bytes\":{},\"baseline_us\":{},\"delta_us\":{},\
             \"speedup\":{:.3},\"hosts_reused\":{},\"hosts_rebuilt\":{},\"docs_reused\":{},\
             \"byte_identical\":{}}}",
            row.churn,
            row.report_bytes,
            row.baseline_elapsed.as_micros(),
            row.delta_elapsed.as_micros(),
            row.speedup(),
            row.hosts_reused,
            row.hosts_rebuilt,
            row.docs_reused,
            row.byte_identical
        );
    }
    out.push(']');
    if !allocs.is_empty() {
        out.push_str(",\"allocs\":[");
        for (i, a) in allocs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"churn\":{:.3},\"baseline_per_round\":{},\"delta_per_round\":{},\
                 \"reduction\":{:.3},\"overhead\":{}}}",
                a.churn,
                a.baseline_allocs_per_round,
                a.delta_allocs_per_round,
                a.reduction(),
                a.overhead()
            );
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// Render the continuous-query sweep as an aligned table: pushed delta
/// traffic against the cost of re-polling the same query, per churn
/// level.
pub fn render_query(result: &QueryResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Continuous queries — pushed deltas vs a re-polling client, {} hosts, \
         {} rounds, expr {:?}",
        result.params_hosts, result.params_rounds, result.expr
    );
    let _ = writeln!(
        out,
        "{:>7} {:>6} {:>12} {:>12} {:>10} {:>7} {:>9} {:>11}",
        "churn", "rows", "delta B", "re-poll B", "fraction", "quiet", "lag (rd)", "consistent"
    );
    for row in &result.rows {
        let _ = writeln!(
            out,
            "{:>6.0}% {:>6} {:>12} {:>12} {:>9.1}% {:>7} {:>9} {:>11}",
            row.churn * 100.0,
            row.result_rows,
            row.delta_bytes,
            row.repoll_bytes,
            row.delta_fraction() * 100.0,
            row.quiet_rounds,
            row.max_latency_rounds,
            row.consistent
        );
    }
    out
}

/// The continuous-query sweep as a JSON artifact (`BENCH_query.json`).
pub fn render_query_json(result: &QueryResult) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"experiment\":\"query\",\"hosts\":{},\"rounds\":{},\"expr\":{:?},\"rows\":[",
        result.params_hosts, result.params_rounds, result.expr
    );
    for (i, row) in result.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"churn\":{:.3},\"result_rows\":{},\"snapshot_bytes\":{},\"delta_bytes\":{},\
             \"repoll_bytes\":{},\"delta_fraction\":{:.4},\"quiet_rounds\":{},\
             \"max_latency_rounds\":{},\"consistent\":{}}}",
            row.churn,
            row.result_rows,
            row.snapshot_bytes,
            row.delta_bytes,
            row.repoll_bytes,
            row.delta_fraction(),
            row.quiet_rounds,
            row.max_latency_rounds,
            row.consistent
        );
    }
    out.push_str("]}");
    out
}

fn mode_label(mode: TreeMode) -> &'static str {
    match mode {
        TreeMode::OneLevel => "1-level",
        TreeMode::NLevel => "N-level",
    }
}

/// Render the propagation-lag sweep as an aligned table: one row per
/// (mode, depth, interval, poll order), root-visible age against its
/// `levels × interval + ε` bound.
pub fn render_freshness(result: &PropagationResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Propagation lag — root-visible p99 data age by federation depth"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>10} {:<14} {:>12} {:>10}",
        "mode", "levels", "interval", "poll order", "root age s", "bound s"
    );
    for row in &result.rows {
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>10} {:<14} {:>12} {:>10}{}",
            mode_label(row.mode),
            row.levels,
            row.poll_interval,
            if row.top_down {
                "parents-first"
            } else {
                "children-first"
            },
            row.root_age_p99_s,
            row.bound_s,
            if row.root_age_p99_s <= row.bound_s {
                ""
            } else {
                "   EXCEEDED"
            }
        );
    }
    let _ = writeln!(
        out,
        "worst age {}s, all within bound: {}",
        result.worst_age_s(),
        result.all_within_bound()
    );
    out
}

/// Render the sweep as JSON (parseable by our own parser).
pub fn render_freshness_json(result: &PropagationResult) -> String {
    let mut out = String::from("{\"experiment\":\"freshness\",\"rows\":[");
    for (i, row) in result.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"mode\":\"{}\",\"levels\":{},\"poll_interval_s\":{},\"top_down\":{},\
             \"root_age_p99_s\":{},\"bound_s\":{}}}",
            mode_label(row.mode),
            row.levels,
            row.poll_interval,
            row.top_down,
            row.root_age_p99_s,
            row.bound_s
        );
    }
    let _ = write!(
        out,
        "],\"worst_age_s\":{},\"all_within_bound\":{}}}",
        result.worst_age_s(),
        result.all_within_bound()
    );
    out
}

/// The write-throughput rows of a federation run: (store, load, row,
/// the seed row it is compared with).
fn federation_throughput_rows(
    result: &FederationResult,
) -> [(&str, &str, &ThroughputRow, &ThroughputRow); 4] {
    let (seed, store) = (&result.baseline, &result.throughput);
    let (seed_only, store_only) = (&result.replace_only_baseline, &result.replace_only);
    [
        ("seed (1 lock)", "replace+refresh", seed, seed),
        ("incremental", "replace+refresh", store, seed),
        ("seed (1 lock)", "replace-only", seed_only, seed_only),
        ("incremental", "replace-only", store_only, seed_only),
    ]
}

/// Render the federation-scale run: write throughput of the store
/// against the seed-store baseline (with and without root refreshes),
/// root latency vs source count, per-level CPU, and the byte-identity
/// churn sweep.
pub fn render_federation(result: &FederationResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Federation scale — {} grids x {} hosts ({} synthetic hosts), \
         {} metrics/source",
        result.params.grids,
        result.params.hosts_per_grid,
        result.params.hosts_total(),
        result.params.metrics_per_host
    );
    let _ = writeln!(
        out,
        "\nwrite throughput, {} writers:",
        result.params.writers
    );
    let _ = writeln!(
        out,
        "{:<14} {:<16} {:>8} {:>12} {:>10} {:>14} {:>14}",
        "store", "load", "ops", "ops/sec", "speedup", "inputs/merge", "source touches"
    );
    for (store, load, row, baseline) in federation_throughput_rows(result) {
        // The seed replica keeps no counters; replace-only runs merge no
        // root summary.
        let inputs = if row.root_merge_inputs_per_merge > 0.0 {
            format!("{:.1}", row.root_merge_inputs_per_merge)
        } else {
            "-".to_string()
        };
        let touches = if std::ptr::eq(row, baseline) {
            "-".to_string()
        } else {
            row.source_touches.to_string()
        };
        let _ = writeln!(
            out,
            "{:<14} {:<16} {:>8} {:>12.0} {:>9.2}x {:>14} {:>14}",
            store,
            load,
            row.ops,
            row.ops_per_sec,
            row.speedup_over(baseline),
            inputs,
            touches
        );
    }
    let _ = writeln!(out, "\nuncached root-summary latency:");
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>14}",
        "sources", "hosts", "latency us"
    );
    for row in &result.latency {
        let _ = writeln!(
            out,
            "{:>10} {:>12} {:>14.1}",
            row.sources, row.hosts, row.root_latency_us
        );
    }
    let _ = writeln!(out, "\nper-level aggregation CPU (N-level tree):");
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>12} {:>10}",
        "level", "nodes", "merges", "cpu ms"
    );
    for row in &result.levels {
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>12} {:>10.2}",
            row.label, row.nodes, row.merges, row.cpu_ms
        );
    }
    let _ = writeln!(out, "\nbyte identity vs rebuild-every-mutation path:");
    for row in &result.identity {
        let _ = writeln!(
            out,
            "churn {:>3}%: identical={} ({} bytes)",
            row.churn_percent, row.identical, row.response_bytes
        );
    }
    out
}

/// Render the federation sweep as JSON (parseable by our own parser).
pub fn render_federation_json(result: &FederationResult) -> String {
    let mut out = String::from("{\"experiment\":\"federation\",");
    let _ = write!(
        out,
        "\"grids\":{},\"hosts_per_grid\":{},\"hosts_total\":{},\
         \"metrics_per_host\":{},\"writers\":{},",
        result.params.grids,
        result.params.hosts_per_grid,
        result.params.hosts_total(),
        result.params.metrics_per_host,
        result.params.writers
    );
    out.push_str("\"throughput\":[");
    for (i, (store, load, row, baseline)) in federation_throughput_rows(result).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"store\":\"{store}\",\"load\":\"{load}\",\"ops\":{},\"ops_per_sec\":{:.1},\
             \"speedup\":{:.3},\"root_merge_inputs_per_merge\":{:.1},\"source_touches\":{}}}",
            row.ops,
            row.ops_per_sec,
            row.speedup_over(baseline),
            row.root_merge_inputs_per_merge,
            row.source_touches
        );
    }
    out.push_str("],\"latency\":[");
    for (i, row) in result.latency.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"sources\":{},\"hosts\":{},\"root_latency_us\":{:.2}}}",
            row.sources, row.hosts, row.root_latency_us
        );
    }
    out.push_str("],\"levels\":[");
    for (i, row) in result.levels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"level\":{},\"label\":\"{}\",\"nodes\":{},\"merges\":{},\"cpu_ms\":{:.3}}}",
            row.level, row.label, row.nodes, row.merges, row.cpu_ms
        );
    }
    out.push_str("],\"identity\":[");
    for (i, row) in result.identity.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"churn_percent\":{},\"identical\":{},\"response_bytes\":{}}}",
            row.churn_percent, row.identical, row.response_bytes
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganglia_sim::experiments::fig5::Fig5Params;
    use ganglia_sim::experiments::fig6::Fig6Params;
    use ganglia_sim::experiments::table1::Table1Params;
    use ganglia_sim::experiments::{run_fig5, run_fig6, run_table1};

    #[test]
    fn renderers_produce_paper_shaped_output() {
        let fig5 = run_fig5(&Fig5Params {
            hosts_per_cluster: 5,
            warmup_rounds: 1,
            measured_rounds: 1,
            seed: 1,
        });
        let text = render_fig5(&fig5);
        assert!(text.contains("root"));
        assert!(text.contains("attic"));
        assert!(text.contains("TOTAL"));

        // The JSON rendering parses with our own parser and carries one
        // telemetry snapshot per monitor per design.
        let json = render_fig5_json(&fig5);
        let value = ganglia_core::telemetry::json::parse(&json).unwrap();
        assert_eq!(value.get("figure").and_then(|v| v.as_str()), Some("fig5"));
        let ganglia_core::telemetry::json::JsonValue::Array(telemetry) =
            value.get("telemetry").unwrap()
        else {
            panic!("telemetry must be an array");
        };
        assert_eq!(telemetry.len(), 6);
        let fetch_count = telemetry[0]
            .get("n_level")
            .and_then(|s| s.get("histograms"))
            .and_then(|h| h.get("fetch_us"))
            .and_then(|h| h.get("count"))
            .and_then(|c| c.as_u64());
        assert!(fetch_count.unwrap_or(0) > 0, "{json}");

        let fig6 = run_fig6(&Fig6Params {
            cluster_sizes: vec![5, 10],
            warmup_rounds: 1,
            measured_rounds: 1,
            seed: 1,
        });
        let text = render_fig6(&fig6);
        assert!(text.contains("slope"));

        let table1 = run_table1(&Table1Params {
            hosts_per_cluster: 5,
            samples: 1,
            viewer_target: "sdsc".into(),
            seed: 1,
        });
        let text = render_table1(&table1);
        assert!(text.contains("Speedup"));
        assert!(text.contains("Meta"));
    }

    #[test]
    fn serving_renderers_produce_table_and_json() {
        use ganglia_sim::experiments::{run_serving, ServingParams};
        let result = run_serving(ServingParams {
            clusters: 1,
            hosts_per_cluster: 8,
            clients: 4,
            requests_per_client: 5,
        });
        let isolation = ganglia_sim::experiments::IsolationResult {
            baseline_p99_us: 100,
            contended_p99_us: 200,
            stalled_clients: 2,
            evictions: 3,
        };
        let text = render_serving(&result, &isolation);
        assert!(text.contains("cache speedup"));
        assert!(text.contains("render-per-request"));
        let json = render_serving_json(&result, &isolation);
        let value = ganglia_core::telemetry::json::parse(&json).unwrap();
        assert_eq!(
            value.get("experiment").and_then(|v| v.as_str()),
            Some("serving")
        );
        assert_eq!(
            value
                .get("isolation")
                .and_then(|i| i.get("stalled_clients"))
                .and_then(|v| v.as_u64()),
            Some(2)
        );
        assert!(value.get("speedup").is_some());
    }

    #[test]
    fn freshness_renderers_produce_table_and_json() {
        use ganglia_sim::experiments::{run_propagation_lag, PropagationParams};
        let result = run_propagation_lag(&PropagationParams {
            levels: vec![2],
            poll_intervals: vec![15],
            hosts: 4,
            steady_rounds: 2,
            seed: 3,
        });
        let text = render_freshness(&result);
        assert!(text.contains("parents-first"));
        assert!(text.contains("children-first"));
        assert!(text.contains("all within bound: true"));
        assert!(!text.contains("EXCEEDED"));
        let json = render_freshness_json(&result);
        let value = ganglia_core::telemetry::json::parse(&json).unwrap();
        assert_eq!(
            value.get("experiment").and_then(|v| v.as_str()),
            Some("freshness")
        );
        let ganglia_core::telemetry::json::JsonValue::Array(rows) = value.get("rows").unwrap()
        else {
            panic!("rows must be an array");
        };
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].get("levels").and_then(|v| v.as_u64()), Some(2));
        assert!(value.get("all_within_bound").is_some(), "{json}");
    }

    #[test]
    fn ingest_renderers_produce_table_and_json() {
        use ganglia_sim::experiments::{run_ingest_churn, IngestParams};
        let result = run_ingest_churn(
            &IngestParams {
                hosts: 8,
                metrics_per_host: 3,
                rounds: 4,
            },
            &[0.0, 1.0],
        );
        let allocs = [
            IngestAllocReport {
                churn: 0.0,
                baseline_allocs_per_round: 1000,
                delta_allocs_per_round: 20,
            },
            IngestAllocReport {
                churn: 1.0,
                baseline_allocs_per_round: 1000,
                delta_allocs_per_round: 990,
            },
        ];
        let text = render_ingest(&result, &allocs);
        assert!(text.contains("delta-aware merge"));
        assert!(text.contains("50.0x reduction"));
        assert!(text.contains("overhead -10"));
        let json = render_ingest_json(&result, &allocs);
        let value = ganglia_core::telemetry::json::parse(&json).unwrap();
        assert_eq!(
            value.get("experiment").and_then(|v| v.as_str()),
            Some("ingest")
        );
        let ganglia_core::telemetry::json::JsonValue::Array(rows) = value.get("rows").unwrap()
        else {
            panic!("rows must be an array");
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("docs_reused").and_then(|v| v.as_u64()),
            Some(3),
            "{json}"
        );
        let ganglia_core::telemetry::json::JsonValue::Array(alloc_rows) =
            value.get("allocs").unwrap()
        else {
            panic!("allocs must be an array");
        };
        assert_eq!(alloc_rows.len(), 2);
        assert!(alloc_rows[0].get("reduction").is_some());
        assert_eq!(
            alloc_rows[1].get("overhead").and_then(|v| v.as_f64()),
            Some(-10.0),
            "{json}"
        );
    }
}
