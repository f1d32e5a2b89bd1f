use std::time::Duration;

use ganglia_core::telemetry::json;
use ganglia_core::telemetry::Snapshot;
use ganglia_core::TreeMode;
use ganglia_sim::experiments::federation::LevelRow;
use ganglia_sim::experiments::fig5::{Fig5Params, Fig5Row, Fig5Telemetry};
use ganglia_sim::experiments::fig6::Fig6Row;
use ganglia_sim::experiments::limits::{LimitsRow, RoundScalingResult};
use ganglia_sim::experiments::table1::{Table1Cell, View};
use ganglia_sim::experiments::{
    BandwidthResult, FederationParams, FederationResult, Fig5Result, Fig6Result, IdentityRow,
    IngestParams, IngestResult, IngestRow, IsolationResult, LatencyRow, LimitsResult,
    PropagationResult, PropagationRow, QueryResult, QueryRow, ServingParams, ServingResult,
    ServingSide, Table1Result, ThroughputRow, TrafficResult, TrafficRow,
};
use ganglia_web::ViewTiming;

use super::*;

/// Every gated row as `(experiment, stage, metric, op bar)`.
fn gates(experiment: &str, rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter_map(|row| {
            let gate = row.gate?;
            Some(format!(
                "{experiment} | {} | {} | {} {}",
                row.stage, row.metric, gate.op, gate.bar
            ))
        })
        .collect()
}

fn fig5_result() -> Fig5Result {
    let monitors = ["root", "ucsd", "sdsc", "physics", "math", "attic"];
    Fig5Result {
        rows: monitors
            .iter()
            .map(|m| Fig5Row {
                monitor: m.to_string(),
                one_level_pct: 2.0,
                n_level_pct: 1.0,
                one_level_rrd_updates: 20,
                n_level_rrd_updates: 10,
                one_level_bytes_fetched: 200,
                n_level_bytes_fetched: 100,
            })
            .collect(),
        telemetry: monitors
            .iter()
            .map(|m| Fig5Telemetry {
                monitor: m.to_string(),
                one_level: Snapshot::default(),
                n_level: Snapshot::default(),
            })
            .collect(),
        params_hosts: 10,
    }
}

fn ingest_row(churn: f64, reused: u64, rebuilt: u64, docs_reused: u64) -> IngestRow {
    IngestRow {
        churn,
        report_bytes: 181_905,
        baseline_elapsed: Duration::from_millis(30),
        delta_elapsed: Duration::from_millis(2),
        hosts_reused: reused,
        hosts_rebuilt: rebuilt,
        hosts_changed: rebuilt,
        docs_reused,
        byte_identical: true,
    }
}

fn throughput(ops_per_sec: f64) -> ThroughputRow {
    ThroughputRow {
        writers: 16,
        ops: 2304,
        elapsed_ms: 10.0,
        ops_per_sec,
        root_merge_inputs_per_merge: 1.0,
        source_touches: 0,
    }
}

fn query_row(churn: f64, delta_bytes: u64) -> QueryRow {
    QueryRow {
        churn,
        result_rows: 64,
        snapshot_bytes: 4285,
        delta_bytes,
        repoll_bytes: 157_711,
        quiet_rounds: 0,
        max_latency_rounds: 0,
        consistent: true,
    }
}

/// Every gate of every experiment, with its bar, in one table: a change
/// to any bar or pass condition shows up here as a one-line diff. The
/// results are hand-made at smoke size (ingest 64 hosts x 20 rounds,
/// serving 64 clients x 10 requests).
#[test]
fn every_gate_is_pinned() {
    let mut all = gates("fig5", &paper::fig5_rows(&fig5_result(), 0.1));
    let fig6 = Fig6Result {
        rows: vec![Fig6Row {
            cluster_size: 10,
            one_level_aggregate_pct: 2.0,
            n_level_aggregate_pct: 1.0,
            one_level_rrd_updates: 20,
            n_level_rrd_updates: 10,
            one_level_bytes_fetched: 200,
            n_level_bytes_fetched: 100,
        }],
    };
    all.extend(gates("fig6", &paper::fig6_rows(&fig6)));
    let table1 = Table1Result {
        cells: View::ALL
            .iter()
            .map(|&view| Table1Cell {
                view,
                one_level: ViewTiming::default(),
                n_level: ViewTiming::default(),
            })
            .collect(),
    };
    all.extend(gates("table1", &paper::table1_rows(&table1)));
    let limits = LimitsResult {
        hosts: 10,
        rows: vec![LimitsRow {
            metrics_per_host: 10,
            updates_per_round: 110,
            archive_time: Duration::from_micros(60),
            archive_time_p50: Duration::from_micros(60),
            archive_time_p99: Duration::from_micros(60),
        }],
    };
    let scaling = RoundScalingResult {
        sources: 8,
        per_source_delay: Duration::from_millis(100),
        sequential_round: Duration::from_millis(800),
        parallel_round: Duration::from_millis(100),
    };
    let bandwidth = BandwidthResult {
        nodes: 128,
        window_secs: 300,
        packets: 1,
        bytes: 1,
        kbps: 40.0,
    };
    let traffic = TrafficResult {
        hosts_per_cluster: 10,
        rounds: 2,
        rows: vec![TrafficRow {
            monitor: "root".into(),
            one_level_bytes: 2,
            n_level_bytes: 1,
        }],
    };
    all.extend(gates(
        "limits",
        &paper::limits_rows(&limits, &scaling, &bandwidth, &traffic),
    ));
    let side = |throughput_rps, renders, cache_hits| ServingSide {
        elapsed: Duration::from_millis(1),
        throughput_rps,
        renders,
        cache_hits,
        latency_p99_us: 1,
    };
    let serving = ServingResult {
        params: ServingParams {
            clusters: 2,
            hosts_per_cluster: 24,
            clients: 64,
            requests_per_client: 10,
        },
        dump_bytes: 204_342,
        cached: side(600_000.0, 2, 638),
        rendered: side(2_000.0, 640, 0),
    };
    let isolation = IsolationResult {
        baseline_p99_us: 2047,
        contended_p99_us: 2047,
        stalled_clients: 2,
        evictions: 0,
    };
    all.extend(gates(
        "serving",
        &serving::serving_rows(&serving, &isolation),
    ));
    let ingest = IngestResult {
        params: IngestParams {
            hosts: 64,
            metrics_per_host: 24,
            rounds: 20,
        },
        rows: vec![
            ingest_row(0.0, 1216, 64, 19),
            ingest_row(0.1, 1102, 178, 0),
            ingest_row(1.0, 0, 1280, 0),
        ],
        fig3_identical: true,
    };
    let allocs = [0.0, 1.0].map(|churn| ingest::Allocs {
        churn,
        baseline_per_round: 466,
        delta_per_round: 6,
    });
    all.extend(gates("ingest", &ingest::ingest_rows(&ingest, &allocs)));
    let side = |files_written| archive::Side {
        elapsed: Duration::from_millis(100),
        updates: 8000,
        files_written,
    };
    let crash = archive::CrashSweep {
        seeds: 10,
        consistent: 10,
        torn_tails: 1,
        replayed: 617,
    };
    all.extend(gates(
        "archive",
        &archive::archive_rows(&side(8000), &side(1600), &crash),
    ));
    let propagation = PropagationResult {
        rows: [(false, 0), (true, 15)]
            .into_iter()
            .map(|(top_down, root_age_p99_s)| PropagationRow {
                mode: TreeMode::NLevel,
                levels: 3,
                poll_interval: 15,
                top_down,
                root_age_p99_s,
                bound_s: 46,
            })
            .collect(),
    };
    all.extend(gates(
        "freshness",
        &freshness::freshness_rows(&propagation, &Ok(()), &Ok(())),
    ));
    let query = QueryResult {
        params_hosts: 64,
        params_rounds: 20,
        expr: "metric == metric_00".into(),
        rows: vec![
            query_row(0.0, 0),
            query_row(0.1, 7838),
            query_row(1.0, 81_348),
        ],
    };
    all.extend(gates("query", &query::query_rows(&query)));
    let federation = FederationResult {
        params: FederationParams::default(),
        baseline: throughput(2_700.0),
        throughput: throughput(85_000.0),
        replace_only_baseline: throughput(346_000.0),
        replace_only: throughput(104_000.0),
        latency: [(384, 1.5), (1536, 1.4)]
            .into_iter()
            .map(|(sources, root_latency_us)| LatencyRow {
                sources,
                hosts: sources * 256,
                root_latency_us,
            })
            .collect(),
        levels: vec![LevelRow {
            level: 0,
            label: "root gmetad",
            nodes: 1,
            merges: 8,
            cpu_ms: 0.01,
        }],
        identity: [1, 10, 100]
            .into_iter()
            .map(|churn_percent| IdentityRow {
                churn_percent,
                identical: true,
                response_bytes: 1_014_149,
            })
            .collect(),
    };
    all.extend(gates(
        "federation",
        &federation::federation_rows(&federation),
    ));
    let pair = |design, alternative| ablations::Pair {
        design,
        alternative,
    };
    let ablation = ablations::AblationResult {
        ingest_ns: pair(1.0, 50.0),
        parsed_bytes: pair(16_386.0, 850_324.0),
        lookup_ns: pair(1.0, 50.0),
        lookup_probes: pair(1.0, 500.0),
        query_ns: pair(1.0, 500.0),
        query_allocs: pair(160.0, 2621.0),
        archive_round_ns: pair(1.0, 500.0),
        archive_round_updates: pair(29.0, 5945.0),
    };
    all.extend(gates("ablations", &ablations::ablation_rows(&ablation)));

    let mut expected = Vec::new();
    for m in ["root", "ucsd", "sdsc", "physics", "math", "attic"] {
        for design in ["1-level", "N-level"] {
            for hist in ["fetch_us", "parse_us"] {
                expected.push(format!("fig5 | {m} {design} | {hist}.count | > 0"));
            }
        }
    }
    expected.extend(
        [
            "fig5 | all monitors | monitors | == 6",
            "fig5 | all monitors | telemetry_overhead_pct | < 5",
            "serving | full dump | speedup_x | >= 5",
            "serving | full dump | cache_hits | >= 320",
            "serving | stalled peers | good_client_p99_us | < 2000000",
            "ingest | churn 0% | speedup_x | >= 3",
            "ingest | churn 0% | hosts_rebuilt | == 64",
            "ingest | churn 0% | host_rounds | == 1280",
            "ingest | churn 0% | docs_reused | == 19",
            "ingest | churn 0% | byte_identical | == 1",
            "ingest | churn 0% | hosts_rebuilt | == 64",
            "ingest | churn 10% | hosts_rebuilt | == 178",
            "ingest | churn 10% | host_rounds | == 1280",
            "ingest | churn 10% | byte_identical | == 1",
            "ingest | churn 100% | speedup_x | >= 1",
            "ingest | churn 100% | hosts_rebuilt | == 1280",
            "ingest | churn 100% | host_rounds | == 1280",
            "ingest | churn 100% | byte_identical | == 1",
            "ingest | fig3 grid | byte_identical | == 1",
            "ingest | churn 0% | alloc_reduction_x | >= 10",
            "ingest | churn 100% | alloc_overhead_per_round | <= 192",
            "archive | durable rounds | speedup_x | >= 3",
            "archive | crash sweep | bit_exact_recoveries | == 10",
            "archive | crash sweep | torn_tails | > 0",
            "archive | crash sweep | records_replayed | > 0",
            "freshness | N-level 3L 15s children-first | root_age_p99_s | <= 46",
            "freshness | N-level 3L 15s parents-first | root_age_p99_s | <= 46",
            "freshness | N-level 3L 15s parents-first | root_age_p99_s | >= 30",
            "freshness | sweep | worst_age_s | > 0",
            "freshness | trace log | ok | == 1",
            "freshness | missing stamps | ok | == 1",
            "query | churn 0% | delta_bytes | == 0",
            "query | churn 0% | max_push_lag_rounds | <= 1",
            "query | churn 0% | consistent | == 1",
            "query | churn 10% | delta_ratio | <= 0.1",
            "query | churn 10% | max_push_lag_rounds | <= 1",
            "query | churn 10% | consistent | == 1",
            "query | churn 100% | max_push_lag_rounds | <= 1",
            "query | churn 100% | consistent | == 1",
            "federation | replace+refresh | speedup_x | >= 4",
            "federation | replace+refresh | source_touches | == 0",
            "federation | replace+refresh | root_merge_inputs_per_merge | == 1",
            "federation | root 1536 sources | root_latency_us | <= 50",
            "federation | identity churn 1% | identical | == 1",
            "federation | identity churn 10% | identical | == 1",
            "federation | identity churn 100% | identical | == 1",
            "ablations | summary vs union | union_over_summary_x | > 4",
        ]
        .map(String::from),
    );
    assert_eq!(all, expected);
}

#[test]
fn a_failed_gate_is_named_marked_and_fails_the_run() {
    let report = Report {
        experiment: "demo",
        params: vec![("hosts", "4".into())],
        rows: vec![
            Row::new("cache", "speedup_x", 7.5).gate(Op::Ge, 5.0),
            Row::new("churn 100%", "speedup_x", 0.9)
                .vs(1.0)
                .gate(Op::Ge, 1.0),
            Row::new("churn 100%", "hosts_reused", 0),
        ],
    };
    assert_eq!(
        failures(std::slice::from_ref(&report)),
        ["demo/churn 100%/speedup_x: 0.9 fails >= 1"]
    );
    let text = render(&report);
    assert!(text.contains(">= 1 FAILED"), "{text}");
    assert!(text.contains(">= 5 ok"), "{text}");

    let rendered = to_json(&report);
    let value = json::parse(&rendered).expect("report JSON parses");
    let rows = value.get("rows").expect("rows");
    let gate_ok = |i| {
        rows.index(i)
            .and_then(|r| r.get("gate"))
            .and_then(|g| g.get("ok"))
    };
    assert_eq!(gate_ok(0), Some(&json::JsonValue::Bool(true)));
    assert_eq!(gate_ok(1), Some(&json::JsonValue::Bool(false)));
    assert_eq!(
        rows.index(2).and_then(|r| r.get("gate")),
        Some(&json::JsonValue::Null)
    );
    assert_eq!(
        value
            .get("params")
            .and_then(|p| p.get("hosts"))
            .and_then(|h| h.as_str()),
        Some("4")
    );
}

/// A small real figure 5 covers the six figure-2 monitors, and every
/// monitor fetched and parsed under both designs.
#[test]
fn fig5_covers_six_monitors_with_populated_histograms() {
    let result = ganglia_sim::experiments::run_fig5(&Fig5Params {
        hosts_per_cluster: 5,
        warmup_rounds: 1,
        measured_rounds: 1,
        seed: 1,
    });
    let rows = paper::fig5_rows(&result, 0.0);
    let histogram_gates = rows
        .iter()
        .filter(|r| r.metric.ends_with("_us.count") && r.gate.is_some());
    assert_eq!(histogram_gates.clone().count(), 6 * 2 * 2);
    assert!(histogram_gates.clone().all(|r| !r.failed()), "{rows:?}");
    let report = Report {
        experiment: "fig5",
        params: Vec::new(),
        rows,
    };
    assert!(failures(&[report]).is_empty());
}
