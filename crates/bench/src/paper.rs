//! The paper's own evaluation: figure 5 (per-monitor load), figure 6
//! (aggregate load vs cluster size), table 1 (viewer times) and the
//! §3.1/§3.2/§5 limit measurements. Every comparison reads N-level
//! against the 1-level design as its baseline.

use std::time::{Duration, Instant};

use ganglia_core::telemetry::{Histogram, Registry};
use ganglia_core::WorkCategory;
use ganglia_sim::experiments::bandwidth::run_bandwidth;
use ganglia_sim::experiments::fig5::{Fig5Params, Fig5Result, Fig5Row};
use ganglia_sim::experiments::fig6::{Fig6Params, Fig6Result};
use ganglia_sim::experiments::limits::{self, run_round_scaling, RoundScalingResult};
use ganglia_sim::experiments::table1::{Table1Params, Table1Result, View};
use ganglia_sim::experiments::traffic::run_traffic;
use ganglia_sim::experiments::{BandwidthResult, LimitsResult, TrafficResult};

use crate::{Op, Params, Report, Row};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Estimate the wall-clock cost the telemetry layer added to a run:
/// microbenchmark one histogram record plus one counter add, then
/// multiply by the number of samples actually recorded.
fn estimated_telemetry_overhead(total_samples: u64) -> Duration {
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

/// Figure 5 as rows. Per monitor: CPU% and counted work, N-level
/// against 1-level. Per monitor and design: the busy-time counter and
/// count/p50/p99 of the latency histogram of each work category; fetch
/// and parse must have recorded something. The run must cover the six
/// figure-2 monitors and instrumentation must cost under 5% of it.
pub fn fig5_rows(result: &Fig5Result, telemetry_overhead_pct: f64) -> Vec<Row> {
    let mut rows = Vec::new();
    for (row, t) in result.rows.iter().zip(&result.telemetry) {
        let m = &row.monitor;
        rows.push(Row::new(m, "cpu_pct", row.n_level_pct).vs(row.one_level_pct));
        rows.push(
            Row::new(m, "rrd_updates", row.n_level_rrd_updates).vs(row.one_level_rrd_updates),
        );
        rows.push(
            Row::new(m, "fetched_bytes", row.n_level_bytes_fetched).vs(row.one_level_bytes_fetched),
        );
        for (design, snap) in [("1-level", &t.one_level), ("N-level", &t.n_level)] {
            let stage = format!("{m} {design}");
            for category in WorkCategory::ALL {
                let busy = snap.counter(category.counter_name()).unwrap_or(0);
                rows.push(Row::new(&stage, category.counter_name(), busy));
                let hist = category.histogram_name();
                let (count, p50, p99) = snap
                    .histogram(hist)
                    .map_or((0, 0, 0), |h| (h.count, h.quantile(0.5), h.quantile(0.99)));
                let count = Row::new(&stage, format!("{hist}.count"), count);
                rows.push(match category {
                    WorkCategory::Fetch | WorkCategory::Parse => count.gate(Op::Gt, 0),
                    _ => count,
                });
                rows.push(Row::new(&stage, format!("{hist}.p50"), p50));
                rows.push(Row::new(&stage, format!("{hist}.p99"), p99));
            }
        }
    }
    let (one, n) = result.aggregates();
    let sum = |f: fn(&Fig5Row) -> u64| result.rows.iter().map(f).sum::<u64>();
    rows.extend([
        Row::new("all monitors", "cpu_pct", n).vs(one),
        Row::new(
            "all monitors",
            "rrd_updates",
            sum(|r| r.n_level_rrd_updates),
        )
        .vs(sum(|r| r.one_level_rrd_updates)),
        Row::new(
            "all monitors",
            "fetched_bytes",
            sum(|r| r.n_level_bytes_fetched),
        )
        .vs(sum(|r| r.one_level_bytes_fetched)),
        Row::new("all monitors", "monitors", result.telemetry.len()).gate(Op::Eq, 6),
        Row::new(
            "all monitors",
            "telemetry_overhead_pct",
            telemetry_overhead_pct,
        )
        .gate(Op::Lt, 5),
    ]);
    rows
}

pub fn run_fig5(p: &Params) -> Result<Report, String> {
    let params = Fig5Params {
        hosts_per_cluster: p.get("hosts", 100, 10)?,
        warmup_rounds: if p.smoke { 1 } else { 2 },
        measured_rounds: p.get("rounds", 8, 4)?,
        seed: 42,
    };
    let start = Instant::now();
    let result = ganglia_sim::experiments::run_fig5(&params);
    let wall = start.elapsed();
    let samples: u64 = result
        .telemetry
        .iter()
        .map(|t| t.one_level.total_samples() + t.n_level.total_samples())
        .sum();
    let overhead = estimated_telemetry_overhead(samples);
    Ok(Report {
        experiment: "fig5",
        params: vec![
            ("hosts", params.hosts_per_cluster.to_string()),
            ("rounds", params.measured_rounds.to_string()),
            ("warmup", params.warmup_rounds.to_string()),
            ("seed", params.seed.to_string()),
        ],
        rows: fig5_rows(&result, 100.0 * overhead.as_secs_f64() / wall.as_secs_f64()),
    })
}

/// Figure 6 as rows: aggregate CPU% and counted work per cluster size,
/// N-level against 1-level, and the least-squares CPU slope.
pub fn fig6_rows(result: &Fig6Result) -> Vec<Row> {
    let mut rows = Vec::new();
    for r in &result.rows {
        let stage = format!("{} hosts", r.cluster_size);
        rows.push(
            Row::new(&stage, "cpu_pct", r.n_level_aggregate_pct).vs(r.one_level_aggregate_pct),
        );
        rows.push(
            Row::new(&stage, "rrd_updates", r.n_level_rrd_updates).vs(r.one_level_rrd_updates),
        );
        rows.push(
            Row::new(&stage, "fetched_bytes", r.n_level_bytes_fetched)
                .vs(r.one_level_bytes_fetched),
        );
    }
    let (one, n) = result.slopes();
    rows.push(Row::new("slope", "cpu_pct_per_host", n).vs(one));
    rows
}

pub fn run_fig6(p: &Params) -> Result<Report, String> {
    let raw: String = p.get(
        "sizes",
        "10,50,100,150,200,300,400,500".into(),
        "10,50,100".into(),
    )?;
    let sizes = raw
        .split(',')
        .map(|s| s.trim().parse())
        .collect::<Result<Vec<usize>, _>>()
        .map_err(|_| format!("bad value for sizes: {raw:?}"))?;
    let params = Fig6Params {
        cluster_sizes: sizes,
        warmup_rounds: 1,
        measured_rounds: p.get("rounds", 4, 2)?,
        seed: 42,
    };
    let result = ganglia_sim::experiments::run_fig6(&params);
    Ok(Report {
        experiment: "fig6",
        params: vec![
            ("sizes", raw),
            ("rounds", params.measured_rounds.to_string()),
            ("seed", params.seed.to_string()),
        ],
        rows: fig6_rows(&result),
    })
}

/// Table 1 as rows: per view, download+parse time and XML bytes,
/// N-level against 1-level, and the speedup row.
pub fn table1_rows(result: &Table1Result) -> Vec<Row> {
    View::ALL
        .iter()
        .flat_map(|&view| {
            let cell = result.view(view);
            let stage = view.label().to_lowercase();
            [
                Row::new(
                    &stage,
                    "download_parse_us",
                    us(cell.n_level.download_and_parse()),
                )
                .vs(us(cell.one_level.download_and_parse())),
                Row::new(&stage, "speedup_x", cell.speedup()),
                Row::new(&stage, "xml_bytes", cell.n_level.xml_bytes).vs(cell.one_level.xml_bytes),
            ]
        })
        .collect()
}

pub fn run_table1(p: &Params) -> Result<Report, String> {
    let params = Table1Params {
        hosts_per_cluster: p.get("hosts", 100, 40)?,
        samples: p.get("samples", 5, 3)?,
        viewer_target: "sdsc".to_string(),
        seed: 42,
    };
    let result = ganglia_sim::experiments::run_table1(&params);
    Ok(Report {
        experiment: "table1",
        params: vec![
            ("hosts", params.hosts_per_cluster.to_string()),
            ("samples", params.samples.to_string()),
            ("viewer", params.viewer_target.clone()),
            ("seed", params.seed.to_string()),
        ],
        rows: table1_rows(&result),
    })
}

/// The limit measurements as rows: §5 archiving cost per metric count,
/// sequential vs parallel poll rounds, §3.1 gmond bandwidth and §3.2
/// upstream bytes per monitor (N-level against 1-level).
pub fn limits_rows(
    limits: &LimitsResult,
    scaling: &RoundScalingResult,
    bandwidth: &BandwidthResult,
    traffic: &TrafficResult,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for r in &limits.rows {
        let stage = format!("{} metrics/host", r.metrics_per_host);
        rows.extend([
            Row::new(&stage, "rrd_updates_per_round", r.updates_per_round),
            Row::new(&stage, "archive_mean_us", us(r.archive_time)),
            Row::new(&stage, "archive_p50_us", us(r.archive_time_p50)),
            Row::new(&stage, "archive_p99_us", us(r.archive_time_p99)),
        ]);
    }
    rows.push(Row::new(
        "archive sweep",
        "updates_linear",
        u8::from(limits.updates_scale_linearly()),
    ));
    let stage = format!("poll round {} sources", scaling.sources);
    rows.push(
        Row::new(&stage, "round_us", us(scaling.parallel_round)).vs(us(scaling.sequential_round)),
    );
    rows.push(Row::new(&stage, "speedup_x", scaling.speedup()));
    let stage = format!("gmond {} nodes", bandwidth.nodes);
    rows.extend([
        Row::new(&stage, "multicast_kbps", bandwidth.kbps),
        Row::new(&stage, "packets", bandwidth.packets),
        Row::new(&stage, "multicast_bytes", bandwidth.bytes),
    ]);
    for r in &traffic.rows {
        rows.push(Row::new(&r.monitor, "upstream_bytes", r.n_level_bytes).vs(r.one_level_bytes));
    }
    rows
}

pub fn run_limits(p: &Params) -> Result<Report, String> {
    let hosts = p.get("hosts", 50, 10)?;
    let rounds = p.get("rounds", 4, 2)?;
    let (sources, delay) = (8, Duration::from_millis(100));
    let (nodes, window_secs) = (128, 300);
    let limits = limits::run_limits(hosts, &[10, 20, 40, 80, 160], rounds);
    let scaling = run_round_scaling(sources, delay);
    let bandwidth = run_bandwidth(nodes, window_secs, 42);
    let traffic = run_traffic(hosts, rounds, 42);
    Ok(Report {
        experiment: "limits",
        params: vec![
            ("hosts", hosts.to_string()),
            ("rounds", rounds.to_string()),
            ("wire_delay_ms", delay.as_millis().to_string()),
            ("gmond_window_s", window_secs.to_string()),
        ],
        rows: limits_rows(&limits, &scaling, &bandwidth, &traffic),
    })
}
