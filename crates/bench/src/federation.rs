//! Federation scale: the incremental single-lock store against the
//! seed's full-re-merge store at ~100k synthetic hosts.

use ganglia_sim::experiments::{run_federation_scale, FederationParams, FederationResult};

use crate::{Op, Params, Report, Row};

/// Latency at the largest source scale may be at most this multiple of
/// the smallest scale's (which spans 4x the sources under default
/// params — linear scaling would read 4.0).
const SUBLINEAR_GATE: f64 = 2.5;

/// Floor applied to the small-scale latency before the ratio check, so
/// two effectively-constant microsecond readings can't fail on timer
/// noise.
const LATENCY_FLOOR_US: f64 = 20.0;

/// The run as rows, the store against the seed-store replica. Gates:
/// ≥4x replace+refresh throughput at 16 writers (the win is
/// algorithmic — one summary copy against O(sources) merges per
/// refresh — so it holds on a single core); exactly one summary read
/// per uncached root merge and zero per-source summaries touched;
/// byte-identical `/?filter=summary` against the rebuild-every-mutation
/// path at every churn level; root latency sublinear in source count.
/// Replace-only throughput is reported, not gated: the store pays a
/// summary delta per replace.
pub fn federation_rows(result: &FederationResult) -> Vec<Row> {
    let mut rows = Vec::new();
    for (stage, row, seed) in [
        ("replace+refresh", &result.throughput, &result.baseline),
        (
            "replace-only",
            &result.replace_only,
            &result.replace_only_baseline,
        ),
    ] {
        let refresh = stage == "replace+refresh";
        let speedup = Row::new(stage, "speedup_x", row.speedup_over(seed));
        let touches = Row::new(stage, "source_touches", row.source_touches);
        rows.extend([
            Row::new(stage, "ops", row.ops).vs(seed.ops),
            Row::new(stage, "ops_per_s", row.ops_per_sec).vs(seed.ops_per_sec),
            if refresh {
                speedup.gate(Op::Ge, 4)
            } else {
                speedup
            },
            if refresh {
                touches.gate(Op::Eq, 0)
            } else {
                touches
            },
        ]);
    }
    rows.push(
        Row::new(
            "replace+refresh",
            "root_merge_inputs_per_merge",
            result.throughput.root_merge_inputs_per_merge,
        )
        .gate(Op::Eq, 1),
    );
    let budget = result
        .latency
        .first()
        .map(|small| SUBLINEAR_GATE * small.root_latency_us.max(LATENCY_FLOOR_US));
    for (i, r) in result.latency.iter().enumerate() {
        let stage = format!("root {} sources", r.sources);
        rows.push(Row::new(&stage, "hosts", r.hosts));
        let latency = Row::new(&stage, "root_latency_us", r.root_latency_us);
        rows.push(match budget {
            Some(bar) if i + 1 == result.latency.len() => latency.gate(Op::Le, bar),
            _ => latency,
        });
    }
    for r in &result.levels {
        let stage = format!("level {}", r.label);
        rows.extend([
            Row::new(&stage, "nodes", r.nodes),
            Row::new(&stage, "merges", r.merges),
            Row::new(&stage, "cpu_ms", r.cpu_ms),
        ]);
    }
    for r in &result.identity {
        let stage = format!("identity churn {}%", r.churn_percent);
        rows.push(Row::new(&stage, "response_bytes", r.response_bytes));
        rows.push(Row::check(&stage, "identical", r.identical));
    }
    rows
}

pub fn run(p: &Params) -> Result<Report, String> {
    let params = FederationParams {
        grids: p.get("grids", 384, 384)?.max(4),
        rounds: p.get("rounds", 6, 6)?.max(1),
        ..FederationParams::default()
    };
    let result = run_federation_scale(&params);
    Ok(Report {
        experiment: "federation",
        params: vec![
            ("grids", params.grids.to_string()),
            ("rounds", params.rounds.to_string()),
            ("hosts_per_grid", params.hosts_per_grid.to_string()),
            ("hosts_total", params.hosts_total().to_string()),
            ("metrics_per_host", params.metrics_per_host.to_string()),
            ("writers", params.writers.to_string()),
        ],
        rows: federation_rows(&result),
    })
}
