//! Continuous-query subscriptions: pushed delta frames against a client
//! re-polling the same GQL query every round, across churn levels.

use ganglia_sim::experiments::{run_query_churn, QueryParams, QueryResult};

use crate::{Op, Params, Report, Row};

/// The sweep as rows, pushed deltas against re-polling. Gates: every
/// churn level stays delta-consistent (the replayed mirror renders
/// byte-identically to a fresh evaluation after every round), no frame
/// is pushed more than one poll round late, a quiet store pushes
/// nothing, and at 10% churn the deltas are at most 10% of the re-poll
/// bytes.
pub fn query_rows(result: &QueryResult) -> Vec<Row> {
    let mut rows = Vec::new();
    for (i, r) in result.rows.iter().enumerate() {
        let stage = format!("churn {:.0}%", r.churn * 100.0);
        let delta_bytes = Row::new(&stage, "delta_bytes", r.delta_bytes).vs(r.repoll_bytes);
        let ratio = Row::new(&stage, "delta_ratio", r.delta_fraction());
        rows.extend([
            Row::new(&stage, "result_rows", r.result_rows),
            Row::new(&stage, "snapshot_bytes", r.snapshot_bytes),
            if i == 0 {
                delta_bytes.gate(Op::Eq, 0)
            } else {
                delta_bytes
            },
            if (r.churn - 0.1).abs() < 1e-9 {
                ratio.gate(Op::Le, 0.10)
            } else {
                ratio
            },
            Row::new(&stage, "quiet_rounds", r.quiet_rounds),
            Row::new(&stage, "max_push_lag_rounds", r.max_latency_rounds).gate(Op::Le, 1),
            Row::check(&stage, "consistent", r.consistent),
        ]);
    }
    rows
}

pub fn run(p: &Params) -> Result<Report, String> {
    let params = QueryParams {
        hosts: p.get("hosts", 128, 64)?.max(1),
        rounds: p.get("rounds", 40, 20)?.max(2),
        ..QueryParams::default()
    };
    let result = run_query_churn(&params, &[0.0, 0.1, 1.0]);
    Ok(Report {
        experiment: "query",
        params: vec![
            ("hosts", params.hosts.to_string()),
            ("rounds", params.rounds.to_string()),
            ("expr", params.expr.clone()),
        ],
        rows: query_rows(&result),
    })
}
