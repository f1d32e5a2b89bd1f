//! Root-visible data age across federation depths, plus two end-to-end
//! checks of the freshness instrumentation.
//!
//! Drives monitor chains of 2–4 levels under both poll orders
//! (children-first best case, parents-first worst case) and both tree
//! modes, reading root-visible age from the `freshness.*` instruments.

use ganglia_core::freshness::record_freshness;
use ganglia_core::telemetry::json::JsonValue;
use ganglia_core::telemetry::Registry;
use ganglia_core::TreeMode;
use ganglia_metrics::model::{ClusterNode, GangliaDoc, HostNode};
use ganglia_sim::experiments::{run_propagation_lag, PropagationParams, PropagationResult};
use ganglia_sim::{chain_tree, Deployment, DeploymentParams};

use crate::{Op, Params, Report, Row};

/// Drive a 2-level chain and fetch its root's trace log over the
/// simulated network: round-correlated, monotone poll events from the
/// child, one per round.
fn trace_check() -> Result<(), String> {
    let rounds = 3u64;
    let mut deployment = Deployment::build(
        chain_tree(2, 4),
        DeploymentParams {
            mode: TreeMode::NLevel,
            poll_interval: 15,
            seed: 11,
            archive: false,
            ..DeploymentParams::default()
        },
    );
    deployment.run_rounds(rounds);
    let doc = deployment
        .viewer("m0")
        .fetch_trace()
        .map_err(|e| format!("trace fetch failed: {e}"))?;
    if doc.get("source").and_then(JsonValue::as_str) != Some("gmetad:m0") {
        return Err("trace source is not gmetad:m0".into());
    }
    if doc.get("round").and_then(JsonValue::as_u64) != Some(rounds) {
        return Err(format!("trace round is not {rounds}"));
    }
    let mut polls = 0u64;
    let mut last_poll_round = 0u64;
    let mut i = 0;
    while let Some(event) = doc.get("events").and_then(|e| e.index(i)) {
        i += 1;
        let round = event
            .get("round")
            .and_then(JsonValue::as_u64)
            .ok_or("event without a round id")?;
        if round == 0 || round > rounds {
            return Err(format!("event round {round} outside 1..={rounds}"));
        }
        if event.get("path").and_then(JsonValue::as_str) == Some("round.poll") {
            polls += 1;
            if event.get("source").and_then(JsonValue::as_str) != Some("m1") {
                return Err("poll event not attributed to source m1".into());
            }
            if event.get("outcome").and_then(JsonValue::as_str) != Some("ok") {
                return Err("poll event outcome is not ok".into());
            }
            if round < last_poll_round {
                return Err("poll rounds are not monotone".into());
            }
            last_poll_round = round;
        }
    }
    if polls != rounds {
        return Err(format!("expected {rounds} poll events, saw {polls}"));
    }
    Ok(())
}

/// A report with every `REPORTED`/`LOCALTIME` absent must land in the
/// `freshness.missing_ts` counter, never in an age histogram (the old
/// default-to-zero read would have recorded ~56 years).
fn missing_ts_check() -> Result<(), String> {
    let registry = Registry::new();
    let hosts: Vec<HostNode> = (0..3)
        .map(|i| HostNode::new(format!("h{i}"), "10.0.0.1"))
        .collect();
    let doc = GangliaDoc::gmond(ClusterNode::with_hosts("bare", hosts));
    record_freshness(&registry, "bare", &doc, 1_700_000_000);
    let snap = registry.snapshot();
    // 3 host REPORTED + 1 cluster LOCALTIME, all absent.
    if snap.counter("freshness.missing_ts") != Some(4) {
        return Err(format!(
            "missing_ts counted {:?}, expected Some(4)",
            snap.counter("freshness.missing_ts")
        ));
    }
    if let Some(ages) = snap.histogram("freshness.age_s") {
        return Err(format!(
            "missing stamps recorded {} age samples (max {}s)",
            ages.count, ages.max
        ));
    }
    Ok(())
}

/// The sweep as rows. Gates: every configuration's root age within
/// `levels × interval + 1 s`; the parents-first order accumulating a
/// full interval per monitor-to-monitor hop (an all-zero sweep would
/// mean the instruments went inert, not that the tree is fresh); a
/// nonzero worst age; and the trace and missing-stamp checks.
pub fn freshness_rows(
    result: &PropagationResult,
    trace: &Result<(), String>,
    missing_ts: &Result<(), String>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for r in &result.rows {
        let mode = match r.mode {
            TreeMode::OneLevel => "1-level",
            TreeMode::NLevel => "N-level",
        };
        let order = if r.top_down {
            "parents-first"
        } else {
            "children-first"
        };
        let stage = format!("{mode} {}L {}s {order}", r.levels, r.poll_interval);
        let age = Row::new(&stage, "root_age_p99_s", r.root_age_p99_s);
        rows.push(age.clone().gate(Op::Le, r.bound_s));
        if r.top_down && r.levels >= 2 {
            rows.push(age.gate(Op::Ge, (r.levels as u64 - 1) * r.poll_interval));
        }
    }
    rows.push(Row::new("sweep", "worst_age_s", result.worst_age_s()).gate(Op::Gt, 0));
    rows.push(Row::check("trace log", "ok", trace.is_ok()));
    rows.push(Row::check("missing stamps", "ok", missing_ts.is_ok()));
    rows
}

pub fn run(p: &Params) -> Result<Report, String> {
    let params = PropagationParams {
        hosts: p.get("hosts", 8usize, 8)?.max(1),
        steady_rounds: p.get("steady_rounds", 4u64, 4)?.max(1),
        ..PropagationParams::default()
    };
    let result = run_propagation_lag(&params);
    let (trace, missing_ts) = (trace_check(), missing_ts_check());
    for e in [&trace, &missing_ts]
        .into_iter()
        .filter_map(|c| c.as_ref().err())
    {
        eprintln!("freshness check failed: {e}");
    }
    Ok(Report {
        experiment: "freshness",
        params: vec![
            ("hosts", params.hosts.to_string()),
            ("steady_rounds", params.steady_rounds.to_string()),
            ("levels", format!("{:?}", params.levels)),
            ("intervals_s", format!("{:?}", params.poll_intervals)),
        ],
        rows: freshness_rows(&result, &trace, &missing_ts),
    })
}
