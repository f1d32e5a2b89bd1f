//! The allocation-lean ingest path: rebuild-every-round parse+summarize
//! against the delta-aware [`Ingester`](ganglia_metrics::Ingester)
//! across churn levels, timed and with counted allocations.
//!
//! Byte identity cannot see a cache that misses every round, so reuse
//! is gated exactly too: at every churn level the delta path rebuilds
//! exactly the cold round's hosts plus each warm round's hosts whose
//! bytes changed (counted from the corpus) and reuses every other one.
//! The worst case is gated as well: at 100% churn the fingerprint cache
//! never hits, and the delta path must still match the plain parser's
//! speed and add at most a constant number of allocations per round.

use ganglia_sim::experiments::{
    baseline_pass, churn_corpus, run_ingest_churn, IngestParams, IngestResult,
};

use crate::{count_allocs, Op, Params, Report, Row};

/// Allocations per *warm* round at one churn level (the cold parse
/// round is excluded on both sides).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocs {
    pub churn: f64,
    pub baseline_per_round: u64,
    pub delta_per_round: u64,
}

/// Allocation overhead the delta path may add over the baseline at
/// 100% churn, per round — a constant, deliberately independent of
/// host count: cache bookkeeping costs a handful of allocations per
/// round, never per host.
pub const FULL_CHURN_ALLOC_SLACK: f64 = 192.0;

/// Count allocations of `rounds - 1` warm rounds on both paths.
fn measure_allocs(params: &IngestParams, churn: f64) -> Allocs {
    let corpus = churn_corpus(params, churn, 0x5eed_0001);
    let warm_rounds = (corpus.len() - 1) as u64;
    // The baseline keeps no cross-round state; warm rounds cost the
    // same as the cold one.
    let (_, baseline) = count_allocs(|| baseline_pass(&corpus[1..]));
    // The delta side must carry its ingester across the cold round.
    let mut ingester = ganglia_metrics::Ingester::new();
    ingester.ingest(&corpus[0]).expect("corpus parses");
    let (_, delta) = count_allocs(|| {
        for xml in &corpus[1..] {
            ingester.ingest(xml).expect("corpus parses");
        }
    });
    Allocs {
        churn,
        baseline_per_round: baseline / warm_rounds,
        delta_per_round: delta / warm_rounds,
    }
}

fn stage(churn: f64) -> String {
    format!("churn {:.0}%", churn * 100.0)
}

/// The churn sweep as rows, delta path against rebuild-every-round.
pub fn ingest_rows(result: &IngestResult, allocs: &[Allocs]) -> Vec<Row> {
    let p = &result.params;
    let host_rounds = p.hosts * p.rounds;
    let mut rows = Vec::new();
    for (i, r) in result.rows.iter().enumerate() {
        let stage = stage(r.churn);
        let speedup = Row::new(&stage, "speedup_x", r.speedup());
        let docs_reused = Row::new(&stage, "docs_reused", r.docs_reused);
        rows.extend([
            Row::new(&stage, "report_bytes", r.report_bytes),
            Row::new(
                &stage,
                "parse_merge_us",
                r.delta_elapsed.as_secs_f64() * 1e6,
            )
            .vs(r.baseline_elapsed.as_secs_f64() * 1e6),
            match (i, r.churn >= 1.0) {
                (0, _) => speedup.gate(Op::Ge, 3),
                (_, true) => speedup.gate(Op::Ge, 1),
                _ => speedup,
            },
            Row::new(&stage, "hosts_reused", r.hosts_reused),
            Row::new(&stage, "hosts_rebuilt", r.hosts_rebuilt)
                .vs(host_rounds)
                .gate(Op::Eq, r.hosts_changed),
            Row::new(&stage, "host_rounds", r.hosts_reused + r.hosts_rebuilt)
                .gate(Op::Eq, host_rounds),
            match i {
                0 => docs_reused.gate(Op::Eq, p.rounds - 1),
                _ => docs_reused,
            },
            Row::check(&stage, "byte_identical", r.byte_identical),
        ]);
        if i == 0 {
            // An unchanged round reuses every host the cold round built.
            rows.push(Row::new(&stage, "hosts_rebuilt", r.hosts_rebuilt).gate(Op::Eq, p.hosts));
        }
    }
    rows.push(Row::check(
        "fig3 grid",
        "byte_identical",
        result.fig3_identical,
    ));
    for a in allocs {
        let stage = stage(a.churn);
        let reduction = a.baseline_per_round as f64 / a.delta_per_round.max(1) as f64;
        let reduction = Row::new(&stage, "alloc_reduction_x", reduction);
        let overhead = a.delta_per_round as f64 - a.baseline_per_round as f64;
        let overhead = Row::new(&stage, "alloc_overhead_per_round", overhead);
        rows.extend([
            Row::new(&stage, "allocs_per_round", a.delta_per_round).vs(a.baseline_per_round),
            if a.churn == 0.0 {
                reduction.gate(Op::Ge, 10)
            } else {
                reduction
            },
            if a.churn >= 1.0 {
                overhead.gate(Op::Le, FULL_CHURN_ALLOC_SLACK)
            } else {
                overhead
            },
        ]);
    }
    rows
}

pub fn run(p: &Params) -> Result<Report, String> {
    let params = IngestParams {
        hosts: p.get("hosts", 128, 64)?.max(1),
        metrics_per_host: 24,
        rounds: p.get("rounds", 40, 20)?.max(2),
    };
    let result = run_ingest_churn(&params, &[0.0, 0.1, 1.0]);
    let allocs = [measure_allocs(&params, 0.0), measure_allocs(&params, 1.0)];
    Ok(Report {
        experiment: "ingest",
        params: vec![
            ("hosts", params.hosts.to_string()),
            ("rounds", params.rounds.to_string()),
            ("metrics_per_host", params.metrics_per_host.to_string()),
        ],
        rows: ingest_rows(&result, &allocs),
    })
}
