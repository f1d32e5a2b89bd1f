//! Reproduce the federation-scale run: the incremental single-lock
//! store vs the seed's full-re-merge store at ~100k synthetic hosts.
//!
//! Usage: `repro_federation [grids] [rounds] [--smoke] [--json <path>]`
//!
//! Runs [`run_federation_scale`] and prints the write-throughput
//! (replace+refresh and replace-only), latency, per-level CPU, and
//! byte-identity tables. `--smoke` self-checks the acceptance bars:
//!
//! 1. the store sustains ≥4x the seed store's replace+root-refresh
//!    throughput at 16 writers (the win is algorithmic — one summary
//!    copy vs O(sources) merges per refresh — so it holds on a single
//!    core);
//! 2. every uncached root merge read exactly one summary and zero
//!    per-source summaries (the witness from the store's own counters);
//! 3. the incremental store renders byte-identical `/?filter=summary`
//!    XML to the rebuild-every-mutation store at every churn level;
//! 4. uncached root latency is sublinear in source count: 4x the
//!    sources must cost at most 2.5x the latency (linear would be 4x);
//! 5. the JSON artifact parses with our own parser.
//!
//! The replace-only rows are reported, not gated.

use std::process::ExitCode;

use ganglia_bench::{render_federation, render_federation_json};
use ganglia_core::telemetry::json;
use ganglia_sim::experiments::{run_federation_scale, FederationParams};

/// Minimum replace+refresh speedup over the seed baseline.
const SPEEDUP_GATE: f64 = 4.0;

/// Latency at the largest source scale may be at most this multiple of
/// the smallest scale's (which spans 4x the sources under default
/// params — linear scaling would read 4.0).
const SUBLINEAR_GATE: f64 = 2.5;

/// Floor applied to the small-scale latency before the ratio check, so
/// two effectively-constant microsecond readings can't fail on timer
/// noise.
const LATENCY_FLOOR_US: f64 = 20.0;

fn main() -> ExitCode {
    let mut grids = None;
    let mut rounds = None;
    let mut smoke = false;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("repro_federation: --json needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                let Ok(n) = other.parse::<u64>() else {
                    eprintln!("repro_federation: unknown argument {other:?}");
                    return ExitCode::from(2);
                };
                if grids.is_none() {
                    grids = Some(n as usize);
                } else {
                    rounds = Some(n as usize);
                }
            }
        }
    }
    let params = FederationParams {
        grids: grids.unwrap_or(384).max(4),
        rounds: rounds.unwrap_or(6).max(1),
        ..FederationParams::default()
    };

    eprintln!(
        "running federation scale: {} grids x {} hosts ({} synthetic hosts), \
         {} writers...",
        params.grids,
        params.hosts_per_grid,
        params.hosts_total(),
        params.writers
    );
    let start = std::time::Instant::now();
    let result = run_federation_scale(&params);
    let elapsed = start.elapsed();

    print!("{}", render_federation(&result));
    println!("(completed in {elapsed:?})");

    let rendered = render_federation_json(&result);
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("repro_federation: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} ({} bytes)", rendered.len());
    }

    if smoke {
        // Self-check 1: the JSON artifact parses with our own parser.
        if let Err(e) = json::parse(&rendered) {
            eprintln!("smoke FAILED: JSON does not parse: {e}");
            return ExitCode::FAILURE;
        }
        // Self-check 2: ≥4x replace+refresh throughput at 16 writers.
        let row = &result.throughput;
        let speedup = row.speedup_over(&result.baseline);
        if speedup < SPEEDUP_GATE {
            eprintln!(
                "smoke FAILED: replace+refresh throughput is {speedup:.2}x the \
                 seed baseline (need >= {SPEEDUP_GATE}x)"
            );
            return ExitCode::FAILURE;
        }
        // Self-check 3: the root path reads one summary, never the
        // sources — asserted from the store's own counters.
        if (row.root_merge_inputs_per_merge - 1.0).abs() > f64::EPSILON {
            eprintln!(
                "smoke FAILED: {:.1} summaries read per uncached root merge \
                 (expected exactly 1)",
                row.root_merge_inputs_per_merge
            );
            return ExitCode::FAILURE;
        }
        if row.source_touches != 0 {
            eprintln!(
                "smoke FAILED: {} per-source summaries touched on the root \
                 path (expected 0)",
                row.source_touches
            );
            return ExitCode::FAILURE;
        }
        // Self-check 4: byte identity vs the rebuild-every-mutation path.
        for row in &result.identity {
            if !row.identical {
                eprintln!(
                    "smoke FAILED: incremental render diverged from the \
                     rebuild-every-mutation path at churn {}%",
                    row.churn_percent
                );
                return ExitCode::FAILURE;
            }
        }
        // Self-check 5: root latency sublinear in source count.
        let (Some(small), Some(large)) = (result.latency.first(), result.latency.last()) else {
            eprintln!("smoke FAILED: latency sweep is empty");
            return ExitCode::FAILURE;
        };
        let budget = SUBLINEAR_GATE * small.root_latency_us.max(LATENCY_FLOOR_US);
        if large.root_latency_us > budget {
            eprintln!(
                "smoke FAILED: root latency grew {:.1}us -> {:.1}us over \
                 {}x the sources (budget {budget:.1}us)",
                small.root_latency_us,
                large.root_latency_us,
                large.sources / small.sources.max(1)
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "smoke ok: speedup {speedup:.2}x, 1 summary per root merge, \
             byte-identical at churn {:?}%, latency {:.1}us -> {:.1}us \
             over {}x sources",
            result
                .identity
                .iter()
                .map(|r| r.churn_percent)
                .collect::<Vec<_>>(),
            small.root_latency_us,
            large.root_latency_us,
            large.sources / small.sources.max(1)
        );
    }
    ExitCode::SUCCESS
}
