//! Measure the allocation-lean ingest path: rebuild-every-round
//! parse+summarize vs the delta-aware
//! [`Ingester`](ganglia_metrics::Ingester) across churn levels, with a
//! counting allocator to show the per-round allocation win.
//!
//! Usage: `repro_ingest [hosts] [rounds] [--smoke] [--json <path>]`
//!
//! `--json <path>` also writes the result as JSON. `--smoke` runs a
//! CI-sized corpus and then self-checks the PR's acceptance bars: the
//! JSON must parse, the delta path must carry ≥3× the baseline
//! parse+merge throughput at 0% churn, warm unchanged rounds must
//! allocate ≥10× less than the baseline, and every rendered document
//! (the churn corpora and the paper's figure-3 grid) must be
//! byte-identical between the two paths.
//!
//! The worst case is gated too: at 100% churn — every host's bytes
//! change every round, so the fingerprint cache never hits — the delta
//! path must still be at least as fast as the plain parser (speedup ≥
//! 1.0x) and must not allocate more than the baseline plus a small
//! constant. The baseline is `parse_document` plus a summary rebuild,
//! and `parse_document` is the same streaming machine the delta path
//! re-parses changed hosts with — so at full churn these gates hold the
//! delta path's own bookkeeping (span fingerprints, cache maps) to what
//! its savings (pre-sized metric vectors, the cursor summary fold) buy
//! back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use ganglia_bench::{render_ingest, render_ingest_json, IngestAllocReport};
use ganglia_core::telemetry::json;
use ganglia_sim::experiments::{baseline_pass, churn_corpus, run_ingest_churn, IngestParams};

/// System allocator wrapped with an allocation counter, so the smoke
/// check can assert the delta path's per-round allocation reduction
/// instead of eyeballing a profiler.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a relaxed atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `f`.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Per-warm-round allocation counts at one churn level: parse the cold
/// round outside the counted window on both sides, then count
/// `rounds - 1` warm rounds.
fn measure_allocs(params: &IngestParams, churn: f64) -> IngestAllocReport {
    let corpus = churn_corpus(params, churn, 0x5eed_0001);
    let warm_rounds = (corpus.len() - 1) as u64;

    // Baseline has no cross-round state; warm rounds cost the same as
    // the cold one, so counting the tail is representative.
    let (_, baseline) = count_allocs(|| baseline_pass(&corpus[1..]));

    // The delta side must carry its ingester across the cold round.
    let mut ingester = ganglia_metrics::Ingester::new();
    ingester.ingest(&corpus[0]).expect("corpus parses");
    let (_, delta) = count_allocs(|| {
        for xml in &corpus[1..] {
            ingester.ingest(xml).expect("corpus parses");
        }
    });

    IngestAllocReport {
        churn,
        baseline_allocs_per_round: baseline / warm_rounds,
        delta_allocs_per_round: delta / warm_rounds,
    }
}

/// Allocation overhead the delta path may add over the baseline at
/// 100% churn, per round — a constant, deliberately independent of
/// host count: cache bookkeeping (roster vectors, the cached-doc
/// clone, map growth) costs a handful of allocations per round, never
/// per host.
const FULL_CHURN_ALLOC_SLACK: i64 = 192;

fn main() -> ExitCode {
    let mut hosts = None;
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
                    eprintln!("repro_ingest: --json needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                let Ok(n) = other.parse::<u64>() else {
                    eprintln!("repro_ingest: unknown argument {other:?}");
                    return ExitCode::from(2);
                };
                if hosts.is_none() {
                    hosts = Some(n as usize);
                } else {
                    rounds = Some(n as usize);
                }
            }
        }
    }
    let params = IngestParams {
        hosts: hosts.unwrap_or(if smoke { 64 } else { 128 }).max(1),
        metrics_per_host: 24,
        rounds: rounds.unwrap_or(if smoke { 20 } else { 40 }).max(2),
    };
    let churns = [0.0, 0.1, 1.0];
    eprintln!(
        "running ingest: {} hosts x {} metrics, {} rounds at churn {:?}...",
        params.hosts, params.metrics_per_host, params.rounds, churns
    );
    let result = run_ingest_churn(&params, &churns);
    let allocs = [measure_allocs(&params, 0.0), measure_allocs(&params, 1.0)];
    print!("{}", render_ingest(&result, &allocs));

    let rendered = render_ingest_json(&result, &allocs);
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("repro_ingest: cannot write {path}: {e}");
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
        // Self-check 2: behavior invariance — both paths render every
        // document byte-identically, including the paper's fig-3 grid.
        if !result.fig3_identical || result.rows.iter().any(|r| !r.byte_identical) {
            eprintln!("smoke FAILED: delta path is not byte-identical to the plain parser");
            return ExitCode::FAILURE;
        }
        // Self-check 3: at 0% churn the fingerprint fast path must carry
        // ≥3× the rebuild-every-round parse+merge throughput.
        let zero = &result.rows[0];
        if zero.speedup() < 3.0 {
            eprintln!(
                "smoke FAILED: 0%-churn speedup {:.2}x < 3x (baseline {:?}, delta {:?})",
                zero.speedup(),
                zero.baseline_elapsed,
                zero.delta_elapsed
            );
            return ExitCode::FAILURE;
        }
        // Self-check 4: the cache is actually what won — unchanged
        // rounds reuse the whole document and every host node.
        if zero.docs_reused != (params.rounds as u64 - 1)
            || zero.hosts_rebuilt != params.hosts as u64
        {
            eprintln!(
                "smoke FAILED: 0%-churn reuse wrong (docs_reused {}, hosts_rebuilt {})",
                zero.docs_reused, zero.hosts_rebuilt
            );
            return ExitCode::FAILURE;
        }
        // Self-check 5: an unchanged round allocates ≥10× less than the
        // rebuild-every-round baseline on the counted path.
        let zero_allocs = &allocs[0];
        if zero_allocs.reduction() < 10.0 {
            eprintln!(
                "smoke FAILED: allocation reduction {:.1}x < 10x (baseline {}/round, delta {}/round)",
                zero_allocs.reduction(),
                zero_allocs.baseline_allocs_per_round,
                zero_allocs.delta_allocs_per_round
            );
            return ExitCode::FAILURE;
        }
        // Self-check 6 (the worst-case gate): at 100% churn the cache
        // never hits, and the delta path must still not be slower than
        // plain parse+merge. This is the bar the streaming no-DOM
        // rebuild path exists to hold.
        let Some(full) = result.rows.iter().find(|r| r.churn >= 1.0) else {
            eprintln!("smoke FAILED: churn sweep is missing the 100% row");
            return ExitCode::FAILURE;
        };
        if full.speedup() < 1.0 {
            eprintln!(
                "smoke FAILED: 100%-churn speedup {:.2}x < 1.0x (baseline {:?}, delta {:?}) — \
                 the delta path regressed the worst case",
                full.speedup(),
                full.baseline_elapsed,
                full.delta_elapsed
            );
            return ExitCode::FAILURE;
        }
        // Self-check 7: a full-churn round's allocations are bounded by
        // the baseline's plus a constant — cache bookkeeping must stay
        // O(1) per round, not O(hosts).
        let full_allocs = &allocs[1];
        if full_allocs.overhead() > FULL_CHURN_ALLOC_SLACK {
            eprintln!(
                "smoke FAILED: 100%-churn allocation overhead {:+}/round exceeds {} \
                 (baseline {}/round, delta {}/round)",
                full_allocs.overhead(),
                FULL_CHURN_ALLOC_SLACK,
                full_allocs.baseline_allocs_per_round,
                full_allocs.delta_allocs_per_round
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "smoke ok: 0%-churn speedup {:.1}x, 100%-churn speedup {:.2}x, \
             alloc reduction {:.1}x, 100%-churn alloc overhead {:+}, byte-identical",
            zero.speedup(),
            full.speedup(),
            zero_allocs.reduction(),
            full_allocs.overhead()
        );
    }
    ExitCode::SUCCESS
}
