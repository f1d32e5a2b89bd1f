//! The figures a run prints: end-to-end from an untraced run, per layer
//! (spans plus the daemons' meters and counters) from a traced one.

use std::sync::atomic::Ordering;
use std::time::Duration;

use ganglia::core::telemetry::{HistogramSnapshot, Snapshot};
use ganglia::core::WorkCategory;

use crate::deploy::{Deployment, Level};
use crate::measure::{counter_between, histogram_delta, median, quantile, tail};
use crate::pages::{Kind, Page};
use crate::rounds::Round;
use crate::trace::Tracing;
use crate::workload::{Params, Window};

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// Daemon meters and counters summed over every gmetad, read at the
/// window's edges.
pub(crate) struct LayerTotals {
    pub(crate) busy: [Duration; 5],
    pub(crate) archive_updates: u64,
    pub(crate) journal_bytes: u64,
    pub(crate) deltas_applied: u64,
    pub(crate) root_merges: u64,
    pub(crate) root_merge_inputs: u64,
    pub(crate) source_touches: u64,
    pub(crate) snapshots: Vec<Snapshot>,
    /// Per gmetad, the names of its child gmetads.
    pub(crate) children: Vec<Vec<String>>,
}

impl LayerTotals {
    pub(crate) fn read(dep: &Deployment) -> LayerTotals {
        let mut totals = LayerTotals {
            busy: [Duration::ZERO; 5],
            archive_updates: 0,
            journal_bytes: 0,
            deltas_applied: 0,
            root_merges: 0,
            root_merge_inputs: 0,
            source_touches: 0,
            snapshots: Vec::new(),
            children: Vec::new(),
        };
        for monitor in &dep.monitors {
            let daemon = &monitor.daemon;
            for (i, category) in WorkCategory::ALL.iter().enumerate() {
                totals.busy[i] += daemon.meter().busy(*category);
            }
            totals.archive_updates += daemon.archive_updates();
            let journal = daemon.archive_journal_totals();
            totals.journal_bytes += journal.durable_bytes + journal.pending_bytes;
            let store = daemon.store().stats();
            totals.deltas_applied += store.deltas_applied;
            totals.root_merges += store.root_merges;
            totals.root_merge_inputs += store.root_merge_inputs;
            totals.source_touches += store.source_touches;
            totals.snapshots.push(daemon.telemetry_snapshot());
            totals.children.push(monitor.children.clone());
        }
        totals
    }

    fn busy(&self, category: WorkCategory) -> Duration {
        let at = WorkCategory::ALL
            .iter()
            .position(|c| *c == category)
            .unwrap_or(0);
        self.busy[at]
    }

    fn busy_total(&self) -> Duration {
        self.busy.iter().sum()
    }
}

/// A counter's gain over the window, summed over every gmetad.
fn counter_gain(after: &LayerTotals, before: &LayerTotals, name: &str) -> u64 {
    after
        .snapshots
        .iter()
        .zip(&before.snapshots)
        .map(|(a, b)| counter_between(a, b, name))
        .sum()
}

/// A histogram's gain over the window, merged over every gmetad.
fn histogram_gain(after: &LayerTotals, before: &LayerTotals, name: &str) -> HistogramSnapshot {
    let empty = HistogramSnapshot::empty();
    let mut merged = HistogramSnapshot::empty();
    for (a, b) in after.snapshots.iter().zip(&before.snapshots) {
        let Some(a) = a.histogram(name) else {
            continue;
        };
        let delta = histogram_delta(a, b.histogram(name).unwrap_or(&empty));
        if delta.count == 0 {
            continue;
        }
        for (m, d) in merged.buckets.iter_mut().zip(&delta.buckets) {
            *m += d;
        }
        merged.count += delta.count;
        merged.sum += delta.sum;
        merged.min = merged.min.min(delta.min);
        merged.max = merged.max.max(delta.max);
    }
    merged
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The end-to-end figures of an untraced run, in `BENCHMARK.json` order.
pub(crate) fn end_to_end(
    setup_secs: &[f64],
    rss_mib: f64,
    window: &Window,
) -> Vec<(&'static str, f64, &'static str)> {
    let walls: Vec<f64> = window.rounds.iter().map(|r| r.wall_ms).collect();
    let cpu_per_round = if window.open_loop {
        // Rounds share the window with the viewer threads: the monitor's
        // CPU is the process's minus the viewers' own.
        (window.window_cpu_ms - window.viewer_cpu_ms) / window.rounds.len().max(1) as f64
    } else {
        window.rounds.iter().map(|r| r.cpu_ms).sum::<f64>() / window.rounds.len().max(1) as f64
    };
    let latencies: Vec<f64> = window.pages.iter().map(|p| p.latency_ms).collect();
    let (round_p, round_tail) = tail(&walls, TAIL_BEYOND).unwrap_or((50, median(&walls)));
    let (view_p, view_tail) = tail(&latencies, TAIL_BEYOND).unwrap_or((50, median(&latencies)));
    eprintln!(
        "perfbench: round_ms_tail is p{round_p} of {} rounds; view_ms_tail is p{view_p} of {} pages",
        walls.len(),
        latencies.len()
    );
    for kind in Kind::ALL {
        let of_kind: Vec<f64> = window
            .pages
            .iter()
            .filter(|p| p.kind == kind)
            .map(|p| p.latency_ms)
            .collect();
        eprintln!(
            "perfbench: {} pages: p50 {:.3} ms, p90 {:.3} ms, max {:.3} ms",
            kind.label(),
            median(&of_kind),
            quantile(&of_kind, 0.9),
            quantile(&of_kind, 1.0)
        );
    }
    vec![
        ("setup_s", median(setup_secs), "s"),
        ("round_ms_p50", median(&walls), "ms"),
        ("round_ms_tail", round_tail, "ms"),
        ("cpu_ms_per_round", cpu_per_round, "ms"),
        ("view_ms_p50", median(&latencies), "ms"),
        ("view_ms_tail", view_tail, "ms"),
        ("rss_mb", rss_mib, "MiB"),
    ]
}

/// Print the traced run's span reduction and write its spans as JSON.
pub(crate) fn report_trace(
    params: &Params,
    tracing: &Tracing,
    e2e: &[(&'static str, f64, &'static str)],
) -> Result<(), String> {
    let path = params.work_dir.join(format!(
        "spans-{}-seed{}.json",
        params.workload.name(),
        params.seed
    ));
    std::fs::write(&path, tracing.recorder.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    eprintln!("perfbench: span        count    wall_ms    self_ms     cpu_ms");
    for (name, [count, wall, own, cpu]) in tracing.recorder.self_times() {
        eprintln!("perfbench: {name:<10} {count:>6} {wall:>10.1} {own:>10.1} {cpu:>10.1}");
    }
    for (name, value, unit) in e2e {
        eprintln!("perfbench: (traced run) {name} = {value:.4} {unit}");
    }
    Ok(())
}

/// The per-layer figures of a traced run, in `BENCHMARK.json` order.
pub(crate) fn per_layer(
    tracing: &Tracing,
    window: &Window,
    before: &LayerTotals,
    after: &LayerTotals,
    failed_frac: f64,
    speed_probe: f64,
) -> Vec<(String, f64, &'static str)> {
    let rounds = window.rounds.len().max(1) as f64;
    let traced_rounds: Vec<&Round> = window.rounds.iter().filter(|r| r.traced).collect();
    let plain_rounds: Vec<&Round> = window.rounds.iter().filter(|r| !r.traced).collect();
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut push = |name: String, value: f64, unit: &'static str| out.push((name, value, unit));

    // core: poll_all per tree level.
    for (at, level) in Level::ALL.iter().enumerate() {
        let walls: Vec<f64> = traced_rounds.iter().map(|r| r.level_ms[at]).collect();
        push(
            format!("core.poll_all_ms.{}", level.label()),
            median(&walls),
            "ms",
        );
    }
    for (at, level) in Level::ALL.iter().enumerate() {
        let cpus: Vec<f64> = traced_rounds.iter().map(|r| r.level_cpu_ms[at]).collect();
        push(
            format!("core.poll_all_cpu_ms.{}", level.label()),
            median(&cpus),
            "ms",
        );
    }

    // net: the delegating transport, and the federation links.
    let spans = tracing.recorder.spans();
    let fetches: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "fetch_into")
        .map(|s| s.wall_us() / 1e3)
        .collect();
    push("net.fetch_ms_p50".into(), median(&fetches), "ms");
    push(
        "net.fetch_kb_per_round".into(),
        tracing.fetch_bytes.load(Ordering::Relaxed) as f64
            / 1024.0
            / traced_rounds.len().max(1) as f64,
        "KiB",
    );
    push(
        "net.fetch_errors".into(),
        tracing.fetch_errors.load(Ordering::Relaxed) as f64,
        "count",
    );
    let wan: u64 = after
        .snapshots
        .iter()
        .zip(&before.snapshots)
        .zip(&after.children)
        .map(|((a, b), children)| {
            children
                .iter()
                .map(|child| counter_between(a, b, &format!("source.{child}.bytes_in_total")))
                .sum::<u64>()
        })
        .sum();
    push(
        "net.wan_kb_per_round".into(),
        wan as f64 / 1024.0 / rounds,
        "KiB",
    );

    // ingest and archive: the daemons' meters and counters.
    let busy = |c: WorkCategory| ms(after.busy(c).saturating_sub(before.busy(c)));
    let busy_total = ms(after.busy_total().saturating_sub(before.busy_total())).max(1e-9);
    push(
        "ingest.busy_share".into(),
        (busy(WorkCategory::Parse) + busy(WorkCategory::Summarize)) / busy_total,
        "ratio",
    );
    let reused = counter_gain(after, before, "ingest.hosts_reused") as f64;
    let rebuilt = counter_gain(after, before, "ingest.hosts_rebuilt") as f64;
    push(
        "ingest.hosts_reused_frac".into(),
        reused / (reused + rebuilt).max(1.0),
        "ratio",
    );
    let docs_reused = counter_gain(after, before, "ingest.docs_reused") as f64;
    let polls_ok = counter_gain(after, before, "polls_ok_total") as f64;
    push(
        "ingest.docs_reused_frac".into(),
        docs_reused / polls_ok.max(1.0),
        "ratio",
    );
    push(
        "archive.busy_share".into(),
        busy(WorkCategory::Archive) / busy_total,
        "ratio",
    );
    push(
        "archive.updates_per_round".into(),
        after.archive_updates.saturating_sub(before.archive_updates) as f64 / rounds,
        "count",
    );
    push(
        "archive.journal_kb_per_round".into(),
        after.journal_bytes.saturating_sub(before.journal_bytes) as f64 / 1024.0 / rounds,
        "KiB",
    );
    let commits = histogram_gain(after, before, "archive.journal_commit_us");
    push(
        "archive.journal_commit_ms_p50".into(),
        commits.quantile(0.5) as f64 / 1e3,
        "ms",
    );

    // store and query.
    push(
        "store.deltas_per_round".into(),
        after.deltas_applied.saturating_sub(before.deltas_applied) as f64 / rounds,
        "count",
    );
    let merges = after.root_merges.saturating_sub(before.root_merges) as f64;
    push(
        "store.root_merge_inputs_per_merge".into(),
        after
            .root_merge_inputs
            .saturating_sub(before.root_merge_inputs) as f64
            / merges.max(1.0),
        "count",
    );
    push(
        "store.source_touches".into(),
        after.source_touches.saturating_sub(before.source_touches) as f64,
        "count",
    );
    push(
        "query.busy_ms_per_round".into(),
        busy(WorkCategory::QueryServe) / rounds,
        "ms",
    );

    // serve.
    let requests = counter_gain(after, before, "serve.requests_total") as f64;
    push(
        "serve.cache_hit_frac".into(),
        counter_gain(after, before, "serve.cache_hits_total") as f64 / requests.max(1.0),
        "ratio",
    );
    push(
        "serve.latency_ms_p50".into(),
        histogram_gain(after, before, "serve.latency_us").quantile(0.5) as f64 / 1e3,
        "ms",
    );
    let refused = [
        "serve.shed_total",
        "serve.ratelimited_total",
        "serve.evicted_total",
    ]
    .iter()
    .map(|name| counter_gain(after, before, name))
    .sum::<u64>();
    push("serve.refused".into(), refused as f64, "count");

    // web: the viewer's own timing, per page kind.
    for kind in Kind::ALL {
        let pages: Vec<&Page> = window.pages.iter().filter(|p| p.kind == kind).collect();
        let downloads: Vec<f64> = pages.iter().map(|p| ms(p.timing.download)).collect();
        push(
            format!("web.download_ms_p50.{}", kind.label()),
            median(&downloads),
            "ms",
        );
    }
    for kind in Kind::ALL {
        let pages: Vec<&Page> = window.pages.iter().filter(|p| p.kind == kind).collect();
        let parses: Vec<f64> = pages.iter().map(|p| ms(p.timing.parse)).collect();
        push(
            format!("web.parse_ms_p50.{}", kind.label()),
            median(&parses),
            "ms",
        );
    }
    for kind in Kind::ALL {
        let pages: Vec<&Page> = window.pages.iter().filter(|p| p.kind == kind).collect();
        let bytes: f64 = pages.iter().map(|p| p.timing.xml_bytes as f64).sum();
        push(
            format!("web.kb_per_page.{}", kind.label()),
            bytes / 1024.0 / pages.len().max(1) as f64,
            "KiB",
        );
    }

    // proc and bench.
    let allocs_per_round = if window.open_loop {
        window.window_allocs.saturating_sub(window.viewer_allocs) as f64 / rounds
    } else {
        median(
            &window
                .rounds
                .iter()
                .map(|r| r.allocs as f64)
                .collect::<Vec<_>>(),
        )
    };
    push("proc.allocs_per_round".into(), allocs_per_round, "count");
    push(
        "proc.allocs_per_page".into(),
        median(
            &window
                .pages
                .iter()
                .map(|p| p.allocs as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    let lateness = window
        .pages
        .iter()
        .map(|p| p.late_ms)
        .chain(window.rounds.iter().map(|r| r.late_ms))
        .fold(0.0, f64::max);
    push("bench.lateness_ms_max".into(), lateness, "ms");
    push("bench.speed_probe_ms".into(), speed_probe, "ms");
    push("bench.failed_frac".into(), failed_frac, "ratio");

    // Tracing overhead: traced minus untraced rounds and pages.
    let walls = |rs: &[&Round]| median(&rs.iter().map(|r| r.wall_ms).collect::<Vec<_>>());
    let cpus = |rs: &[&Round]| median(&rs.iter().map(|r| r.cpu_ms).collect::<Vec<_>>());
    let views = |traced: bool| {
        median(
            &window
                .pages
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| p.latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    push(
        "trace.overhead_ms.round_p50".into(),
        walls(&traced_rounds) - walls(&plain_rounds),
        "ms",
    );
    push(
        "trace.overhead_ms.cpu_per_round".into(),
        cpus(&traced_rounds) - cpus(&plain_rounds),
        "ms",
    );
    push(
        "trace.overhead_ms.view_p50".into(),
        views(true) - views(false),
        "ms",
    );
    out
}
