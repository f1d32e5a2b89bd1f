//! The three workloads: set-up, the measured window and the correctness
//! checks.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ganglia::metrics::model::SummaryBody;
use ganglia::metrics::{parse_document, write_document, GridItem};
use ganglia::net::{TcpTransport, Transport};
use ganglia::sim::{fig2_tree, TreeSpec};

use crate::deploy::{generators, wide_tree, Deployment, ReportSlot, COLD_ROUND_AT};
use crate::measure::{
    allocs, peak_rss_mib, process_cpu, speed_probe_ms, thread_allocs, thread_cpu,
};
use crate::pages::{page_plan, Kind, Page, PageReq, Viewer};
use crate::report::{end_to_end, per_layer, report_trace, LayerTotals};
use crate::rounds::{Pollers, Round};
use crate::trace::Tracing;

/// Logical seconds between rounds: the daemon's default poll interval.
const POLL_INTERVAL: u64 = 15;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Viewer threads (and so concurrent viewer connections) in `fig2_view`.
const VIEWERS: usize = 2;

/// Share of `wide_quiet` sources that reroll each round.
const WIDE_CHURN: f64 = 0.1;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig2Poll,
    WideQuiet,
    Fig2View,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fig2_poll" => Some(Workload::Fig2Poll),
            "wide_quiet" => Some(Workload::WideQuiet),
            "fig2_view" => Some(Workload::Fig2View),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Poll => "fig2_poll",
            Workload::WideQuiet => "wide_quiet",
            Workload::Fig2View => "fig2_view",
        }
    }
}

/// Deployment sizes and offered load.
#[derive(Debug, Clone)]
pub struct Scale {
    pub fig2_hosts: usize,
    pub wide_sources: usize,
    pub wide_hosts: usize,
    /// Offered page rate of `fig2_view`, pages per second over all
    /// viewer threads.
    pub view_rate: f64,
    /// Wall-clock period of `fig2_view`'s background rounds.
    pub round_period: Duration,
}

impl Scale {
    /// The benchmark as `BENCHMARK.json` describes it.
    pub fn full() -> Scale {
        Scale {
            fig2_hosts: 100,
            wide_sources: 64,
            wide_hosts: 16,
            view_rate: 100.0,
            round_period: Duration::from_secs(1),
        }
    }

    /// A reduced deployment for the benchmark's own tests.
    pub fn small() -> Scale {
        Scale {
            fig2_hosts: 10,
            wide_sources: 10,
            wide_hosts: 8,
            view_rate: 40.0,
            round_period: Duration::from_millis(200),
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch and output directory inside the working directory.
    pub work_dir: PathBuf,
}

/// What a run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Run one workload end to end.
pub fn run(params: &Params) -> Result<Outcome, String> {
    let probe_before = speed_probe_ms();
    let run_dir = RunDir::create(&params.work_dir)?;
    let tree = match params.workload {
        Workload::Fig2Poll | Workload::Fig2View => fig2_tree(params.scale.fig2_hosts),
        Workload::WideQuiet => wide_tree(params.scale.wide_sources, params.scale.wide_hosts),
    };
    let churn = Churn::new(params, tree.cluster_count());
    let (mut dep, first_setup) = set_up(&tree, params, &churn, &run_dir.path.join("setup0"))?;
    let mut setup_secs = vec![first_setup];
    eprintln!(
        "perfbench: {} seed {}: {} hosts; poll workers {:?}, {} server threads/port, \
         {} store shards",
        params.workload.name(),
        params.seed,
        dep.host_count(),
        dep.resolved.poll_workers,
        dep.resolved.server_threads,
        dep.resolved.store_shards,
    );

    let tracing = params.trace.then(Tracing::new);
    let before = LayerTotals::read(&dep);
    let window = match params.workload {
        Workload::Fig2Poll | Workload::WideQuiet => {
            closed_loop(&mut dep, params, &churn, tracing.as_ref())
        }
        Workload::Fig2View => open_loop(&mut dep, params, tracing.as_ref())?,
    };
    let after = LayerTotals::read(&dep);

    // Correctness, outside every timed window.
    let mut problems = Vec::new();
    if let Some(error) = &window.first_poll_error {
        problems.push(format!("a poll failed: {error}"));
    }
    if let Some(error) = &window.first_page_error {
        problems.push(format!("a page failed its check: {error}"));
    }
    let check = match params.workload {
        Workload::Fig2Poll | Workload::Fig2View => check_root_summary(&dep),
        Workload::WideQuiet => check_wide_dump(&dep),
    };
    if let Err(problem) = check {
        problems.push(problem);
    }
    for problem in &problems {
        eprintln!("perfbench: check failed: {problem}");
    }

    dep.stop();
    drop(dep);
    // The peak resident set of one deployment's life, read before the
    // repeated set-ups below reuse (and fragment) the heap.
    let rss_mib = peak_rss_mib();
    for attempt in 1..SETUP_REPEATS {
        let dir = run_dir.path.join(format!("setup{attempt}"));
        let (dep, secs) = set_up(&tree, params, &churn, &dir)?;
        setup_secs.push(secs);
        drop(dep);
        let _ = std::fs::remove_dir_all(&dir);
    }
    eprintln!("perfbench: set-up times {setup_secs:?} s");
    drop(run_dir);
    let probe_after = speed_probe_ms();
    eprintln!("perfbench: speed probe {probe_before:.1} ms before, {probe_after:.1} ms after");

    let attempted = window.polls_attempted + window.pages.len() as u64;
    let failed = window.polls_failed + window.pages.iter().filter(|p| !p.ok).count() as u64;
    let e2e = end_to_end(&setup_secs, rss_mib, &window);
    let metrics = match &tracing {
        Some(tracing) => {
            report_trace(params, tracing, &e2e)?;
            per_layer(
                tracing,
                &window,
                &before,
                &after,
                failed as f64 / attempted.max(1) as f64,
                (probe_before + probe_after) / 2.0,
            )
        }
        None => e2e
            .into_iter()
            .map(|(name, value, unit)| (name.to_string(), value, unit))
            .collect(),
    };
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// A per-run scratch directory for archives and journals, removed when
/// the run ends, whether it succeeded or not.
struct RunDir {
    path: PathBuf,
}

impl RunDir {
    fn create(work_dir: &Path) -> Result<RunDir, String> {
        let path = work_dir.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(RunDir { path })
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Which pseudo-gmonds reroll between rounds.
enum Churn {
    /// Every host of every cluster, every round.
    Full,
    /// A rotating, seed-ordered set of whole sources; the rest serve
    /// byte-identical reports.
    Rotating { order: Vec<usize>, per_round: usize },
}

impl Churn {
    fn new(params: &Params, clusters: usize) -> Churn {
        match params.workload {
            Workload::WideQuiet => {
                let mut order: Vec<usize> = (0..clusters).collect();
                let mut rng = Rng::new(params.seed ^ 0xc40e5);
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                let per_round =
                    ((clusters as f64 * WIDE_CHURN).round() as usize).clamp(1, clusters);
                Churn::Rotating { order, per_round }
            }
            _ => Churn::Full,
        }
    }

    /// Reroll the clusters due at round `seq` to `dep.now`.
    fn apply(&self, dep: &mut Deployment, seq: u64) {
        let now = dep.now;
        match self {
            Churn::Full => {
                for cluster in &mut dep.clusters {
                    cluster.reroll(now);
                }
            }
            Churn::Rotating { order, per_round } => {
                for j in 0..*per_round {
                    let idx = order[(seq as usize * per_round + j) % order.len()];
                    dep.clusters[idx].reroll(now);
                }
            }
        }
    }
}

/// splitmix64: the benchmark's only source of randomness.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Build the deployment, bind every port, run the cold round (which
/// creates every archive and journal) and one warm round plus a page of
/// each kind (which fill the ingest, buffer and serving caches). Report
/// rendering is excluded from the time.
fn set_up(
    tree: &TreeSpec,
    params: &Params,
    churn: &Churn,
    dir: &Path,
) -> Result<(Deployment, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let gens = generators(tree, params.seed, COLD_ROUND_AT);
    let tcp = TcpTransport::new();
    let start = Instant::now();
    let mut dep = Deployment::start(tree, gens, dir)?;
    let pollers = Pollers::of(&dep);
    let cold = pollers.round(&tcp, dep.now, 0, None);
    let mut elapsed = start.elapsed();
    if let Some(error) = cold.first_error {
        return Err(format!("cold round failed: {error}"));
    }
    dep.now += POLL_INTERVAL;
    churn.apply(&mut dep, 1);
    let start = Instant::now();
    let warm = pollers.round(&tcp, dep.now, 1, None);
    if let Some(error) = warm.first_error {
        return Err(format!("warm round failed: {error}"));
    }
    let viewer = Viewer::of(&dep);
    for kind in Kind::ALL {
        let req = PageReq {
            kind,
            cluster: 0,
            host: 0,
        };
        if let (Err(e), _) = viewer.page(&req) {
            return Err(format!("warm-up page failed: {e}"));
        }
    }
    elapsed += start.elapsed();
    Ok((dep, elapsed.as_secs_f64()))
}

/// Everything a measured window produced.
#[derive(Default)]
pub(crate) struct Window {
    pub(crate) rounds: Vec<Round>,
    pub(crate) pages: Vec<Page>,
    pub(crate) polls_attempted: u64,
    pub(crate) polls_failed: u64,
    pub(crate) first_poll_error: Option<String>,
    pub(crate) first_page_error: Option<String>,
    /// Process CPU and allocations over the whole window, and the
    /// viewer threads' own share of them (open loop only).
    pub(crate) window_cpu_ms: f64,
    pub(crate) viewer_cpu_ms: f64,
    pub(crate) window_allocs: u64,
    pub(crate) viewer_allocs: u64,
    pub(crate) open_loop: bool,
}

impl Window {
    fn add_round(&mut self, round: Round) {
        self.polls_attempted += round.attempted;
        self.polls_failed += round.failed;
        if self.first_poll_error.is_none() {
            self.first_poll_error = round.first_error.clone();
        }
        self.rounds.push(round);
    }

    fn add_page(&mut self, page: Page, error: Option<String>) {
        if self.first_page_error.is_none() {
            self.first_page_error = error;
        }
        self.pages.push(page);
    }
}

/// `fig2_poll` and `wide_quiet`: rounds back to back, reports rerolled
/// and one page issued between rounds, outside the round's timing.
fn closed_loop(
    dep: &mut Deployment,
    params: &Params,
    churn: &Churn,
    tracing: Option<&Tracing>,
) -> Window {
    let tcp = TcpTransport::new();
    let pollers = Pollers::of(dep);
    let viewer = Viewer::of(dep);
    let plan = page_plan(params.seed, dep, 3 * 256);
    let mut window = Window::default();
    let end = Instant::now() + Duration::from_secs_f64(params.seconds);
    let mut seq = 1u64;
    while Instant::now() < end {
        seq += 1;
        dep.now += POLL_INTERVAL;
        churn.apply(dep, seq);
        // Traced runs alternate traced and untraced rounds and pages, so
        // the tracing overhead is their difference.
        let traced = tracing.filter(|_| seq % 2 == 1);
        window.add_round(pollers.round(&tcp, dep.now, seq, traced));
        let req = plan[seq as usize % plan.len()];
        let (page, error) = viewer.measured_page(&req, Instant::now(), seq, traced);
        window.add_page(page, error);
    }
    window
}

/// `fig2_view`: background rounds on a fixed wall-clock cadence, and
/// viewer threads issuing pages open loop at a fixed offered rate.
fn open_loop(
    dep: &mut Deployment,
    params: &Params,
    tracing: Option<&Tracing>,
) -> Result<Window, String> {
    let period = params.scale.round_period;
    let seconds = Duration::from_secs_f64(params.seconds);
    let rounds = (seconds.as_secs_f64() / period.as_secs_f64()).ceil() as usize + 1;
    // Every round's reports are rendered before the window opens, at
    // their own logical times, so no generator work runs beside pages.
    let mut sets: Vec<(u64, Vec<String>)> = Vec::with_capacity(rounds);
    for r in 1..=rounds as u64 {
        let now = dep.now + r * POLL_INTERVAL;
        let reports = dep
            .clusters
            .iter_mut()
            .map(|c| {
                c.gen.advance(now);
                c.gen.xml().to_string()
            })
            .collect();
        sets.push((now, reports));
    }
    let slots: Vec<ReportSlot> = dep.clusters.iter().map(|c| c.slot.clone()).collect();
    let pollers = Pollers::of(dep);
    let viewers: Vec<Viewer> = (0..VIEWERS).map(|_| Viewer::of(dep)).collect();
    let plan = page_plan(params.seed, dep, 3 * 1024);
    let interval = Duration::from_secs_f64(1.0 / params.scale.view_rate);

    let cpu_before = process_cpu();
    let allocs_before = allocs();
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + seconds;
    let (round_log, last_now, viewer_logs) = std::thread::scope(|scope| {
        let rounds_thread = scope.spawn(|| {
            let tcp = TcpTransport::new();
            let mut log = Vec::new();
            let mut last_now = None;
            for (r, (now, reports)) in sets.into_iter().enumerate() {
                let due = start + period * r as u32;
                if due >= end {
                    break;
                }
                sleep_until(due);
                let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                for (slot, xml) in slots.iter().zip(reports) {
                    slot.set(xml);
                }
                let seq = r as u64 + 2;
                let traced = tracing.filter(|_| seq % 2 == 1);
                let mut round = pollers.round(&tcp, now, seq, traced);
                round.late_ms = late_ms;
                log.push(round);
                last_now = Some(now);
            }
            (log, last_now)
        });
        let viewers: Vec<_> = viewers
            .into_iter()
            .enumerate()
            .map(|(t, viewer)| {
                let plan = &plan;
                scope.spawn(move || {
                    let cpu_before = thread_cpu();
                    let allocs_before = thread_allocs();
                    let mut log = Vec::new();
                    let mut k = t;
                    loop {
                        let due = start + interval * k as u32;
                        if due >= end {
                            break;
                        }
                        sleep_until(due);
                        let traced = tracing.filter(|_| k % 2 == 1);
                        log.push(viewer.measured_page(
                            &plan[k % plan.len()],
                            due,
                            k as u64,
                            traced,
                        ));
                        k += VIEWERS;
                    }
                    (
                        log,
                        thread_cpu().saturating_sub(cpu_before),
                        thread_allocs() - allocs_before,
                    )
                })
            })
            .collect();
        let (round_log, last_now) = rounds_thread.join().expect("round thread");
        let viewer_logs: Vec<_> = viewers
            .into_iter()
            .map(|v| v.join().expect("viewer thread"))
            .collect();
        (round_log, last_now, viewer_logs)
    });
    let mut window = Window {
        open_loop: true,
        window_cpu_ms: process_cpu().saturating_sub(cpu_before).as_secs_f64() * 1e3,
        window_allocs: allocs() - allocs_before,
        ..Window::default()
    };
    if let Some(now) = last_now {
        dep.now = now;
    }
    for round in round_log {
        window.add_round(round);
    }
    let mut pages = Vec::new();
    for (log, cpu, thread_allocs) in viewer_logs {
        window.viewer_cpu_ms += cpu.as_secs_f64() * 1e3;
        window.viewer_allocs += thread_allocs;
        pages.extend(log);
    }
    for (page, error) in pages {
        window.add_page(page, error);
    }
    if window.rounds.is_empty() {
        return Err("the window ran no rounds".to_string());
    }
    Ok(window)
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// After the last round: the root's summary equals an independent sum
/// of every pseudo-gmond report last served.
fn check_root_summary(dep: &Deployment) -> Result<(), String> {
    let mut expected = SummaryBody::default();
    for cluster in &dep.clusters {
        let doc = parse_document(&cluster.slot.get())
            .map_err(|e| format!("report of {} does not parse: {e}", cluster.name))?;
        for item in &doc.items {
            if let GridItem::Cluster(c) = item {
                expected.merge(&c.summary());
            }
        }
    }
    let actual = dep.root().daemon.store().root_summary();
    if (actual.hosts_up, actual.hosts_down) != (expected.hosts_up, expected.hosts_down) {
        return Err(format!(
            "root summary hosts {}/{} up/down, reports say {}/{}",
            actual.hosts_up, actual.hosts_down, expected.hosts_up, expected.hosts_down
        ));
    }
    if actual.metrics.len() != expected.metrics.len() {
        return Err(format!(
            "root summary has {} metrics, reports {}",
            actual.metrics.len(),
            expected.metrics.len()
        ));
    }
    for want in &expected.metrics {
        let got = actual
            .metric(&want.name)
            .ok_or_else(|| format!("root summary lacks {}", want.name))?;
        let tolerance = 1e-9 * want.sum.abs().max(got.sum.abs()) + 1e-6;
        if got.num != want.num || (got.sum - want.sum).abs() > tolerance {
            return Err(format!(
                "root summary {}: SUM {} NUM {}, reports SUM {} NUM {}",
                want.name, got.sum, got.num, want.sum, want.num
            ));
        }
    }
    Ok(())
}

/// Each source's cluster in the gmetad's `/` dump is byte-identical to
/// the rendering of the report it last served.
fn check_wide_dump(dep: &Deployment) -> Result<(), String> {
    let root = dep.root();
    let dump = TcpTransport::new()
        .fetch(&root.xml_addr, "/", Duration::from_secs(30))
        .map_err(|e| format!("dump fetch failed: {e}"))?;
    for cluster in &dep.clusters {
        let report = parse_document(&cluster.slot.get())
            .map_err(|e| format!("report of {} does not parse: {e}", cluster.name))?;
        let rendered = write_document(&report);
        let want = cluster_element(&rendered, &cluster.name)
            .ok_or_else(|| format!("rendered report lacks {}", cluster.name))?;
        let got = cluster_element(&dump, &cluster.name)
            .ok_or_else(|| format!("dump lacks {}", cluster.name))?;
        if got != want {
            return Err(format!(
                "dump of {} differs from its report ({} vs {} bytes)",
                cluster.name,
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// The `<CLUSTER NAME="name" ...>...</CLUSTER>` element of `xml`.
fn cluster_element<'a>(xml: &'a str, name: &str) -> Option<&'a str> {
    let open = format!("<CLUSTER NAME=\"{name}\"");
    let start = xml.find(&open)?;
    let close = "</CLUSTER>";
    let end = xml[start..].find(close)? + start + close.len();
    Some(&xml[start..end])
}
