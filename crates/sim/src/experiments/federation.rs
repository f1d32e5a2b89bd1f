//! Federation-scale experiment: the incremental single-lock store vs
//! the seed's full-re-merge store at ~100k synthetic hosts.
//!
//! The paper's wide-area design federates "over 500 clusters" through a
//! tree of gmetads (§5). At that scale the interesting costs live in the
//! aggregation point: every poll round rewrites hundreds of sources, and
//! every federation query re-merges their summaries. This experiment
//! builds hundreds of synthetic grid sources (~100k hosts in summary
//! form), then measures four things:
//!
//! 1. **Write throughput.** Sixteen writers hammer `replace`, once with
//!    every replace chased by an (almost always uncached)
//!    `root_summary` — the serve-tier pattern where every ingest is
//!    chased by a federation query — and once replace-only, the write
//!    path parallel poll workers take. The baseline is a faithful
//!    replica of the seed store (one `RwLock<HashMap>`, full
//!    O(sources·metrics) re-merge per root refresh); the store copies
//!    one incrementally-maintained summary per refresh instead, and
//!    pays a summary delta per replace.
//! 2. **Root-query latency vs source count** — flat because the
//!    incremental root path never touches per-source summaries.
//! 3. **Per-level CPU of the N-level tree** (leaf grids → mid gmetads →
//!    root), the paper's hierarchical-aggregation cost breakdown.
//! 4. **Byte identity**: the purely incremental store and a
//!    rebuild-every-mutation store (the seed's arithmetic) render
//!    identical `/?filter=summary` XML across churn levels.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ganglia_core::query_engine;
use ganglia_core::store::{SourceState, Store, StoreStats};
use ganglia_core::GmetadConfig;
use ganglia_metrics::model::{GridBody, GridNode, MetricSummary, SummaryBody};
use ganglia_metrics::{MetricType, Slope};
use ganglia_query::Query;
use parking_lot::{Mutex, RwLock};

/// Knobs for [`run_federation_scale`]. Defaults model the paper's
/// wide-area deployment: 384 grids of 256 hosts each (98,304 hosts).
#[derive(Debug, Clone, PartialEq)]
pub struct FederationParams {
    /// Leaf grid sources attached to the root store.
    pub grids: usize,
    /// Synthetic hosts summarized inside each grid source.
    pub hosts_per_grid: u32,
    /// Uniform metric set per source (uniform names keep merge order —
    /// and therefore rendered XML — independent of source order).
    pub metrics_per_host: usize,
    /// Concurrent writer threads in the throughput stage.
    pub writers: usize,
    /// Rounds each writer replaces its slice of sources.
    pub rounds: usize,
    /// Source-count multipliers for the latency sweep.
    pub latency_scales: Vec<usize>,
    /// Mid-level gmetad count for the per-level tree stage.
    pub mid_gmetads: usize,
    /// Percent of sources rewritten per round in the identity sweep.
    pub churn_percents: Vec<u32>,
}

impl Default for FederationParams {
    fn default() -> Self {
        FederationParams {
            grids: 384,
            hosts_per_grid: 256,
            metrics_per_host: 24,
            writers: 16,
            rounds: 6,
            latency_scales: vec![1, 2, 4],
            mid_gmetads: 8,
            churn_percents: vec![1, 10, 100],
        }
    }
}

impl FederationParams {
    /// A configuration small enough for unit tests.
    pub fn tiny() -> Self {
        FederationParams {
            grids: 24,
            hosts_per_grid: 8,
            metrics_per_host: 4,
            writers: 4,
            rounds: 2,
            latency_scales: vec![1, 2],
            mid_gmetads: 2,
            churn_percents: vec![50, 100],
        }
    }

    /// Total synthetic hosts at scale 1.
    pub fn hosts_total(&self) -> usize {
        self.grids * self.hosts_per_grid as usize
    }
}

/// One throughput measurement: `writers` threads driving replaces
/// (each optionally chased by a root refresh) against one store.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    pub writers: usize,
    /// Replaces (or replace+refresh pairs) completed.
    pub ops: u64,
    pub elapsed_ms: f64,
    pub ops_per_sec: f64,
    /// Summaries read per uncached root merge (the store only: exactly
    /// one — the witness that the root path never walks the sources).
    pub root_merge_inputs_per_merge: f64,
    /// Per-source summary merges during the run (the store only: stays
    /// at zero when the incremental path never falls back).
    pub source_touches: u64,
}

impl ThroughputRow {
    /// Throughput relative to a baseline row.
    pub fn speedup_over(&self, baseline: &ThroughputRow) -> f64 {
        if baseline.ops_per_sec > 0.0 {
            self.ops_per_sec / baseline.ops_per_sec
        } else {
            f64::INFINITY
        }
    }
}

/// Uncached root-summary latency at one source count.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    pub sources: usize,
    pub hosts: usize,
    /// Best-of-N wall time for one uncached `root_summary` call.
    pub root_latency_us: f64,
}

/// CPU spent at one level of the N-level federation tree.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelRow {
    /// 0 = root gmetad, increasing toward the leaves.
    pub level: usize,
    pub label: &'static str,
    /// Aggregation nodes at this level.
    pub nodes: usize,
    /// Child summaries merged across the whole level.
    pub merges: u64,
    pub cpu_ms: f64,
}

/// Byte-identity check at one churn level.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentityRow {
    pub churn_percent: u32,
    /// Rendered `/?filter=summary` bytes match the
    /// rebuild-every-mutation store on every round.
    pub identical: bool,
    /// Bytes of the final rendered document.
    pub response_bytes: usize,
}

/// Everything [`run_federation_scale`] measures.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationResult {
    pub params: FederationParams,
    /// Replace+refresh on the seed-store replica.
    pub baseline: ThroughputRow,
    /// Replace+refresh on the store.
    pub throughput: ThroughputRow,
    /// Replace-only on the seed-store replica.
    pub replace_only_baseline: ThroughputRow,
    /// Replace-only on the store: the write cost of the incremental
    /// summary.
    pub replace_only: ThroughputRow,
    pub latency: Vec<LatencyRow>,
    pub levels: Vec<LevelRow>,
    pub identity: Vec<IdentityRow>,
}

/// xorshift over a seed — deterministic, dependency-free value churn.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A dyadic rational (multiple of 1/8): exactly representable, so the
/// incremental S − old + new arithmetic is bit-identical to a
/// from-scratch merge and the byte-identity sweep is meaningful.
fn dyadic(r: u64) -> f64 {
    (r % 4096) as f64 / 8.0
}

/// Synthesize one grid source's summary: `hosts` hosts up, a uniform
/// metric-name set, per-metric sums drawn from the seeded RNG.
fn grid_summary(hosts: u32, metrics: usize, rng: &mut u64) -> SummaryBody {
    let mut body = SummaryBody {
        hosts_up: hosts,
        hosts_down: 0,
        metrics: Vec::with_capacity(metrics),
    };
    for m in 0..metrics {
        body.metrics.push(MetricSummary {
            name: format!("metric_{m:02}").into(),
            sum: dyadic(next_rand(rng)) * f64::from(hosts),
            num: hosts,
            ty: MetricType::Double,
            units: "units".into(),
            slope: Slope::Both,
            source: "gmond".into(),
        });
    }
    body
}

/// Build a grid source snapshot carrying the given summary.
fn grid_source(name: &str, hosts: u32, metrics: usize, rng: &mut u64, now: u64) -> SourceState {
    let summary = grid_summary(hosts, metrics, rng);
    let grid = GridNode {
        name: name.to_string(),
        authority: format!("http://{name}/ganglia/"),
        localtime: Some(now),
        body: GridBody::Summary(summary.clone()),
    };
    SourceState::grid(name, grid, summary, now)
}

fn source_name(i: usize) -> String {
    format!("grid-{i:04}")
}

/// The ingest-side surface both stores expose to the writer threads.
trait RootStore: Sync {
    fn replace_source(&self, state: SourceState);
    fn refresh_root(&self) -> u32;
    /// Operation counters (zero for a store that keeps none).
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

impl RootStore for Store {
    fn replace_source(&self, state: SourceState) {
        self.replace(state);
    }

    fn refresh_root(&self) -> u32 {
        self.root_summary().hosts_up
    }

    fn stats(&self) -> StoreStats {
        Store::stats(self)
    }
}

/// A faithful replica of the seed store that incremental summaries
/// replaced: one lock over the level-one hash table, a monotonic
/// revision, and a root cache that re-merges every source summary
/// whenever the revision moved. Kept here (not in `ganglia_core`) so
/// the production crate carries exactly one store implementation.
struct SeedStore {
    sources: RwLock<HashMap<String, Arc<SourceState>>>,
    revision: AtomicU64,
    root_cache: Mutex<Option<(u64, Arc<SummaryBody>)>>,
}

impl SeedStore {
    fn new() -> SeedStore {
        SeedStore {
            sources: RwLock::new(HashMap::new()),
            revision: AtomicU64::new(0),
            root_cache: Mutex::new(None),
        }
    }
}

impl RootStore for SeedStore {
    fn replace_source(&self, state: SourceState) {
        let mut sources = self.sources.write();
        sources.insert(state.name.clone(), Arc::new(state));
        self.revision.fetch_add(1, Ordering::Release);
    }

    fn refresh_root(&self) -> u32 {
        let sources = self.sources.read();
        let revision = self.revision.load(Ordering::Acquire);
        {
            let cache = self.root_cache.lock();
            if let Some((cached_rev, summary)) = &*cache {
                if *cached_rev == revision {
                    return summary.hosts_up;
                }
            }
        }
        // Seed arithmetic: merge every source summary from scratch.
        let mut total = SummaryBody::default();
        for state in sources.values() {
            total.merge(&state.summary);
        }
        let summary = Arc::new(total);
        *self.root_cache.lock() = Some((revision, summary.clone()));
        summary.hosts_up
    }
}

/// Drive `writers` threads through `rounds` rounds of replaces over the
/// store's sources, each chased by a root refresh when `refresh` is
/// set. Source snapshots are prebuilt so the timed region contains only
/// store work.
fn hammer(
    store: &impl RootStore,
    params: &FederationParams,
    seed: u64,
    refresh: bool,
) -> (u64, f64) {
    let writers = params.writers.max(1);
    // Writer w owns sources w, w+writers, w+2·writers, …
    let mut slices: Vec<Vec<SourceState>> = (0..writers).map(|_| Vec::new()).collect();
    let mut rng = seed;
    for round in 0..params.rounds {
        for i in 0..params.grids {
            let name = source_name(i);
            let state = grid_source(
                &name,
                params.hosts_per_grid,
                params.metrics_per_host,
                &mut rng,
                100 + round as u64,
            );
            slices[i % writers].push(state);
        }
    }
    let ops: u64 = slices.iter().map(|s| s.len() as u64).sum();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for slice in slices {
            scope.spawn(move || {
                for state in slice {
                    store.replace_source(state);
                    if refresh {
                        store.refresh_root();
                    }
                }
            });
        }
    });
    (ops, start.elapsed().as_secs_f64() * 1000.0)
}

fn populate(store: &impl RootStore, grids: usize, params: &FederationParams, seed: u64) {
    let mut rng = seed;
    for i in 0..grids {
        let name = source_name(i);
        store.replace_source(grid_source(
            &name,
            params.hosts_per_grid,
            params.metrics_per_host,
            &mut rng,
            100,
        ));
    }
    store.refresh_root();
}

/// Populate `store`, then time the writer load on it.
fn measure_throughput(
    store: &impl RootStore,
    params: &FederationParams,
    refresh: bool,
) -> ThroughputRow {
    populate(store, params.grids, params, 7);
    let before = store.stats();
    let (ops, elapsed_ms) = hammer(store, params, 11, refresh);
    let after = store.stats();
    let merges = after.root_merges.saturating_sub(before.root_merges);
    let inputs = after
        .root_merge_inputs
        .saturating_sub(before.root_merge_inputs);
    ThroughputRow {
        writers: params.writers,
        ops,
        elapsed_ms,
        ops_per_sec: ops as f64 / (elapsed_ms / 1000.0).max(1e-9),
        root_merge_inputs_per_merge: if merges > 0 {
            inputs as f64 / merges as f64
        } else {
            0.0
        },
        source_touches: after.source_touches.saturating_sub(before.source_touches),
    }
}

/// Best-of-N uncached root latency at each source-count scale. Each
/// sample dirties one source first so the root cache cannot answer.
fn measure_latency(params: &FederationParams) -> Vec<LatencyRow> {
    params
        .latency_scales
        .iter()
        .map(|&scale| {
            let sources = params.grids * scale;
            let store = Store::with_rebuild_rounds(0);
            populate(&store, sources, params, 13);
            let mut rng = 17;
            let mut best = f64::INFINITY;
            for round in 0..32u64 {
                store.replace(grid_source(
                    &source_name(0),
                    params.hosts_per_grid,
                    params.metrics_per_host,
                    &mut rng,
                    200 + round,
                ));
                let start = Instant::now();
                let summary = store.root_summary();
                let micros = start.elapsed().as_secs_f64() * 1e6;
                assert_eq!(
                    summary.hosts_total() as usize,
                    sources * params.hosts_per_grid as usize
                );
                best = best.min(micros);
            }
            LatencyRow {
                sources,
                hosts: sources * params.hosts_per_grid as usize,
                root_latency_us: best,
            }
        })
        .collect()
}

/// CPU per federation-tree level: leaf grids summarize their hosts, mid
/// gmetads merge leaf summaries, the root merges mid summaries.
fn measure_levels(params: &FederationParams) -> Vec<LevelRow> {
    let mut rng = 19;
    // One per-host contribution, reused: what a leaf gmond reports.
    let host_body = grid_summary(1, params.metrics_per_host, &mut rng);

    // Level 2: each grid merges its hosts' summaries.
    let start = Instant::now();
    let mut grid_bodies: Vec<SummaryBody> = Vec::with_capacity(params.grids);
    for _ in 0..params.grids {
        let mut body = SummaryBody::default();
        for _ in 0..params.hosts_per_grid {
            body.merge(&host_body);
        }
        grid_bodies.push(body);
    }
    let leaf_ms = start.elapsed().as_secs_f64() * 1000.0;
    let leaf_merges = params.grids as u64 * u64::from(params.hosts_per_grid);

    // Level 1: mid gmetads split the grids between them.
    let mids = params.mid_gmetads.max(1);
    let start = Instant::now();
    let mut mid_bodies: Vec<SummaryBody> = Vec::with_capacity(mids);
    for chunk in grid_bodies.chunks(params.grids.div_ceil(mids)) {
        let mut body = SummaryBody::default();
        for grid in chunk {
            body.merge(grid);
        }
        mid_bodies.push(body);
    }
    let mid_ms = start.elapsed().as_secs_f64() * 1000.0;

    // Level 0: the root merges the mid summaries.
    let start = Instant::now();
    let mut root = SummaryBody::default();
    for mid in &mid_bodies {
        root.merge(mid);
    }
    let root_ms = start.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(root.hosts_total() as usize, params.hosts_total());

    vec![
        LevelRow {
            level: 0,
            label: "root gmetad",
            nodes: 1,
            merges: mid_bodies.len() as u64,
            cpu_ms: root_ms,
        },
        LevelRow {
            level: 1,
            label: "mid gmetads",
            nodes: mid_bodies.len(),
            merges: params.grids as u64,
            cpu_ms: mid_ms,
        },
        LevelRow {
            level: 2,
            label: "leaf grids",
            nodes: params.grids,
            merges: leaf_merges,
            cpu_ms: leaf_ms,
        },
    ]
}

/// Render the federation summary view the serve tier would return.
fn render_summary(store: &Store, config: &GmetadConfig, query: &Query) -> String {
    query_engine::answer(store, config, query, 12345)
}

/// Churn sweep: after every round the purely incremental store must
/// render byte-identical XML to a store that rebuilds its summary from
/// scratch on every mutation (`with_rebuild_rounds(1)` — the seed's
/// arithmetic expressed through the same store).
fn measure_identity(params: &FederationParams) -> Vec<IdentityRow> {
    let config = GmetadConfig::new("federation");
    let query = Query::parse("/?filter=summary").expect("static query parses");
    params
        .churn_percents
        .iter()
        .map(|&churn| {
            let incremental = Store::with_rebuild_rounds(0);
            let seed_path = Store::with_rebuild_rounds(1);
            let mut build_rng = 23;
            for i in 0..params.grids {
                let name = source_name(i);
                let mut clone_rng = build_rng;
                incremental.replace(grid_source(
                    &name,
                    params.hosts_per_grid,
                    params.metrics_per_host,
                    &mut clone_rng,
                    100,
                ));
                seed_path.replace(grid_source(
                    &name,
                    params.hosts_per_grid,
                    params.metrics_per_host,
                    &mut build_rng,
                    100,
                ));
            }
            let rewrites = (params.grids * churn as usize).div_ceil(100).max(1);
            let mut identical = true;
            let mut response_bytes = 0;
            let mut churn_rng = 29 + u64::from(churn);
            for round in 0..params.rounds.max(2) {
                for r in 0..rewrites {
                    let idx = next_rand(&mut churn_rng) as usize % params.grids;
                    let name = source_name(idx);
                    let mut clone_rng = churn_rng;
                    incremental.replace(grid_source(
                        &name,
                        params.hosts_per_grid,
                        params.metrics_per_host,
                        &mut clone_rng,
                        200 + (round * rewrites + r) as u64,
                    ));
                    seed_path.replace(grid_source(
                        &name,
                        params.hosts_per_grid,
                        params.metrics_per_host,
                        &mut churn_rng,
                        200 + (round * rewrites + r) as u64,
                    ));
                }
                let ours = render_summary(&incremental, &config, &query);
                let theirs = render_summary(&seed_path, &config, &query);
                identical &= ours == theirs;
                response_bytes = ours.len();
            }
            IdentityRow {
                churn_percent: churn,
                identical,
                response_bytes,
            }
        })
        .collect()
}

/// Run the full federation-scale experiment.
pub fn run_federation_scale(params: &FederationParams) -> FederationResult {
    // Pure incremental maintenance, so the source-touch counter isolates
    // the root path (an anti-drift rebuild would touch every source).
    let store = || Store::with_rebuild_rounds(0);
    let baseline = measure_throughput(&SeedStore::new(), params, true);
    let throughput = measure_throughput(&store(), params, true);
    let replace_only_baseline = measure_throughput(&SeedStore::new(), params, false);
    let replace_only = measure_throughput(&store(), params, false);
    let latency = measure_latency(params);
    let levels = measure_levels(params);
    let identity = measure_identity(params);
    FederationResult {
        params: params.clone(),
        baseline,
        throughput,
        replace_only_baseline,
        replace_only,
        latency,
        levels,
        identity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_scale_tiny_run_holds_its_invariants() {
        let params = FederationParams::tiny();
        let result = run_federation_scale(&params);

        assert!(result.baseline.ops > 0);
        for row in [
            &result.throughput,
            &result.replace_only_baseline,
            &result.replace_only,
        ] {
            assert_eq!(row.ops, result.baseline.ops);
            assert!(row.ops_per_sec > 0.0);
            assert_eq!(row.source_touches, 0);
        }
        // The root path reads the one merged summary, never a
        // per-source summary.
        assert!(
            (result.throughput.root_merge_inputs_per_merge - 1.0).abs() < f64::EPSILON,
            "inputs/merge={}",
            result.throughput.root_merge_inputs_per_merge
        );
        // Replace-only runs never merge a root summary.
        assert_eq!(result.replace_only.root_merge_inputs_per_merge, 0.0);

        assert_eq!(result.latency.len(), params.latency_scales.len());
        for row in &result.latency {
            assert!(row.root_latency_us.is_finite() && row.root_latency_us >= 0.0);
            assert_eq!(row.hosts, row.sources * params.hosts_per_grid as usize);
        }

        assert_eq!(result.levels.len(), 3);
        let total_hosts: usize = params.hosts_total();
        assert!(result.levels.iter().all(|l| l.nodes > 0));
        assert_eq!(result.levels[2].merges as usize, total_hosts);

        for row in &result.identity {
            assert!(
                row.identical,
                "incremental render diverged at churn {}%",
                row.churn_percent
            );
            assert!(row.response_bytes > 0);
        }
    }

    #[test]
    fn seed_store_replica_matches_incremental_arithmetic() {
        let params = FederationParams::tiny();
        let seed = SeedStore::new();
        let incremental = Store::with_rebuild_rounds(0);
        populate(&seed, params.grids, &params, 7);
        populate(&incremental, params.grids, &params, 7);
        assert_eq!(seed.refresh_root(), incremental.root_summary().hosts_up);
        assert_eq!(
            seed.refresh_root() as usize,
            params.grids * params.hosts_per_grid as usize
        );
    }
}
