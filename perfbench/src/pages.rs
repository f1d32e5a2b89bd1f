//! Table-1 pages through the N-level web frontend: the page mix, the
//! checks each page must pass, and its timing.

use std::sync::Arc;
use std::time::Instant;

use ganglia::net::{TcpTransport, Transport};
use ganglia::web::{Frontend, NLevelFrontend, ViewTiming, ViewerClient};

use crate::deploy::{Deployment, Level};
use crate::measure::{thread_allocs, thread_cpu};
use crate::trace::Tracing;
use crate::workload::Rng;

/// Latency limit for pages; slower pages are misses.
pub(crate) const VIEW_LIMIT_MS: f64 = 100.0;

/// The three Table-1 page kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Meta,
    Cluster,
    Host,
}

impl Kind {
    pub(crate) const ALL: [Kind; 3] = [Kind::Meta, Kind::Cluster, Kind::Host];

    pub(crate) fn label(self) -> &'static str {
        match self {
            Kind::Meta => "meta",
            Kind::Cluster => "cluster",
            Kind::Host => "host",
        }
    }
}

/// One planned page.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageReq {
    pub(crate) kind: Kind,
    pub(crate) cluster: usize,
    pub(crate) host: usize,
}

/// The fixed page mix: equal thirds of the three kinds in seed-shuffled
/// blocks, with clusters and hosts drawn from the seed.
pub(crate) fn page_plan(seed: u64, dep: &Deployment, len: usize) -> Vec<PageReq> {
    let mut rng = Rng::new(seed ^ 0x7ab1_e001);
    let mut plan = Vec::with_capacity(len + 3);
    while plan.len() < len {
        let mut kinds = Kind::ALL;
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i + 1));
        }
        for kind in kinds {
            let cluster = rng.below(dep.clusters.len());
            let host = rng.below(dep.clusters[cluster].gen.host_count());
            plan.push(PageReq {
                kind,
                cluster,
                host,
            });
        }
    }
    plan
}

/// One page's measurements.
#[derive(Debug, Clone)]
pub(crate) struct Page {
    pub(crate) kind: Kind,
    pub(crate) ok: bool,
    /// From the page's due time to the parsed and checked document.
    pub(crate) latency_ms: f64,
    pub(crate) late_ms: f64,
    pub(crate) timing: ViewTiming,
    /// Allocations made by the viewer thread for this page.
    pub(crate) allocs: u64,
    pub(crate) traced: bool,
}

/// One viewer: the N-level frontend pointed at every gmetad, plus what
/// each page must contain.
pub(crate) struct Viewer {
    pub(crate) fronts: Vec<NLevelFrontend>,
    pub(crate) root: usize,
    /// Per cluster: the gmetad that polls it, its name and host count.
    pub(crate) clusters: Vec<(usize, String, usize)>,
    pub(crate) expected_up: u32,
}

impl Viewer {
    pub(crate) fn of(dep: &Deployment) -> Viewer {
        let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
        Viewer {
            fronts: dep
                .monitors
                .iter()
                .map(|m| {
                    let client = ViewerClient::new(Arc::clone(&transport), m.query_addr.clone());
                    NLevelFrontend::new(client)
                })
                .collect(),
            root: dep
                .monitors
                .iter()
                .position(|m| m.level == Level::Root)
                .expect("every tree has a root"),
            clusters: dep
                .clusters
                .iter()
                .map(|c| (c.monitor, c.name.clone(), c.gen.host_count()))
                .collect(),
            expected_up: dep.host_count() as u32,
        }
    }

    /// Fetch, parse and check one page. `Err` carries why the page
    /// failed (refused, errored, or missing what it asked for).
    pub(crate) fn page(&self, req: &PageReq) -> (Result<(), String>, ViewTiming) {
        let (owner, name, hosts) = &self.clusters[req.cluster];
        let front = &self.fronts[*owner];
        match req.kind {
            Kind::Meta => match self.fronts[self.root].meta_view() {
                Ok((view, timing)) => {
                    let (up, down, _) = view.totals();
                    let ok = up == self.expected_up && down == 0;
                    let verdict = ok.then_some(()).ok_or_else(|| {
                        format!("meta page: {up} up, {down} down, want {}", self.expected_up)
                    });
                    (verdict, timing)
                }
                Err(e) => (Err(format!("meta page: {e}")), ViewTiming::default()),
            },
            Kind::Cluster => match front.cluster_view(name) {
                Ok((view, timing)) => {
                    let ok = &view.name == name
                        && view.rows.len() == *hosts
                        && view.hosts_up as usize == *hosts;
                    let verdict = ok.then_some(()).ok_or_else(|| {
                        format!(
                            "cluster page {name}: {} rows, {} up",
                            view.rows.len(),
                            view.hosts_up
                        )
                    });
                    (verdict, timing)
                }
                Err(e) => (
                    Err(format!("cluster page {name}: {e}")),
                    ViewTiming::default(),
                ),
            },
            Kind::Host => {
                let host = format!("{name}-{:04}", req.host);
                match front.host_view(name, &host) {
                    Ok((view, timing)) => {
                        let ok = view.name == host && view.up && !view.metrics.is_empty();
                        let verdict = ok
                            .then_some(())
                            .ok_or_else(|| format!("host page {host}: up {}", view.up));
                        (verdict, timing)
                    }
                    Err(e) => (Err(format!("host page {host}: {e}")), ViewTiming::default()),
                }
            }
        }
    }

    /// Issue `req` at `due` (already reached) and measure it.
    pub(crate) fn measured_page(
        &self,
        req: &PageReq,
        due: Instant,
        seq: u64,
        tracing: Option<&Tracing>,
    ) -> (Page, Option<String>) {
        let issued = Instant::now();
        let allocs_before = thread_allocs();
        let span = tracing.map(|t| t.recorder.open(thread_cpu));
        let (verdict, timing) = self.page(req);
        if let (Some(t), Some(span)) = (tracing, span) {
            t.recorder
                .close(span, 0, "page", seq, req.kind.label().to_string());
        }
        let done = Instant::now();
        let ok = verdict.is_ok();
        let mut latency_ms = done.duration_since(due).as_secs_f64() * 1e3;
        if !ok {
            // A failed page is a miss of the latency limit.
            latency_ms = latency_ms.max(VIEW_LIMIT_MS);
        }
        (
            Page {
                kind: req.kind,
                ok,
                latency_ms,
                late_ms: issued.saturating_duration_since(due).as_secs_f64() * 1e3,
                timing,
                allocs: thread_allocs() - allocs_before,
                traced: tracing.is_some(),
            },
            verdict.err(),
        )
    }
}
