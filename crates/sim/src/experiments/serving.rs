//! The serving front tier, measured.
//!
//! §3.3 sizes the query side of gmetad: "many clients request and
//! receive cluster state", and "the time to dump the actual data takes
//! longer" as the tree grows. Rendering the full dump per connection is
//! O(C·H·m) work repeated for every client; between poll rounds the
//! store does not change, so all but the first render is waste. Two
//! experiments quantify what `ganglia-serve` buys back:
//!
//! * [`run_serving`] — N concurrent clients hammer the full-dump
//!   service with the revision-keyed cache on and off; the cached side
//!   should win by a wide margin (the bench asserts ≥5×).
//! * [`run_slow_client_isolation`] — over real TCP, well-behaved
//!   keep-alive clients measure their p99 while stalled connections
//!   occupy the pool; per-connection deadlines keep the p99 bounded
//!   instead of letting one bad peer wedge the port.

use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ganglia_core::telemetry::Histogram;
use ganglia_core::{DataSourceCfg, Gmetad, GmetadConfig};
use ganglia_gmond::pseudo::ServedPseudoCluster;
use ganglia_gmond::PseudoGmond;
use ganglia_net::{Addr, SimNet};
use ganglia_serve::{FrontTier, KeepAliveClient, PooledServer, ServeOptions};

/// Shape of the serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingParams {
    /// Monitored clusters feeding the store.
    pub clusters: usize,
    /// Hosts per cluster (the dump is O(clusters · hosts · metrics)).
    pub hosts_per_cluster: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Full-dump requests each client issues.
    pub requests_per_client: usize,
}

impl Default for ServingParams {
    fn default() -> Self {
        ServingParams {
            clusters: 4,
            hosts_per_cluster: 32,
            clients: 64,
            requests_per_client: 25,
        }
    }
}

/// One side of the cache-on/cache-off comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSide {
    pub elapsed: Duration,
    /// Full dumps served per second across all clients.
    pub throughput_rps: f64,
    /// Requests answered by rendering (inner-handler calls).
    pub renders: u64,
    /// Requests answered from the cache.
    pub cache_hits: u64,
    /// p99 of the tier's per-request latency.
    pub latency_p99_us: u64,
}

/// Result of [`run_serving`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServingResult {
    pub params: ServingParams,
    /// Size of one full dump, so throughput can be read as bandwidth.
    pub dump_bytes: usize,
    pub cached: ServingSide,
    pub rendered: ServingSide,
}

impl ServingResult {
    /// Cached-dump throughput over render-per-request throughput.
    pub fn speedup(&self) -> f64 {
        self.cached.throughput_rps / self.rendered.throughput_rps.max(1e-9)
    }
}

/// Build a gmetad whose store holds `clusters` pseudo-gmond clusters,
/// polled once so every snapshot is fresh. The cluster guards must stay
/// alive while the daemon is used.
fn populated_gmetad(
    net: &Arc<SimNet>,
    clusters: usize,
    hosts_per_cluster: usize,
) -> (Vec<ServedPseudoCluster>, Arc<Gmetad>) {
    let mut config = GmetadConfig::new("serving");
    let served: Vec<ServedPseudoCluster> = (0..clusters)
        .map(|c| {
            let pseudo = PseudoGmond::new(format!("c{c}"), hosts_per_cluster, 42 + c as u64, 0);
            ServedPseudoCluster::serve(net, pseudo, 1)
        })
        .collect();
    for (c, cluster) in served.iter().enumerate() {
        config = config
            .with_source(DataSourceCfg::new(format!("c{c}"), cluster.addrs().to_vec()).unwrap());
    }
    let gmetad = Gmetad::new(config);
    let results = gmetad.poll_all(net, 15);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    (served, gmetad)
}

/// Drive `clients` threads through `tier`, each issuing
/// `requests_per_client` full-dump requests under its own peer name.
/// Returns the wall-clock from gate-release to last completion.
fn drive(tier: &Arc<FrontTier>, clients: usize, requests_per_client: usize) -> Duration {
    let gate = Arc::new(Barrier::new(clients + 1));
    let mut start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let tier = Arc::clone(tier);
            let gate = Arc::clone(&gate);
            scope.spawn(move || {
                let peer = format!("client-{client}");
                gate.wait();
                for _ in 0..requests_per_client {
                    let served = tier.handle_from(&peer, "/");
                    assert!(
                        served.accepted(),
                        "in-process drive stays under max_inflight"
                    );
                }
            });
        }
        gate.wait();
        start = Instant::now();
    });
    start.elapsed()
}

/// Measure full-dump serving with the revision-keyed cache on and off.
///
/// Clients run in-process against the tier (the same code path the
/// pooled TCP workers call), so the comparison isolates render-vs-cache
/// cost from socket noise. The store is identical on both sides and
/// never mutates mid-run, so the cached side serves byte-identical
/// documents — just without re-rendering them.
pub fn run_serving(params: ServingParams) -> ServingResult {
    let net = SimNet::new(1);
    let (_served, gmetad) = populated_gmetad(&net, params.clusters, params.hosts_per_cluster);
    let dump_bytes = gmetad.query("/").len();
    let total = (params.clients * params.requests_per_client) as u64;

    let side = |cache: bool| {
        let options = ServeOptions::default()
            .with_cache(cache)
            .with_workers(params.clients.max(1))
            .with_max_inflight(params.clients.max(64) * 2);
        // A fresh registry per side keeps the two sides' counters and
        // latency quantiles apart; `Gmetad::dump_tier` shares the
        // daemon registry instead, which is what a deployment wants.
        let registry = Arc::new(ganglia_core::telemetry::Registry::new());
        let revision = {
            let daemon = Arc::clone(&gmetad);
            move || daemon.store().revision()
        };
        let tier = FrontTier::new(
            gmetad.dump_handler(),
            revision,
            options,
            Arc::clone(&registry),
        );
        let elapsed = drive(&tier, params.clients, params.requests_per_client);
        let snap = registry.snapshot();
        let cache_hits = snap.counter("serve.cache_hits_total").unwrap_or(0);
        ServingSide {
            elapsed,
            throughput_rps: total as f64 / elapsed.as_secs_f64().max(1e-9),
            // Everything not served from the cache was rendered; with
            // the cache off that is every request.
            renders: total - cache_hits,
            cache_hits,
            latency_p99_us: snap
                .histogram("serve.latency_us")
                .map_or(0, |h| h.quantile(0.99)),
        }
    };

    let rendered = side(false);
    let cached = side(true);
    ServingResult {
        params,
        dump_bytes,
        cached,
        rendered,
    }
}

/// Result of [`run_slow_client_isolation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationResult {
    /// Good-client p99 with the port to themselves.
    pub baseline_p99_us: u64,
    /// Good-client p99 while `stalled_clients` connections, parked
    /// before the good clients connect, sit on the pool sending nothing.
    pub contended_p99_us: u64,
    pub stalled_clients: usize,
    /// Connections the server evicted on a read/write deadline.
    pub evictions: u64,
}

impl IsolationResult {
    /// The paper-faithful claim: slow clients cost a bounded amount.
    /// `allowance` is the per-connection deadline the pool evicts at; a
    /// wedged port would push the p99 toward the client timeout instead.
    pub fn p99_bounded_by(&self, allowance: Duration) -> bool {
        Duration::from_micros(self.contended_p99_us) < allowance
    }
}

/// Over real TCP: measure keep-alive clients' p99 latency with and
/// without stalled connections occupying the worker pool.
pub fn run_slow_client_isolation(
    good_clients: usize,
    requests_per_client: usize,
    stalled_clients: usize,
) -> IsolationResult {
    let net = SimNet::new(1);
    let (_served, gmetad) = populated_gmetad(&net, 2, 16);
    let stall_deadline = Duration::from_millis(300);
    let options = ServeOptions::default()
        .with_workers(4)
        .with_max_inflight(256)
        .with_deadlines(stall_deadline, stall_deadline);
    let tier = gmetad.dump_tier(options);
    let registry = Arc::clone(tier.registry());
    let guard = PooledServer::bind(&Addr::new("127.0.0.1:0"), tier).expect("bind loopback");
    let addr = guard.addr();
    let timeout = Duration::from_secs(5);

    let measure = |label: &str| {
        let latency = Histogram::new();
        std::thread::scope(|scope| {
            for client in 0..good_clients {
                let addr = addr.clone();
                let latency = &latency;
                let name = format!("{label}-{client}");
                scope.spawn(move || {
                    let mut session =
                        KeepAliveClient::connect(&addr, &name, timeout).expect("connect");
                    for _ in 0..requests_per_client {
                        let start = Instant::now();
                        let body = session.query("/").expect("keep-alive query");
                        latency.record(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
                        assert!(body.contains("GANGLIA_XML"), "valid document under load");
                    }
                });
            }
        });
        latency.snapshot().quantile(0.99)
    };

    let baseline_p99_us = measure("baseline");
    // Park the stalled peers before any good client connects: they
    // complete the handshake and send nothing, so the pool hands them
    // workers first and each pins one until the read deadline evicts
    // it. Good clients queued behind them wait for that eviction (a
    // keep-alive session holds its worker until the client closes).
    let socket_addr: std::net::SocketAddr = addr.as_str().parse().expect("a bound address");
    let window = Instant::now();
    let parked: Vec<TcpStream> = (0..stalled_clients)
        .map(|_| TcpStream::connect_timeout(&socket_addr, timeout).expect("connect a stalled peer"))
        .collect();
    let contended_p99_us = measure("contended");
    // Hold the window for two deadlines, then wait for the evictions to
    // be counted: the counter moves when a worker gives up on its peer.
    std::thread::sleep((2 * stall_deadline).saturating_sub(window.elapsed()));
    let evicted = || {
        registry
            .snapshot()
            .counter("serve.evicted_total")
            .unwrap_or(0)
    };
    let give_up = Instant::now() + timeout;
    while evicted() < stalled_clients as u64 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(20));
    }
    let evictions = evicted();
    drop(parked);
    IsolationResult {
        baseline_p99_us,
        contended_p99_us,
        stalled_clients,
        evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_multiplies_dump_throughput() {
        let result = run_serving(ServingParams {
            clusters: 2,
            hosts_per_cluster: 16,
            clients: 8,
            requests_per_client: 25,
        });
        assert!(result.dump_bytes > 10_000, "{}", result.dump_bytes);
        // At most the initial thundering herd renders (concurrent first
        // misses racing the first insert); everything after hits.
        assert!(result.cached.renders >= 1, "{result:?}");
        assert!(result.cached.renders <= 8, "{result:?}");
        assert_eq!(result.cached.cache_hits, 8 * 25 - result.cached.renders);
        // The uncached side rendered every time.
        assert_eq!(result.rendered.renders, 8 * 25);
        assert_eq!(result.rendered.cache_hits, 0);
        // The full ≥5× claim is asserted at bench scale (64 clients);
        // at this test's size the cache must still clearly win.
        assert!(result.speedup() > 1.5, "speedup {:.2}", result.speedup());
    }

    #[test]
    fn slow_clients_do_not_wedge_the_pool() {
        let result = run_slow_client_isolation(4, 25, 2);
        // Every parked peer cost its worker one deadline, then went.
        assert!(result.evictions >= 2, "{result:?}");
        // The keep-alive clients all finished (measure asserts each
        // response), and their p99 stayed far from the 5 s client
        // timeout a wedged port would produce.
        assert!(
            result.p99_bounded_by(Duration::from_secs(2)),
            "contended p99 {}us",
            result.contended_p99_us
        );
    }
}
