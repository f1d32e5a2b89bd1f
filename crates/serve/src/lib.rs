//! The query-serving front tier (`ganglia-serve`).
//!
//! The paper's gmetad exposes two TCP services: the full XML dump on
//! `xml_port` (8651) and the path-query engine on `interactive_port`
//! (8652, §3.3). Table 1 exists because serving and parsing the full
//! dump is the client-side scaling bottleneck — and on the server side,
//! a naive render-per-connection loop burns the same CPU over and over
//! while one slow reader can wedge the port for everyone else. The
//! R-GMA deployment experience (producer servlets collapsing under
//! consumer load) is the same lesson from a different system: the read
//! path needs its own subsystem.
//!
//! This crate is that subsystem, sandwiched between any
//! [`RequestHandler`](ganglia_net::transport::RequestHandler) and the
//! network:
//!
//! * [`FrontTier`] — admission control plus a **revision-keyed response
//!   cache**. Responses are cached per `(store revision, request)`; a
//!   revision bump (a new poll round installing snapshots) invalidates
//!   the whole cache on the next lookup, so cached and freshly rendered
//!   responses are byte-identical. Admission control covers max
//!   in-flight requests and per-peer token-bucket rate limiting; an
//!   over-limit request is answered with a well-formed XML error
//!   comment instead of hanging, so every client always gets a
//!   parseable document.
//! * [`PooledServer`] — a bounded worker-pool connection server over
//!   real TCP: one accept thread, `workers` service threads, a bounded
//!   hand-off queue, per-connection read/write deadlines, and a guard
//!   that drains in-flight connections with a deadline on drop. A
//!   stalled or flooding client costs at most one worker for one
//!   deadline; it cannot wedge the port.
//! * [`KeepAliveClient`] / the [`frame`] module — an optional framed
//!   keep-alive protocol (`#keepalive` hello, length-prefixed
//!   responses) so viewers can issue many queries over one connection
//!   instead of paying a TCP handshake per exchange.
//! * [`SubscriptionRegistry`] / the [`subs`] module — continuous-query
//!   subscriptions: a keep-alive session sends `#subscribe <gql expr>`
//!   and the tier pushes delta frames after every poll round that
//!   changes the query's result, instead of the client re-polling and
//!   re-diffing the full document.
//!
//! The tier also serves over the simulated transport: [`FrontTier`]
//! implements [`RequestHandler`](ganglia_net::transport::RequestHandler),
//! so `SimNet::serve` accepts it directly and the cache and admission
//! logic apply identically in deterministic experiments.
//!
//! Everything is instrumented through a shared `ganglia-telemetry`
//! [`Registry`](ganglia_telemetry::Registry) under the `serve.*`
//! namespace: `serve.latency_us`, `serve.cache_hits_total` /
//! `serve.cache_misses_total`, `serve.shed_total`,
//! `serve.ratelimited_total`, `serve.evicted_total`, and the
//! `serve.inflight` gauge.

pub mod admission;
pub mod cache;
pub mod frame;
pub mod options;
pub mod pool;
pub mod subs;
pub mod tier;

pub use admission::RateLimiter;
pub use cache::ResponseCache;
pub use frame::KeepAliveClient;
pub use options::ServeOptions;
pub use pool::PooledServer;
pub use subs::{SubscribeError, SubscriptionHandle, SubscriptionRegistry};
pub use tier::{error_doc, Disposition, FrontTier, Served};
