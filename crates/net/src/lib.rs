//! Transport substrate for the monitoring tree.
//!
//! Ganglia's wide-area traffic is request/response: a gmetad connects to a
//! child (a cluster gmond or another gmetad), optionally sends a query,
//! and reads an XML report (paper §1, fig 1). This crate abstracts that
//! exchange behind [`Transport`] with two implementations:
//!
//! * [`SimNet`] — a deterministic in-memory network used by the tests and
//!   by the paper-reproduction experiments. It supports the failure modes
//!   the paper cares about (node stop failures, intermittent failures,
//!   whole-cluster partitions, §2.1) and records per-endpoint traffic
//!   statistics so experiments can verify the O(m)-vs-O(CHm) reduction in
//!   upstream data volume (§3.2).
//! * [`TcpTransport`] — a real `std::net` TCP implementation with the
//!   gmetad wire protocol (one request line, XML response, close), for
//!   running an actual distributed deployment.
//!
//! [`tcp`] owns every socket in the workspace: the one bounded server
//! ([`tcp::serve_bounded`]) that every port runs on, the one dial
//! ([`tcp::dial`]) and the one socket-error taxonomy
//! ([`tcp::classify`]). A fixed set of workers drains a bounded queue;
//! each request line must arrive complete within the read deadline and
//! fit in [`tcp::MAX_LINE`] bytes. [`TcpTransport::serve`] runs the
//! one-shot protocol on it and refuses a connection it has no room for
//! by closing it without a body; `ganglia-serve` runs the serving tier's
//! protocol on it and refuses with an `overloaded` document.
//!
//! [`McastBus`] models the local-area UDP multicast channel gmond agents
//! use to exchange metric packets within a cluster, with configurable
//! packet loss.

pub mod addr;
pub mod error;
pub mod mcast;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod transport;

pub use addr::Addr;
pub use error::NetError;
pub use mcast::{McastBus, McastSubscription};
pub use sim::SimNet;
pub use stats::{AddrStats, TrafficReport};
pub use tcp::TcpTransport;
pub use transport::{FetchBuffer, RequestHandler, ServerGuard, Transport};
