//! The serving tier's connection protocol on the one bounded server.
//!
//! Every port, the tier's and the plain report ports alike, runs on
//! [`ganglia_net::tcp::serve_bounded`]: one accept thread feeding a
//! bounded queue drained by a fixed set of workers, per-connection read
//! and write deadlines, and a guard that drains on drop. Concurrency is
//! capped by configuration, and a stalled peer ties up one worker for
//! at most one deadline before it is evicted. Every request line, the
//! keep-alive hello and each keep-alive line included, is read through
//! [`Conn::read_line`]: it must arrive complete within the read
//! deadline and fit in [`MAX_LINE`](ganglia_net::tcp::MAX_LINE) bytes,
//! so a dripping or newline-less peer is cut off too.
//!
//! [`PooledServer::bind`] adds the tier's protocol and policy on top:
//! the legacy one-shot exchange or a keep-alive session (with
//! subscriptions), answered through the tier's cache and admission
//! control. Where the plain one-shot server refuses a connection at the
//! door by closing it without a body, the tier refuses with a
//! well-formed `overloaded` document, counted in `serve.shed_total`.

use std::io;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use ganglia_net::tcp::{self, Conn};
use ganglia_net::{Addr, NetError, ServerGuard};

use crate::frame;
use crate::subs::SubscriptionHandle;
use crate::tier::{error_doc, FrontTier};

/// Binds TCP ports and serves them through a [`FrontTier`] on the
/// bounded server. Stateless: [`PooledServer::bind`] does all the work.
#[derive(Debug, Default, Clone, Copy)]
pub struct PooledServer;

impl PooledServer {
    /// Bind `addr` and serve it through `tier`. Worker count, queue
    /// depth, deadlines, and the drain deadline all come from the
    /// tier's [`ServeOptions`](crate::ServeOptions).
    pub fn bind(addr: &Addr, tier: Arc<FrontTier>) -> Result<Box<dyn ServerGuard>, NetError> {
        let limits = tier.options().limits();
        let refusing = Arc::clone(&tier);
        tcp::serve_bounded(
            addr,
            limits,
            move |conn| {
                if let Err(e) = serve_connection(conn, &tier) {
                    if matches!(
                        e.kind(),
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                    ) {
                        tier.record_eviction();
                    }
                }
            },
            move |stream| {
                // The client reads "overloaded", not a hang.
                refusing.record_shed();
                let doc = error_doc("overloaded: connection queue full, shedding");
                let _ = io::Write::write_all(stream, doc.as_bytes());
            },
        )
    }
}

/// Serve one connection: a keep-alive session if the first line is the
/// hello, otherwise the one-shot exchange. An error ends the
/// connection; a deadline error counts as an eviction.
fn serve_connection(conn: &mut Conn, tier: &FrontTier) -> io::Result<()> {
    // One-shot peers are keyed by source IP; a keep-alive hello may
    // override this with the session's self-declared name.
    let peer = conn
        .stream()
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let mut first = String::new();
    if conn.read_line(&mut first)? == 0 {
        return Ok(()); // closed without a request
    }
    match frame::parse_hello(&first) {
        Some("") => serve_keepalive(conn, tier, &peer),
        Some(name) => serve_keepalive(conn, tier, name),
        None => conn.respond(tier.handle_from(&peer, &first).body.as_bytes()),
    }
}

fn serve_keepalive(conn: &mut Conn, tier: &FrontTier, session: &str) -> io::Result<()> {
    let mut line = String::new();
    loop {
        if conn.read_line(&mut line)? == 0 {
            return Ok(()); // clean close
        }
        let body = match frame::parse_subscribe(&line) {
            Some(expr) => match tier.try_subscribe(session, expr) {
                Ok(handle) => {
                    // Push mode: the initial snapshot, then deltas as the
                    // registry produces them. The connection never
                    // returns to request mode.
                    let pushed = frame::write_frame(&mut conn.stream(), &handle.initial)
                        .and_then(|()| push_deltas(conn, &handle));
                    if let Some(subs) = tier.subscriptions() {
                        subs.unsubscribe(handle.id);
                    }
                    return pushed;
                }
                // A refused subscribe leaves the session in request
                // mode; the framed <ERROR> document says why.
                Err(refusal) => Arc::new(refusal),
            },
            None => tier.handle_from(session, &line).body,
        };
        frame::write_frame(&mut conn.stream(), &body)?;
    }
}

/// Serve a subscribed connection: block on the subscription queue and
/// frame out each delta. Between deltas, probe the socket so a client
/// that closed is noticed and its worker freed even on a quiet store.
fn push_deltas(conn: &mut Conn, handle: &SubscriptionHandle) -> io::Result<()> {
    loop {
        match handle.next(Duration::from_millis(100)) {
            Ok(body) => frame::write_frame(&mut conn.stream(), &body)?,
            Err(RecvTimeoutError::Timeout) if conn.peer_gone() => return Ok(()),
            Err(RecvTimeoutError::Timeout) => {}
            // The registry evicted this subscription (slow reader).
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::KeepAliveClient;
    use crate::options::ServeOptions;
    use ganglia_net::transport::{RequestHandler, Transport};
    use ganglia_net::TcpTransport;
    use ganglia_telemetry::Registry;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::mpsc;
    use std::sync::Mutex;
    use std::time::Instant;

    const T: Duration = Duration::from_secs(2);

    fn tier_over(
        handler: impl Fn(&str) -> String + Send + Sync + 'static,
        options: ServeOptions,
    ) -> (Arc<FrontTier>, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let handler: Arc<dyn RequestHandler> = Arc::new(handler);
        let tier = FrontTier::new(handler, || 1, options, Arc::clone(&registry));
        (tier, registry)
    }

    fn connect(guard: &dyn ServerGuard) -> TcpStream {
        let addr: SocketAddr = guard.addr().as_str().parse().unwrap();
        TcpStream::connect_timeout(&addr, T).unwrap()
    }

    fn wait_for_counter(registry: &Registry, name: &str, value: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while registry.snapshot().counter(name) != Some(value) {
            assert!(Instant::now() < deadline, "{name} never reached {value}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn legacy_one_shot_protocol_works_and_caches() {
        let (tier, registry) = tier_over(
            |req| format!("<REPLY Q=\"{req}\"/>"),
            ServeOptions::default(),
        );
        let guard = PooledServer::bind(&Addr::new("127.0.0.1:0"), tier).unwrap();
        let transport = TcpTransport::new();
        let first = transport.fetch(&guard.addr(), "/meteor", T).unwrap();
        let second = transport.fetch(&guard.addr(), "/meteor", T).unwrap();
        assert_eq!(first, "<REPLY Q=\"/meteor\"/>");
        assert_eq!(first, second);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.cache_hits_total"), Some(1));
        assert_eq!(snap.counter("serve.cache_misses_total"), Some(1));
    }

    #[test]
    fn keepalive_session_serves_many_queries_on_one_connection() {
        let (tier, _registry) =
            tier_over(|req| format!("<R Q=\"{req}\"/>"), ServeOptions::default());
        let guard = PooledServer::bind(&Addr::new("127.0.0.1:0"), tier).unwrap();
        let mut client = KeepAliveClient::connect(&guard.addr(), "viewer-1", T).unwrap();
        for i in 0..5 {
            let response = client.query(&format!("/grid/host-{i}")).unwrap();
            assert_eq!(response, format!("<R Q=\"/grid/host-{i}\"/>"));
        }
    }

    #[test]
    fn keepalive_sessions_are_rate_limited_by_name_not_ip() {
        let (tier, registry) = tier_over(
            |_| "<DOC/>".to_string(),
            ServeOptions::default().with_rate_limit(1, 2),
        );
        let guard = PooledServer::bind(&Addr::new("127.0.0.1:0"), tier).unwrap();
        let mut flood = KeepAliveClient::connect(&guard.addr(), "flooder", T).unwrap();
        let mut seen_limit = false;
        for _ in 0..4 {
            let response = flood.query("/").unwrap();
            seen_limit |= response.contains("rate limited");
        }
        assert!(seen_limit, "flooder exhausted its own budget");
        // A differently-named session from the same IP is unaffected.
        let mut good = KeepAliveClient::connect(&guard.addr(), "good", T).unwrap();
        assert!(!good.query("/").unwrap().contains("rate limited"));
        assert!(
            registry
                .snapshot()
                .counter("serve.ratelimited_total")
                .unwrap()
                >= 1
        );
    }

    #[test]
    fn stalled_client_is_evicted_on_the_read_deadline() {
        let (tier, registry) = tier_over(
            |_| "<DOC/>".to_string(),
            ServeOptions::default()
                .with_workers(1)
                .with_deadlines(Duration::from_millis(100), Duration::from_millis(100)),
        );
        let guard = PooledServer::bind(&Addr::new("127.0.0.1:0"), tier).unwrap();
        // Connect and send nothing: the worker must not be pinned past
        // the read deadline.
        let _stalled = connect(&*guard);
        wait_for_counter(&registry, "serve.evicted_total", 1);
        // The lone worker is free again: a well-behaved client is served.
        let transport = TcpTransport::new();
        assert_eq!(transport.fetch(&guard.addr(), "/", T).unwrap(), "<DOC/>");
    }

    #[test]
    fn a_dripping_peer_is_evicted_within_one_deadline() {
        let deadline = Duration::from_millis(300);
        let (tier, registry) = tier_over(
            |_| "<DOC/>".to_string(),
            ServeOptions::default()
                .with_workers(1)
                .with_deadlines(deadline, deadline),
        );
        let guard = PooledServer::bind(&Addr::new("127.0.0.1:0"), tier).unwrap();
        // One byte every 100 ms and no newline: every read beats the
        // socket timeout, the line as a whole does not.
        let mut drip = connect(&*guard);
        let start = Instant::now();
        let dripper = std::thread::spawn(move || {
            for _ in 0..50 {
                if drip.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        // The client waiting behind the drip is served once the lone
        // worker evicts it, about one deadline in, not after the 5 s
        // drip (the bound leaves room for a loaded machine).
        let transport = TcpTransport::new();
        assert_eq!(
            transport
                .fetch(&guard.addr(), "/", Duration::from_secs(10))
                .unwrap(),
            "<DOC/>"
        );
        let waited = start.elapsed();
        assert!(waited < deadline * 8, "waited {waited:?} behind the drip");
        assert_eq!(registry.snapshot().counter("serve.evicted_total"), Some(1));
        dripper.join().unwrap();
    }

    #[test]
    fn over_long_lines_are_cut_off_on_both_protocols() {
        let (tier, registry) = tier_over(|req| req.len().to_string(), ServeOptions::default());
        let guard = PooledServer::bind(&Addr::new("127.0.0.1:0"), tier).unwrap();
        let over = "x".repeat(tcp::MAX_LINE);
        // One-shot: the connection closes without a response.
        assert!(TcpTransport::new().fetch(&guard.addr(), &over, T).is_err());
        // Keep-alive: a line that fits is answered, one past the cap
        // ends the session.
        let mut session = KeepAliveClient::connect(&guard.addr(), "long", T).unwrap();
        let longest = "x".repeat(tcp::MAX_LINE - 1);
        assert_eq!(
            session.query(&longest).unwrap(),
            (tcp::MAX_LINE - 1).to_string()
        );
        assert!(session.query(&over).is_err());
        assert_eq!(registry.snapshot().counter("serve.requests_total"), Some(1));
    }

    #[test]
    fn full_queue_sheds_with_an_overloaded_document() {
        // The handler holds the lone worker until the test releases it.
        let (entered_tx, entered) = mpsc::sync_channel::<()>(8);
        let (release, release_rx) = mpsc::sync_channel::<()>(8);
        let release_rx = Mutex::new(release_rx);
        let mut options = ServeOptions::default().with_workers(1).with_cache(false);
        options.queue_depth = 1;
        let (tier, registry) = tier_over(
            move |req| {
                let _ = entered_tx.send(());
                let _ = release_rx.lock().unwrap().recv();
                format!("<R Q=\"{req}\"/>")
            },
            options,
        );
        let guard = PooledServer::bind(&Addr::new("127.0.0.1:0"), tier).unwrap();
        let first = {
            let bound = guard.addr();
            std::thread::spawn(move || TcpTransport::new().fetch(&bound, "/a", T))
        };
        entered
            .recv_timeout(T)
            .expect("the worker took the first fetch");
        // The second connection waits in the queue of one...
        let mut queued = connect(&*guard);
        queued.write_all(b"/b\n").unwrap();
        // ...so the third is shed at the door with a complete document.
        let mut shed = connect(&*guard);
        shed.set_read_timeout(Some(T)).unwrap();
        let mut body = Vec::new();
        let _ = shed.read_to_end(&mut body);
        let body = String::from_utf8(body).unwrap();
        assert!(body.contains("overloaded"), "{body}");
        assert!(body.contains("<GANGLIA_XML"), "{body}");
        assert_eq!(registry.snapshot().counter("serve.shed_total"), Some(1));
        // Released, the worker finishes the first and serves the queued one.
        release.send(()).unwrap();
        release.send(()).unwrap();
        assert_eq!(first.join().unwrap().unwrap(), "<R Q=\"/a\"/>");
        let mut body = String::new();
        queued.read_to_string(&mut body).unwrap();
        assert_eq!(body, "<R Q=\"/b\"/>");
    }
}
