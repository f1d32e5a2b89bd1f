//! Real TCP over `std::net`: the one server every port runs on, the one
//! dial every client uses, and the one socket-error taxonomy.
//!
//! Every Ganglia link is the same exchange, "XML streams sent over TCP
//! connections" (paper §1, fig 1): the client connects, sends a request
//! line, and reads XML back. [`serve_bounded`] is the only server. One
//! accept thread feeds a bounded queue drained by a fixed set of
//! workers; every connection carries read and write deadlines; a full
//! queue refuses new arrivals at the door instead of growing; and the
//! guard drains in-flight connections on drop. The protocol a worker
//! runs on a connection is a function the caller passes in:
//!
//! * [`TcpTransport::serve`] runs the one-shot protocol (one request
//!   line, one XML document, close) at the [`ServerLimits::default`]
//!   limits. A connection refused at the door is closed without a body,
//!   so the client sees a failed exchange, never an empty document.
//! * `ganglia_serve::PooledServer` runs the serving tier's protocol
//!   (keep-alive, subscriptions, cache, admission) at the limits of its
//!   `ServeOptions`, and refuses with an `overloaded` document.
//!
//! Every request line is read through [`Conn::read_line`], which bounds
//! it in time (complete within the read deadline) and in size
//! ([`MAX_LINE`]): a peer that drips bytes or never sends a newline
//! costs one worker for at most one deadline. Clients connect through
//! [`dial`] and map socket failures through [`classify`]. Addresses are
//! `host:port` socket addresses; binding port 0 picks an ephemeral port,
//! reported by the guard.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvError, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::addr::Addr;
use crate::error::NetError;
use crate::transport::{FetchBuffer, RequestHandler, ServerGuard, Transport};

/// The longest request line a server reads, terminator included. Lines
/// are a path or a GQL expression, so 64 KiB is ample; a longer line
/// cuts the connection off.
pub const MAX_LINE: usize = 64 * 1024;

/// How long the accept thread spends writing a refusal before it
/// closes the connection.
const REFUSE_DEADLINE: Duration = Duration::from_millis(500);

/// Sizing and deadlines of one bound port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerLimits {
    /// Worker threads serving connections (at least one runs).
    pub workers: usize,
    /// Accepted connections that may wait for a free worker; the next
    /// arrival is refused at the door.
    pub queue_depth: usize,
    /// A request line must arrive complete within this long, counted
    /// from when the worker starts reading it. A silent, idle or
    /// dripping peer is dropped after it.
    pub read_timeout: Duration,
    /// Every write of a response must make progress within this long.
    pub write_timeout: Duration,
    /// How long a dropped guard waits for in-flight connections to
    /// finish before detaching them.
    pub drain_deadline: Duration,
}

impl Default for ServerLimits {
    /// 4 workers and a queue of 64, 10 s read and write deadlines, and
    /// a 2 s drain.
    fn default() -> Self {
        ServerLimits {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(2),
        }
    }
}

/// One accepted connection as a worker serves it: a buffered reader
/// over the socket, with the socket's read and write deadlines set.
/// Responses are written straight to [`Conn::stream`].
pub struct Conn {
    reader: BufReader<TcpStream>,
    read_timeout: Duration,
    line: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream, limits: &ServerLimits) -> io::Result<Conn> {
        stream.set_read_timeout(Some(limits.read_timeout))?;
        stream.set_write_timeout(Some(limits.write_timeout))?;
        // A keep-alive frame header and body go out as separate writes;
        // with Nagle on, the short header waits for the peer's delayed
        // ACK and every round trip eats ~40 ms.
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            reader: BufReader::new(stream),
            read_timeout: limits.read_timeout,
            line: Vec::new(),
        })
    }

    /// The socket: write responses to it (`&TcpStream` is `Write`) or
    /// ask it for the peer's address.
    pub fn stream(&self) -> &TcpStream {
        self.reader.get_ref()
    }

    /// Read one request line into `line`, without its trailing `\r`s
    /// and `\n`s, and return the bytes it took off the wire: 0 means
    /// the peer closed before sending anything, and a line cut short
    /// by the peer's close is returned as is.
    ///
    /// The line must arrive complete within the read deadline, counted
    /// from this call, or the read fails with `TimedOut` (or the
    /// socket's `WouldBlock`); it must fit in [`MAX_LINE`] bytes or the
    /// read fails with `InvalidData`. Either way the caller drops the
    /// connection.
    pub fn read_line(&mut self, line: &mut String) -> io::Result<usize> {
        line.clear();
        self.line.clear();
        let until = Instant::now() + self.read_timeout;
        loop {
            if self.reader.buffer().is_empty() {
                // The socket's timeout bounds one read; re-arming it with
                // what is left of the line's deadline bounds the line.
                let left = until.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "request line incomplete at the read deadline",
                    ));
                }
                self.reader.get_ref().set_read_timeout(Some(left))?;
            }
            let available = match self.reader.fill_buf() {
                Ok(available) => available,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                break; // the peer closed
            }
            let (taken, complete) = match available.iter().position(|&b| b == b'\n') {
                Some(newline) => (newline + 1, true),
                None => (available.len(), false),
            };
            if self.line.len() + taken > MAX_LINE {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("request line longer than {MAX_LINE} bytes"),
                ));
            }
            self.line.extend_from_slice(&available[..taken]);
            self.reader.consume(taken);
            if complete {
                break;
            }
        }
        let text = std::str::from_utf8(&self.line)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request line is not UTF-8"))?;
        line.push_str(text.trim_end_matches(['\r', '\n']));
        Ok(self.line.len())
    }

    /// Write a whole response, then half-close: the one-shot protocol's
    /// "one document, then EOF".
    pub fn respond(&mut self, body: &[u8]) -> io::Result<()> {
        let mut stream = self.stream();
        stream.write_all(body)?;
        let _ = stream.shutdown(Shutdown::Write);
        Ok(())
    }

    /// Whether the peer has closed or its socket failed, checked without
    /// blocking for more than a millisecond. Stray input is read and
    /// discarded.
    pub fn peer_gone(&mut self) -> bool {
        if self
            .stream()
            .set_read_timeout(Some(Duration::from_millis(1)))
            .is_err()
        {
            return true;
        }
        let mut probe = [0u8; 64];
        match self.reader.read(&mut probe) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) => !is_timeout(&e),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Bind `addr` and serve it on the bounded server: an accept thread,
/// `limits.workers` workers and a queue of `limits.queue_depth`
/// accepted connections.
///
/// A worker hands each connection to `serve`. When every worker is busy
/// and the queue is full, the accept thread hands the new connection to
/// `refuse` instead, with a short write deadline, and closes it
/// afterwards; a `refuse` that writes nothing closes it without a body.
/// Dropping the returned guard stops accepting, lets the workers finish
/// what was accepted, and waits for them up to `limits.drain_deadline`.
pub fn serve_bounded(
    addr: &Addr,
    limits: ServerLimits,
    serve: impl Fn(&mut Conn) + Send + Sync + 'static,
    refuse: impl Fn(&mut TcpStream) + Send + 'static,
) -> Result<Box<dyn ServerGuard>, NetError> {
    let listener = TcpListener::bind(addr.as_str()).map_err(|e| match e.kind() {
        io::ErrorKind::AddrInUse => NetError::AddrInUse(addr.clone()),
        _ => NetError::Io(e.to_string()),
    })?;
    let local = listener
        .local_addr()
        .map_err(|e| NetError::Io(e.to_string()))?;
    let (queue, pending) = mpsc::sync_channel::<TcpStream>(limits.queue_depth);
    // std's channel is single-consumer, so the workers share its
    // receiver behind a mutex, held only to take one connection.
    let pending = Arc::new(Mutex::new(pending));
    let serve = Arc::new(serve);
    // Each worker holds a sender; the receiver disconnects once every
    // worker has exited, even on unwind.
    let (alive, exited) = mpsc::channel::<()>();
    let workers = (0..limits.workers.max(1))
        .map(|index| {
            let pending = Arc::clone(&pending);
            let serve = Arc::clone(&serve);
            let alive = alive.clone();
            std::thread::Builder::new()
                .name(format!("gnet-worker-{local}-{index}"))
                .spawn(move || {
                    let _alive = alive;
                    while let Ok(stream) = next_connection(&pending) {
                        if let Ok(mut conn) = Conn::new(stream, &limits) {
                            // A panicking protocol costs its connection,
                            // not the worker: the pool never shrinks.
                            let _ = panic::catch_unwind(AssertUnwindSafe(|| serve(&mut conn)));
                        }
                    }
                })
                .map_err(|e| NetError::Io(e.to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let accept = std::thread::Builder::new()
        .name(format!("gnet-accept-{local}"))
        .spawn(move || accept_loop(&listener, queue, &refuse, &stopped))
        .map_err(|e| NetError::Io(e.to_string()))?;
    Ok(Box::new(BoundedGuard {
        local,
        stop,
        accept: Some(accept),
        workers,
        exited,
        drain_deadline: limits.drain_deadline,
    }))
}

/// Take the next queued connection; the lock is released before the
/// connection is served.
fn next_connection(pending: &Mutex<Receiver<TcpStream>>) -> Result<TcpStream, RecvError> {
    pending.lock().unwrap_or_else(|e| e.into_inner()).recv()
}

fn accept_loop(
    listener: &TcpListener,
    queue: SyncSender<TcpStream>,
    refuse: &dyn Fn(&mut TcpStream),
    stop: &AtomicBool,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return; // dropping `queue` lets the workers drain and exit
        }
        let Ok((stream, _peer)) = accepted else {
            continue;
        };
        match queue.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                let _ = stream.set_write_timeout(Some(REFUSE_DEADLINE));
                refuse(&mut stream);
                let _ = stream.shutdown(Shutdown::Both);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Guard for a port served by [`serve_bounded`].
struct BoundedGuard {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    exited: Receiver<()>,
    drain_deadline: Duration,
}

impl ServerGuard for BoundedGuard {
    fn addr(&self) -> Addr {
        Addr::new(self.local.to_string())
    }
}

impl Drop for BoundedGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the listener so the accept thread notices the stop flag.
        let _ = TcpStream::connect_timeout(&self.local, Duration::from_millis(200));
        if let Some(thread) = self.accept.take() {
            let _ = thread.join();
        }
        // The accept thread's exit closed the queue, so the workers
        // serve what was already accepted and stop. One still stuck on
        // a slow peer past the drain deadline is detached; the
        // connection's deadlines bound it.
        if let Err(RecvTimeoutError::Disconnected) = self.exited.recv_timeout(self.drain_deadline) {
            for worker in self.workers.drain(..) {
                let _ = worker.join();
            }
        }
    }
}

/// Connect to `addr`, a numeric `host:port`, within `timeout`, which
/// also becomes the connection's read and write deadline. Nagle is off:
/// request lines are tiny, and a held one waits for a delayed ACK. A
/// connect that times out is a [`NetError::Timeout`]; any other connect
/// failure means no endpoint answered, [`NetError::Unreachable`].
pub fn dial(addr: &Addr, timeout: Duration) -> Result<TcpStream, NetError> {
    let socket_addr: SocketAddr = addr
        .as_str()
        .parse()
        .map_err(|e| NetError::Io(format!("bad socket address {addr}: {e}")))?;
    let stream = TcpStream::connect_timeout(&socket_addr, timeout).map_err(|e| match e.kind() {
        io::ErrorKind::TimedOut => NetError::Timeout(addr.clone()),
        _ => NetError::Unreachable(addr.clone()),
    })?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| NetError::Io(e.to_string()))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// What a failed read or write on a connection to `addr` means for the
/// exchange:
///
/// * the deadline passed (`TimedOut`, `WouldBlock`):
///   [`NetError::Timeout`];
/// * the peer refused, reset or closed the connection under us
///   (`ConnectionRefused`, `ConnectionReset`, `BrokenPipe`,
///   `UnexpectedEof`): [`NetError::Unreachable`];
/// * anything else: [`NetError::Io`].
pub fn classify(addr: &Addr, e: io::Error) -> NetError {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => NetError::Timeout(addr.clone()),
        io::ErrorKind::ConnectionRefused
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::UnexpectedEof => NetError::Unreachable(addr.clone()),
        _ => NetError::Io(e.to_string()),
    }
}

/// The one-shot protocol over `handler`: read one request line, write
/// the handler's response, half-close. A connection whose line breaks
/// its bounds is dropped without a response.
fn one_shot(handler: Arc<dyn RequestHandler>) -> impl Fn(&mut Conn) + Send + Sync + 'static {
    move |conn: &mut Conn| {
        let mut request = String::new();
        if conn.read_line(&mut request).is_ok() {
            let _ = conn.respond(handler.handle(&request).as_bytes());
        }
    }
}

/// Transport over real TCP sockets.
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpTransport;

impl TcpTransport {
    /// Construct (stateless).
    pub fn new() -> Self {
        TcpTransport
    }
}

impl Transport for TcpTransport {
    /// Serve `handler` with the one-shot protocol (one request line,
    /// one response, half-close) on the bounded server at the default
    /// limits.
    fn serve(
        &self,
        addr: &Addr,
        handler: Arc<dyn RequestHandler>,
    ) -> Result<Box<dyn ServerGuard>, NetError> {
        serve_bounded(addr, ServerLimits::default(), one_shot(handler), |_| {})
    }

    fn fetch(&self, addr: &Addr, request: &str, timeout: Duration) -> Result<String, NetError> {
        let mut buf = FetchBuffer::new();
        self.fetch_into(addr, request, timeout, &mut buf)?;
        Ok(buf.into_string())
    }

    /// Streaming fetch into a reusable buffer: the response is read
    /// directly into `buf`, which was pre-reserved to the previous
    /// response's size — steady-state polls of the same child reuse one
    /// allocation instead of growing a fresh `String` from empty. A
    /// connection closed without a body (a server refusing at the door)
    /// is a failed exchange.
    fn fetch_into(
        &self,
        addr: &Addr,
        request: &str,
        timeout: Duration,
        buf: &mut FetchBuffer,
    ) -> Result<usize, NetError> {
        let stream = dial(addr, timeout)?;
        let mut stream = &stream;
        stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| classify(addr, e))?;
        let _ = stream.shutdown(Shutdown::Write);
        buf.prepare();
        let n = stream
            .read_to_string(&mut buf.text)
            .map_err(|e| classify(addr, e))?;
        if n == 0 {
            return Err(classify(addr, io::ErrorKind::UnexpectedEof.into()));
        }
        buf.learn(n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    const T: Duration = Duration::from_secs(2);

    fn connect(guard: &dyn ServerGuard) -> TcpStream {
        let addr: SocketAddr = guard.addr().as_str().parse().unwrap();
        TcpStream::connect_timeout(&addr, T).unwrap()
    }

    #[test]
    fn serve_and_fetch_over_loopback() {
        let transport = TcpTransport::new();
        let handler: Arc<dyn RequestHandler> =
            Arc::new(|req: &str| format!("<REPLY Q=\"{req}\"/>"));
        let guard = transport.serve(&Addr::new("127.0.0.1:0"), handler).unwrap();
        let bound = guard.addr();
        let response = transport.fetch(&bound, "/meteor", T).unwrap();
        assert_eq!(response, "<REPLY Q=\"/meteor\"/>");
    }

    #[test]
    fn empty_request_line_is_full_dump() {
        let transport = TcpTransport::new();
        let handler: Arc<dyn RequestHandler> = Arc::new(|req: &str| format!("[{req}]"));
        let guard = transport.serve(&Addr::new("127.0.0.1:0"), handler).unwrap();
        assert_eq!(transport.fetch(&guard.addr(), "", T).unwrap(), "[]");
    }

    #[test]
    fn concurrent_fetches_are_served() {
        let transport = TcpTransport::new();
        let handler: Arc<dyn RequestHandler> = Arc::new(|req: &str| req.repeat(100));
        let guard = transport.serve(&Addr::new("127.0.0.1:0"), handler).unwrap();
        let bound = guard.addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let bound = bound.clone();
                std::thread::spawn(move || {
                    let t = TcpTransport::new();
                    let resp = t.fetch(&bound, &format!("q{i}"), T).unwrap();
                    assert_eq!(resp.len(), 200);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn fetch_refused_port_is_unreachable() {
        let transport = TcpTransport::new();
        // Bind then immediately drop to find a (very likely) free port.
        let free = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = transport.fetch(&Addr::new(free), "", T).unwrap_err();
        assert!(matches!(err, NetError::Unreachable(_)), "{err}");
    }

    #[test]
    fn guard_drop_stops_server() {
        let transport = TcpTransport::new();
        let handler: Arc<dyn RequestHandler> = Arc::new(|_: &str| "x".to_string());
        let guard = transport.serve(&Addr::new("127.0.0.1:0"), handler).unwrap();
        let bound = guard.addr();
        assert!(transport.fetch(&bound, "", T).is_ok());
        drop(guard);
        // After drop, connection attempts must fail.
        assert!(transport.fetch(&bound, "", T).is_err());
    }

    #[test]
    fn guard_drop_drains_in_flight_connections() {
        let transport = TcpTransport::new();
        // A handler slow enough that the response is still pending when
        // the guard drops, but well inside the drain deadline.
        let handler: Arc<dyn RequestHandler> = Arc::new(|_: &str| {
            std::thread::sleep(Duration::from_millis(300));
            "<SLOW/>".to_string()
        });
        let guard = transport.serve(&Addr::new("127.0.0.1:0"), handler).unwrap();
        let bound = guard.addr();
        let fetcher = std::thread::spawn(move || TcpTransport::new().fetch(&bound, "", T));
        // Let the connection get accepted before dropping the guard.
        std::thread::sleep(Duration::from_millis(100));
        drop(guard);
        // The in-flight response completed even though the server shut
        // down mid-request.
        assert_eq!(fetcher.join().unwrap().unwrap(), "<SLOW/>");
    }

    #[test]
    fn stalled_client_does_not_hold_a_connection_forever() {
        // A client that connects and never sends holds one worker; the
        // others keep serving, and the guard still drains once the
        // stalled socket closes.
        let transport = TcpTransport::new();
        let handler: Arc<dyn RequestHandler> = Arc::new(|_: &str| "x".to_string());
        let guard = transport.serve(&Addr::new("127.0.0.1:0"), handler).unwrap();
        let stalled = connect(&*guard);
        assert_eq!(transport.fetch(&guard.addr(), "q", T).unwrap(), "x");
        drop(stalled); // client closes; server read returns EOF
        drop(guard); // drains promptly — the test not hanging is the assertion
    }

    #[test]
    fn fetch_into_reuses_buffer_and_learns_hint() {
        let transport = TcpTransport::new();
        let handler: Arc<dyn RequestHandler> = Arc::new(|req: &str| req.repeat(50));
        let guard = transport.serve(&Addr::new("127.0.0.1:0"), handler).unwrap();
        let bound = guard.addr();
        let mut buf = FetchBuffer::new();
        assert_eq!(buf.hint(), 0);
        let n = transport.fetch_into(&bound, "abcd", T, &mut buf).unwrap();
        assert_eq!(n, 200);
        assert_eq!(buf.len(), 200);
        assert_eq!(buf.as_str(), "abcd".repeat(50));
        assert_eq!(buf.hint(), 200);
        let capacity = buf.capacity();
        // A same-size follow-up fits in the learned capacity: the buffer
        // does not grow.
        let n = transport.fetch_into(&bound, "wxyz", T, &mut buf).unwrap();
        assert_eq!(n, 200);
        assert_eq!(buf.as_str(), "wxyz".repeat(50));
        assert_eq!(buf.capacity(), capacity);
        // And the result matches the one-shot path byte for byte.
        assert_eq!(
            transport.fetch(&bound, "wxyz", T).unwrap(),
            buf.into_string()
        );
    }

    #[test]
    fn bad_address_is_io_error() {
        let transport = TcpTransport::new();
        assert!(matches!(
            transport.fetch(&Addr::new("not-an-addr"), "", T),
            Err(NetError::Io(_))
        ));
    }

    #[test]
    fn classify_pins_every_socket_error_kind() {
        let addr = Addr::new("127.0.0.1:1");
        let cases = [
            (io::ErrorKind::TimedOut, NetError::Timeout(addr.clone())),
            (io::ErrorKind::WouldBlock, NetError::Timeout(addr.clone())),
            (
                io::ErrorKind::ConnectionRefused,
                NetError::Unreachable(addr.clone()),
            ),
            (
                io::ErrorKind::ConnectionReset,
                NetError::Unreachable(addr.clone()),
            ),
            (
                io::ErrorKind::BrokenPipe,
                NetError::Unreachable(addr.clone()),
            ),
            (
                io::ErrorKind::UnexpectedEof,
                NetError::Unreachable(addr.clone()),
            ),
        ];
        for (kind, expected) in cases {
            assert_eq!(classify(&addr, kind.into()), expected, "{kind:?}");
        }
        for kind in [io::ErrorKind::InvalidData, io::ErrorKind::Other] {
            assert!(
                matches!(classify(&addr, kind.into()), NetError::Io(_)),
                "{kind:?}"
            );
        }
    }

    /// A one-shot handler that counts its calls and blocks each one
    /// until the test releases it.
    fn held_handler() -> (
        Arc<dyn RequestHandler>,
        mpsc::Receiver<()>,
        mpsc::SyncSender<()>,
    ) {
        let (entered_tx, entered) = mpsc::sync_channel::<()>(8);
        let (release, release_rx) = mpsc::sync_channel::<()>(8);
        let release_rx = Mutex::new(release_rx);
        let handler: Arc<dyn RequestHandler> = Arc::new(move |req: &str| {
            let _ = entered_tx.send(());
            let _ = release_rx.lock().unwrap().recv();
            format!("<R Q=\"{req}\"/>")
        });
        (handler, entered, release)
    }

    #[test]
    fn full_queue_closes_one_shot_connections_without_a_body() {
        let (handler, entered, release) = held_handler();
        let limits = ServerLimits {
            workers: 1,
            queue_depth: 1,
            ..ServerLimits::default()
        };
        let guard =
            serve_bounded(&Addr::new("127.0.0.1:0"), limits, one_shot(handler), |_| {}).unwrap();
        let bound = guard.addr();
        // The lone worker takes the first fetch and blocks in the handler.
        let first = {
            let bound = bound.clone();
            std::thread::spawn(move || TcpTransport::new().fetch(&bound, "/a", T))
        };
        entered
            .recv_timeout(T)
            .expect("the worker took the first fetch");
        // The second connection waits in the queue...
        let mut queued = connect(&*guard);
        queued.write_all(b"/b\n").unwrap();
        queued.shutdown(Shutdown::Write).unwrap();
        // ...so the third is refused at the door: the fetch fails rather
        // than reading an empty document.
        let refused = TcpTransport::new().fetch(&bound, "/c", T);
        assert!(refused.is_err(), "{refused:?}");
        // Released, the worker finishes the first and serves the queued one.
        release.send(()).unwrap();
        release.send(()).unwrap();
        assert_eq!(first.join().unwrap().unwrap(), "<R Q=\"/a\"/>");
        let mut body = String::new();
        queued.read_to_string(&mut body).unwrap();
        assert_eq!(body, "<R Q=\"/b\"/>");
    }

    #[test]
    fn a_panicking_handler_costs_its_connection_not_the_worker() {
        let handler: Arc<dyn RequestHandler> = Arc::new(|req: &str| {
            assert_ne!(req, "/boom", "handler bug");
            "ok".to_string()
        });
        let limits = ServerLimits {
            workers: 1,
            ..ServerLimits::default()
        };
        let guard =
            serve_bounded(&Addr::new("127.0.0.1:0"), limits, one_shot(handler), |_| {}).unwrap();
        let transport = TcpTransport::new();
        assert!(transport.fetch(&guard.addr(), "/boom", T).is_err());
        // The lone worker survived the panic.
        assert_eq!(transport.fetch(&guard.addr(), "/", T).unwrap(), "ok");
    }

    #[test]
    fn request_lines_are_capped_in_size() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let handler: Arc<dyn RequestHandler> = Arc::new(move |req: &str| {
            seen.fetch_add(1, Ordering::SeqCst);
            req.len().to_string()
        });
        let transport = TcpTransport::new();
        let guard = transport.serve(&Addr::new("127.0.0.1:0"), handler).unwrap();
        // A line that fits, newline included, is served...
        let longest = "x".repeat(MAX_LINE - 1);
        assert_eq!(
            transport.fetch(&guard.addr(), &longest, T).unwrap(),
            (MAX_LINE - 1).to_string()
        );
        // ...one byte more is cut off before the handler sees it.
        let over = "x".repeat(MAX_LINE);
        assert!(transport.fetch(&guard.addr(), &over, T).is_err());
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
