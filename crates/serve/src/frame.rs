//! The framed keep-alive protocol.
//!
//! The legacy gmetad wire protocol delimits the response by connection
//! close: one request line, one XML document, EOF. That costs a TCP
//! handshake per exchange, which Table 1 clients (a viewer refreshing
//! every few seconds) pay over and over. The keep-alive extension keeps
//! the connection:
//!
//! ```text
//! client:  #keepalive <name>\n        (hello; <name> optional)
//! client:  /meteor/host-3\n           (any request line, repeatedly)
//! server:  #<len>\n<len bytes of XML> (one frame per request)
//! ```
//!
//! Responses are length-prefixed because EOF is no longer available as
//! a delimiter. The hello's `<name>` is the peer identity used for
//! rate limiting — a session is accountable under one budget no matter
//! how many sockets it opens. A first line that is not the hello falls
//! through to the legacy one-shot protocol, so old clients keep
//! working against the new tier unchanged.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use ganglia_net::tcp;
use ganglia_net::{Addr, NetError};

/// The hello line opening a keep-alive session.
pub const KEEPALIVE_HELLO: &str = "#keepalive";

/// The request line flipping a keep-alive session into continuous-query
/// push mode: `#subscribe <gql expression>`.
pub const SUBSCRIBE: &str = "#subscribe";

/// Largest frame a client will accept (a defensive cap, far above any
/// real dump).
pub const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Parse a first request line as a keep-alive hello. Returns the peer
/// name the session asked to be accounted as, if the line is a hello.
pub fn parse_hello(line: &str) -> Option<&str> {
    let rest = line.strip_prefix(KEEPALIVE_HELLO)?;
    if rest.is_empty() {
        return Some("");
    }
    rest.strip_prefix(' ').map(str::trim)
}

/// Parse a keep-alive request line as a subscribe. Returns the GQL
/// expression if the line is a non-empty `#subscribe <expr>`.
pub fn parse_subscribe(line: &str) -> Option<&str> {
    let expr = line.strip_prefix(SUBSCRIBE)?.strip_prefix(' ')?.trim();
    (!expr.is_empty()).then_some(expr)
}

/// Write one length-prefixed response frame.
pub fn write_frame(w: &mut impl Write, body: &str) -> std::io::Result<()> {
    writeln!(w, "#{}", body.len())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Read one length-prefixed response frame.
pub fn read_frame(r: &mut impl BufRead) -> std::io::Result<String> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before frame header",
        ));
    }
    let len: usize = header
        .trim()
        .strip_prefix('#')
        .and_then(|n| n.parse().ok())
        .filter(|&n| n <= MAX_FRAME)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad frame header {header:?}"),
            )
        })?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    String::from_utf8(body)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// A client-side keep-alive session: one TCP connection, many queries.
pub struct KeepAliveClient {
    /// The connection, buffered for reading frames; requests are
    /// written straight to the socket underneath.
    conn: BufReader<TcpStream>,
    addr: Addr,
}

impl KeepAliveClient {
    /// Connect to a pooled server at `addr` (a `host:port` socket
    /// address) and open a keep-alive session accounted as `name`
    /// (empty = the server keys on the source IP). `timeout` applies to
    /// the connect and to every subsequent read/write.
    pub fn connect(
        addr: &Addr,
        name: &str,
        timeout: Duration,
    ) -> Result<KeepAliveClient, NetError> {
        let stream = tcp::dial(addr, timeout)?;
        let hello = if name.is_empty() {
            format!("{KEEPALIVE_HELLO}\n")
        } else {
            format!("{KEEPALIVE_HELLO} {name}\n")
        };
        (&stream)
            .write_all(hello.as_bytes())
            .map_err(|e| tcp::classify(addr, e))?;
        Ok(KeepAliveClient {
            conn: BufReader::new(stream),
            addr: addr.clone(),
        })
    }

    /// Issue one request line and read its framed response.
    pub fn query(&mut self, request: &str) -> Result<String, NetError> {
        let mut stream = self.conn.get_ref();
        stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| tcp::classify(&self.addr, e))?;
        self.next_frame()
    }

    /// Ask the server to turn this session into a continuous-query
    /// subscription. Returns the first response frame: the initial
    /// snapshot delta (`GQLD ... full=1`) on success, or an `<ERROR>`
    /// document on refusal — in which case the session stays in
    /// request mode and [`KeepAliveClient::query`] keeps working.
    pub fn subscribe(&mut self, expr: &str) -> Result<String, NetError> {
        self.query(&format!("{SUBSCRIBE} {expr}"))
    }

    /// Read the next pushed frame on a subscribed session. Blocks up to
    /// the connect timeout; a quiet round shows up as
    /// [`NetError::Timeout`], which is retryable.
    pub fn next_frame(&mut self) -> Result<String, NetError> {
        read_frame(&mut self.conn).map_err(|e| tcp::classify(&self.addr, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_parsing() {
        assert_eq!(parse_hello("#keepalive"), Some(""));
        assert_eq!(parse_hello("#keepalive viewer-3"), Some("viewer-3"));
        assert_eq!(parse_hello("#keepalive  padded "), Some("padded"));
        assert_eq!(parse_hello("/meteor"), None);
        assert_eq!(parse_hello(""), None);
        assert_eq!(parse_hello("#keepalivex"), None);
    }

    #[test]
    fn subscribe_parsing() {
        assert_eq!(
            parse_subscribe("#subscribe metric == load_one | top 5"),
            Some("metric == load_one | top 5")
        );
        assert_eq!(parse_subscribe("#subscribe  x "), Some("x"));
        assert_eq!(parse_subscribe("#subscribe"), None);
        assert_eq!(parse_subscribe("#subscribe "), None);
        assert_eq!(parse_subscribe("/meteor"), None);
        assert_eq!(parse_subscribe("#subscriber x"), None);
    }

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "<DOC A=\"1\"/>").unwrap();
        write_frame(&mut wire, "").unwrap();
        let mut reader = std::io::BufReader::new(&wire[..]);
        assert_eq!(read_frame(&mut reader).unwrap(), "<DOC A=\"1\"/>");
        assert_eq!(read_frame(&mut reader).unwrap(), "");
        assert_eq!(
            read_frame(&mut reader).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn bad_headers_are_rejected() {
        for bad in ["<xml>\n", "#notanumber\n", "#-1\n", "#999999999999999999\n"] {
            let mut reader = std::io::BufReader::new(bad.as_bytes());
            assert_eq!(
                read_frame(&mut reader).unwrap_err().kind(),
                std::io::ErrorKind::InvalidData,
                "{bad:?}"
            );
        }
    }
}
