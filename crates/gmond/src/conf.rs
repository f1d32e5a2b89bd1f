//! `gmond.conf` parsing for the standalone agent daemon.
//!
//! One directive per line, gmond 2.5-flavoured:
//!
//! ```text
//! name "meteor"              # cluster name (required)
//! owner "ops@site"
//! node_name "compute-0-0"    # defaults to the machine hostname
//!
//! # Unicast mesh: where to send metric datagrams, and where to listen.
//! udp_recv_port 8650
//! udp_send_channel 10.1.1.2:8650
//! udp_send_channel 10.1.1.3:8650
//!
//! tcp_port 8649              # the XML report port
//! host_dmax 3600
//! ```

use std::fmt;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GmondConfError {
    pub line: usize,
    pub reason: String,
}

impl fmt::Display for GmondConfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gmond.conf line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for GmondConfError {}

/// Parsed daemon options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GmondConf {
    pub cluster_name: String,
    pub owner: String,
    /// This node's name; empty = use the machine hostname.
    pub node_name: String,
    /// UDP port to receive metric datagrams on.
    pub udp_recv_port: u16,
    /// Peer `host:port` strings to send datagrams to.
    pub udp_peers: Vec<String>,
    /// TCP port serving the cluster XML report.
    pub tcp_port: u16,
    /// Soft-state lifetime for silent hosts, seconds.
    pub host_dmax: u32,
}

/// Parse a complete `gmond.conf` document.
pub fn parse_gmond_conf(input: &str) -> Result<GmondConf, GmondConfError> {
    let mut conf = GmondConf {
        cluster_name: String::new(),
        owner: "unspecified".to_string(),
        node_name: String::new(),
        udp_recv_port: 8650,
        udp_peers: Vec::new(),
        tcp_port: 8649,
        host_dmax: 3600,
    };
    for (idx, raw_line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let err = |reason: String| GmondConfError {
            line: line_no,
            reason,
        };
        let tokens = tokenize(raw_line).map_err(&err)?;
        let Some((directive, args)) = tokens.split_first() else {
            continue;
        };
        let one = |what: &str| -> Result<String, GmondConfError> {
            match args {
                [only] => Ok(only.clone()),
                _ => Err(err(format!("{what} takes exactly one value"))),
            }
        };
        match directive.as_str() {
            "name" => conf.cluster_name = one("name")?,
            "owner" => conf.owner = one("owner")?,
            "node_name" => conf.node_name = one("node_name")?,
            "udp_recv_port" => {
                conf.udp_recv_port = one("udp_recv_port")?
                    .parse()
                    .map_err(|_| err("bad udp_recv_port".into()))?
            }
            "udp_send_channel" => {
                let peer = one("udp_send_channel")?;
                if !peer.contains(':') {
                    return Err(err(format!("udp_send_channel {peer:?} must be host:port")));
                }
                conf.udp_peers.push(peer);
            }
            "tcp_port" => {
                conf.tcp_port = one("tcp_port")?
                    .parse()
                    .map_err(|_| err("bad tcp_port".into()))?
            }
            "host_dmax" => {
                conf.host_dmax = one("host_dmax")?
                    .parse()
                    .map_err(|_| err("bad host_dmax".into()))?
            }
            other => return Err(err(format!("unknown directive {other:?}"))),
        }
    }
    if conf.cluster_name.is_empty() {
        return Err(GmondConfError {
            line: 0,
            reason: "missing required directive: name".into(),
        });
    }
    Ok(conf)
}

/// Same line tokenizer as gmetad.conf: words, double-quoted strings,
/// `#` comments.
fn tokenize(line: &str) -> Result<Vec<String>, String> {
    let mut tokens = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        match chars.peek() {
            None | Some('#') => break,
            Some('"') => {
                chars.next();
                let mut token = String::new();
                loop {
                    match chars.next() {
                        None => return Err("unterminated quoted string".into()),
                        Some('"') => break,
                        Some(c) => token.push(c),
                    }
                }
                tokens.push(token);
            }
            Some(_) => {
                let mut token = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || c == '#' {
                        break;
                    }
                    token.push(c);
                    chars.next();
                }
                tokens.push(token);
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# two-node mesh
name "meteor"
owner "ops"
node_name "compute-0-0"
udp_recv_port 8650
udp_send_channel 10.1.1.2:8650
udp_send_channel 10.1.1.3:8650  # neighbor
tcp_port 8649
host_dmax 1800
"#;

    #[test]
    fn parses_the_sample() {
        let conf = parse_gmond_conf(SAMPLE).unwrap();
        assert_eq!(conf.cluster_name, "meteor");
        assert_eq!(conf.owner, "ops");
        assert_eq!(conf.node_name, "compute-0-0");
        assert_eq!(conf.udp_recv_port, 8650);
        assert_eq!(conf.udp_peers, vec!["10.1.1.2:8650", "10.1.1.3:8650"]);
        assert_eq!(conf.tcp_port, 8649);
        assert_eq!(conf.host_dmax, 1800);
    }

    #[test]
    fn example_conf_parses() {
        let conf = parse_gmond_conf(include_str!("../../../examples/gmond.conf")).unwrap();
        assert_eq!(conf.cluster_name, "meteor");
        assert_eq!(conf.udp_peers, vec!["127.0.0.1:8650"]);
        assert_eq!(conf.tcp_port, 8649);
    }

    #[test]
    fn name_is_required_everything_else_defaults() {
        let conf = parse_gmond_conf("name \"x\"\n").unwrap();
        assert_eq!(conf.udp_recv_port, 8650);
        assert_eq!(conf.tcp_port, 8649);
        assert!(conf.udp_peers.is_empty());
        assert!(parse_gmond_conf("owner \"x\"\n").is_err());
    }

    #[test]
    fn rejects_bad_directives_with_line_numbers() {
        let err = parse_gmond_conf("name \"x\"\nfrobnicate 1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse_gmond_conf("name \"x\"\nudp_send_channel nocolon\n").is_err());
        assert!(parse_gmond_conf("name \"x\"\ntcp_port zap\n").is_err());
        assert!(parse_gmond_conf("name \"x\"\nname \"y\" \"z\"\n").is_err());
    }
}
