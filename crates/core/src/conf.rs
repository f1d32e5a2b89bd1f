//! `gmetad.conf` parsing.
//!
//! The on-disk configuration format follows gmetad 2.5's, one directive
//! per line:
//!
//! ```text
//! # The grid this daemon is the authority for.
//! gridname "SDSC"
//! authority "http://sdsc/ganglia/"
//!
//! # data_source "<name>" [poll_interval] <host> [<host> ...]
//! data_source "meteor" 15 meteor-n0:8649 meteor-n1:8649
//! data_source "attic"  attic-gmeta:8651
//!
//! interactive_port 8652
//! rrd_rootdir "/var/lib/ganglia/rrds"
//!
//! # Extension: run the legacy design for comparisons.
//! tree_mode "n-level"    # or "1-level"
//! ```
//!
//! Unknown directives are errors (typos in monitoring configs should
//! not be silent). `#` starts a comment anywhere outside quotes.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use ganglia_net::Addr;
use ganglia_serve::ServeOptions;

use crate::config::{ArchiveMode, DataSourceCfg, GmetadConfig, TreeMode};

/// A parse failure, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfError {
    pub line: usize,
    pub reason: String,
}

impl fmt::Display for ConfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gmetad.conf line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ConfError {}

/// Result of parsing: the daemon config plus serving options that live
/// outside [`GmetadConfig`].
#[derive(Debug, Clone)]
pub struct ParsedConf {
    pub config: GmetadConfig,
    /// TCP port for the full XML dump (`xml_port`, default 8651).
    pub xml_port: u16,
    /// TCP port for the query engine (`interactive_port`, default 8652).
    pub interactive_port: u16,
    /// Address to bind (default `0.0.0.0`).
    pub bind: String,
    /// Front-tier serving options (`server_threads`,
    /// `server_max_inflight`, `server_cache`), applied to both ports.
    pub serve: ServeOptions,
}

/// Parse a complete `gmetad.conf` document.
pub fn parse_conf(input: &str) -> Result<ParsedConf, ConfError> {
    let mut config = GmetadConfig::new("unspecified");
    let mut xml_port = 8651u16;
    let mut interactive_port = 8652u16;
    let mut bind = "0.0.0.0".to_string();
    let mut serve = ServeOptions::default();
    let mut saw_gridname = false;

    for (idx, raw_line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let err = |reason: String| ConfError {
            line: line_no,
            reason,
        };
        let tokens = tokenize(raw_line).map_err(&err)?;
        let Some((directive, args)) = tokens.split_first() else {
            continue; // blank or comment-only line
        };
        match directive.as_str() {
            "gridname" => {
                let [name] = args else {
                    return Err(err("gridname takes exactly one value".into()));
                };
                config.grid_name = name.clone();
                saw_gridname = true;
            }
            "authority" => {
                let [url] = args else {
                    return Err(err("authority takes exactly one value".into()));
                };
                config.authority_url = url.clone();
            }
            "data_source" => {
                let Some((name, rest)) = args.split_first() else {
                    return Err(err("data_source needs a name".into()));
                };
                // Optional leading poll interval (a bare integer), like
                // gmetad's per-source polling interval.
                let (interval, hosts) = match rest.split_first() {
                    Some((first, more)) if first.chars().all(|c| c.is_ascii_digit()) => {
                        let interval: u64 = first
                            .parse()
                            .map_err(|_| err(format!("bad interval {first:?}")))?;
                        (Some(interval), more)
                    }
                    _ => (None, rest),
                };
                if let Some(interval) = interval {
                    if interval == 0 {
                        return Err(err("poll interval must be positive".into()));
                    }
                    // gmetad has one global poll loop; honour the
                    // smallest requested interval.
                    config.poll_interval = config.poll_interval.min(interval);
                }
                if config.data_sources.iter().any(|s| &s.name == name) {
                    return Err(err(format!("duplicate data_source {name:?}")));
                }
                // The validated constructor rejects an empty host list.
                let source = DataSourceCfg::new(name, hosts.iter().map(Addr::new).collect())
                    .map_err(|e| err(e.to_string()))?;
                config.data_sources.push(source);
            }
            "interactive_port" => {
                let [port] = args else {
                    return Err(err("interactive_port takes one value".into()));
                };
                interactive_port = port
                    .parse()
                    .map_err(|_| err(format!("bad port {port:?}")))?;
            }
            "xml_port" => {
                let [port] = args else {
                    return Err(err("xml_port takes one value".into()));
                };
                xml_port = port
                    .parse()
                    .map_err(|_| err(format!("bad port {port:?}")))?;
            }
            "server_threads" => {
                let value = parse_u64_arg(directive, args, &err)?;
                if value == 0 {
                    return Err(err("server_threads must be positive".into()));
                }
                serve.workers = usize::try_from(value)
                    .map_err(|_| err(format!("server_threads {value} is too large")))?;
            }
            "server_max_inflight" => {
                let value = parse_u64_arg(directive, args, &err)?;
                if value == 0 {
                    return Err(err("server_max_inflight must be positive".into()));
                }
                let max = usize::try_from(value)
                    .map_err(|_| err(format!("server_max_inflight {value} is too large")))?;
                serve = serve.with_max_inflight(max);
            }
            "server_cache" => {
                let [value] = args else {
                    return Err(err("server_cache takes one value (on/off)".into()));
                };
                serve.cache = match value.as_str() {
                    "on" | "yes" | "true" | "1" => true,
                    "off" | "no" | "false" | "0" => false,
                    other => {
                        return Err(err(format!(
                            "bad server_cache value {other:?} (use \"on\" or \"off\")"
                        )))
                    }
                };
            }
            "bind" => {
                let [addr] = args else {
                    return Err(err("bind takes one value".into()));
                };
                bind = addr.clone();
            }
            "rrd_rootdir" => {
                let [dir] = args else {
                    return Err(err("rrd_rootdir takes one value".into()));
                };
                config.archive = ArchiveMode::Directory(PathBuf::from(dir));
            }
            "no_archives" => {
                if !args.is_empty() {
                    return Err(err("no_archives takes no values".into()));
                }
                config.archive = ArchiveMode::Off;
            }
            "tree_mode" => {
                let [mode] = args else {
                    return Err(err("tree_mode takes one value".into()));
                };
                config.tree_mode = match mode.as_str() {
                    "n-level" | "nlevel" => TreeMode::NLevel,
                    "1-level" | "one-level" | "onelevel" => TreeMode::OneLevel,
                    other => {
                        return Err(err(format!(
                            "unknown tree_mode {other:?} (use \"n-level\" or \"1-level\")"
                        )))
                    }
                };
            }
            "fetch_timeout_secs" => {
                let [secs] = args else {
                    return Err(err("fetch_timeout_secs takes one value".into()));
                };
                let secs: u64 = secs
                    .parse()
                    .map_err(|_| err(format!("bad timeout {secs:?}")))?;
                config.fetch_timeout = Duration::from_secs(secs);
            }
            "retry_backoff_base_secs" => {
                config.retry.backoff_base_secs = parse_u64_arg(directive, args, &err)?;
            }
            "retry_backoff_max_secs" => {
                config.retry.backoff_max_secs = parse_u64_arg(directive, args, &err)?;
            }
            "breaker_threshold" => {
                let value = parse_u64_arg(directive, args, &err)?;
                config.retry.breaker_threshold = u32::try_from(value)
                    .map_err(|_| err(format!("breaker_threshold {value} is too large")))?;
            }
            "source_down_secs" => {
                config.lifecycle.down_after_secs = parse_u64_arg(directive, args, &err)?;
            }
            "source_expire_secs" => {
                config.lifecycle.expire_after_secs = parse_u64_arg(directive, args, &err)?;
            }
            "poll_concurrency" => {
                let value = parse_u64_arg(directive, args, &err)?;
                config.poll_concurrency = usize::try_from(value)
                    .map_err(|_| err(format!("poll_concurrency {value} is too large")))?;
            }
            "round_deadline_secs" => {
                config.round_deadline_secs = parse_u64_arg(directive, args, &err)?;
            }
            "self_telemetry" => {
                let [value] = args else {
                    return Err(err("self_telemetry takes one value (on/off)".into()));
                };
                config.self_telemetry = match value.as_str() {
                    "on" | "yes" | "true" | "1" => true,
                    "off" | "no" | "false" | "0" => false,
                    other => {
                        return Err(err(format!(
                            "bad self_telemetry value {other:?} (use \"on\" or \"off\")"
                        )))
                    }
                };
            }
            "archive_journal" => {
                let [value] = args else {
                    return Err(err("archive_journal takes one value (on/off)".into()));
                };
                config.archive_journal = match value.as_str() {
                    "on" | "yes" | "true" | "1" => true,
                    "off" | "no" | "false" | "0" => false,
                    other => {
                        return Err(err(format!(
                            "bad archive_journal value {other:?} (use \"on\" or \"off\")"
                        )))
                    }
                };
            }
            "archive_flush_ms" => {
                config.archive_flush_ms = parse_u64_arg(directive, args, &err)?;
            }
            "archive_checkpoint_secs" => {
                config.archive_checkpoint_secs = parse_u64_arg(directive, args, &err)?;
            }
            "subscriptions" => {
                let [value] = args else {
                    return Err(err("subscriptions takes one value (on/off)".into()));
                };
                config.subscriptions = match value.as_str() {
                    "on" | "yes" | "true" | "1" => true,
                    "off" | "no" | "false" | "0" => false,
                    other => {
                        return Err(err(format!(
                            "bad subscriptions value {other:?} (use \"on\" or \"off\")"
                        )))
                    }
                };
            }
            "max_subscriptions" => {
                let value = parse_u64_arg(directive, args, &err)?;
                if value == 0 {
                    return Err(err("max_subscriptions must be positive".into()));
                }
                config.max_subscriptions = usize::try_from(value)
                    .map_err(|_| err(format!("max_subscriptions {value} is too large")))?;
            }
            "sub_queue_depth" => {
                let value = parse_u64_arg(directive, args, &err)?;
                if value == 0 {
                    return Err(err("sub_queue_depth must be positive".into()));
                }
                config.sub_queue_depth = usize::try_from(value)
                    .map_err(|_| err(format!("sub_queue_depth {value} is too large")))?;
            }
            other => {
                return Err(err(format!("unknown directive {other:?}")));
            }
        }
    }
    if !saw_gridname {
        return Err(ConfError {
            line: 0,
            reason: "missing required directive: gridname".into(),
        });
    }
    // Cross-field validation (the individual directives may arrive in
    // any order, so these checks run over the assembled config).
    config
        .retry
        .validate()
        .map_err(|reason| ConfError { line: 0, reason })?;
    config
        .lifecycle
        .validate()
        .map_err(|reason| ConfError { line: 0, reason })?;
    if config.authority_url.contains("unspecified") {
        config.authority_url = format!("http://{}/ganglia/", config.grid_name);
    }
    // The two TCP services must not collide; the directives may arrive
    // in either order, so this is a cross-field check.
    if xml_port == interactive_port {
        return Err(ConfError {
            line: 0,
            reason: format!("xml_port and interactive_port are both {xml_port}; they must differ"),
        });
    }
    Ok(ParsedConf {
        config,
        xml_port,
        interactive_port,
        bind,
        serve,
    })
}

/// Parse a directive's single unsigned-integer argument.
fn parse_u64_arg(
    directive: &str,
    args: &[String],
    err: &impl Fn(String) -> ConfError,
) -> Result<u64, ConfError> {
    let [value] = args else {
        return Err(err(format!("{directive} takes one value")));
    };
    value
        .parse()
        .map_err(|_| err(format!("bad {directive} value {value:?}")))
}

/// Split one line into tokens: whitespace-separated words and
/// double-quoted strings; `#` begins a comment.
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
# Example gmetad configuration.
gridname "SDSC"
authority "http://sdsc/ganglia/"

data_source "meteor" 15 meteor-n0:8649 meteor-n1:8649  # redundant gmonds
data_source "attic" attic-gmeta:8651

interactive_port 8652
rrd_rootdir "/var/lib/ganglia/rrds"
tree_mode "n-level"
fetch_timeout_secs 5
"#;

    #[test]
    fn parses_the_sample() {
        let parsed = parse_conf(SAMPLE).unwrap();
        let config = &parsed.config;
        assert_eq!(config.grid_name, "SDSC");
        assert_eq!(config.authority_url, "http://sdsc/ganglia/");
        assert_eq!(config.data_sources.len(), 2);
        assert_eq!(config.data_sources[0].name, "meteor");
        assert_eq!(config.data_sources[0].addrs.len(), 2);
        assert_eq!(
            config.data_sources[1].addrs[0],
            Addr::new("attic-gmeta:8651")
        );
        assert_eq!(config.poll_interval, 15);
        assert_eq!(config.tree_mode, TreeMode::NLevel);
        assert_eq!(config.fetch_timeout, Duration::from_secs(5));
        assert_eq!(
            config.archive,
            ArchiveMode::Directory(PathBuf::from("/var/lib/ganglia/rrds"))
        );
        assert_eq!(parsed.interactive_port, 8652);
        assert_eq!(parsed.bind, "0.0.0.0");
    }

    #[test]
    fn defaults_when_optional_directives_missing() {
        let parsed = parse_conf("gridname \"X\"\ndata_source \"c\" h:1\n").unwrap();
        assert_eq!(parsed.interactive_port, 8652);
        assert_eq!(parsed.config.tree_mode, TreeMode::NLevel);
        assert_eq!(parsed.config.authority_url, "http://X/ganglia/");
    }

    #[test]
    fn gridname_is_required() {
        let err = parse_conf("data_source \"c\" h:1\n").unwrap_err();
        assert!(err.reason.contains("gridname"));
    }

    #[test]
    fn one_level_mode() {
        let parsed = parse_conf("gridname \"X\"\ntree_mode \"1-level\"\n").unwrap();
        assert_eq!(parsed.config.tree_mode, TreeMode::OneLevel);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_conf("gridname \"X\"\nfrobnicate 1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("frobnicate"));
        let err = parse_conf("gridname \"X\"\ndata_source \"c\"\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse_conf("gridname\n").is_err());
        assert!(parse_conf("gridname \"X\"\ninteractive_port zap\n").is_err());
        assert!(parse_conf("gridname \"X\"\ndata_source \"c\" 0 h:1\n").is_err());
        assert!(parse_conf("gridname \"X\"\ntree_mode \"2-level\"\n").is_err());
        assert!(
            parse_conf("gridname \"X\"\ndata_source \"c\" h:1\ndata_source \"c\" h:2\n").is_err()
        );
        assert!(parse_conf("gridname \"unterminated\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let parsed =
            parse_conf("# leading comment\n\n   \ngridname \"X\" # trailing comment\n").unwrap();
        assert_eq!(parsed.config.grid_name, "X");
    }

    #[test]
    fn no_archives_directive() {
        let parsed = parse_conf("gridname \"X\"\nno_archives\n").unwrap();
        assert_eq!(parsed.config.archive, ArchiveMode::Off);
    }

    #[test]
    fn self_telemetry_directive() {
        assert!(
            !parse_conf("gridname \"X\"\n")
                .unwrap()
                .config
                .self_telemetry
        );
        for on in ["on", "yes", "true", "1"] {
            let parsed = parse_conf(&format!("gridname \"X\"\nself_telemetry {on}\n")).unwrap();
            assert!(parsed.config.self_telemetry, "{on}");
        }
        for off in ["off", "no", "false", "0"] {
            let parsed = parse_conf(&format!("gridname \"X\"\nself_telemetry {off}\n")).unwrap();
            assert!(!parsed.config.self_telemetry, "{off}");
        }
        assert!(parse_conf("gridname \"X\"\nself_telemetry maybe\n").is_err());
        assert!(parse_conf("gridname \"X\"\nself_telemetry\n").is_err());
    }

    #[test]
    fn retry_and_lifecycle_knobs_parse() {
        let parsed = parse_conf(
            "gridname \"X\"\n\
             retry_backoff_base_secs 5\n\
             retry_backoff_max_secs 120\n\
             breaker_threshold 4\n\
             source_down_secs 45\n\
             source_expire_secs 900\n",
        )
        .unwrap();
        assert_eq!(parsed.config.retry.backoff_base_secs, 5);
        assert_eq!(parsed.config.retry.backoff_max_secs, 120);
        assert_eq!(parsed.config.retry.breaker_threshold, 4);
        assert_eq!(parsed.config.lifecycle.down_after_secs, 45);
        assert_eq!(parsed.config.lifecycle.expire_after_secs, 900);
    }

    #[test]
    fn concurrency_knobs_parse_and_default_to_auto() {
        let defaults = parse_conf("gridname \"X\"\n").unwrap().config;
        assert_eq!(defaults.poll_concurrency, 0, "0 = automatic");
        assert_eq!(defaults.round_deadline_secs, 0, "0 = no deadline");
        let parsed = parse_conf(
            "gridname \"X\"\n\
             poll_concurrency 4\n\
             round_deadline_secs 12\n",
        )
        .unwrap();
        assert_eq!(parsed.config.poll_concurrency, 4);
        assert_eq!(parsed.config.round_deadline_secs, 12);
        assert!(parse_conf("gridname \"X\"\npoll_concurrency zap\n").is_err());
        assert!(parse_conf("gridname \"X\"\npoll_concurrency\n").is_err());
        assert!(parse_conf("gridname \"X\"\nround_deadline_secs -3\n").is_err());
    }

    #[test]
    fn store_sharding_knobs_are_unknown_directives() {
        // The store is one lock; its old tuning knobs fail like any
        // other unknown directive, at their own line.
        let err = parse_conf("gridname \"X\"\nstore_shards 8\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("unknown directive"), "{err}");
    }

    #[test]
    fn example_conf_parses() {
        let parsed = parse_conf(include_str!("../../../examples/gmetad.conf")).unwrap();
        assert_eq!(parsed.config.grid_name, "SDSC");
        assert_eq!(parsed.config.data_sources.len(), 2);
        assert_eq!(parsed.interactive_port, 18652);
    }

    #[test]
    fn archive_journal_knobs_parse_and_default_off() {
        let defaults = parse_conf("gridname \"X\"\n").unwrap().config;
        assert!(!defaults.archive_journal, "journal is opt-in");
        assert_eq!(defaults.archive_flush_ms, 1000);
        assert_eq!(defaults.archive_checkpoint_secs, 300);
        let parsed = parse_conf(
            "gridname \"X\"\n\
             archive_journal on\n\
             archive_flush_ms 0\n\
             archive_checkpoint_secs 60\n",
        )
        .unwrap();
        assert!(parsed.config.archive_journal);
        assert_eq!(parsed.config.archive_flush_ms, 0);
        assert_eq!(parsed.config.archive_checkpoint_secs, 60);
        let off = parse_conf("gridname \"X\"\narchive_journal no\n").unwrap();
        assert!(!off.config.archive_journal);
        assert!(parse_conf("gridname \"X\"\narchive_journal maybe\n").is_err());
        assert!(parse_conf("gridname \"X\"\narchive_journal\n").is_err());
        assert!(parse_conf("gridname \"X\"\narchive_flush_ms fast\n").is_err());
        assert!(parse_conf("gridname \"X\"\narchive_checkpoint_secs -1\n").is_err());
    }

    #[test]
    fn subscription_knobs_parse_and_default_on() {
        let defaults = parse_conf("gridname \"X\"\n").unwrap().config;
        assert!(defaults.subscriptions, "subscriptions default on");
        assert_eq!(defaults.max_subscriptions, 64);
        assert_eq!(defaults.sub_queue_depth, 8);
        let parsed = parse_conf(
            "gridname \"X\"\n\
             subscriptions off\n\
             max_subscriptions 16\n\
             sub_queue_depth 2\n",
        )
        .unwrap();
        assert!(!parsed.config.subscriptions);
        assert_eq!(parsed.config.max_subscriptions, 16);
        assert_eq!(parsed.config.sub_queue_depth, 2);
        let on = parse_conf("gridname \"X\"\nsubscriptions yes\n").unwrap();
        assert!(on.config.subscriptions);
        assert!(parse_conf("gridname \"X\"\nsubscriptions maybe\n").is_err());
        assert!(parse_conf("gridname \"X\"\nsubscriptions\n").is_err());
        assert!(parse_conf("gridname \"X\"\nmax_subscriptions 0\n").is_err());
        assert!(parse_conf("gridname \"X\"\nmax_subscriptions lots\n").is_err());
        assert!(parse_conf("gridname \"X\"\nsub_queue_depth 0\n").is_err());
    }

    #[test]
    fn retry_and_lifecycle_knobs_are_validated() {
        // Base above max is rejected even though each line parses.
        let err =
            parse_conf("gridname \"X\"\nretry_backoff_base_secs 300\nretry_backoff_max_secs 60\n")
                .unwrap_err();
        assert!(err.reason.contains("retry_backoff_max_secs"));
        assert!(parse_conf("gridname \"X\"\nbreaker_threshold 0\n").is_err());
        assert!(parse_conf("gridname \"X\"\nretry_backoff_base_secs 0\n").is_err());
        assert!(parse_conf("gridname \"X\"\nbreaker_threshold zap\n").is_err());
        // Expiry must come after the down threshold.
        assert!(
            parse_conf("gridname \"X\"\nsource_down_secs 600\nsource_expire_secs 600\n").is_err()
        );
        assert!(parse_conf("gridname \"X\"\nsource_down_secs 0\n").is_err());
    }

    #[test]
    fn xml_port_parses_and_defaults() {
        let parsed = parse_conf("gridname \"X\"\n").unwrap();
        assert_eq!(parsed.xml_port, 8651);
        assert_eq!(parsed.interactive_port, 8652);
        let parsed = parse_conf("gridname \"X\"\nxml_port 9651\n").unwrap();
        assert_eq!(parsed.xml_port, 9651);
        assert!(parse_conf("gridname \"X\"\nxml_port zap\n").is_err());
        assert!(parse_conf("gridname \"X\"\nxml_port 70000\n").is_err());
        assert!(parse_conf("gridname \"X\"\nxml_port\n").is_err());
        assert!(parse_conf("gridname \"X\"\nxml_port 1 2\n").is_err());
    }

    #[test]
    fn colliding_ports_are_rejected_in_either_order() {
        let err = parse_conf("gridname \"X\"\nxml_port 8652\n").unwrap_err();
        assert!(err.reason.contains("must differ"), "{}", err.reason);
        let err = parse_conf("gridname \"X\"\ninteractive_port 8651\n").unwrap_err();
        assert!(err.reason.contains("must differ"), "{}", err.reason);
        let err = parse_conf("gridname \"X\"\ninteractive_port 9000\nxml_port 9000\n").unwrap_err();
        assert!(err.reason.contains("9000"), "{}", err.reason);
        // Swapping the defaults is legal as long as they stay distinct.
        let parsed = parse_conf("gridname \"X\"\nxml_port 8652\ninteractive_port 8651\n").unwrap();
        assert_eq!(parsed.xml_port, 8652);
        assert_eq!(parsed.interactive_port, 8651);
    }

    #[test]
    fn server_knobs_parse_into_serve_options() {
        let parsed = parse_conf("gridname \"X\"\n").unwrap();
        assert_eq!(parsed.serve, ServeOptions::default());
        let parsed = parse_conf(
            "gridname \"X\"\n\
             server_threads 8\n\
             server_max_inflight 256\n\
             server_cache off\n",
        )
        .unwrap();
        assert_eq!(parsed.serve.workers, 8);
        assert_eq!(parsed.serve.max_inflight, 256);
        assert!(!parsed.serve.cache);
        assert!(parse_conf("gridname \"X\"\nserver_threads 0\n").is_err());
        assert!(parse_conf("gridname \"X\"\nserver_max_inflight 0\n").is_err());
        assert!(parse_conf("gridname \"X\"\nserver_cache maybe\n").is_err());
        assert!(parse_conf("gridname \"X\"\nserver_cache\n").is_err());
    }

    #[test]
    fn tokenizer_handles_mixed_quoting() {
        assert_eq!(
            tokenize(r#"data_source "my cluster" h1:8649 # c"#).unwrap(),
            vec!["data_source", "my cluster", "h1:8649"]
        );
        assert!(tokenize(r#"x "open"#).is_err());
        assert_eq!(tokenize("   # only comment").unwrap(), Vec::<String>::new());
    }
}
