//! The standalone gmetad daemon.
//!
//! Reads a `gmetad.conf` (see [`ganglia_core::conf`] for the format),
//! binds both TCP services — the full XML dump on `xml_port` (8651) and
//! the query engine on `interactive_port` (8652) — through the
//! `ganglia-serve` front tier (worker pool, revision-keyed response
//! cache, admission control), and polls its data sources on the
//! configured interval until killed.
//!
//! ```sh
//! gmetad --conf /etc/ganglia/gmetad.conf
//! gmetad --conf gmetad.conf --once      # single poll round, then exit
//! ```

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ganglia_core::conf::parse_conf;
use ganglia_core::Gmetad;
use ganglia_net::transport::Transport;
use ganglia_net::{Addr, TcpTransport};
use ganglia_serve::PooledServer;

fn usage() -> ExitCode {
    eprintln!("usage: gmetad --conf <path> [--once]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut conf_path: Option<String> = None;
    let mut once = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--conf" | "-c" => match args.next() {
                Some(path) => conf_path = Some(path),
                None => return usage(),
            },
            "--once" => once = true,
            "--help" | "-h" => {
                return usage();
            }
            other => {
                eprintln!("gmetad: unknown argument {other:?}");
                return usage();
            }
        }
    }
    let Some(conf_path) = conf_path else {
        return usage();
    };
    let text = match std::fs::read_to_string(&conf_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("gmetad: cannot read {conf_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = match parse_conf(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("gmetad: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "gmetad: grid {:?}, {} data source(s), {:?} mode, polling every {}s \
         ({} poll worker(s), round deadline {})",
        parsed.config.grid_name,
        parsed.config.data_sources.len(),
        parsed.config.tree_mode,
        parsed.config.poll_interval,
        parsed
            .config
            .effective_concurrency(parsed.config.data_sources.len()),
        match parsed.config.round_deadline_secs {
            0 => "off".to_string(),
            secs => format!("{secs}s"),
        },
    );

    let transport = TcpTransport::new();
    let daemon = Gmetad::new(parsed.config);
    if daemon.archive_journal_enabled() {
        // Crash recovery: rebuild from checkpointed files plus the
        // journal, dropping any torn tail left by a mid-write crash.
        match daemon.recover_archives() {
            Ok(report) => eprintln!(
                "gmetad: archive recovery: {} shard(s), {} file(s) loaded, \
                 {} journal record(s) replayed ({} already checkpointed), \
                 {} torn tail(s) dropped ({}B)",
                report.shards,
                report.loaded,
                report.replayed,
                report.noops,
                report.torn_tails,
                report.torn_bytes,
            ),
            Err(e) => {
                eprintln!("gmetad: archive recovery failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Both services run through the serving front tier: a worker pool
    // per port, one shared registry, cache keyed by the store revision.
    let interactive_bind = Addr::new(format!("{}:{}", parsed.bind, parsed.interactive_port));
    let interactive_guard =
        match PooledServer::bind(&interactive_bind, daemon.query_tier(parsed.serve.clone())) {
            Ok(guard) => guard,
            Err(e) => {
                eprintln!("gmetad: cannot bind {interactive_bind}: {e}");
                return ExitCode::FAILURE;
            }
        };
    let xml_bind = Addr::new(format!("{}:{}", parsed.bind, parsed.xml_port));
    let xml_guard = match PooledServer::bind(&xml_bind, daemon.dump_tier(parsed.serve.clone())) {
        Ok(guard) => guard,
        Err(e) => {
            eprintln!("gmetad: cannot bind {xml_bind}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "gmetad: query engine on {}, xml dump on {} \
         ({} server thread(s)/port, max {} in flight, cache {})",
        interactive_guard.addr(),
        xml_guard.addr(),
        parsed.serve.workers,
        parsed.serve.max_inflight,
        if parsed.serve.cache { "on" } else { "off" },
    );

    if once {
        let now = wall_secs();
        for (cfg, result) in daemon
            .config()
            .data_sources
            .to_vec()
            .iter()
            .zip(daemon.poll_all(&transport, now))
        {
            match result {
                Ok(()) => eprintln!("gmetad: polled {:?} ok", cfg.name),
                Err(e) => eprintln!("gmetad: {e}"),
            }
        }
        dump_stats(&daemon);
        // Leave a clean checkpoint behind rather than a journal to
        // replay on the next start.
        let persisted = if daemon.archive_journal_enabled() {
            daemon
                .checkpoint_archives(now)
                .map_err(|e| ("checkpoint", e))
        } else {
            daemon.flush_archives().map_err(|e| ("flush", e))
        };
        println!("{}", daemon.query("/?filter=summary"));
        if let Err((what, e)) = persisted {
            eprintln!("gmetad: archive {what} failed: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    // Run until killed. Journal mode commits and checkpoints on its own
    // cadence inside the poll round; legacy mode rewrites every archive
    // after each round.
    let stop = Arc::new(AtomicBool::new(false));
    let transport_arc: Arc<dyn Transport> = Arc::new(transport);
    let handle = Arc::clone(&daemon).run_background(transport_arc, Arc::clone(&stop));
    let flush_interval = std::time::Duration::from_secs(daemon.config().poll_interval.max(1));
    loop {
        std::thread::sleep(flush_interval);
        if !daemon.archive_journal_enabled() {
            if let Err(e) = daemon.flush_archives() {
                eprintln!("gmetad: archive flush failed: {e}");
            }
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    let _ = handle.join();
    ExitCode::SUCCESS
}

/// Print the per-source health/statistics table to stderr: names
/// left-aligned, numeric columns right-aligned, widths fitted to the
/// data, with a telemetry totals row closing the table.
fn dump_stats(daemon: &Gmetad) {
    let telemetry = daemon.telemetry_snapshot();
    let now = daemon.clock();
    // Per-source journal/durability status: bytes awaiting fsync plus
    // the age of the last completed checkpoint. "-" when not journaling.
    let journal_cell = |source: &str| -> String {
        if !daemon.archive_journal_enabled() {
            return "-".to_string();
        }
        match daemon.archive_journal_stats(source) {
            Some(shard) => {
                let age = match shard.last_checkpoint_at {
                    Some(at) => format!("{}s", now.saturating_sub(at)),
                    None => "never".to_string(),
                };
                format!("{}B cp:{age}", shard.stats.pending_bytes)
            }
            None => "-".to_string(),
        }
    };
    // Per-source p99 data age (host REPORTED ages, falling back to hop
    // lag for summary-only grid sources). "-" before the first poll.
    let age_cell = |source: &str| -> String {
        ganglia_core::freshness::source_age_p99(&telemetry, source)
            .map_or_else(|| "-".to_string(), |age| format!("{age}s"))
    };
    let mut rows: Vec<[String; 10]> = daemon
        .poller_stats()
        .iter()
        .map(|row| {
            [
                row.name.clone(),
                row.polls_ok.to_string(),
                row.polls_failed.to_string(),
                row.polls_backoff.to_string(),
                row.failovers.to_string(),
                row.consecutive_failures.to_string(),
                age_cell(&row.name),
                row.breaker.to_string(),
                row.phase
                    .map_or_else(|| "no-data".to_string(), |p| p.to_string()),
                journal_cell(&row.name),
            ]
        })
        .collect();
    let fetch_p99_us = telemetry
        .histogram("fetch_us")
        .map_or(0, |h| h.quantile(0.99));
    rows.push([
        "(all sources)".to_string(),
        telemetry.counter("polls_ok_total").unwrap_or(0).to_string(),
        telemetry
            .counter("polls_failed_total")
            .unwrap_or(0)
            .to_string(),
        telemetry
            .counter("polls_backoff_total")
            .unwrap_or(0)
            .to_string(),
        "-".to_string(),
        "-".to_string(),
        telemetry
            .histogram("freshness.age_s")
            .filter(|h| h.count > 0)
            .map_or_else(|| "-".to_string(), |h| format!("{}s", h.quantile(0.99))),
        format!(
            "{} open(s)",
            telemetry.counter("breaker_opens_total").unwrap_or(0)
        ),
        format!(
            "fetch_p99={fetch_p99_us}us in={}B",
            telemetry.counter("bytes_in_total").unwrap_or(0)
        ),
        if daemon.archive_journal_enabled() {
            let totals = daemon.archive_journal_totals();
            format!(
                "{}B pending ({} commits)",
                totals.pending_bytes, totals.commits
            )
        } else {
            "-".to_string()
        },
    ]);
    let headers = [
        "SOURCE",
        "OK",
        "FAILED",
        "BACKOFF",
        "FAILOVERS",
        "CONSECF",
        "AGE",
        "BREAKER",
        "PHASE",
        "JOURNAL",
    ];
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(c, h)| {
            rows.iter()
                .map(|r| r[c].len())
                .chain([h.len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let render = |cells: &[String; 10]| {
        // Columns 1–6 are numeric: right-aligned.
        format!(
            "gmetad: {:<w0$} {:>w1$} {:>w2$} {:>w3$} {:>w4$} {:>w5$} {:>w6$} {:<w7$} {:<w8$} {}",
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4],
            cells[5],
            cells[6],
            cells[7],
            cells[8],
            cells[9],
            w0 = widths[0],
            w1 = widths[1],
            w2 = widths[2],
            w3 = widths[3],
            w4 = widths[4],
            w5 = widths[5],
            w6 = widths[6],
            w7 = widths[7],
            w8 = widths[8],
        )
    };
    eprintln!("{}", render(&headers.map(String::from)));
    for row in &rows {
        eprintln!("{}", render(row));
    }
    // The full instrument dump, for eyeballing a live daemon.
    for line in telemetry
        .render_table(&format!("gmetad:{}", daemon.config().grid_name))
        .lines()
    {
        eprintln!("gmetad: {line}");
    }
}

fn wall_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}
