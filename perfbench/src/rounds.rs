//! One round: a bottom-up pass through every gmetad, timed, with spans
//! around each `poll_all` in traced rounds.

use std::sync::Arc;
use std::time::Instant;

use ganglia::core::{Gmetad, GmetadError};
use ganglia::net::TcpTransport;

use crate::deploy::{Deployment, Level};
use crate::measure::{allocs, process_cpu};
use crate::trace::{TracedTransport, Tracing};

/// The gmetads in bottom-up poll order, shareable across threads.
pub(crate) struct Pollers {
    pub(crate) monitors: Vec<(String, Level, Arc<Gmetad>)>,
}

impl Pollers {
    pub(crate) fn of(dep: &Deployment) -> Pollers {
        Pollers {
            monitors: dep
                .monitors
                .iter()
                .map(|m| (m.name.clone(), m.level, Arc::clone(&m.daemon)))
                .collect(),
        }
    }

    /// One bottom-up pass through every gmetad at logical time `now`.
    pub(crate) fn round(
        &self,
        tcp: &TcpTransport,
        now: u64,
        seq: u64,
        tracing: Option<&Tracing>,
    ) -> Round {
        let mut round = Round {
            traced: tracing.is_some(),
            ..Round::default()
        };
        let allocs_before = allocs();
        let cpu_before = process_cpu();
        let start = Instant::now();
        match tracing {
            None => {
                for (_, _, daemon) in &self.monitors {
                    round.tally(&daemon.poll_all(tcp, now));
                }
            }
            Some(t) => {
                let rec = &t.recorder;
                let round_span = rec.open(process_cpu);
                let round_id = round_span.id;
                for (name, level, daemon) in &self.monitors {
                    let span = rec.open(process_cpu);
                    let transport = TracedTransport {
                        inner: tcp,
                        recorder: rec,
                        parent: span.id,
                        round: seq,
                        bytes: &t.fetch_bytes,
                        errors: &t.fetch_errors,
                    };
                    round.tally(&daemon.poll_all(&transport, now));
                    let closed = rec.close(span, round_id, "poll_all", seq, name.clone());
                    let at = Level::ALL.iter().position(|l| l == level).unwrap_or(0);
                    round.level_ms[at] += closed.wall_us() / 1e3;
                    round.level_cpu_ms[at] += closed.cpu_us / 1e3;
                }
                rec.close(round_span, 0, "round", seq, String::new());
            }
        }
        round.wall_ms = start.elapsed().as_secs_f64() * 1e3;
        round.cpu_ms = process_cpu().saturating_sub(cpu_before).as_secs_f64() * 1e3;
        round.allocs = allocs() - allocs_before;
        round
    }
}

/// One round's measurements.
#[derive(Debug, Clone, Default)]
pub(crate) struct Round {
    pub(crate) wall_ms: f64,
    pub(crate) cpu_ms: f64,
    pub(crate) allocs: u64,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) first_error: Option<String>,
    pub(crate) traced: bool,
    /// Summed `poll_all` wall and CPU per level (traced rounds only).
    pub(crate) level_ms: [f64; 3],
    pub(crate) level_cpu_ms: [f64; 3],
    /// Lateness against the wall-clock schedule (open loop only).
    pub(crate) late_ms: f64,
}

impl Round {
    pub(crate) fn tally(&mut self, results: &[Result<(), GmetadError>]) {
        self.attempted += results.len() as u64;
        for result in results {
            if let Err(e) = result {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }
}
