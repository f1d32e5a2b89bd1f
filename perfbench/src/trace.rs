//! Spans recorded by the benchmark's own code around the public APIs it
//! calls: a round, each gmetad's `poll_all`, each `fetch_into` (through
//! a delegating transport) and each viewer page. Kept in memory, written
//! as JSON when the run ends, and reduced to self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ganglia::net::{Addr, FetchBuffer, NetError, RequestHandler, ServerGuard, Transport};

use crate::measure::thread_cpu;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// 0 for a top-level span.
    pub parent: u64,
    pub name: &'static str,
    /// Round id for round-path spans, page id for pages.
    pub seq: u64,
    /// What the span was about (a gmetad, an address, a page kind).
    pub label: String,
    pub start_us: f64,
    pub end_us: f64,
    /// On-CPU time: the calling thread's for fetches and pages, the
    /// whole process's for rounds and `poll_all` (whose work runs on the
    /// daemon's scoped poll workers).
    pub cpu_us: f64,
}

impl SpanRec {
    pub fn wall_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store shared by every traced thread.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span: where and when it started, and which CPU clock it
/// reads.
pub struct OpenSpan {
    pub id: u64,
    start: Instant,
    cpu: fn() -> Duration,
    cpu_start: Duration,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span whose CPU is read from `cpu` at open and close.
    pub fn open(&self, cpu: fn() -> Duration) -> OpenSpan {
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            cpu,
            cpu_start: cpu(),
        }
    }

    /// Close `span` and keep it.
    pub fn close(
        &self,
        span: OpenSpan,
        parent: u64,
        name: &'static str,
        seq: u64,
        label: String,
    ) -> SpanRec {
        let end = Instant::now();
        let rec = SpanRec {
            id: span.id,
            parent,
            name,
            seq,
            label,
            start_us: span.start.duration_since(self.epoch).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.epoch).as_secs_f64() * 1e6,
            cpu_us: (span.cpu)().saturating_sub(span.cpu_start).as_secs_f64() * 1e6,
        };
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec.clone());
        rec
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"seq\":{},\"label\":\"{}\",\
                 \"start_us\":{:.1},\"end_us\":{:.1},\"cpu_us\":{:.1}}}",
                s.id,
                s.parent,
                s.name,
                s.seq,
                s.label.replace(['"', '\\'], "_"),
                s.start_us,
                s.end_us,
                s.cpu_us
            );
        }
        out.push_str("\n]\n");
        out
    }

    /// Per span name: count, total wall, total self time (wall minus
    /// the wall of direct children) and total CPU, in milliseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, [f64; 4]> {
        let spans = self.spans();
        let mut child_wall: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_wall.entry(s.parent).or_default() += s.wall_us();
            }
        }
        let mut out: BTreeMap<&'static str, [f64; 4]> = BTreeMap::new();
        for s in &spans {
            let row = out.entry(s.name).or_default();
            let children = child_wall.get(&s.id).copied().unwrap_or(0.0);
            row[0] += 1.0;
            row[1] += s.wall_us() / 1e3;
            row[2] += (s.wall_us() - children).max(0.0) / 1e3;
            row[3] += s.cpu_us / 1e3;
        }
        out
    }
}

/// Delegating transport handed to `poll_all` in traced rounds: a span
/// around every `fetch_into`, plus byte and error counts.
pub struct TracedTransport<'a> {
    pub inner: &'a dyn Transport,
    pub recorder: &'a Recorder,
    pub parent: u64,
    pub round: u64,
    pub bytes: &'a AtomicU64,
    pub errors: &'a AtomicU64,
}

impl Transport for TracedTransport<'_> {
    fn serve(
        &self,
        addr: &Addr,
        handler: Arc<dyn RequestHandler>,
    ) -> Result<Box<dyn ServerGuard>, NetError> {
        self.inner.serve(addr, handler)
    }

    fn fetch(&self, addr: &Addr, request: &str, timeout: Duration) -> Result<String, NetError> {
        let mut buf = FetchBuffer::new();
        self.fetch_into(addr, request, timeout, &mut buf)?;
        Ok(buf.into_string())
    }

    fn fetch_into(
        &self,
        addr: &Addr,
        request: &str,
        timeout: Duration,
        buf: &mut FetchBuffer,
    ) -> Result<usize, NetError> {
        let span = self.recorder.open(thread_cpu);
        let result = self.inner.fetch_into(addr, request, timeout, buf);
        match &result {
            Ok(n) => {
                self.bytes.fetch_add(*n as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.recorder.close(
            span,
            self.parent,
            "fetch_into",
            self.round,
            addr.to_string(),
        );
        result
    }
}

/// Spans plus the delegating transport's counters.
pub struct Tracing {
    pub(crate) recorder: Recorder,
    pub(crate) fetch_bytes: AtomicU64,
    pub(crate) fetch_errors: AtomicU64,
}

impl Tracing {
    pub(crate) fn new() -> Tracing {
        Tracing {
            recorder: Recorder::new(),
            fetch_bytes: AtomicU64::new(0),
            fetch_errors: AtomicU64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::process_cpu;

    #[test]
    fn self_time_subtracts_direct_children() {
        let recorder = Recorder::new();
        let outer = recorder.open(process_cpu);
        let outer_id = outer.id;
        let inner = recorder.open(thread_cpu);
        std::thread::sleep(Duration::from_millis(5));
        recorder.close(inner, outer_id, "inner", 1, String::new());
        let closed = recorder.close(outer, 0, "outer", 1, String::new());
        let times = recorder.self_times();
        assert_eq!(times["outer"][0], 1.0);
        assert!(times["outer"][2] < times["outer"][1]);
        assert!(closed.wall_us() >= 5000.0);
        let json = recorder.to_json();
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":"));
    }
}
