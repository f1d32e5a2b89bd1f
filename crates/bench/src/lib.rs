//! One reproduction harness for every table, figure and subsystem
//! experiment: `repro <experiment>|all [--smoke] [--json <path>]
//! [name=value ...]`.
//!
//! Every experiment returns one [`Report`] of [`Row`]s, each row one
//! measured number with its unit in the metric name, the same metric on
//! the experiment's reference path as its baseline, and optionally a
//! [`Gate`] it must pass. One renderer ([`render`]) prints reports, one
//! writer ([`to_json`]) emits them, and one evaluator ([`failures`])
//! checks every gated row. Rows are built by pure functions of an
//! experiment's result, so tests pin them without running anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::{self, Write};
use std::hint::black_box;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use ganglia_core::telemetry::json_string;

mod ablations;
mod archive;
mod federation;
mod freshness;
mod ingest;
mod paper;
mod query;
mod serving;
#[cfg(test)]
mod tests;

/// A comparison a gated row's value must satisfy against its bar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Ge,
    Gt,
    Le,
    Lt,
    /// Equal within `f64::EPSILON`: exact for the integer counts it
    /// gates, and the tolerance the federation witness always used.
    Eq,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Op::Ge => ">=",
            Op::Gt => ">",
            Op::Le => "<=",
            Op::Lt => "<",
            Op::Eq => "==",
        })
    }
}

/// A pass condition: `value <op> bar`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    pub op: Op,
    pub bar: f64,
}

impl Gate {
    /// Whether `value` passes. NaN passes nothing.
    pub fn passes(&self, value: f64) -> bool {
        match self.op {
            Op::Ge => value >= self.bar,
            Op::Gt => value > self.bar,
            Op::Le => value <= self.bar,
            Op::Lt => value < self.bar,
            Op::Eq => (value - self.bar).abs() <= f64::EPSILON,
        }
    }
}

/// A number a row can carry: counts convert exactly (every count here
/// is far below 2^53), checks as 1 (passed) or 0.
pub trait Num {
    fn to_f64(self) -> f64;
}

macro_rules! num {
    ($($t:ty),*) => {
        $(impl Num for $t {
            fn to_f64(self) -> f64 {
                self as f64
            }
        })*
    };
}

num!(f64, u64, usize, u32, u8, i32);

impl Num for bool {
    fn to_f64(self) -> f64 {
        u8::from(self).into()
    }
}

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What the row measures: a monitor, a churn level, a store, a view.
    pub stage: String,
    /// The metric, its unit last (`_us`, `_bytes`, `_pct`, `_x`).
    pub metric: String,
    pub value: f64,
    /// The same metric on the experiment's reference path.
    pub baseline: Option<f64>,
    pub gate: Option<Gate>,
}

impl Row {
    pub fn new(stage: impl Into<String>, metric: impl Into<String>, value: impl Num) -> Row {
        Row {
            stage: stage.into(),
            metric: metric.into(),
            value: value.to_f64(),
            baseline: None,
            gate: None,
        }
    }

    /// A pass/fail check, gated `== 1`.
    pub fn check(stage: impl Into<String>, metric: impl Into<String>, ok: bool) -> Row {
        Row::new(stage, metric, ok).gate(Op::Eq, 1)
    }

    pub fn vs(mut self, baseline: impl Num) -> Row {
        self.baseline = Some(baseline.to_f64());
        self
    }

    pub fn gate(mut self, op: Op, bar: impl Num) -> Row {
        self.gate = Some(Gate {
            op,
            bar: bar.to_f64(),
        });
        self
    }

    /// Whether the row has a gate and fails it.
    pub fn failed(&self) -> bool {
        self.gate.is_some_and(|g| !g.passes(self.value))
    }
}

/// Everything one experiment measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub experiment: &'static str,
    /// Resolved parameters, defaults included.
    pub params: Vec<(&'static str, String)>,
    pub rows: Vec<Row>,
}

/// A number for people: integers exactly, fractions to a few places.
fn human(v: f64) -> String {
    let places = if v.abs() >= 1000.0 {
        1
    } else if v.abs() >= 1.0 {
        3
    } else {
        5
    };
    let text = format!("{v:.places$}");
    if text.contains('.') {
        text.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        text
    }
}

/// Render a report as an aligned table, one line per row.
pub fn render(report: &Report) -> String {
    let mut out = format!("== {}", report.experiment);
    for (name, value) in &report.params {
        let _ = write!(out, " {name}={value}");
    }
    let stage_w = report.rows.iter().map(|r| r.stage.len()).max().unwrap_or(0);
    let metric_w = report
        .rows
        .iter()
        .map(|r| r.metric.len())
        .max()
        .unwrap_or(0);
    let _ = write!(
        out,
        "\n{:<stage_w$}  {:<metric_w$}  {:>14}  {:>14}  gate",
        "stage", "metric", "value", "baseline"
    );
    for row in &report.rows {
        let _ = write!(
            out,
            "\n{:<stage_w$}  {:<metric_w$}  {:>14}  {:>14}",
            row.stage,
            row.metric,
            human(row.value),
            row.baseline.map(human).unwrap_or_default()
        );
        if let Some(gate) = row.gate {
            let verdict = if row.failed() { "FAILED" } else { "ok" };
            let _ = write!(out, "  {} {} {verdict}", gate.op, human(gate.bar));
        }
    }
    out.push('\n');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A report as one JSON object; a gated row's gate carries its verdict
/// (`"ok":false` on failure).
pub fn to_json(report: &Report) -> String {
    let mut out = format!(
        "{{\"experiment\":{},\"params\":{{",
        json_string(report.experiment)
    );
    for (i, (name, value)) in report.params.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}{}:{}", json_string(name), json_string(value));
    }
    out.push_str("},\"rows\":[");
    for (i, row) in report.rows.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"stage\":{},\"metric\":{},\"value\":{},\"baseline\":{},\"gate\":",
            if i > 0 { "," } else { "" },
            json_string(&row.stage),
            json_string(&row.metric),
            json_number(row.value),
            row.baseline.map_or("null".to_string(), json_number),
        );
        match row.gate {
            Some(gate) => {
                let _ = write!(
                    out,
                    "{{\"op\":\"{}\",\"bar\":{},\"ok\":{}}}}}",
                    gate.op,
                    json_number(gate.bar),
                    !row.failed()
                );
            }
            None => out.push_str("null}"),
        }
    }
    out.push_str("]}");
    out
}

/// Every failed gate across `reports`, each named
/// `experiment/stage/metric` with its value and bar.
pub fn failures(reports: &[Report]) -> Vec<String> {
    reports
        .iter()
        .flat_map(|report| {
            report.rows.iter().filter(|row| row.failed()).map(|row| {
                let gate = row.gate.expect("failed rows are gated");
                format!(
                    "{}/{}/{}: {} fails {} {}",
                    report.experiment,
                    row.stage,
                    row.metric,
                    human(row.value),
                    gate.op,
                    human(gate.bar)
                )
            })
        })
        .collect()
}

/// Command-line parameters of one run: `--smoke` picks each
/// experiment's CI-sized defaults, `name=value` overrides one.
#[derive(Debug, Clone, Default)]
pub struct Params {
    pub smoke: bool,
    pub values: Vec<(String, String)>,
}

impl Params {
    /// `name`'s value from the command line, else its full-size or
    /// smoke default.
    pub fn get<T: FromStr>(&self, name: &str, full: T, smoke: T) -> Result<T, String> {
        match self.values.iter().rev().find(|(n, _)| n == name) {
            Some((_, raw)) => raw
                .parse()
                .map_err(|_| format!("bad value for {name}: {raw:?}")),
            None => Ok(if self.smoke { smoke } else { full }),
        }
    }
}

/// One runnable experiment.
pub struct Experiment {
    pub name: &'static str,
    /// The `name=value` parameters it takes.
    pub params: &'static [&'static str],
    pub run: fn(&Params) -> Result<Report, String>,
}

impl Experiment {
    const fn new(
        name: &'static str,
        params: &'static [&'static str],
        run: fn(&Params) -> Result<Report, String>,
    ) -> Experiment {
        Experiment { name, params, run }
    }
}

/// Every experiment, in the order `repro all` runs them.
pub const EXPERIMENTS: [Experiment; 12] = [
    Experiment::new("fig5", &["hosts", "rounds"], paper::run_fig5),
    Experiment::new("fig6", &["rounds", "sizes"], paper::run_fig6),
    Experiment::new("table1", &["hosts", "samples"], paper::run_table1),
    Experiment::new("limits", &["hosts", "rounds"], paper::run_limits),
    Experiment::new("serving", &["clients", "requests"], serving::run),
    Experiment::new("ingest", &["hosts", "rounds"], ingest::run),
    Experiment::new("archive", &["databases", "rounds"], archive::run),
    Experiment::new("freshness", &["hosts", "steady_rounds"], freshness::run),
    Experiment::new("query", &["hosts", "rounds"], query::run),
    Experiment::new("federation", &["grids", "rounds"], federation::run),
    Experiment::new("ablations", &[], ablations::run_ablations),
    Experiment::new("micro", &[], ablations::run_micro),
];

/// Median wall time of one call of `f`, in nanoseconds: 21 samples,
/// each timing a batch of calls sized to about a millisecond so that
/// clock reads do not dominate nanosecond operations.
pub(crate) fn median_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    let once = start.elapsed().as_nanos().max(1);
    let batch = (1_000_000 / once).clamp(1, 100_000) as u32;
    let mut samples: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(batch)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The system allocator, counting allocations while a
/// [`count_allocs`] window is open. Outside a window it costs one
/// relaxed load, so multi-threaded experiments never contend on the
/// shared counter.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a relaxed atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (and reallocations) made while `f` runs. Windows
/// must not overlap.
pub(crate) fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}
