//! `perfbench`: the repository's end-to-end benchmark.
//!
//! Runs one workload in one process over loopback TCP through the
//! daemons' public APIs — pseudo-gmond report ports, polling gmetads
//! with journaled archives, the pooled serving tier, and the N-level web
//! frontend — and prints one JSON result line.
//!
//! ```sh
//! perfbench --workload fig2_poll --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the run's spans as JSON). `--scale small` runs a
//! reduced deployment for tests. The exit code is non-zero when a
//! correctness check fails.

mod deploy;
mod measure;
mod pages;
mod report;
mod rounds;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Outcome, Params, Scale, Workload};

#[global_allocator]
static GLOBAL: measure::CountingAlloc = measure::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload fig2_poll|wide_quiet|fig2_view --seed N \
                     --seconds S --trace 0|1 [--scale full|small] [--work-dir DIR]";

fn parse_args() -> Result<Params, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::full();
    let mut work_dir = PathBuf::from(".perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::full(),
                    "small" => Scale::small(),
                    other => return Err(format!("unknown scale {other}")),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Params {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        work_dir,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}

fn main() -> ExitCode {
    let params = match parse_args() {
        Ok(params) => params,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&params.work_dir) {
        eprintln!(
            "perfbench: cannot create {}: {e}",
            params.work_dir.display()
        );
        return ExitCode::FAILURE;
    }
    match workload::run(&params) {
        Ok(outcome) => {
            println!("{}", result_line(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
