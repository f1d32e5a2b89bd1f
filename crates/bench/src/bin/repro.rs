//! Reproduce the paper's tables and figures and every subsystem
//! experiment, and check each experiment's gates.
//!
//! Usage: `repro <experiment>|all [--smoke] [--json <path>] [name=value ...]`
//!
//! `--smoke` picks each experiment's CI-sized defaults; `name=value`
//! overrides one parameter of a single experiment (`repro ingest
//! hosts=128 rounds=40`). Every gated row is checked on every run, after
//! every selected experiment has run: each failure is named and the
//! exit status is 1 if any gate failed. `--json` writes the report (a
//! JSON array of reports for `all`) once it parses.

use std::process::ExitCode;
use std::time::Instant;

use ganglia_bench::{failures, render, to_json, Params, Row, EXPERIMENTS};
use ganglia_core::telemetry::json;

fn usage() -> ExitCode {
    eprintln!("usage: repro <experiment>|all [--smoke] [--json <path>] [name=value ...]");
    eprintln!("experiments and their parameters:");
    for e in &EXPERIMENTS {
        eprintln!("  {:<11} {}", e.name, e.params.join(" "));
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut which = None;
    let mut params = Params::default();
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => params.smoke = true,
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => return usage(),
            },
            other => match other.split_once('=') {
                Some((name, value)) => params.values.push((name.into(), value.into())),
                None if which.is_none() => which = Some(arg),
                None => return usage(),
            },
        }
    }
    let Some(which) = which else {
        return usage();
    };
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| which == "all" || e.name == which)
        .collect();
    if selected.is_empty() {
        eprintln!("repro: unknown experiment {which:?}");
        return usage();
    }
    for (name, _) in &params.values {
        if which == "all" || !selected[0].params.contains(&name.as_str()) {
            eprintln!("repro: {which} takes no parameter {name:?}");
            return usage();
        }
    }

    let mut reports = Vec::new();
    for experiment in selected {
        eprintln!("running {}...", experiment.name);
        let start = Instant::now();
        let mut report = match (experiment.run)(&params) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("repro: {e}");
                return usage();
            }
        };
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        report.rows.push(Row::new("run", "elapsed_ms", elapsed_ms));
        println!("{}", render(&report));
        reports.push(report);
    }

    let mut failed = failures(&reports);
    let rendered = if which == "all" {
        let all: Vec<String> = reports.iter().map(to_json).collect();
        format!("[{}]", all.join(","))
    } else {
        to_json(&reports[0])
    };
    match (json::parse(&rendered), &json_path) {
        (Err(e), _) => failed.push(format!("JSON does not parse: {e}")),
        (Ok(_), Some(path)) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                failed.push(format!("cannot write {path}: {e}"));
            }
        }
        (Ok(_), None) => {}
    }
    let gates = reports
        .iter()
        .flat_map(|r| &r.rows)
        .filter(|row| row.gate.is_some())
        .count();
    for failure in &failed {
        eprintln!("FAILED {failure}");
    }
    eprintln!("{gates} gates checked, {} failed", failed.len());
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
