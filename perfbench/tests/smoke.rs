//! A reduced-size run of every workload, untraced and traced: the
//! correctness checks pass, and the result line carries exactly the
//! metrics `BENCHMARK.json` names, with their units.

use std::path::PathBuf;
use std::process::Command;

use ganglia::telemetry::json::{self, JsonValue};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key`.
fn declared(bench: &JsonValue, key: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let list = bench.get(key).expect("metric list present");
    let mut i = 0;
    while let Some(metric) = list.index(i) {
        let field = |f: &str| {
            metric
                .get(f)
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        };
        out.push((field("name"), field("unit")));
        i += 1;
    }
    out
}

/// Run one small workload and return its parsed result line.
fn run(workload: &str, trace: &str) -> JsonValue {
    let work_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", trace, "--scale", "small", "--work-dir"])
        .arg(&work_dir)
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let leftovers: Vec<_> = std::fs::read_dir(&work_dir)
        .expect("work dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("run-"))
        .collect();
    assert!(leftovers.is_empty(), "the run directory must be removed");
    json::parse(last).expect("the result line is JSON")
}

fn check(workload: &str) {
    let bench = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(workload, trace);
        let keys: Vec<&str> = result
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
        assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
        assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
        let metrics = result.get("metrics").and_then(JsonValue::members).unwrap();
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{name}"
                );
                (
                    name.clone(),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
            .collect();
        assert_eq!(printed, declared(&bench, key), "{workload} trace {trace}");
        if trace == "0" {
            for (name, m) in metrics {
                let value = m.get("value").and_then(JsonValue::as_f64).unwrap();
                assert!(value > 0.0, "{workload}: end-to-end {name} must not be 0");
            }
        }
    }
}

#[test]
fn fig2_poll_small() {
    check("fig2_poll");
}

#[test]
fn wide_quiet_small() {
    check("wide_quiet");
}

#[test]
fn fig2_view_small() {
    check("fig2_view");
}

#[test]
fn bad_arguments_print_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
