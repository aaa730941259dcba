//! Tier-1 proof that the benchmark still builds and runs: every workload in
//! `--smoke` mode, both binaries, and `BENCHMARK.json` against the metric tables.

use cqads_benchmark::audit::parse_result;
use cqads_benchmark::metrics::{END_TO_END, PER_LAYER};
use cqads_benchmark::workload::Workload;
use serde_json::Value;
use std::process::Command;

const END_TO_END_BIN: &str = env!("CARGO_BIN_EXE_cqads-benchmark");
const TRACE_BIN: &str = env!("CARGO_BIN_EXE_cqads-benchmark-trace");

/// Run one binary in smoke mode; returns its standard output.
fn smoke(bin: &str, workload: Workload, trace: bool) -> String {
    let output = Command::new(bin)
        .args(["--workload", workload.name(), "--seed", "7", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        // The traced run writes its spans and its real-disk store under the target dir.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{bin} {} failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// The result line's `(name, unit)` pairs, after checking the run was correct.
fn checked_metrics(stdout: &str) -> Vec<(String, String)> {
    let (correct, _) = parse_result(stdout).expect("the last line is the JSON result");
    assert!(correct, "run reported failures:\n{stdout}");
    let line = stdout.lines().last().unwrap();
    let value = serde_json::from_str(line).unwrap();
    assert_eq!(value.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(value.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let Some(Value::Object(metrics)) = value.get("metrics") else {
        panic!("no metrics object: {line}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            let unit = m.get("unit").and_then(Value::as_str).unwrap();
            (name.clone(), unit.to_string())
        })
        .collect()
}

/// The lines that must repeat exactly for one seed.
fn counts(stdout: &str) -> Vec<&str> {
    const REPEATING: [&str; 6] = [
        "ops_hash",
        "answers_checksum",
        "cache_hits",
        "cache_misses",
        "cache_stale_evictions",
        "cache_capacity_evictions",
    ];
    let found: Vec<&str> = stdout
        .lines()
        .filter(|l| REPEATING.iter().any(|name| l.starts_with(name)))
        .collect();
    assert_eq!(found.len(), REPEATING.len(), "{stdout}");
    found
}

fn check_workload(workload: Workload) {
    let first = smoke(END_TO_END_BIN, workload, false);
    let expected: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(checked_metrics(&first), expected);
    let second = smoke(END_TO_END_BIN, workload, false);
    assert_eq!(counts(&first), counts(&second), "one seed, two runs");

    let traced = smoke(TRACE_BIN, workload, true);
    let expected: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name.to_string(), unit.to_string()))
        .collect();
    assert_eq!(checked_metrics(&traced), expected);
}

#[test]
fn ask_plenty_smoke() {
    check_workload(Workload::AskPlenty);
}

#[test]
fn ask_scarce_smoke() {
    check_workload(Workload::AskScarce);
}

#[test]
fn serve_hot_smoke() {
    check_workload(Workload::ServeHot);
}

#[test]
fn ingest_mixed_smoke() {
    check_workload(Workload::IngestMixed);
}

#[test]
fn each_binary_refuses_the_other_ones_trace_flag() {
    for (bin, trace) in [(END_TO_END_BIN, "1"), (TRACE_BIN, "0")] {
        let output = Command::new(bin)
            .args(["--workload", "serve_hot", "--smoke", "--trace", trace])
            .output()
            .unwrap();
        assert!(!output.status.success());
        assert!(output.stdout.is_empty());
    }
}

#[test]
fn benchmark_json_repeats_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| match json.get(key) {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("{key}: {other:?}"),
    };
    let text_of =
        |item: &Value, key: &str| item.get(key).and_then(Value::as_str).unwrap().to_string();

    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    assert!(list("workloads")
        .iter()
        .all(|w| text_of(w, "why").len() <= 200));

    let end_to_end = list("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (item, metric) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text_of(item, "name"), metric.name);
        assert_eq!(text_of(item, "unit"), metric.unit);
        assert_eq!(text_of(item, "better"), metric.better.word());
        assert_eq!(
            item.get("bound").and_then(Value::as_f64),
            Some(metric.bound)
        );
    }
    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (item, &(name, unit, better)) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text_of(item, "name"), name);
        assert_eq!(text_of(item, "unit"), unit);
        assert_eq!(text_of(item, "better"), better.word());
    }
    assert_eq!(
        json.get("run_seconds").and_then(Value::as_f64),
        Some(cqads_benchmark::workload::REFERENCE_SECONDS as f64)
    );
}
