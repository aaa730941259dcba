//! CI bench-regression gate.
//!
//! `cargo run --release -p xtask --bin bench_check` snapshots the **committed**
//! `BENCH_*.json` baselines at the workspace root, runs every gated bench in full
//! mode (each bench rewrites its own report), and compares the fresh throughput
//! numbers against the snapshot with a tolerance band:
//!
//! * **fail** when a metric drops below `0.7x` its committed baseline (the job exits
//!   non-zero and the regression blocks the merge),
//! * **warn** between `0.7x` and `0.9x`,
//! * **ok** otherwise — including genuine improvements, which the summary prints so
//!   they can be committed as the new baseline.
//!
//! Time-per-pass metrics are inverted (`baseline / fresh`) so every ratio reads as a
//! throughput ratio: `1.0` = as fast as the committed baseline, bigger = faster. The
//! tolerance absorbs runner jitter; a genuinely different machine class will trip
//! the gate, which is the prompt to refresh the committed baselines alongside the
//! change that moved them.
//!
//! Knobs (environment): `BENCH_GATE_FAIL` / `BENCH_GATE_WARN` override the 0.7/0.9
//! thresholds; `BENCH_GATE_SKIP_RUN=1` compares the reports already on disk without
//! re-running the benches (useful for iterating on the gate itself).

#![forbid(unsafe_code)]

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Is a larger metric value better (throughput) or worse (time per pass)?
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

/// One gated metric: a path of keys into the bench's JSON report.
struct Metric {
    path: &'static [&'static str],
    direction: Direction,
}

/// One gated bench: the `--bench` target, its report file, and the metrics held to
/// the tolerance band. Only engine-speed metrics are gated — answer counts and
/// checksum fields are asserted by the benches themselves.
struct BenchSpec {
    bench: &'static str,
    report: &'static str,
    metrics: &'static [Metric],
}

const GATED: &[BenchSpec] = &[
    BenchSpec {
        bench: "partial_topk",
        report: "BENCH_partial_topk.json",
        metrics: &[
            Metric {
                path: &["workers_ms_per_pass", "1"],
                direction: Direction::LowerIsBetter,
            },
            Metric {
                path: &["skewed", "ms_per_pass"],
                direction: Direction::LowerIsBetter,
            },
            Metric {
                path: &["uniform", "ms_per_pass"],
                direction: Direction::LowerIsBetter,
            },
        ],
    },
    BenchSpec {
        bench: "serving",
        report: "BENCH_serving.json",
        metrics: &[
            Metric {
                path: &["hot_batch_qps"],
                direction: Direction::HigherIsBetter,
            },
            Metric {
                path: &["cold_batch_qps"],
                direction: Direction::HigherIsBetter,
            },
        ],
    },
    BenchSpec {
        bench: "live_learning",
        report: "BENCH_live_learning.json",
        metrics: &[
            // A ratio of two timings on the same box, so it transfers across
            // machine classes better than absolute throughput does.
            Metric {
                path: &["apply_speedup_vs_rebuild"],
                direction: Direction::HigherIsBetter,
            },
            Metric {
                path: &["serving", "qps_under_updates"],
                direction: Direction::HigherIsBetter,
            },
        ],
    },
    BenchSpec {
        bench: "latency",
        report: "BENCH_latency.json",
        metrics: &[
            // Median serving latency only: the p99/p999 tails are recorded in
            // the report but vary too much run-to-run to gate on.
            Metric {
                path: &["read", "p50_micros"],
                direction: Direction::LowerIsBetter,
            },
            Metric {
                path: &["mixed", "p50_micros"],
                direction: Direction::LowerIsBetter,
            },
        ],
    },
    BenchSpec {
        bench: "concurrency",
        report: "BENCH_concurrency.json",
        metrics: &[
            // Reader qps under concurrent ingest over reader-only qps, both
            // measured in the same run, so the ratio transfers across machine
            // classes the way absolute throughput cannot.
            Metric {
                path: &["contention_ratio"],
                direction: Direction::HigherIsBetter,
            },
        ],
    },
    BenchSpec {
        bench: "shard_scaling",
        report: "BENCH_shard_scaling.json",
        metrics: &[
            // 2-part read qps over one-part read qps, both from the same
            // run, so the ratio transfers across machine classes the way
            // absolute throughput cannot.
            Metric {
                path: &["scatter_overhead_ratio"],
                direction: Direction::HigherIsBetter,
            },
        ],
    },
    BenchSpec {
        bench: "durability",
        report: "BENCH_durability.json",
        metrics: &[
            // CPU-bound columns only: the fsync column and the snapshot write
            // time track disk hardware, not engine regressions.
            Metric {
                path: &["wal", "appends_per_sec_nofsync"],
                direction: Direction::HigherIsBetter,
            },
            Metric {
                path: &["recovery_ms_per_1k_frames"],
                direction: Direction::LowerIsBetter,
            },
        ],
    },
];

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn lookup<'v>(mut value: &'v Value, path: &[&str]) -> Option<&'v Value> {
    for key in path {
        value = value.get(key)?;
    }
    Some(value)
}

fn read_report(root: &Path, spec: &BenchSpec) -> Option<Value> {
    let path = root.join(spec.report);
    let text = std::fs::read_to_string(&path).ok()?;
    serde_json::from_str(&text).ok()
}

fn env_threshold(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> ExitCode {
    let root = workspace_root();
    let fail_below = env_threshold("BENCH_GATE_FAIL", 0.7);
    let warn_below = env_threshold("BENCH_GATE_WARN", 0.9);
    let skip_run = std::env::var("BENCH_GATE_SKIP_RUN").is_ok_and(|v| v == "1");

    // Snapshot the committed baselines *before* the benches overwrite them.
    let baselines: Vec<Option<Value>> = GATED.iter().map(|s| read_report(&root, s)).collect();

    let mut failures = 0usize;
    let mut warnings = 0usize;
    println!("bench-gate: fail < {fail_below:.2}x, warn < {warn_below:.2}x of committed baseline");
    for (spec, baseline) in GATED.iter().zip(&baselines) {
        if !skip_run {
            println!("\n== running bench `{}` ==", spec.bench);
            let status = Command::new(env!("CARGO"))
                .current_dir(&root)
                .args(["bench", "-p", "cqads-bench", "--bench", spec.bench])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("bench `{}` exited with {s}", spec.bench);
                    failures += 1;
                    continue;
                }
                Err(e) => {
                    eprintln!("bench `{}` failed to launch: {e}", spec.bench);
                    failures += 1;
                    continue;
                }
            }
        }
        let Some(baseline) = baseline else {
            // A fresh bench with no committed baseline is a gap in the gate,
            // not a regression: warn with the exact file to commit instead of
            // failing the job.
            warnings += 1;
            println!(
                "warn {}: no committed baseline `{}` at the workspace root; fresh numbers \
                 recorded only — commit that file to arm the gate",
                spec.bench, spec.report
            );
            continue;
        };
        let Some(fresh) = read_report(&root, spec) else {
            eprintln!(
                "{}: bench ran but {} is unreadable",
                spec.bench, spec.report
            );
            failures += 1;
            continue;
        };
        // A baseline measured on a different machine class (thread count is the
        // proxy every report carries) is informational, not enforceable: absolute
        // throughput does not transfer across hardware. Downgrade its failures to
        // warnings; the gate bites once the baselines are refreshed on gate-class
        // hardware (commit the artifacts the bench jobs upload).
        let cross_machine = match (
            baseline.get("hardware_threads").and_then(Value::as_f64),
            fresh.get("hardware_threads").and_then(Value::as_f64),
        ) {
            (Some(old), Some(new)) => old != new,
            _ => false,
        };
        if cross_machine {
            println!(
                "{}: baseline measured on a different machine class (hardware_threads \
                 differ); comparisons are warn-only",
                spec.bench
            );
        }
        for metric in spec.metrics {
            let name = format!("{}::{}", spec.bench, metric.path.join("."));
            let (old, new) = match (
                lookup(baseline, metric.path).and_then(Value::as_f64),
                lookup(&fresh, metric.path).and_then(Value::as_f64),
            ) {
                (Some(old), Some(new)) if old > 0.0 && new > 0.0 => (old, new),
                _ => {
                    eprintln!("FAIL {name}: metric missing or non-positive");
                    failures += 1;
                    continue;
                }
            };
            // Normalize to a throughput ratio: 1.0 = on par with the baseline.
            let ratio = match metric.direction {
                Direction::HigherIsBetter => new / old,
                Direction::LowerIsBetter => old / new,
            };
            let verdict = if ratio < fail_below {
                if cross_machine {
                    warnings += 1;
                    "warn (cross-machine)"
                } else {
                    failures += 1;
                    "FAIL"
                }
            } else if ratio < warn_below {
                warnings += 1;
                "warn"
            } else {
                "ok"
            };
            println!("{verdict} {name}: {ratio:.2}x of baseline (old {old:.3}, new {new:.3})");
        }
    }

    println!(
        "\nbench-gate summary: {failures} failure(s), {warnings} warning(s) across {} bench(es)",
        GATED.len()
    );
    if failures > 0 {
        eprintln!(
            "bench-gate: throughput regressed below {fail_below:.2}x of the committed \
             BENCH_*.json baselines"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
