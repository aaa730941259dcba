//! Metric names, units, directions and bounds, and the report every run prints.
//!
//! The tables here are the single source for the metric names: `BENCHMARK.json`
//! repeats them (the smoke test holds the two together), `--audit` takes its bounds
//! from here, and both binaries print through [`Report`].

use serde_json::{json, Value};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a change counts
    /// as a regression.
    pub bound: f64,
}

/// The seven end-to-end metrics; every workload reports all of them.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "answer_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "answer_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "answer_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "insert_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// A per-layer metric of the traced run: name, unit, direction. None is gated.
pub type PerLayer = (&'static str, &'static str, Better);

/// The per-layer metrics, named `<module>.<metric>`. A layer that a workload does
/// not reach reports 0 for its times and counts.
pub const PER_LAYER: [PerLayer; 50] = [
    ("classifier.classify_us", "us", Better::Lower),
    ("classifier.misroute_share", "share", Better::Lower),
    ("tagging.tag_us", "us", Better::Lower),
    ("tagging.repaired_share", "share", Better::Lower),
    ("translate.interpret_us", "us", Better::Lower),
    ("translate.rejected_share", "share", Better::Lower),
    ("exec.execute_us", "us", Better::Lower),
    ("exec.execute_p95_us", "us", Better::Lower),
    ("exec.time_share", "share", Better::Lower),
    ("exec.exact_count_mean", "count", Better::Higher),
    ("exec.negated_us", "us", Better::Lower),
    ("partial.topk_us", "us", Better::Lower),
    ("partial.topk_p95_us", "us", Better::Lower),
    ("partial.time_share", "share", Better::Lower),
    ("partial.answers_mean", "count", Better::Higher),
    ("partial.conditions_mean", "count", Better::Lower),
    ("partial.workers2_ratio", "ratio", Better::Lower),
    ("partial.negated_us", "us", Better::Lower),
    ("pipeline.glue_share", "share", Better::Lower),
    ("pipeline.answer_p99_us", "us", Better::Lower),
    ("pipeline.answer_max_us", "us", Better::Lower),
    ("cache.key_us", "us", Better::Lower),
    ("cache.lookup_hit_us", "us", Better::Lower),
    ("cache.fill_us", "us", Better::Lower),
    ("cache.hit_share", "share", Better::Higher),
    ("cache.stale_evictions", "count", Better::Lower),
    ("cache.capacity_evictions", "count", Better::Lower),
    ("cache.overflow_fill_us", "us", Better::Lower),
    ("handle.insert_us", "us", Better::Lower),
    ("handle.publish_us", "us", Better::Lower),
    ("handle.first_ask_after_insert_us", "us", Better::Lower),
    ("table.insert_us", "us", Better::Lower),
    ("table.build_s", "s", Better::Lower),
    ("storage.wal_append_us", "us", Better::Lower),
    ("storage.audit_append_us", "us", Better::Lower),
    ("storage.snapshot_write_s", "s", Better::Lower),
    ("storage.wal_bytes_per_record", "B", Better::Lower),
    ("storage.snapshot_bytes_per_record", "B", Better::Lower),
    ("storage.realfs_recover_s", "s", Better::Lower),
    ("querylog.ingest_us", "us", Better::Lower),
    ("querylog.build_s", "s", Better::Lower),
    ("shard.n1_ratio", "ratio", Better::Lower),
    ("shard.n2_ratio", "ratio", Better::Lower),
    ("loadgen.observed_qps_median", "1/s", Better::Higher),
    ("loadgen.observed_p50_us", "us", Better::Lower),
    ("loadgen.host_spread", "ratio", Better::Lower),
    ("loadgen.fastest_ratio", "ratio", Better::Higher),
    ("loadgen.replays", "count", Better::Higher),
    ("loadgen.pool_select_s", "s", Better::Lower),
    ("trace.overhead_ratio", "ratio", Better::Lower),
];

/// What a run reports: named values, the counts that must repeat exactly, and the
/// correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    counts: Vec<(&'static str, String)>,
}

impl Report {
    /// Record a metric value. The name must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
            .find(|&(n, _)| n == name)
            .map(|(_, unit)| unit)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        self.metrics.push((name, value, unit));
    }

    /// Record a count that must repeat exactly across runs with one seed.
    pub fn count(&mut self, name: &'static str, value: impl ToString) {
        self.counts.push((name, value.to_string()));
    }

    /// The recorded value of a metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// Print every metric by name and unit, the counts, the first failures, and as
    /// the last line the one-object JSON result.
    pub fn print(&self, tally: &crate::replay::Tally) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.4} {unit}");
        }
        for (name, value) in &self.counts {
            println!("{name:<36} {value}");
        }
        for note in &tally.notes {
            println!("FAILED: {note}");
        }
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), json!({"value": value, "unit": unit})))
            .collect();
        let line = json!({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": Value::Object(metrics),
        });
        println!(
            "{}",
            serde_json::to_string(&line).expect("an in-memory value renders")
        );
    }
}

/// `VmHWM` of this process in megabytes: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb() > 1.0);
    }
}
