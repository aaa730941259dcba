//! `--audit <n>`: run one workload n times in fresh processes, each with another
//! seed, and hold every end-to-end metric's run-to-run spread against its bound.
//!
//! The spread is the distance between the first and third quartile as a share of the
//! median, with quartiles as Python's `statistics.quantiles(values, n=4)` gives them
//! — the rule the benchmark's acceptance check uses. The range over the median is
//! printed beside it.

use crate::args::Args;
use crate::metrics::END_TO_END;
use crate::stats::ratio;
use std::process::Command;

/// Fewest runs an audit accepts.
pub const MIN_RUNS: usize = 10;

/// The three quartile cut points of `values` (exclusive method). Fewer than two
/// values have no spread: all three cuts are the value (or 0).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        return [data.first().copied().unwrap_or(0.0); 3];
    }
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let position = (i + 1) * (len + 1);
        let j = (position / 4).clamp(1, len - 1);
        let delta = position as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    cuts
}

/// One metric's audited spread.
#[derive(Debug, Clone)]
pub struct Spread {
    /// Metric name.
    pub name: &'static str,
    /// Median over the runs.
    pub median: f64,
    /// First and third quartile.
    pub quartiles: (f64, f64),
    /// `(q3 − q1) / median`.
    pub iqr_share: f64,
    /// `(max − min) / median`.
    pub range_share: f64,
    /// The metric's bound.
    pub bound: f64,
}

/// Spread of every end-to-end metric over the runs' values.
pub fn spreads(runs: &[Vec<(String, f64)>]) -> Vec<Spread> {
    END_TO_END
        .iter()
        .map(|metric| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| run.iter().find(|(n, _)| n == metric.name).map(|&(_, v)| v))
                .collect();
            let [q1, _, q3] = quartiles(&values);
            let median = median_of(&values);
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            Spread {
                name: metric.name,
                median,
                quartiles: (q1, q3),
                iqr_share: ratio(q3 - q1, median),
                range_share: ratio(max - min, median),
                bound: metric.bound,
            }
        })
        .collect()
}

/// The median with the mean of the middle pair for an even count, as Python's
/// `statistics.median`.
fn median_of(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// The metrics of one run's last output line, and whether it was correct.
pub fn parse_result(stdout: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| "no output".to_string())?;
    let value = serde_json::from_str(line).map_err(|_| format!("not JSON: {line}"))?;
    let correct = matches!(value.get("correct"), Some(serde_json::Value::Bool(true)));
    let Some(serde_json::Value::Object(metrics)) = value.get("metrics") else {
        return Err(format!("no metrics: {line}"));
    };
    let metrics = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok((correct, metrics))
}

/// Run the audit; `Ok(true)` when every spread stayed within its metric's bound.
pub fn run(args: &Args, runs: usize) -> Result<bool, String> {
    if runs < MIN_RUNS {
        return Err(format!("--audit needs at least {MIN_RUNS} runs"));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let mut command = Command::new(&exe);
        command
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.smoke {
            command.arg("--smoke");
        }
        let output = command.output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (correct, metrics) = parse_result(&stdout)?;
        if !output.status.success() || !correct {
            return Err(format!("run with seed {seed} failed:\n{stdout}"));
        }
        println!(
            "seed {seed}: {}",
            metrics
                .iter()
                .map(|(n, v)| format!("{n}={v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        results.push(metrics);
    }
    let mut within = true;
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"
    );
    for s in spreads(&results) {
        let ok = s.iqr_share <= s.bound;
        within &= ok;
        println!(
            "{:<16} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>8.4} {:>6.2}{}",
            s.name,
            s.median,
            s.quartiles.0,
            s.quartiles.1,
            s.iqr_share,
            s.range_share,
            s.bound,
            if ok { "" } else { "  EXCEEDED" }
        );
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(quartiles(&[]), [0.0; 3]);
    }

    #[test]
    fn parses_the_result_line() {
        let out = "noise\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
                   \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}";
        let (correct, metrics) = parse_result(out).unwrap();
        assert!(correct);
        assert_eq!(metrics, vec![("setup_s".to_string(), 1.5)]);
        assert!(parse_result("not json").is_err());
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        let runs: Vec<Vec<(String, f64)>> = (1..=10)
            .map(|v| vec![("setup_s".to_string(), f64::from(v))])
            .collect();
        let all = spreads(&runs);
        let s = all.iter().find(|s| s.name == "setup_s").unwrap();
        assert_eq!(s.median, 5.5);
        assert_eq!(s.quartiles, (2.75, 8.25));
        assert!((s.iqr_share - 1.0).abs() < 1e-12);
        assert!((s.range_share - 9.0 / 5.5).abs() < 1e-12);
    }
}
