//! Figure 6 — average query-processing time per system.
//!
//! Every workload question is answered by CQAds (exact retrieval plus ranked partial
//! matching) and ranked by each baseline (interpretation + top-30 ranking over the ads
//! table). The paper's shape: Random is fastest (it does no similarity work at all),
//! and CQAds is faster than cosine, AIMQ and FAQFinder because it retrieves exact
//! matches through the indexes first and only scores the records surviving the N−1
//! relaxations.

use crate::testbed::Testbed;
use cqads_baselines::{AimqRanker, CosineRanker, FaqFinderRanker, RandomRanker, Ranker};
use serde::Serialize;
use std::time::Instant;

/// Average per-question processing time of one system.
#[derive(Debug, Clone, Serialize)]
pub struct SystemTiming {
    /// System name.
    pub name: String,
    /// Average time per question, in microseconds.
    pub avg_micros: f64,
}

/// Result of the timing experiment.
#[derive(Debug, Clone, Serialize)]
pub struct TimingResult {
    /// Per-system averages, CQAds first.
    pub systems: Vec<SystemTiming>,
    /// Number of questions timed.
    pub questions: usize,
}

impl TimingResult {
    /// Average time of a named system.
    pub fn avg_micros(&self, name: &str) -> Option<f64> {
        self.systems
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.avg_micros)
    }

    /// Paper-style textual report.
    pub fn report(&self) -> String {
        let mut out = format!(
            "Figure 6 — average query processing time over {} questions\n",
            self.questions
        );
        for s in &self.systems {
            out.push_str(&format!(
                "  {:<10} {:>10.1} µs/question\n",
                s.name, s.avg_micros
            ));
        }
        out
    }
}

/// Run the experiment over at most `limit` questions (the full workload when `None`).
pub fn run_with_limit(bed: &Testbed, limit: Option<usize>) -> TimingResult {
    let questions: Vec<_> = match limit {
        Some(n) => bed.questions.iter().take(n).collect(),
        None => bed.questions.iter().collect(),
    };
    let baselines: Vec<Box<dyn Ranker>> = vec![
        Box::new(RandomRanker::new(bed.config.seed ^ 0xAB)),
        Box::new(CosineRanker::new()),
        Box::new(AimqRanker::new()),
        Box::new(FaqFinderRanker::new()),
    ];

    // CQAds end-to-end.
    #[allow(clippy::disallowed_methods)]
    // lint: allow(wall-clock) — this experiment measures real wall time (Fig 6)
    let start = Instant::now();
    for q in &questions {
        let _ = bed.system.ask(&q.text).domain(&q.domain).uncached().get();
    }
    let cqads_total = start.elapsed();

    let mut systems = vec![SystemTiming {
        name: "CQAds".to_string(),
        avg_micros: cqads_total.as_micros() as f64 / questions.len().max(1) as f64,
    }];

    // Baselines: interpretation + full-table ranking to the 30-answer budget.
    for ranker in &baselines {
        #[allow(clippy::disallowed_methods)]
        // lint: allow(wall-clock) — this experiment measures real wall time (Fig 6)
        let start = Instant::now();
        for q in &questions {
            let table = bed.system.database().table(&q.domain).expect("registered");
            let interp = bed
                .system
                .interpret_in_domain(&q.text, &q.domain)
                .map(|(_, i, _)| i)
                .unwrap_or_else(|_| q.gold.clone());
            let _ = ranker.rank(&interp, table, addb::DEFAULT_ANSWER_LIMIT);
        }
        let total = start.elapsed();
        systems.push(SystemTiming {
            name: ranker.name().to_string(),
            avg_micros: total.as_micros() as f64 / questions.len().max(1) as f64,
        });
    }

    TimingResult {
        systems,
        questions: questions.len(),
    }
}

/// Run the experiment over the whole workload.
pub fn run(bed: &Testbed) -> TimingResult {
    run_with_limit(bed, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_bed::shared;

    #[test]
    fn timing_covers_every_system_with_positive_averages() {
        let result = run_with_limit(shared(), Some(40));
        assert_eq!(result.systems.len(), 5);
        assert_eq!(result.questions, 40);
        for s in &result.systems {
            assert!(s.avg_micros > 0.0, "{s:?}");
        }
        // The heavyweight lexical baselines (AIMQ rebuilds supertuples, FAQFinder
        // recomputes document frequencies) should not be faster than CQAds.
        let cqads = result.avg_micros("CQAds").unwrap();
        let aimq = result.avg_micros("AIMQ").unwrap();
        let faq = result.avg_micros("FAQFinder").unwrap();
        assert!(aimq.max(faq) > cqads * 0.5, "unexpectedly cheap baselines");
        assert!(result.report().contains("µs/question"));
    }
}
