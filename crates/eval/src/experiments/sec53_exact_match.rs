//! Section 5.3 — precision, recall and F-measure of exact-match retrieval.
//!
//! For every workload question the gold answers are obtained by executing the question's
//! *gold* interpretation (what the simulated user meant); CQAds' answers are the exact
//! matches its pipeline retrieves from the question *text* (with all the misspellings,
//! shorthand, incompleteness and Boolean phenomena in the way). The paper reports 93.8 %
//! precision, 92.7 % recall, F = 93.2 %, and observes that most questions score either
//! 100 % or 0 %.

use crate::metrics::{f_measure, PrecisionRecall};
use crate::testbed::Testbed;
use addb::Executor;
use serde::Serialize;
use std::collections::BTreeMap;

/// Result of the exact-match experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ExactMatchResult {
    /// Mean precision over questions.
    pub precision: f64,
    /// Mean recall over questions.
    pub recall: f64,
    /// F-measure of the mean precision and recall (as the paper computes it).
    pub f_measure: f64,
    /// Share of questions whose precision and recall are both 1.
    pub all_or_nothing_perfect: f64,
    /// Mean F-measure broken down by question kind.
    pub by_kind: BTreeMap<String, f64>,
    /// Number of questions evaluated.
    pub questions: usize,
}

impl ExactMatchResult {
    /// Paper-style textual report.
    pub fn report(&self) -> String {
        let mut out = String::from("Section 5.3 — exact-match retrieval\n");
        out.push_str(&format!(
            "  precision {:.1}%   recall {:.1}%   F-measure {:.1}%   ({} questions, {:.0}% answered perfectly)\n",
            self.precision * 100.0,
            self.recall * 100.0,
            self.f_measure * 100.0,
            self.questions,
            self.all_or_nothing_perfect * 100.0
        ));
        for (kind, f) in &self.by_kind {
            out.push_str(&format!("    {kind:<18} F = {:.1}%\n", f * 100.0));
        }
        out
    }
}

/// Run the experiment.
pub fn run(bed: &Testbed) -> ExactMatchResult {
    let mut precisions = Vec::new();
    let mut recalls = Vec::new();
    let mut perfect = 0usize;
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();

    for q in &bed.questions {
        let spec = bed.spec(&q.domain);
        let table = bed
            .system
            .database()
            .table(&q.domain)
            .expect("domain registered");
        // Gold answers from the gold interpretation.
        let gold_ids: Vec<addb::RecordId> = match q.gold.to_query(spec) {
            Ok(query) => Executor::new(table)
                .execute(&query)
                .map(|a| a.into_iter().map(|x| x.id).collect())
                .unwrap_or_default(),
            Err(_) => Vec::new(),
        };
        // System answers from the question text.
        let retrieved: Vec<addb::RecordId> =
            match bed.system.ask(&q.text).domain(&q.domain).uncached().get() {
                Ok(set) => set.exact().iter().map(|a| a.id).collect(),
                Err(_) => Vec::new(),
            };
        let pr = PrecisionRecall::from_sets(&retrieved, &gold_ids);
        if pr.precision >= 1.0 && pr.recall >= 1.0 {
            perfect += 1;
        }
        precisions.push(pr.precision);
        recalls.push(pr.recall);
        by_kind
            .entry(format!("{:?}", q.kind))
            .or_default()
            .push(pr.f_measure());
    }

    let n = precisions.len().max(1) as f64;
    let precision = precisions.iter().sum::<f64>() / n;
    let recall = recalls.iter().sum::<f64>() / n;
    ExactMatchResult {
        precision,
        recall,
        f_measure: f_measure(precision, recall),
        all_or_nothing_perfect: perfect as f64 / n,
        by_kind: by_kind
            .into_iter()
            .map(|(k, v)| {
                let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
                (k, mean)
            })
            .collect(),
        questions: precisions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_bed::{assert_pinned, shared};

    #[test]
    fn exact_match_metrics_are_high() {
        let result = run(shared());
        assert_eq!(result.questions, 100);
        assert_pinned("precision", result.precision, 0.9415, result.questions);
        assert_pinned("recall", result.recall, 0.9417, result.questions);
        assert_pinned("F-measure", result.f_measure, 0.9416, result.questions);
        // Most questions are answered either perfectly or not at all — the paper's
        // observation; perfect answers dominate.
        assert_pinned(
            "answered perfectly",
            result.all_or_nothing_perfect,
            0.93,
            result.questions,
        );
        // Plain questions should be at least as easy as the average of all kinds.
        let plain = result.by_kind.get("Plain").copied().unwrap_or(0.0);
        assert!(plain >= result.f_measure);
        assert!(result.report().contains("precision"));
    }
}
