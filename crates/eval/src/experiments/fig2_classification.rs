//! Figure 2 — question-classification accuracy per ads domain.
//!
//! The paper reports upper-ninety-percentile accuracy on average, with the two vehicle
//! domains (Cars, Motorcycles) lowest ("due to the existence of common keywords between
//! the two domains"). The experiment classifies every workload question with the JBBSM
//! classifier and reports per-domain accuracy plus the average.

use crate::metrics::accuracy;
use crate::testbed::Testbed;
use serde::Serialize;
use std::collections::BTreeMap;

/// Result of the classification experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ClassificationResult {
    /// Accuracy per domain, keyed by domain name.
    pub per_domain: BTreeMap<String, f64>,
    /// Average accuracy across domains (macro average, as in Figure 2).
    pub average: f64,
    /// Total number of questions classified.
    pub questions: usize,
}

impl ClassificationResult {
    /// Paper-style textual report.
    pub fn report(&self) -> String {
        let mut out = String::from("Figure 2 — question classification accuracy\n");
        for (domain, acc) in &self.per_domain {
            out.push_str(&format!("  {domain:<22} {:.1}%\n", acc * 100.0));
        }
        out.push_str(&format!(
            "  {:<22} {:.1}%   ({} questions)\n",
            "average",
            self.average * 100.0,
            self.questions
        ));
        out
    }
}

/// Run the experiment.
pub fn run(bed: &Testbed) -> ClassificationResult {
    let mut correct: BTreeMap<String, usize> = BTreeMap::new();
    let mut total: BTreeMap<String, usize> = BTreeMap::new();
    for q in &bed.questions {
        *total.entry(q.domain.clone()).or_insert(0) += 1;
        let predicted = bed.system.classify(&q.text).unwrap_or_default();
        if predicted == q.domain {
            *correct.entry(q.domain.clone()).or_insert(0) += 1;
        }
    }
    let per_domain: BTreeMap<String, f64> = total
        .iter()
        .map(|(domain, n)| {
            let c = correct.get(domain).copied().unwrap_or(0);
            (domain.clone(), accuracy(c, *n))
        })
        .collect();
    let average = per_domain.values().sum::<f64>() / per_domain.len().max(1) as f64;
    ClassificationResult {
        per_domain,
        average,
        questions: bed.questions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_bed::{assert_pinned, shared};

    #[test]
    fn average_accuracy_is_high_and_vehicles_are_hardest() {
        let bed = shared();
        let result = run(bed);
        assert_eq!(result.per_domain.len(), 8);
        assert_eq!(result.questions, 100);
        // The vehicle domains share vocabulary: `cars` misses one of its 16
        // questions and is the one imperfect domain.
        for (domain, accuracy) in &result.per_domain {
            let pinned = if domain == "cars" { 0.9375 } else { 1.0 };
            assert_pinned(domain, *accuracy, pinned, bed.questions_for(domain).len());
        }
        // A macro average: one cars question is 1/16 of one of 8 domains.
        assert_pinned("average", result.average, 0.9922, 8 * 16);
        assert!(result.report().contains("average"));
    }
}
