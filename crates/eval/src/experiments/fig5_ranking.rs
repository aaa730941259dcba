//! Figure 5 — P@1, P@5 and MRR of CQAds against the four baseline rankers.
//!
//! Forty test questions (five per domain) are drawn from the workload. For each
//! question the exact matches are removed from every ranker's output (the paper ranks
//! *partially-matched* answers) and the top-5 remaining answers of each ranker are
//! judged by a panel of simulated appraisers whose notion of relatedness comes from the
//! blueprint ground truth — never from any ranker's own similarity. The expected shape:
//! CQAds best on all three metrics, Random worst, FAQFinder lowest among the non-random
//! baselines.

use crate::metrics::{mean_reciprocal_rank, precision_at_k};
use crate::testbed::Testbed;
use addb::{Executor, RecordId};
use cqads_baselines::{AimqRanker, CosineRanker, FaqFinderRanker, RandomRanker, Ranker};
use cqads_datagen::{Appraiser, GeneratedQuestion};
use serde::Serialize;
use std::collections::BTreeSet;

/// Number of test questions per domain (the paper uses 5, for 40 in total).
pub const QUESTIONS_PER_DOMAIN: usize = 5;
/// Number of answers judged per ranker per question.
pub const TOP_K: usize = 5;
/// Size of the simulated appraiser panel per question.
pub const APPRAISERS: usize = 5;

/// Scores of one ranking approach.
#[derive(Debug, Clone, Serialize)]
pub struct RankerScores {
    /// Ranker name.
    pub name: String,
    /// Precision@1.
    pub p_at_1: f64,
    /// Precision@5.
    pub p_at_5: f64,
    /// Mean reciprocal rank.
    pub mrr: f64,
}

/// Result of the ranking comparison.
#[derive(Debug, Clone, Serialize)]
pub struct RankingResult {
    /// Scores per approach, CQAds first.
    pub systems: Vec<RankerScores>,
    /// Number of test questions used.
    pub questions: usize,
}

impl RankingResult {
    /// Scores of a named system.
    pub fn scores(&self, name: &str) -> Option<&RankerScores> {
        self.systems.iter().find(|s| s.name == name)
    }

    /// Paper-style textual report.
    pub fn report(&self) -> String {
        let mut out = format!(
            "Figure 5 — ranking quality over {} test questions (top-{TOP_K} partial answers)\n",
            self.questions
        );
        out.push_str("  system      P@1     P@5     MRR\n");
        for s in &self.systems {
            out.push_str(&format!(
                "  {:<10}  {:.3}   {:.3}   {:.3}\n",
                s.name, s.p_at_1, s.p_at_5, s.mrr
            ));
        }
        out
    }
}

/// Select the Figure 5 test questions: the first `QUESTIONS_PER_DOMAIN` of each domain
/// that interpret cleanly.
pub fn test_questions(bed: &Testbed) -> Vec<&GeneratedQuestion> {
    let mut out = Vec::new();
    for domain in bed.system.domain_names() {
        let mut taken = 0;
        for q in bed.questions_for(domain) {
            if taken >= QUESTIONS_PER_DOMAIN {
                break;
            }
            if bed.system.interpret_in_domain(&q.text, domain).is_ok() {
                out.push(q);
                taken += 1;
            }
        }
    }
    out
}

/// Run the experiment.
pub fn run(bed: &Testbed) -> RankingResult {
    let questions = test_questions(bed);
    let appraisers: Vec<Appraiser> = (0..APPRAISERS as u64).map(Appraiser::new).collect();

    let baselines: Vec<Box<dyn Ranker>> = vec![
        Box::new(RandomRanker::new(bed.config.seed ^ 0x99)),
        Box::new(CosineRanker::new()),
        Box::new(AimqRanker::new()),
        Box::new(FaqFinderRanker::new()),
    ];

    // relatedness[system][question] = per-position relatedness of the top answers
    let mut relatedness: Vec<Vec<Vec<f64>>> = vec![Vec::new(); baselines.len() + 1];

    for (qi, q) in questions.iter().enumerate() {
        let spec = bed.spec(&q.domain);
        let blueprint = bed.blueprint(&q.domain);
        let table = bed
            .system
            .database()
            .table(&q.domain)
            .expect("domain registered");
        // Exact matches of the gold intent are excluded everywhere: Figure 5 is about
        // partially-matched answers.
        let exact_ids: BTreeSet<RecordId> = q
            .gold
            .to_query(spec)
            .ok()
            .and_then(|query| Executor::new(table).execute(&query).ok())
            .map(|a| a.into_iter().map(|x| x.id).collect())
            .unwrap_or_default();

        let judge = |ids: &[RecordId]| -> Vec<f64> {
            ids.iter()
                .take(TOP_K)
                .map(|id| {
                    let record = table.get(*id).expect("ranked ids exist");
                    let votes = appraisers
                        .iter()
                        .filter(|a| a.judge(blueprint, qi as u64, &q.gold, record))
                        .count();
                    if votes * 2 >= appraisers.len() {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect()
        };

        // CQAds: the pipeline's ranked partial answers.
        let cqads_ids: Vec<RecordId> = bed
            .system
            .ask(&q.text)
            .domain(&q.domain)
            .uncached()
            .get()
            .map(|set| {
                set.partial()
                    .iter()
                    .map(|a| a.id)
                    .filter(|id| !exact_ids.contains(id))
                    .take(TOP_K)
                    .collect()
            })
            .unwrap_or_default();
        relatedness[0].push(judge(&cqads_ids));

        // Baselines rank the whole table on the interpretation CQAds produced (falling
        // back to the gold intent if the text fails to interpret), minus exact matches.
        let interp = bed
            .system
            .interpret_in_domain(&q.text, &q.domain)
            .map(|(_, i, _)| i)
            .unwrap_or_else(|_| q.gold.clone());
        for (bi, ranker) in baselines.iter().enumerate() {
            let ranked: Vec<RecordId> = ranker
                .rank(&interp, table, TOP_K + exact_ids.len())
                .into_iter()
                .filter(|id| !exact_ids.contains(id))
                .take(TOP_K)
                .collect();
            relatedness[bi + 1].push(judge(&ranked));
        }
    }

    let mut systems = Vec::new();
    let names = ["CQAds", "Random", "Cosine", "AIMQ", "FAQFinder"];
    for (i, name) in names.iter().enumerate() {
        systems.push(RankerScores {
            name: name.to_string(),
            p_at_1: precision_at_k(&relatedness[i], 1),
            p_at_5: precision_at_k(&relatedness[i], TOP_K),
            mrr: mean_reciprocal_rank(&relatedness[i]),
        });
    }
    RankingResult {
        systems,
        questions: questions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_bed::{assert_pinned, shared};

    #[test]
    fn cqads_outranks_the_baselines() {
        let result = run(shared());
        assert_eq!(result.questions, 40);
        let cqads = result.scores("CQAds").unwrap();
        assert_pinned("CQAds P@1", cqads.p_at_1, 0.900, result.questions);
        assert_pinned("CQAds P@5", cqads.p_at_5, 0.750, result.questions);
        assert_pinned("CQAds MRR", cqads.mrr, 0.9208, result.questions);
        // CQAds is strictly above every baseline on every metric.
        let baselines: Vec<&RankerScores> = result
            .systems
            .iter()
            .filter(|s| s.name != "CQAds")
            .collect();
        assert_eq!(baselines.len(), 4);
        for s in baselines {
            assert!(cqads.p_at_1 > s.p_at_1, "CQAds lost P@1 to {s:?}");
            assert!(cqads.p_at_5 > s.p_at_5, "CQAds lost P@5 to {s:?}");
            assert!(cqads.mrr > s.mrr, "CQAds lost MRR to {s:?}");
        }
        assert!(result.report().contains("P@1"));
    }
}
