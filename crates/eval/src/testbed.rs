//! The shared experiment testbed.
//!
//! Builds, from a single seed, everything the experiments need: the eight domain
//! blueprints and specs, the generated ads tables, per-domain query logs and
//! TI-matrices, the shared WS-matrix, a CQAds system with a trained JBBSM classifier,
//! and the 650-question evaluation workload (80 car questions + the rest spread over
//! the other seven domains, as in Section 5.1).

use cqads::{CqadsSystem, DomainSpec};
use cqads_classifier::LabelledDoc;
use cqads_datagen::{
    affinity_model, all_blueprints, generate_questions, generate_table, topic_groups,
    DomainBlueprint, GeneratedQuestion, QuestionMix,
};
use cqads_querylog::{generate_log, LogGeneratorConfig, TIMatrix};
use cqads_wordsim::{CorpusSpec, SyntheticCorpus, WordSimMatrix};
use std::collections::BTreeMap;

/// Sizing knobs for the testbed. The defaults mirror the paper's setup (≈500 ads per
/// domain, 650 evaluation questions); tests use [`TestbedConfig::small`] for speed.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Ads generated per domain.
    pub ads_per_domain: usize,
    /// Query-log sessions generated per domain.
    pub log_sessions: usize,
    /// Training questions per domain for the classifier.
    pub training_questions_per_domain: usize,
    /// Evaluation questions for the car domain (the paper's car-ads survey had 80).
    pub car_questions: usize,
    /// Evaluation questions for each of the other seven domains.
    pub other_domain_questions: usize,
    /// Synthetic-corpus documents behind the WS-matrix.
    pub corpus_documents: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            ads_per_domain: 500,
            log_sessions: 500,
            training_questions_per_domain: 120,
            car_questions: 80,
            other_domain_questions: 82, // 80 + 7*82 ≈ 654 ≈ the paper's 650 responses
            corpus_documents: 400,
            seed: 0xC0DE,
        }
    }
}

impl TestbedConfig {
    /// A small configuration for unit/integration tests.
    pub fn small() -> Self {
        TestbedConfig {
            ads_per_domain: 120,
            log_sessions: 150,
            training_questions_per_domain: 40,
            car_questions: 16,
            other_domain_questions: 12,
            corpus_documents: 120,
            seed: 0xC0DE,
        }
    }
}

/// Everything the experiments share.
pub struct Testbed {
    /// The configuration the testbed was built with.
    pub config: TestbedConfig,
    /// Domain blueprints by name.
    pub blueprints: BTreeMap<String, DomainBlueprint>,
    /// Domain specs by name.
    pub specs: BTreeMap<String, DomainSpec>,
    /// The CQAds system (database, tries, matrices, classifier).
    pub system: CqadsSystem,
    /// The evaluation workload: all generated questions across domains.
    pub questions: Vec<GeneratedQuestion>,
}

impl Testbed {
    /// Build the full testbed.
    pub fn build(config: TestbedConfig) -> Self {
        let blueprints_vec = all_blueprints();
        let mut blueprints = BTreeMap::new();
        let mut specs = BTreeMap::new();
        let mut system = CqadsSystem::new();

        // Shared WS-matrix over the union of every domain's topic groups.
        let mut groups = Vec::new();
        for bp in &blueprints_vec {
            groups.extend(topic_groups(bp));
        }
        let corpus = SyntheticCorpus::generate(
            &groups,
            &CorpusSpec {
                documents: config.corpus_documents,
                seed: config.seed ^ 0x11,
                ..CorpusSpec::default()
            },
        );
        system.set_word_sim(WordSimMatrix::build(&corpus));

        // Per-domain tables, query logs and TI-matrices.
        for bp in &blueprints_vec {
            let spec = bp.to_spec();
            let table = generate_table(bp, config.ads_per_domain, config.seed ^ 0x22);
            let affinity = affinity_model(bp);
            let log = generate_log(
                &affinity,
                &LogGeneratorConfig {
                    sessions: config.log_sessions,
                    seed: config.seed ^ 0x33,
                    ..Default::default()
                },
            );
            let ti = TIMatrix::build(&log);
            system.add_domain(spec.clone(), table, ti);
            specs.insert(bp.name.to_string(), spec);
            blueprints.insert(bp.name.to_string(), bp.clone());
        }

        // Classifier training corpus: plain questions per domain.
        let mut training_docs = Vec::new();
        for bp in &blueprints_vec {
            let table = system
                .database()
                .table(bp.name)
                .expect("domain registered above");
            let training = generate_questions(
                bp,
                table,
                config.training_questions_per_domain,
                config.seed ^ 0x44,
                &QuestionMix::plain_only(),
            );
            for q in training {
                training_docs.push(LabelledDoc::from_text(bp.name, &q.text));
            }
        }
        system.train_classifier(&training_docs);

        // Evaluation workload: 80 car questions + N questions per other domain, all with
        // the full phenomenon mix.
        let mut questions = Vec::new();
        for bp in &blueprints_vec {
            let count = if bp.name == "cars" {
                config.car_questions
            } else {
                config.other_domain_questions
            };
            let table = system
                .database()
                .table(bp.name)
                .expect("domain registered above");
            questions.extend(generate_questions(
                bp,
                table,
                count,
                config.seed ^ 0x55,
                &QuestionMix::default(),
            ));
        }

        Testbed {
            config,
            blueprints,
            specs,
            system,
            questions,
        }
    }

    /// Blueprint of a domain.
    pub fn blueprint(&self, domain: &str) -> &DomainBlueprint {
        &self.blueprints[domain]
    }

    /// Spec of a domain.
    pub fn spec(&self, domain: &str) -> &DomainSpec {
        &self.specs[domain]
    }

    /// The questions belonging to one domain.
    pub fn questions_for(&self, domain: &str) -> Vec<&GeneratedQuestion> {
        self.questions
            .iter()
            .filter(|q| q.domain == domain)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn shared() -> &'static Testbed {
        static BED: OnceLock<Testbed> = OnceLock::new();
        BED.get_or_init(|| Testbed::build(TestbedConfig::small()))
    }

    #[test]
    fn testbed_registers_all_eight_domains() {
        let bed = shared();
        assert_eq!(bed.system.domain_names().len(), 8);
        assert_eq!(bed.blueprints.len(), 8);
        for name in bed.system.domain_names() {
            let table = bed.system.database().table(name).unwrap();
            assert_eq!(table.len(), bed.config.ads_per_domain);
        }
    }

    #[test]
    fn workload_has_the_requested_shape() {
        let bed = shared();
        let expected = bed.config.car_questions + 7 * bed.config.other_domain_questions;
        assert_eq!(bed.questions.len(), expected);
        assert_eq!(bed.questions_for("cars").len(), bed.config.car_questions);
        assert_eq!(
            bed.questions_for("jewellery").len(),
            bed.config.other_domain_questions
        );
    }

    #[test]
    fn the_system_answers_a_generated_question() {
        let bed = shared();
        let q = &bed.questions_for("cars")[0];
        let result = bed.system.ask(&q.text).domain("cars").uncached().get();
        // Either a real answer set or a legitimate interpretation error; never a panic.
        if let Ok(set) = result {
            assert!(set.answers.len() <= 30);
        }
    }
}
