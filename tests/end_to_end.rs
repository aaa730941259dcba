//! Cross-crate integration tests: the full pipeline from synthetic data generation
//! through classification, interpretation, execution and partial-match ranking.

use cqads_suite::classifier::LabelledDoc;
use cqads_suite::cqads::{CqadsError, CqadsSystem, MatchKind};
use cqads_suite::datagen::{
    affinity_model, all_blueprints, blueprint, generate_questions, generate_table, topic_groups,
    QuestionMix,
};
use cqads_suite::querylog::{generate_log, LogGeneratorConfig, TIMatrix};
use cqads_suite::wordsim::{CorpusSpec, SyntheticCorpus, WordSimMatrix};
use std::sync::OnceLock;

/// A two-domain system (cars + jewellery) with realistic matrices, shared across tests.
fn system() -> &'static CqadsSystem {
    static SYSTEM: OnceLock<CqadsSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let mut system = CqadsSystem::new();
        let mut groups = Vec::new();
        let mut docs = Vec::new();
        for name in ["cars", "jewellery"] {
            let bp = blueprint(name);
            groups.extend(topic_groups(&bp));
            let table = generate_table(&bp, 250, 31);
            let log = generate_log(
                &affinity_model(&bp),
                &LogGeneratorConfig {
                    sessions: 200,
                    seed: 32,
                    ..Default::default()
                },
            );
            system.add_domain(bp.to_spec(), table, TIMatrix::build(&log));
            let table_ref = system.database().table(name).unwrap();
            for q in generate_questions(&bp, table_ref, 60, 33, &QuestionMix::plain_only()) {
                docs.push(LabelledDoc::from_text(name, &q.text));
            }
        }
        let corpus = SyntheticCorpus::generate(
            &groups,
            &CorpusSpec {
                documents: 150,
                ..CorpusSpec::default()
            },
        );
        system.set_word_sim(WordSimMatrix::build(&corpus));
        system.train_classifier(&docs);
        system
    })
}

#[test]
fn questions_route_to_the_right_domain_and_return_answers() {
    let sys = system();
    let car = sys
        .ask("blue honda accord under 20000 dollars")
        .uncached()
        .get()
        .unwrap();
    assert_eq!(car.domain, "cars");
    assert!(!car.answers.is_empty());
    let ring = sys
        .ask("gold engagement ring with a diamond")
        .uncached()
        .get()
        .unwrap();
    assert_eq!(ring.domain, "jewellery");
    assert!(!ring.answers.is_empty());
}

#[test]
fn exact_answers_satisfy_every_condition() {
    let sys = system();
    let set = sys
        .ask("blue automatic honda")
        .domain("cars")
        .uncached()
        .get()
        .unwrap();
    for answer in set.exact() {
        assert_eq!(answer.kind, MatchKind::Exact);
        assert_eq!(answer.record.get_text("make"), Some("honda"));
        assert_eq!(answer.record.get_text("color"), Some("blue"));
        assert_eq!(answer.record.get_text("transmission"), Some("automatic"));
    }
}

#[test]
fn partial_answers_fill_the_answer_budget_and_are_ranked() {
    let sys = system();
    let set = sys
        .ask("silver bmw 328i under 9000 dollars with leather seats")
        .domain("cars")
        .uncached()
        .get()
        .unwrap();
    assert!(set.answers.len() <= 30);
    let partial = set.partial();
    assert!(!partial.is_empty(), "expected ranked partial answers");
    for pair in partial.windows(2) {
        assert!(pair[0].rank_sim >= pair[1].rank_sim - 1e-9);
    }
}

#[test]
fn misspellings_shorthand_and_missing_spaces_are_tolerated() {
    let sys = system();
    let clean = sys
        .ask("blue honda accord automatic")
        .domain("cars")
        .uncached()
        .get()
        .unwrap();
    let noisy = sys
        .ask("blue hondaaccord automattic")
        .domain("cars")
        .uncached()
        .get()
        .unwrap();
    let clean_ids: Vec<_> = clean.exact().iter().map(|a| a.id).collect();
    let noisy_ids: Vec<_> = noisy.exact().iter().map(|a| a.id).collect();
    assert_eq!(clean_ids, noisy_ids);
    // shorthand drivetrain
    let sh = sys
        .ask("4wd ford f150")
        .domain("cars")
        .uncached()
        .get()
        .unwrap();
    for a in sh.exact() {
        assert_eq!(a.record.get_text("drivetrain"), Some("4 wheel drive"));
    }
}

#[test]
fn superlatives_are_evaluated_after_the_other_conditions() {
    let sys = system();
    let set = sys
        .ask("cheapest honda")
        .domain("cars")
        .uncached()
        .get()
        .unwrap();
    assert!(set.exact_count >= 1);
    let cheapest_honda = set.exact()[0].record.get_number("price").unwrap();
    // No honda in the table is cheaper.
    let table = sys.database().table("cars").unwrap();
    let min_honda = table
        .iter()
        .filter(|(_, r)| r.get_text("make") == Some("honda"))
        .filter_map(|(_, r)| r.get_number("price"))
        .fold(f64::INFINITY, f64::min);
    assert_eq!(cheapest_honda, min_honda);
}

#[test]
fn contradictory_and_empty_questions_error_cleanly() {
    let sys = system();
    assert!(matches!(
        sys.ask("car above 9000 dollars and below 2000 dollars")
            .domain("cars")
            .uncached()
            .get(),
        Err(CqadsError::ContradictoryRange { .. })
    ));
    assert!(matches!(
        sys.ask("hello, can you help me please?")
            .domain("cars")
            .uncached()
            .get(),
        Err(CqadsError::EmptyQuestion)
    ));
    assert!(matches!(
        sys.ask("blue honda").domain("houses").uncached().get(),
        Err(CqadsError::UnknownDomain(_))
    ));
}

#[test]
fn every_blueprint_domain_survives_a_generated_workload() {
    // Smoke test across all eight domains with small tables: no panics, every answer
    // respects the 30-answer cap.
    let mut system = CqadsSystem::new();
    for bp in all_blueprints() {
        let table = generate_table(&bp, 60, 41);
        system.add_domain(bp.to_spec(), table, TIMatrix::default());
    }
    for bp in all_blueprints() {
        let table = system.database().table(bp.name).unwrap();
        let questions = generate_questions(&bp, table, 25, 42, &QuestionMix::default());
        for q in questions {
            match system.ask(&q.text).domain(bp.name).uncached().get() {
                Ok(set) => assert!(set.answers.len() <= 30),
                Err(
                    CqadsError::EmptyQuestion
                    | CqadsError::ContradictoryRange { .. }
                    | CqadsError::Database(_),
                ) => {}
                Err(other) => panic!("unexpected error for {:?}: {other}", q.text),
            }
        }
    }
}
