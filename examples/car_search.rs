//! Car-ads search over a realistically sized synthetic domain.
//!
//! Builds the full synthetic Cars-for-Sale domain (500 generated ads, a query log, a
//! TI-matrix estimated from it, and the shared word-correlation matrix), then walks
//! through the kinds of questions the paper's users asked: plain, misspelled,
//! incomplete and superlative questions, showing exact and ranked partially-matched
//! answers.
//!
//! ```text
//! cargo run --release --example car_search
//! ```

use cqads_suite::cqads::CqadsSystem;
use cqads_suite::datagen::{affinity_model, blueprint, generate_table, topic_groups};
use cqads_suite::querylog::{generate_log, LogGeneratorConfig, TIMatrix};
use cqads_suite::wordsim::{CorpusSpec, SyntheticCorpus, WordSimMatrix};

fn main() {
    let bp = blueprint("cars");
    let spec = bp.to_spec();
    let table = generate_table(&bp, 500, 7);
    println!("generated {} car ads", table.len());

    // Query log → TI-matrix (the estimator only ever sees the log).
    let log = generate_log(
        &affinity_model(&bp),
        &LogGeneratorConfig {
            sessions: 800,
            seed: 7,
            ..Default::default()
        },
    );
    let ti = TIMatrix::build(&log);
    println!(
        "estimated TI-matrix from {} sessions: {} value pairs, TI_Sim(accord, camry) = {:.2}",
        log.len(),
        ti.len(),
        ti.ti_sim("accord", "camry")
    );

    // Word-correlation matrix from a synthetic ads corpus.
    let corpus = SyntheticCorpus::generate(&topic_groups(&bp), &CorpusSpec::default());
    let ws = WordSimMatrix::build(&corpus);
    println!(
        "built WS-matrix: {} stemmed pairs, Feat_Sim(blue, silver) = {:.2}",
        ws.len(),
        ws.similarity("blue", "silver")
    );

    let mut system = CqadsSystem::new();
    system.set_word_sim(ws);
    system.add_domain(spec, table, ti);

    for question in [
        "looking for a blue honda accord under 9000 dollars",
        "chevvy malibu with less than 80k miles",
        "4 wheel drive ford f150 2 door",
        "honda civic 2005",
        "cheapest automatic toyota",
        "any car except a red one under 6000 dollars",
    ] {
        println!("\nQ: {question}");
        match system.ask(question).domain("cars").uncached().get() {
            Ok(set) => {
                println!(
                    "   {} exact, {} partial answers (of {} requested)",
                    set.exact_count,
                    set.partial().len(),
                    set.answers.len()
                );
                for answer in set.answers.iter().take(3) {
                    println!(
                        "   - {} {} {} ${:.0} ({:?}, Rank_Sim {:.2})",
                        answer.record.get_text("make").unwrap_or("?"),
                        answer.record.get_text("model").unwrap_or("?"),
                        answer.record.get_text("color").unwrap_or("-"),
                        answer.record.get_number("price").unwrap_or(0.0),
                        answer.kind,
                        answer.rank_sim
                    );
                }
            }
            Err(err) => println!("   could not answer: {err}"),
        }
    }
}
