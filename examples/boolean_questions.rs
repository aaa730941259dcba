//! Boolean-question interpretation (Section 4.4 of the paper).
//!
//! Shows how CQAds interprets implicit Boolean questions (negations, mutually-exclusive
//! values, contradictory ranges) and explicit Boolean (OR) questions, printing the
//! boolean expression and SQL statement it builds for each of the ten survey questions
//! used in Figure 4.
//!
//! ```text
//! cargo run --release --example boolean_questions
//! ```

use cqads_suite::cqads::CqadsSystem;
use cqads_suite::datagen::{affinity_model, blueprint, generate_table, BooleanSurvey};
use cqads_suite::querylog::{generate_log, LogGeneratorConfig, TIMatrix};

fn main() {
    let bp = blueprint("cars");
    let spec = bp.to_spec();
    let table = generate_table(&bp, 400, 21);
    let log = generate_log(
        &affinity_model(&bp),
        &LogGeneratorConfig {
            sessions: 300,
            seed: 21,
            ..Default::default()
        },
    );
    let mut system = CqadsSystem::new();
    system.add_domain(spec.clone(), table, TIMatrix::build(&log));

    let survey = BooleanSurvey::sample(99);
    for question in &survey.questions {
        println!(
            "\n{} ({}): {}",
            question.id,
            if question.implicit {
                "implicit"
            } else {
                "explicit"
            },
            question.text
        );
        match system.interpret_in_domain(&question.text, "cars") {
            Ok((tagged, interpretation, sql)) => {
                println!("   tagged      : {}", tagged.summary());
                match interpretation.to_query(&spec) {
                    Ok(query) => println!("   where clause: {}", query.expr),
                    Err(err) => println!("   where clause: <{err}>"),
                }
                println!("   sql         : {sql}");
            }
            Err(err) => println!("   interpretation failed: {err}"),
        }
    }

    // The contradictory-range rule (Rule 1c): non-overlapping bounds terminate with
    // "search retrieved no results".
    println!("\nContradiction handling:");
    let contradiction = "car priced above 9000 dollars and below 2000 dollars";
    match system.ask(contradiction).domain("cars").uncached().get() {
        Ok(_) => println!("   unexpectedly answered"),
        Err(err) => println!("   {contradiction:?} -> {err}"),
    }
}
