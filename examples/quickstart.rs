//! Quickstart: build a tiny Cars-for-Sale domain by hand, ask a few natural-language
//! questions and print the answers CQAds produces.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cqads_suite::addb::{Record, Table};
use cqads_suite::cqads::domain::toy_car_domain;
use cqads_suite::cqads::{CqadsSystem, MatchKind};
use cqads_suite::querylog::TIMatrix;
use cqads_suite::wordsim::WordSimMatrix;

fn main() {
    // 1. A domain specification: schema + known attribute values (see `toy_car_domain`
    //    for how to declare your own).
    let spec = toy_car_domain();

    // 2. A handful of advertisements.
    let mut table = Table::new(spec.schema.clone());
    let rows = [
        ("honda", "accord", "blue", "automatic", 6_600.0, 2004.0),
        ("honda", "accord", "gold", "manual", 16_536.0, 2009.0),
        ("honda", "civic", "red", "automatic", 4_500.0, 2001.0),
        ("toyota", "camry", "blue", "automatic", 8_561.0, 2006.0),
        ("toyota", "corolla", "silver", "manual", 3_900.0, 1999.0),
        ("ford", "focus", "blue", "manual", 6_795.0, 2005.0),
        ("chevy", "malibu", "blue", "automatic", 5_899.0, 2003.0),
    ];
    for (make, model, color, transmission, price, year) in rows {
        table
            .insert(
                Record::builder()
                    .text("make", make)
                    .text("model", model)
                    .text("color", color)
                    .text("transmission", transmission)
                    .number("price", price)
                    .number("year", year)
                    .number("mileage", 60_000.0)
                    .build(),
            )
            .expect("rows match the schema");
    }

    // 3. Similarity knowledge for partial-match ranking: a hand-seeded TI-matrix
    //    (normally estimated from a query log) and a small word-correlation matrix.
    let mut ti = TIMatrix::default();
    ti.insert("accord", "camry", 4.5);
    ti.insert("accord", "malibu", 3.5);
    ti.insert("civic", "corolla", 4.0);
    let mut ws = WordSimMatrix::default();
    ws.insert("blue", "silver", 0.7);
    ws.insert("blue", "gold", 0.4);

    // 4. Assemble the system and ask questions.
    let mut system = CqadsSystem::new();
    system.set_word_sim(ws);
    system.add_domain(spec, table, ti);

    for question in [
        "Do you have automatic blue cars?",
        "cheapest honda",
        "Find Honda Accord blue less than 15,000 dollars",
        "Hondaaccord less than $5000",
    ] {
        println!("\nQ: {question}");
        match system.ask(question).domain("cars").uncached().get() {
            Ok(set) => {
                println!("   SQL: {}", set.sql);
                for answer in set.answers.iter().take(5) {
                    let kind = match answer.kind {
                        MatchKind::Exact => "exact  ",
                        MatchKind::Partial => "partial",
                    };
                    println!(
                        "   [{kind}] {} {} — {} — ${} (Rank_Sim {:.2}, {})",
                        answer.record.get_text("make").unwrap_or("?"),
                        answer.record.get_text("model").unwrap_or("?"),
                        answer.record.get_text("color").unwrap_or("?"),
                        answer.record.get_number("price").unwrap_or(0.0),
                        answer.rank_sim,
                        answer.measure
                    );
                }
            }
            Err(err) => println!("   could not answer: {err}"),
        }
    }
}
