//! Serving a burst of repetitive questions through the generation-invalidated
//! answer cache, then inserting a new advertisement and watching the cache
//! invalidate itself.
//!
//! ```text
//! cargo run --example serving_burst
//! ```

use cqads_suite::addb::{Record, Table};
use cqads_suite::cqads::domain::toy_car_domain;
use cqads_suite::cqads::{CqadsConfig, CqadsSystem};
use cqads_suite::querylog::TIMatrix;

fn car(make: &str, model: &str, color: &str, trans: &str, price: f64, year: f64) -> Record {
    Record::builder()
        .text("make", make)
        .text("model", model)
        .text("color", color)
        .text("transmission", trans)
        .number("price", price)
        .number("year", year)
        .number("mileage", 60_000.0)
        .build()
}

fn main() {
    // A small Cars-for-Sale system with the serving cache enabled (the default
    // configuration caches up to 4096 answer sets over 16 lock stripes).
    let spec = toy_car_domain();
    let mut table = Table::new(spec.schema.clone());
    for (make, model, color, trans, price, year) in [
        ("honda", "accord", "blue", "automatic", 6_600.0, 2004.0),
        ("honda", "civic", "red", "automatic", 4_500.0, 2001.0),
        ("toyota", "camry", "blue", "automatic", 8_561.0, 2006.0),
        ("ford", "focus", "blue", "manual", 6_795.0, 2005.0),
    ] {
        table
            .insert(car(make, model, color, trans, price, year))
            .unwrap();
    }
    let mut system = CqadsSystem::with_config(CqadsConfig::default());
    system.add_domain(spec, table, TIMatrix::default());

    // A burst of traffic: repetitive, differently-cased, with duplicates — the
    // shape of real ad-search load. `answer_batch` normalizes + dedups the burst,
    // serves repeats from the cache and answers the distinct questions through one
    // batched partial-match fan-out.
    let burst = [
        "Do you have automatic blue cars?",
        "cheapest honda",
        "do you have AUTOMATIC blue cars",
        "Do you have automatic blue cars?",
        "cheapest honda",
    ];
    let results = system.answer_batch(&burst);
    for (question, outcome) in burst.iter().zip(&results) {
        let answer = outcome.as_ref().expect("toy questions answer");
        println!(
            "{question:?} -> {} exact + {} partial answers",
            answer.exact_count,
            answer.partial().len()
        );
    }
    let stats = system.cache_stats();
    println!(
        "cache after burst: {} entries, {} hits, {} misses (5 questions, {} computed)",
        stats.entries, stats.hits, stats.misses, stats.entries,
    );

    // A second burst is served without touching the pipeline at all.
    system.answer_batch(&burst);
    println!(
        "hits after a fully warm burst: {}",
        system.cache_stats().hits
    );

    // Insert a new matching advertisement: the table's mutation generation
    // advances, so every cached answer for the domain is stale by stamp comparison.
    // No flush, no epoch walk — the next lookup proves staleness arithmetically
    // and recomputes.
    system
        .insert_record(
            "cars",
            car("chevy", "malibu", "blue", "automatic", 5_899.0, 2003.0),
        )
        .unwrap();
    let fresh = system
        .ask("Do you have automatic blue cars?")
        .get()
        .unwrap();
    println!(
        "after insert: {} exact answers (was 2), stale evictions: {}",
        fresh.exact_count,
        system.cache_stats().stale_evictions
    );
}
