//! Adding a new ads domain (Section 4.6 of the paper).
//!
//! The paper emphasizes that CQAds is domain independent: adding a domain only requires
//! the relational schema, the domain-specific value tables and the (shared) identifiers
//! table. This example adds a "boats" domain that the synthetic blueprints do not
//! cover, alongside the CS-jobs domain from the built-in blueprints, and answers
//! questions in both.
//!
//! ```text
//! cargo run --release --example add_new_domain
//! ```

use cqads_suite::addb::{Record, Schema, Table};
use cqads_suite::classifier::LabelledDoc;
use cqads_suite::cqads::{CqadsSystem, DomainSpec};
use cqads_suite::datagen::{blueprint, generate_questions, generate_table, QuestionMix};
use cqads_suite::querylog::TIMatrix;

fn boats_domain() -> (DomainSpec, Table) {
    let schema = Schema::builder("boats")
        .type1("kind")
        .type2("hull")
        .type2("color")
        .type3("price", 1_000.0, 500_000.0, Some("usd"))
        .type3("length", 8.0, 120.0, Some("feet"))
        .type3("year", 1970.0, 2011.0, None)
        .build()
        .expect("valid schema");
    let mut spec = DomainSpec::new(schema);
    for kind in [
        "sailboat",
        "speedboat",
        "fishing boat",
        "pontoon",
        "yacht",
        "kayak",
    ] {
        spec.add_type1_value("kind", kind);
    }
    for hull in ["fiberglass", "aluminum", "wood"] {
        spec.add_type2_value("hull", hull);
    }
    for color in ["white", "blue", "red"] {
        spec.add_type2_value("color", color);
    }
    for kw in ["price", "cost", "dollars"] {
        spec.add_type3_keyword("price", kw);
    }
    for kw in ["length", "feet", "foot", "ft"] {
        spec.add_type3_keyword("length", kw);
    }
    spec.add_type3_keyword("year", "year");
    spec.set_price_attribute("price");
    spec.set_year_attribute("year");

    let mut table = Table::new(spec.schema.clone());
    let rows = [
        ("sailboat", "fiberglass", "white", 45_000.0, 32.0, 2001.0),
        ("sailboat", "wood", "blue", 28_000.0, 27.0, 1988.0),
        ("speedboat", "fiberglass", "red", 33_000.0, 22.0, 2006.0),
        ("fishing boat", "aluminum", "white", 12_500.0, 18.0, 1999.0),
        ("pontoon", "aluminum", "blue", 19_900.0, 24.0, 2004.0),
        ("yacht", "fiberglass", "white", 320_000.0, 68.0, 2008.0),
        ("kayak", "fiberglass", "red", 1_200.0, 12.0, 2009.0),
    ];
    for (kind, hull, color, price, length, year) in rows {
        table
            .insert(
                Record::builder()
                    .text("kind", kind)
                    .text("hull", hull)
                    .text("color", color)
                    .number("price", price)
                    .number("length", length)
                    .number("year", year)
                    .build(),
            )
            .expect("rows match the schema");
    }
    (spec, table)
}

fn main() {
    let mut system = CqadsSystem::new();

    // Built-in CS-jobs domain from the synthetic blueprints.
    let jobs = blueprint("cs_jobs");
    let jobs_table = generate_table(&jobs, 300, 5);
    system.add_domain(jobs.to_spec(), jobs_table, TIMatrix::default());

    // Brand-new boats domain defined entirely in this example.
    let (boats_spec, boats_table) = boats_domain();
    system.add_domain(boats_spec, boats_table, TIMatrix::default());

    // Train the classifier so questions route to the right domain automatically.
    let mut docs = Vec::new();
    let jobs_questions = generate_questions(
        &jobs,
        system.database().table("cs_jobs").expect("registered"),
        80,
        6,
        &QuestionMix::plain_only(),
    );
    for q in &jobs_questions {
        docs.push(LabelledDoc::from_text("cs_jobs", &q.text));
    }
    for text in [
        "white fiberglass sailboat under 50000 dollars",
        "aluminum fishing boat 18 feet",
        "cheapest pontoon boat",
        "speedboat newer than 2005",
        "yacht with a fiberglass hull",
        "blue sailboat around 30 feet",
    ] {
        docs.push(LabelledDoc::from_text("boats", text));
    }
    system.train_classifier(&docs);

    for question in [
        "senior c++ software engineer salary above 120000 dollars remote",
        "cheapest sailboat with a fiberglass hull",
        "fishing boat less than 15000 dollars",
        "java developer with stock options",
    ] {
        println!("\nQ: {question}");
        match system.ask(question).uncached().get() {
            Ok(set) => {
                println!("   classified into domain: {}", set.domain);
                println!(
                    "   {} exact / {} partial answers",
                    set.exact_count,
                    set.partial().len()
                );
                if let Some(best) = set.answers.first() {
                    println!("   top answer: {}", best.record);
                }
            }
            Err(err) => println!("   could not answer: {err}"),
        }
    }
}
