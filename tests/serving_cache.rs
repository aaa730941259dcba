//! Serving-layer tests: the generation-invalidated answer cache under concurrent
//! readers and interleaved inserts.
//!
//! The load-bearing property: once a table's mutation generation has advanced past
//! the generation a cached answer was stamped with, that answer is **never served
//! again**. The tests build tables where every record matches the probe question
//! exactly, so `exact_count == generation` is the precise freshness oracle: an
//! answer computed against a snapshot at generation `G` has exactly `G` exact
//! answers. Concurrent serving uses the reader/writer handle split — detached
//! [`CqadsReader`]s race a mutating [`CqadsWriter`] with **no lock around the
//! system** — so a reader brackets each answer between two snapshot-generation
//! reads and requires `gen_before <= exact_count <= gen_after` (snapshots are
//! monotone: fresher than requested is possible, staler is not).
//!
//! The route memo in front of the cache (a cached ask without a domain reuses the
//! domain and cache key of the same question text) is tested at the end: why it is
//! keyed by the text, and that exactly a retrain or a new domain name replaces it.

use cqads_suite::addb::{Record, Table, RECORD_CHUNK};
use cqads_suite::classifier::LabelledDoc;
use cqads_suite::cqads::domain::toy_car_domain;
use cqads_suite::cqads::{AnswerSet, CqadsConfig, CqadsReader, CqadsSystem, CqadsWriter};
use cqads_suite::querylog::{QueryLogDelta, QueryLogStream, Session, SubmittedQuery};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn car(price: f64) -> Record {
    Record::builder()
        .text("make", "honda")
        .text("model", "accord")
        .text("color", "blue")
        .text("transmission", "automatic")
        .number("price", price)
        .number("year", 2005.0)
        .number("mileage", 60_000.0)
        .build()
}

/// A system whose "cars" table holds `initial` records, every one an exact match for
/// `PROBE` — so an answer's `exact_count` equals the generation it was computed at.
fn all_match_system(initial: usize) -> CqadsSystem {
    let spec = toy_car_domain();
    let mut table = Table::new(spec.schema.clone());
    for i in 0..initial {
        table.insert(car(5_000.0 + i as f64)).unwrap();
    }
    let mut system = CqadsSystem::new();
    system.add_domain(spec, table, Default::default());
    system
}

const PROBE: &str = "blue automatic honda accord";

#[test]
fn insert_invalidates_cached_answers_even_when_the_record_is_unrelated() {
    let mut sys = all_match_system(3);
    let first = sys.ask(PROBE).domain("cars").get().unwrap();
    assert_eq!(first.exact_count, 3);
    let hit = sys.ask(PROBE).domain("cars").get().unwrap();
    assert!(Arc::ptr_eq(&first, &hit));

    // Insert a record that does NOT match the probe: the cache has no way to know
    // that, so the generation stamp must still force a recompute (conservative,
    // never stale).
    sys.insert_record(
        "cars",
        Record::builder()
            .text("make", "ford")
            .text("model", "focus")
            .text("color", "red")
            .text("transmission", "manual")
            .number("price", 4_000.0)
            .build(),
    )
    .unwrap();
    let refreshed = sys.ask(PROBE).domain("cars").get().unwrap();
    assert!(!Arc::ptr_eq(&first, &refreshed), "stale answer served");
    assert_eq!(refreshed.exact_count, 3, "unrelated record must not match");
    assert_eq!(sys.cache_stats().stale_evictions, 1);

    // Inserting through database_mut() (bypassing insert_record) invalidates too:
    // the generation lives on the table itself.
    sys.database_mut()
        .table_mut("cars")
        .unwrap()
        .insert(car(9_999.0))
        .unwrap();
    let after = sys.ask(PROBE).domain("cars").get().unwrap();
    assert_eq!(after.exact_count, 4, "insert via database_mut not observed");
}

/// Mirror of the insert-invalidation test for the *model* side of the stamp: a
/// streamed query-log delta must invalidate cached answers even though the table
/// never changed — the cached ranking was computed by an older TI-matrix.
#[test]
fn ingested_query_log_delta_invalidates_cached_answers() {
    let mut sys = all_match_system(3);
    let first = sys.ask(PROBE).domain("cars").get().unwrap();
    let hit = sys.ask(PROBE).domain("cars").get().unwrap();
    assert!(Arc::ptr_eq(&first, &hit));
    let stale_before = sys.cache_stats().stale_evictions;

    // Live traffic arrives session by session; the stream batches it into deltas.
    let mut stream = QueryLogStream::new(2);
    let session = |user_id: u64, from: &str, to: &str| Session {
        user_id,
        queries: vec![
            SubmittedQuery {
                value: from.into(),
                at_seconds: 0.0,
                clicks: vec![],
                shown: vec![from.into(), to.into()],
            },
            SubmittedQuery {
                value: to.into(),
                at_seconds: 45.0,
                clicks: vec![],
                shown: vec![to.into()],
            },
        ],
    };
    assert!(stream.push(session(1, "accord", "camry")).is_none());
    let delta = stream
        .push(session(2, "accord", "civic"))
        .expect("second session fills the batch");

    let report = sys.ingest_query_log("cars", &delta).unwrap();
    assert_eq!(report.sessions, 2);
    assert_eq!(sys.model_generation("cars"), Some(report.model_generation));
    // The table is untouched: only the model component of the stamp advanced.
    assert_eq!(sys.database().generation("cars"), Some(3));

    // The cached entry must be evicted as stale, not served.
    let refreshed = sys.ask(PROBE).domain("cars").get().unwrap();
    assert!(!Arc::ptr_eq(&first, &refreshed), "stale ranking served");
    assert_eq!(sys.cache_stats().stale_evictions, stale_before + 1);
    // Recompute equals a from-scratch answer under the updated matrix.
    let scratch = sys.ask(PROBE).domain("cars").uncached().get().unwrap();
    assert_eq!(refreshed.exact_count, scratch.exact_count);
    assert_eq!(refreshed.answers.len(), scratch.answers.len());

    // The batch front-end observes the new generation too: warm it, ingest the
    // flushed remainder of the stream, and require a recompute.
    let warm = sys.answer_batch(&[PROBE]).remove(0).unwrap();
    stream.push(session(3, "camry", "corolla"));
    let tail = stream.flush().expect("one buffered session");
    assert_eq!(tail.len(), 1);
    sys.ingest_query_log("cars", &tail).unwrap();
    let fresh = sys.answer_batch(&[PROBE]).remove(0).unwrap();
    assert!(
        !Arc::ptr_eq(&warm, &fresh),
        "answer_batch served a stale-model answer"
    );

    // An empty delta still bumps the generation (conservative) — and errors on
    // unknown domains.
    let generation = sys.model_generation("cars").unwrap();
    sys.ingest_query_log("cars", &QueryLogDelta::default())
        .unwrap();
    assert_eq!(sys.model_generation("cars"), Some(generation + 1));
    assert!(sys
        .ingest_query_log("boats", &QueryLogDelta::default())
        .is_err());
}

#[test]
fn answer_batch_reflects_inserts_between_bursts() {
    let mut sys = all_match_system(2);
    let burst = [PROBE, "cheapest honda", PROBE];
    let cold = sys.answer_batch(&burst);
    assert_eq!(cold[0].as_ref().unwrap().exact_count, 2);
    assert!(Arc::ptr_eq(
        cold[0].as_ref().unwrap(),
        cold[2].as_ref().unwrap()
    ));

    // Warm burst: pure hits.
    let hits_before = sys.cache_stats().hits;
    let warm = sys.answer_batch(&burst);
    assert!(Arc::ptr_eq(
        cold[0].as_ref().unwrap(),
        warm[0].as_ref().unwrap()
    ));
    assert!(sys.cache_stats().hits > hits_before);

    // Insert between bursts: every answer of the next burst must see 3 records.
    sys.insert_record("cars", car(8_888.0)).unwrap();
    let fresh = sys.answer_batch(&burst);
    assert_eq!(fresh[0].as_ref().unwrap().exact_count, 3);
    assert!(!Arc::ptr_eq(
        cold[0].as_ref().unwrap(),
        fresh[0].as_ref().unwrap()
    ));
    // The cheapest-honda answer was also recomputed (generation is per-table, so the
    // whole domain's cached set invalidates).
    assert!(!Arc::ptr_eq(
        cold[1].as_ref().unwrap(),
        fresh[1].as_ref().unwrap()
    ));
}

/// Parallel readers racing a writer never observe a pre-insert answer once the
/// generation has advanced — with **no lock around the system**: each reader is a
/// detached [`CqadsReader`] serving from the published snapshot while the
/// [`CqadsWriter`] ingests. Snapshots are monotone, so each reader brackets its
/// answer between two generation reads and requires
/// `gen_before <= exact_count <= gen_after` (staler than requested is impossible;
/// fresher — a newer snapshot or a newer cached answer — is fine), for both the
/// single-question cached path and the batch front-end.
#[test]
fn concurrent_readers_never_observe_stale_answers_across_inserts() {
    const INITIAL: usize = 4;
    const INSERTS: usize = 12;
    const READERS: usize = 4;

    let mut writer: CqadsWriter = all_match_system(INITIAL).into_writer();
    let reader = writer.reader();
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let reader: CqadsReader = reader.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut iterations = 0usize;
                let mut hits_seen = 0u64;
                let mut last_gen = 0u64;
                while !done.load(Ordering::Acquire) || iterations < 3 {
                    // Bracket the answer between two snapshot loads: the answer's
                    // generation must fall inside the bracket.
                    let gen_before = reader.table_generation("cars").unwrap();
                    assert!(
                        gen_before >= last_gen,
                        "reader {r} saw the snapshot generation regress: {last_gen} -> {gen_before}"
                    );
                    last_gen = gen_before;
                    let answer = if r % 2 == 0 {
                        reader.ask(PROBE).domain("cars").get().unwrap()
                    } else {
                        reader.answer_batch(&[PROBE]).remove(0).unwrap()
                    };
                    let gen_after = reader.table_generation("cars").unwrap();
                    assert!(
                        (gen_before..=gen_after).contains(&(answer.exact_count as u64)),
                        "reader {r} observed an answer outside its snapshot bracket: \
                         {} not in {gen_before}..={gen_after}",
                        answer.exact_count
                    );
                    hits_seen = reader.cache_stats().hits;
                    iterations += 1;
                    std::thread::yield_now();
                }
                (iterations, hits_seen)
            })
        })
        .collect();

    for i in 0..INSERTS {
        // Each insert republishes the snapshot; readers pick it up on their
        // next load without ever blocking on the insert's work.
        writer
            .insert_record("cars", car(10_000.0 + i as f64))
            .unwrap();
        std::thread::yield_now();
    }
    done.store(true, Ordering::Release);

    let mut total_iterations = 0usize;
    let mut hits = 0u64;
    for handle in readers {
        let (iterations, hits_seen) = handle.join().expect("reader panicked");
        assert!(iterations >= 3);
        total_iterations += iterations;
        hits = hits.max(hits_seen);
    }
    assert!(total_iterations >= READERS * 3);
    // The cache did real work during the run (repeat questions between inserts hit).
    assert!(hits > 0, "cache never hit during the concurrent run");

    let final_answer = reader.ask(PROBE).domain("cars").get().unwrap();
    assert_eq!(final_answer.exact_count, INITIAL + INSERTS);
    // No stale answer was ever *served*; stale entries were evicted by stamp checks.
    let stats = reader.cache_stats();
    assert!(stats.stale_evictions > 0 || stats.misses > stats.hits);
}

/// A reader minted **before** a long run of single inserts — every one of which
/// publishes a snapshot that shares all but the written chunks of the table with the
/// previous one — ends up answering exactly as a system built in one go from the same
/// records: across two chunk boundaries of the per-record columns (one per part at two
/// shards), through splits of the sorted price/year/mileage leaves, uncached.
#[test]
fn a_reader_minted_before_many_single_inserts_answers_like_a_rebuilt_system() {
    const MODELS: [(&str, &str); 6] = [
        ("honda", "accord"),
        ("honda", "civic"),
        ("toyota", "camry"),
        ("toyota", "corolla"),
        ("ford", "focus"),
        ("mazda", "miata"),
    ];
    const COLORS: [&str; 5] = ["blue", "red", "silver", "black", "gold"];
    let records: Vec<Record> = (0..2 * RECORD_CHUNK + 1)
        .map(|i| {
            let (make, model) = MODELS[i % MODELS.len()];
            let mut record = Record::builder()
                .text("make", make)
                .text("model", model)
                .text("color", COLORS[(i / 7) % COLORS.len()])
                // Prices repeat (ties inside a leaf), years cluster, mileage ascends.
                .number("price", 3_000.0 + ((i * 37) % 90) as f64 * 250.0)
                .number("year", 1995.0 + (i % 16) as f64);
            if i % 3 != 0 {
                let transmission = if i % 2 == 0 { "automatic" } else { "manual" };
                record = record
                    .text("transmission", transmission)
                    .number("mileage", 20.0 * i as f64);
            }
            record.build()
        })
        .collect();
    let questions = [
        "blue automatic honda accord",
        "red toyota camry under 9000 dollars",
        "cheapest ford focus",
        "newest silver honda civic",
        "gold manual mazda miata less than 40000 miles",
        "black toyota corolla between 5000 and 8000 dollars",
        "yellow bmw m3",
        "honda",
    ];

    let spec = toy_car_domain();
    for shards in [1, 2] {
        let config = || CqadsConfig {
            shards: Some(shards),
            ..CqadsConfig::default()
        };
        let mut writer = CqadsWriter::with_config(config());
        writer.add_domain(
            spec.clone(),
            Table::new(spec.schema.clone()),
            Default::default(),
        );
        let reader = writer.reader();
        for record in &records {
            writer.insert_record("cars", record.clone()).unwrap();
        }
        assert_eq!(
            reader.table_generation("cars"),
            Some(records.len() as u64),
            "{shards} shard(s)"
        );

        let table = Table::from_records(spec.schema.clone(), records.iter().cloned(), 0).unwrap();
        let mut rebuilt = CqadsWriter::with_config(config());
        rebuilt.add_domain(spec.clone(), table, Default::default());

        let (mut exact, mut partial) = (0, 0);
        for question in questions {
            let context = format!("{question:?} at {shards} shard(s)");
            let got = reader.ask(question).domain("cars").uncached().get();
            let want = rebuilt.ask(question).domain("cars").uncached().get();
            let (got, want) = (got.expect(&context), want.expect(&context));
            assert_eq!(got.sql, want.sql, "{context}");
            assert_eq!(got.exact_count, want.exact_count, "{context}");
            assert_eq!(got.answers.len(), want.answers.len(), "{context}");
            for (x, y) in got.answers.iter().zip(&want.answers) {
                assert_eq!(
                    (x.id, x.kind, x.measure),
                    (y.id, y.kind, y.measure),
                    "{context}"
                );
                assert_eq!(x.rank_sim.to_bits(), y.rank_sim.to_bits(), "{context}");
                assert_eq!(x.record, y.record, "{context}");
            }
            exact += got.exact_count;
            partial += got.answers.len() - got.exact_count;
        }
        assert!(exact > 0 && partial > 0, "{exact} exact, {partial} partial");
    }
}

/// A writer with two domains over the toy car schema: `cars` holds blue hondas,
/// `trucks` red toyotas, so an answer shows which table it came from.
fn two_domain_writer(config: CqadsConfig) -> CqadsWriter {
    let mut writer = CqadsWriter::with_config(config);
    for (name, make, model, color) in [
        ("cars", "honda", "accord", "blue"),
        ("trucks", "toyota", "camry", "red"),
    ] {
        let mut spec = toy_car_domain();
        spec.schema.name = name.into();
        let mut table = Table::new(spec.schema.clone());
        for i in 0..4 {
            let record = Record::builder()
                .text("make", make)
                .text("model", model)
                .text("color", color)
                .number("price", 5_000.0 + 500.0 * i as f64)
                .build();
            table.insert(record).unwrap();
        }
        writer.add_domain(spec, table, Default::default());
    }
    writer
}

/// Train the classifier on `(label, text)` examples.
fn train(writer: &mut CqadsWriter, examples: &[(&str, &str)]) {
    let docs: Vec<LabelledDoc> = examples
        .iter()
        .map(|(label, text)| LabelledDoc::from_text(*label, text))
        .collect();
    writer.train_classifier(&docs);
}

/// Assert two answer sets are the same answer: domain, SQL, and every answer's id,
/// kind and `rank_sim` bits in order.
fn assert_same_answer(got: &AnswerSet, want: &AnswerSet, context: &str) {
    let ranked = |set: &AnswerSet| -> Vec<_> {
        let answers = set.answers.iter();
        answers
            .map(|a| (a.id, a.kind, a.rank_sim.to_bits()))
            .collect()
    };
    assert_eq!(got.domain, want.domain, "{context}");
    assert_eq!(got.sql, want.sql, "{context}");
    assert_eq!(got.exact_count, want.exact_count, "{context}");
    assert_eq!(ranked(got), ranked(want), "{context}");
}

/// A cached routed ask of `question` lands in `domain` and equals the uncached
/// answer there.
fn assert_routed(writer: &CqadsWriter, question: &str, domain: &str) {
    let context = format!("{question:?} routed to {domain}");
    let cached = writer.ask(question).get().expect(&context);
    let oracle = writer.ask(question).domain(domain).uncached().get();
    assert_same_answer(&cached, &oracle.expect(&context), &context);
}

/// The route memo is keyed by the exact question text, not by its tokens: the
/// classifier splits on whitespace only ("blue,red" is one token to it) while the
/// tagger's `tokenize` splits at the comma too, so two questions with equal token
/// streams can belong to different domains. A first level keyed by tokens → domain
/// would serve whichever question came second in the first one's domain.
#[test]
fn routes_are_keyed_by_the_question_text_not_its_tokens() {
    let (joined, spaced) = ("blue,red", "blue red");
    let texts = |q: &str| -> Vec<String> {
        let tokens = cqads_suite::text::tokenize(q);
        tokens.into_iter().map(|t| t.text).collect()
    };
    assert_eq!(texts(joined), texts(spaced), "the tagger sees one stream");

    for order in [[joined, spaced], [spaced, joined]] {
        let mut writer = two_domain_writer(CqadsConfig::default());
        train(
            &mut writer,
            &[
                ("cars", joined),
                ("cars", joined),
                ("trucks", spaced),
                ("trucks", spaced),
            ],
        );
        assert_eq!(writer.classify(joined).unwrap(), "cars");
        assert_eq!(writer.classify(spaced).unwrap(), "trucks");
        let domain = |q: &str| if q == joined { "cars" } else { "trucks" };
        for question in order {
            assert_routed(&writer, question, domain(question));
        }
        for question in order {
            assert_routed(&writer, question, domain(question));
            let batch = writer.answer_batch(&[question]).remove(0).unwrap();
            assert_eq!(batch.domain, domain(question), "{question:?} in a batch");
        }
        let routes = writer.serving_stats().routes;
        assert_eq!((routes.misses, routes.hits), (2, 4), "{order:?}");
    }
}

/// Warming `n` distinct questions costs `n` memo misses; `k` repeats are `k` hits,
/// whether asked one by one or in a batch after an `ask` of the same text.
#[test]
fn route_memo_counts_one_miss_per_distinct_text() {
    let writer = two_domain_writer(CqadsConfig::default());
    let questions = [
        "blue honda",
        "red toyota",
        "cheapest honda accord",
        "Blue Honda?",
    ];
    for question in questions {
        writer.ask(question).get().unwrap();
    }
    let warm = writer.serving_stats().routes;
    assert_eq!((warm.misses, warm.hits), (questions.len() as u64, 0));
    assert_eq!(warm.entries, questions.len(), "one route per exact text");
    let k = 9;
    for i in 0..k {
        writer.ask(questions[i % questions.len()]).get().unwrap();
    }
    let asked = writer.serving_stats().routes;
    assert_eq!(
        (asked.misses, asked.hits),
        (questions.len() as u64, k as u64)
    );

    // A batch after an `ask` of the same text routes through the same memo.
    let batch = writer.answer_batch(&questions[..2]);
    assert!(batch.iter().all(Result::is_ok));
    let batched = writer.serving_stats().routes;
    assert_eq!(batched.hits, asked.hits + 2);
    assert_eq!(batched.misses, asked.misses);
    // A reader serves the published snapshot, which shares the writer's memo.
    let reader = writer.reader();
    reader.ask(questions[0]).get().unwrap();
    assert_eq!(reader.serving_stats().routes.hits, batched.hits + 1);
}

/// Neither an explicit domain nor an uncached ask reads or fills the memo.
#[test]
fn explicit_domain_and_uncached_asks_bypass_the_route_memo() {
    let writer = two_domain_writer(CqadsConfig::default());
    writer.ask("blue honda").domain("cars").get().unwrap();
    writer.ask("blue honda").uncached().get().unwrap();
    writer
        .ask("blue honda")
        .domain("cars")
        .uncached()
        .get()
        .unwrap();
    let routes = writer.serving_stats().routes;
    assert_eq!((routes.hits, routes.misses, routes.entries), (0, 0, 0));
}

/// A retrain that flips a question's domain installs a fresh memo: the next cached
/// routed ask answers in the new domain, and the route counters restart.
#[test]
fn a_retrain_replaces_the_route_memo() {
    let question = "blue honda accord";
    let mut writer = two_domain_writer(CqadsConfig::default());
    train(&mut writer, &[("cars", question), ("trucks", "red toyota")]);
    assert_eq!(writer.classify(question).unwrap(), "cars");
    assert_routed(&writer, question, "cars");
    assert_routed(&writer, question, "cars");
    assert_eq!(writer.serving_stats().routes.hits, 1);

    train(&mut writer, &[("trucks", question); 8]);
    assert_eq!(writer.classify(question).unwrap(), "trucks");
    assert_routed(&writer, question, "trucks");
    assert_routed(&writer, question, "trucks");
    let routes = writer.serving_stats().routes;
    assert_eq!((routes.misses, routes.hits), (1, 1), "fresh memo");
}

/// An untrained classifier falls back to the first domain name; registering a name
/// that sorts first moves that fallback, so it installs a fresh memo. Re-registering
/// an existing name keeps the memo.
#[test]
fn a_new_domain_name_replaces_the_route_memo() {
    let question = "blue honda";
    let mut writer = two_domain_writer(CqadsConfig::default());
    assert_routed(&writer, question, "cars");
    assert_routed(&writer, question, "cars");
    assert_eq!(writer.serving_stats().routes.hits, 1);

    let spec = toy_car_domain();
    let table = Table::new(spec.schema.clone());
    writer.add_domain(spec, table, Default::default());
    assert_eq!(
        writer.serving_stats().routes.hits,
        1,
        "same names, same memo"
    );

    let mut autos = toy_car_domain();
    autos.schema.name = "autos".into();
    let mut table = Table::new(autos.schema.clone());
    table.insert(car(4_000.0)).unwrap();
    writer.add_domain(autos, table, Default::default());
    assert_routed(&writer, question, "autos");
    let routes = writer.serving_stats().routes;
    assert_eq!((routes.misses, routes.hits), (1, 0), "fresh memo");
}

/// Inserts and query-log deltas change answers, not routes: the memo keeps
/// hitting while the answer cache still evicts the stale answer, and the answer
/// equals the uncached one.
#[test]
fn inserts_and_log_deltas_keep_the_routes() {
    let mut writer = two_domain_writer(CqadsConfig::default());
    let reader = writer.reader();
    writer.ask(PROBE).get().unwrap();
    reader.ask(PROBE).get().unwrap();
    let before = (writer.serving_stats().routes, writer.cache_stats());
    assert_eq!(before.0.hits, 1);

    writer.insert_record("cars", car(7_777.0)).unwrap();
    assert_routed(&writer, PROBE, "cars");
    let got = reader.ask(PROBE).get().unwrap();
    assert_same_answer(
        &got,
        &reader.ask(PROBE).domain("cars").uncached().get().unwrap(),
        "reader",
    );
    let after_insert = (writer.serving_stats().routes, writer.cache_stats());
    assert_eq!(after_insert.0.hits, before.0.hits + 2);
    assert_eq!(after_insert.0.misses, before.0.misses);
    assert_eq!(after_insert.1.stale_evictions, before.1.stale_evictions + 1);

    let delta = Session {
        user_id: 1,
        queries: vec![
            SubmittedQuery {
                value: "accord".into(),
                at_seconds: 0.0,
                clicks: vec![],
                shown: vec!["accord".into(), "civic".into()],
            },
            SubmittedQuery {
                value: "civic".into(),
                at_seconds: 30.0,
                clicks: vec![],
                shown: vec!["civic".into()],
            },
        ],
    };
    let mut stream = QueryLogStream::new(1);
    let delta = stream.push(delta).expect("a batch of one");
    writer.ingest_query_log("cars", &delta).unwrap();
    assert_routed(&writer, PROBE, "cars");
    let after_delta = (writer.serving_stats().routes, writer.cache_stats());
    assert_eq!(after_delta.0.hits, after_insert.0.hits + 1);
    assert_eq!(after_delta.0.misses, before.0.misses);
    assert_eq!(
        after_delta.1.stale_evictions,
        after_insert.1.stale_evictions + 1
    );
}

/// With the cache off the memo is off too: its counters stay at zero and every
/// answer still equals the uncached one.
#[test]
fn zero_cache_capacity_disables_the_route_memo() {
    let config = CqadsConfig {
        cache_capacity: 0,
        ..CqadsConfig::default()
    };
    let writer = two_domain_writer(config);
    for _ in 0..3 {
        assert_routed(&writer, PROBE, "cars");
        let batch = writer.answer_batch(&[PROBE, PROBE]);
        let oracle = writer.ask(PROBE).domain("cars").uncached().get().unwrap();
        for answer in batch {
            assert_same_answer(&answer.unwrap(), &oracle, "batch");
        }
    }
    let routes = writer.serving_stats().routes;
    assert_eq!((routes.hits, routes.misses, routes.entries), (0, 0, 0));
}
