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

use cqads_suite::addb::{Record, Table, RECORD_CHUNK};
use cqads_suite::cqads::domain::toy_car_domain;
use cqads_suite::cqads::{CqadsConfig, CqadsReader, CqadsSystem, CqadsWriter};
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
