//! Reader throughput under concurrent ingest: the snapshot read path
//! ([`CqadsReader`] over epoch-published state) against a whole-system
//! `RwLock<CqadsSystem>` baseline — the lock the handle split removed.
//!
//! Three timed phases over the same generated cars table, all with the
//! serving cache disabled so every answer performs the full uncached
//! pipeline (the workload the lock would otherwise be held across):
//!
//! 1. **reader_only** — [`READER_THREADS`] cloned [`CqadsReader`]s
//!    round-robin over the question list with no writer anywhere.
//! 2. **snapshot_with_ingest** — the same reader fleet while a
//!    [`CqadsWriter`] thread, self-paced off the shared answer counter,
//!    inserts (and thereby publishes) one record per [`INGEST_EVERY`]
//!    answers served. Readers never block: each answer runs against the
//!    snapshot its call loaded.
//! 3. **locked_with_ingest** — the pre-split architecture reconstructed:
//!    one `Arc<RwLock<CqadsSystem>>`, readers answering under the read
//!    lock, the identically-paced writer inserting under the write lock.
//!
//! `contention_ratio` (= phase 2 qps / phase 1 qps) is the gated metric:
//! how much reader throughput survives concurrent ingest on the snapshot
//! path. `locked_ratio` is recorded alongside for the comparison story.
//! Before any timing, the snapshot path is asserted byte-identical to the
//! facade path for the whole workload.
//!
//! Results land in `BENCH_concurrency.json` at the workspace root (skipped
//! in `--test` smoke mode). Absolute qps depends on core count — the
//! report records `hardware_threads`, and the parallelism-dependent
//! cross-phase assertion only arms on multicore hardware.

// This target measures real wall time by design.
#![allow(clippy::disallowed_methods)]

use addb::{Record, Value};
use cqads::{CqadsConfig, CqadsReader, CqadsSystem, CqadsWriter};
use cqads_datagen::{
    affinity_model, blueprint, generate_questions, generate_table, topic_groups, QuestionMix,
};
use cqads_querylog::{generate_log, LogGeneratorConfig, TIMatrix};
use cqads_wordsim::{CorpusSpec, SyntheticCorpus, WordSimMatrix};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, RwLock};
use std::time::{Duration, Instant};

const TABLE_SIZE: usize = 5_000;
const DISTINCT_QUESTIONS: usize = 16;
const READER_THREADS: usize = 4;
const OPS_PER_READER: usize = 150;
const INGEST_EVERY: usize = 40;

struct Ingredients {
    spec: cqads::DomainSpec,
    ti: TIMatrix,
    ws: WordSimMatrix,
    questions: Vec<String>,
    table_size: usize,
}

fn ingredients(table_size: usize) -> Ingredients {
    let bp = blueprint("cars");
    let log = generate_log(
        &affinity_model(&bp),
        &LogGeneratorConfig {
            sessions: 300,
            seed: 77,
            ..Default::default()
        },
    );
    let corpus = SyntheticCorpus::generate(
        &topic_groups(&bp),
        &CorpusSpec {
            documents: 120,
            ..CorpusSpec::default()
        },
    );
    let spec = bp.to_spec();
    let ti = TIMatrix::build(&log);
    let ws = WordSimMatrix::build(&corpus);

    // Questions are selected against a throwaway system over the same table.
    let mut probe = CqadsSystem::with_config(CqadsConfig::default());
    probe.set_word_sim(ws.clone());
    probe.add_domain(
        spec.clone(),
        generate_table(&bp, table_size, 4242),
        ti.clone(),
    );
    let table_ref = probe.database().table("cars").unwrap();
    let generated = generate_questions(&bp, table_ref, 120, 99, &QuestionMix::plain_only());
    let mut questions: Vec<String> = Vec::new();
    for q in generated {
        if probe.ask(&q.text).domain("cars").uncached().get().is_ok()
            && !questions.contains(&q.text)
        {
            questions.push(q.text);
        }
        if questions.len() == DISTINCT_QUESTIONS {
            break;
        }
    }
    assert!(questions.len() >= 8, "workload too small");
    Ingredients {
        spec,
        ti,
        ws,
        questions,
        table_size,
    }
}

/// A fresh system with the serving cache off: every answer recomputes, so
/// the timed phases measure the pipeline, not cache hits.
fn uncached_system(ing: &Ingredients) -> CqadsSystem {
    let bp = blueprint("cars");
    let config = CqadsConfig::builder()
        .cache_capacity(0)
        .cache_shards(0)
        .build()
        .expect("cache-off config is valid");
    let mut system = CqadsSystem::with_config(config);
    system.set_word_sim(ing.ws.clone());
    system.add_domain(
        ing.spec.clone(),
        generate_table(&bp, ing.table_size, 4242),
        ing.ti.clone(),
    );
    system
}

/// Clone a stored record into a fresh insertable one.
fn clone_record(record: &Record) -> Record {
    let mut builder = Record::builder();
    for (name, value) in record.fields() {
        builder = match value {
            Value::Text(text) => builder.text(name, text),
            Value::Number(n) => builder.number(name, *n),
        };
    }
    builder.build()
}

/// The snapshot path must produce the same bytes as the facade path for the
/// whole workload — asserted before any throughput is measured, so a fast
/// wrong answer can never win the gate.
fn assert_byte_identical(system: &CqadsSystem, reader: &CqadsReader, questions: &[String]) {
    for q in questions {
        let direct = system
            .ask(q)
            .domain("cars")
            .uncached()
            .get()
            .expect("workload question answers via the facade");
        let snapped = reader
            .ask(q)
            .domain("cars")
            .uncached()
            .get()
            .expect("workload question answers via the snapshot path");
        assert_eq!(direct.sql, snapped.sql, "sql diverged for {q:?}");
        assert_eq!(direct.exact_count, snapped.exact_count);
        assert_eq!(direct.answers.len(), snapped.answers.len());
        for (x, y) in direct.answers.iter().zip(&snapped.answers) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.measure, y.measure);
            assert_eq!(x.rank_sim.to_bits(), y.rank_sim.to_bits());
        }
    }
}

struct PhaseResult {
    qps: f64,
    ops: usize,
    ingests: usize,
}

/// Run `threads` reader closures (each doing `ops` answers, bumping the
/// shared counter after each) alongside an optional writer closure, all
/// released from one barrier; returns wall-clock qps over the reader ops.
fn run_phase<R, W>(
    threads: usize,
    ops: usize,
    reader_body: R,
    writer_body: Option<W>,
) -> PhaseResult
where
    R: Fn(usize, &AtomicUsize) + Send + Sync,
    W: FnOnce(&AtomicUsize, &AtomicBool) -> usize + Send,
{
    let answered = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(threads + usize::from(writer_body.is_some()) + 1);
    let mut ingests = 0usize;
    let elapsed = std::thread::scope(|scope| {
        let reader_body = &reader_body;
        let answered = &answered;
        let done = &done;
        let barrier = &barrier;
        // Each reader times its own span; the phase wall-clock is the earliest
        // start to the latest finish, so the measurement holds even when the
        // coordinating thread is scheduled late (single-core boxes).
        let readers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    for i in 0..ops {
                        reader_body(t * ops + i, answered);
                        answered.fetch_add(1, Ordering::Release);
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        let writer = writer_body.map(|body| {
            scope.spawn(move || {
                barrier.wait();
                body(answered, done)
            })
        });
        barrier.wait();
        let spans: Vec<(Instant, Instant)> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        done.store(true, Ordering::Release);
        if let Some(writer) = writer {
            ingests = writer.join().expect("writer thread panicked");
        }
        let first = spans
            .iter()
            .map(|s| s.0)
            .min()
            .expect("at least one reader");
        let last = spans
            .iter()
            .map(|s| s.1)
            .max()
            .expect("at least one reader");
        last.duration_since(first).as_secs_f64()
    });
    PhaseResult {
        qps: threads as f64 * ops as f64 / elapsed,
        ops: threads * ops,
        ingests,
    }
}

/// The self-paced ingest loop: one insert per `ingest_every` answers served,
/// so the writer's share of the machine is a fixed small fraction of the
/// reader workload on any core count.
fn paced_ingest(
    answered: &AtomicUsize,
    done: &AtomicBool,
    ingest_every: usize,
    mut insert: impl FnMut(),
) -> usize {
    let mut ingests = 0usize;
    let mut next = ingest_every;
    while !done.load(Ordering::Acquire) {
        if answered.load(Ordering::Acquire) >= next {
            insert();
            ingests += 1;
            next += ingest_every;
        } else {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    ingests
}

fn bench(c: &mut Criterion) {
    let test_mode = c.is_test_mode();
    let ing = ingredients(if test_mode { 1_000 } else { TABLE_SIZE });
    let (threads, ops, ingest_every) = if test_mode {
        (2, 8, 4)
    } else {
        (READER_THREADS, OPS_PER_READER, INGEST_EVERY)
    };

    // Identity first: no throughput number counts unless the snapshot path
    // answers bit-for-bit like the facade path.
    let system = uncached_system(&ing);
    let reader = system.reader();
    assert_byte_identical(&system, &reader, &ing.questions);

    let template = clone_record(
        &system
            .database()
            .table("cars")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .1
            .clone(),
    );

    // 1. reader_only: the snapshot fleet with no writer anywhere.
    let questions = ing.questions.clone();
    let reader_only = {
        let reader = reader.clone();
        let questions = &questions;
        run_phase(
            threads,
            ops,
            move |i, _| {
                let q = &questions[i % questions.len()];
                let set = reader
                    .ask(q)
                    .domain("cars")
                    .uncached()
                    .get()
                    .expect("reader-only answer");
                std::hint::black_box(set);
            },
            None::<fn(&AtomicUsize, &AtomicBool) -> usize>,
        )
    };
    println!(
        "concurrency/reader_only: {} ops, {:.0} qps",
        reader_only.ops, reader_only.qps
    );

    // 2. snapshot_with_ingest: same fleet, writer publishing behind it.
    let writer: CqadsWriter = system.into_writer();
    let reader = writer.reader();
    let snapshot_with_ingest = {
        let reader_fleet = reader.clone();
        let questions = &questions;
        let template = &template;
        let gen_before = reader.table_generation("cars").unwrap();
        let mut writer = writer;
        let phase = run_phase(
            threads,
            ops,
            move |i, _| {
                let q = &questions[i % questions.len()];
                let set = reader_fleet
                    .ask(q)
                    .domain("cars")
                    .uncached()
                    .get()
                    .expect("snapshot-path answer under ingest");
                std::hint::black_box(set);
            },
            Some(move |answered: &AtomicUsize, done: &AtomicBool| {
                paced_ingest(answered, done, ingest_every, || {
                    writer
                        .insert_record("cars", clone_record(template))
                        .expect("paced ingest insert");
                })
            }),
        );
        let gen_after = reader.table_generation("cars").unwrap();
        assert!(
            gen_after >= gen_before + phase.ingests as u64,
            "every paced insert must have published a fresh snapshot"
        );
        phase
    };
    println!(
        "concurrency/snapshot_with_ingest: {} ops, {} ingests, {:.0} qps",
        snapshot_with_ingest.ops, snapshot_with_ingest.ingests, snapshot_with_ingest.qps
    );

    // 3. locked_with_ingest: the pre-split shape — one big RwLock.
    let locked = Arc::new(RwLock::new(uncached_system(&ing)));
    let locked_with_ingest = {
        let system = Arc::clone(&locked);
        let writer_system = Arc::clone(&locked);
        let questions = &questions;
        let template = &template;
        run_phase(
            threads,
            ops,
            move |i, _| {
                let q = &questions[i % questions.len()];
                // lock: the baseline under measurement — the whole-system
                // read lock this bench exists to compare against.
                let guard = system.read().expect("baseline lock");
                let set = guard
                    .ask(q)
                    .domain("cars")
                    .uncached()
                    .get()
                    .expect("locked baseline answer");
                std::hint::black_box(set);
            },
            Some(move |answered: &AtomicUsize, done: &AtomicBool| {
                paced_ingest(answered, done, ingest_every, || {
                    writer_system
                        .write()
                        .expect("baseline lock")
                        .insert_record("cars", clone_record(template))
                        .expect("locked ingest insert");
                })
            }),
        )
    };
    println!(
        "concurrency/locked_with_ingest: {} ops, {} ingests, {:.0} qps",
        locked_with_ingest.ops, locked_with_ingest.ingests, locked_with_ingest.qps
    );

    let contention_ratio = snapshot_with_ingest.qps / reader_only.qps;
    let locked_ratio = locked_with_ingest.qps / reader_only.qps;
    let hardware_threads = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    println!(
        "concurrency: contention_ratio {contention_ratio:.3}, locked_ratio {locked_ratio:.3}, \
         {hardware_threads} hardware thread(s)"
    );
    // With one core there is no parallelism to lose, so only multicore runs
    // can meaningfully require the snapshot path to beat the lock.
    if hardware_threads >= 2 && !test_mode {
        assert!(
            snapshot_with_ingest.qps >= 0.85 * locked_with_ingest.qps,
            "snapshot readers under ingest must not collapse below the RwLock baseline \
             on multicore hardware ({:.0} qps vs {:.0} qps)",
            snapshot_with_ingest.qps,
            locked_with_ingest.qps
        );
    }

    if !test_mode {
        let ingests_json = serde_json::json!({
            "snapshot": snapshot_with_ingest.ingests,
            "locked": locked_with_ingest.ingests,
        });
        let json = serde_json::json!({
            "bench": "concurrency",
            "hardware_threads": hardware_threads,
            "records": ing.table_size,
            "distinct_questions": questions.len(),
            "reader_threads": threads,
            "ops_per_reader": ops,
            "ingest_every": ingest_every,
            "reader_only_qps": reader_only.qps,
            "snapshot_with_ingest_qps": snapshot_with_ingest.qps,
            "locked_with_ingest_qps": locked_with_ingest.qps,
            "contention_ratio": contention_ratio,
            "locked_ratio": locked_ratio,
            "ingests": ingests_json,
        });
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_concurrency.json");
        std::fs::write(
            path,
            serde_json::to_string_pretty(&json).expect("serializable"),
        )
        .expect("write BENCH_concurrency.json");
        println!("wrote {path}");
    }

    let mut group = c.benchmark_group("concurrency");
    group.sample_size(10);
    let q = questions[0].clone();
    group.bench_function("snapshot_single_question", |b| {
        b.iter(|| {
            std::hint::black_box(
                reader
                    .ask(&q)
                    .domain("cars")
                    .uncached()
                    .get()
                    .expect("criterion snapshot answer"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
