//! Serving-latency percentiles under the resilience layer: the SLO view of
//! the system (p50/p99/p999 per question) instead of the throughput view the
//! other benches take.
//!
//! Three per-call latency distributions over a generated cars table:
//!
//! 1. **read** — hot serving with resilience enabled (generous deadline,
//!    admission control on): every call is a cache hit plus the admission /
//!    budget bookkeeping, so the p50 gates the resilience layer's overhead on
//!    the fast path.
//! 2. **mixed** — the same traffic with a cache-invalidating insert every
//!    [`INVALIDATE_EVERY`] calls: the tail percentiles capture the recompute
//!    spikes that follow each invalidation.
//! 3. **fault** — a durable system (WAL + audit trail on an in-memory fault
//!    filesystem) with a transient append failure injected every
//!    [`FAULT_EVERY`] calls and the retry layer absorbing it; the report
//!    records how many retries fired and asserts none leaked into
//!    `audit_failures`.
//!
//! Results land in `BENCH_latency.json` at the workspace root (skipped in
//! `--test` smoke mode). The gate holds `read.p50_micros` and
//! `mixed.p50_micros` to the tolerance band; tails are recorded, not gated.

// This target measures real wall time by design.
#![allow(clippy::disallowed_methods)]

use addb::{Record, Value};
use cqads::{CqadsConfig, CqadsSystem, ResilienceOptions, StorageOptions};
use cqads_datagen::{
    affinity_model, blueprint, generate_questions, generate_table, topic_groups, QuestionMix,
};
use cqads_querylog::{generate_log, LogGeneratorConfig, TIMatrix};
use cqads_storage::{FaultFs, FaultPlan, MemFs, RetryOptions, RetryPolicy, Vfs};
use cqads_wordsim::{CorpusSpec, SyntheticCorpus, WordSimMatrix};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Instant;

const TABLE_SIZE: usize = 10_000;
const DISTINCT_QUESTIONS: usize = 16;
const READ_SAMPLES: usize = 2_000;
const MIXED_SAMPLES: usize = 1_000;
const FAULT_SAMPLES: usize = 500;
const INVALIDATE_EVERY: usize = 25;
const FAULT_EVERY: usize = 10;

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

fn resilient_system(ing: &Ingredients) -> CqadsSystem {
    let bp = blueprint("cars");
    let mut system = CqadsSystem::with_config(CqadsConfig {
        resilience: Some(ResilienceOptions {
            // Generous: the deadline machinery runs on every call but should
            // never fire on a healthy box.
            deadline_micros: Some(2_000_000),
            max_in_flight: 64,
            ..ResilienceOptions::default()
        }),
        ..CqadsConfig::default()
    });
    system.set_word_sim(ing.ws.clone());
    system.add_domain(
        ing.spec.clone(),
        generate_table(&bp, ing.table_size, 4242),
        ing.ti.clone(),
    );
    system
}

fn durable_system(ing: &Ingredients, fault: &Arc<FaultFs>) -> CqadsSystem {
    let bp = blueprint("cars");
    let mut opts = StorageOptions::with_vfs("db", Arc::clone(fault) as Arc<dyn Vfs>);
    opts.snapshot_every = 0;
    opts.audit_queries = true;
    opts.retry = Some(RetryOptions {
        policy: RetryPolicy {
            attempts: 3,
            base_delay_micros: 10,
            max_delay_micros: 200,
            ..RetryPolicy::default()
        },
        ..RetryOptions::default()
    });
    let mut system = CqadsSystem::try_with_config(CqadsConfig {
        storage: Some(opts),
        ..CqadsConfig::default()
    })
    .unwrap();
    system.set_word_sim(ing.ws.clone());
    system
        .try_add_domain(
            ing.spec.clone(),
            generate_table(&bp, ing.table_size, 4242),
            ing.ti.clone(),
        )
        .unwrap();
    system
}

fn percentile_micros(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((p / 100.0) * (samples.len() as f64 - 1.0)).round() as usize;
    samples[idx.min(samples.len() - 1)] * 1e6
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

/// Per-call latencies for `samples` single-question bursts, round-robin over
/// the question list; `tick` runs before each call (inserts, fault arming).
fn measure(
    system: &CqadsSystem,
    questions: &[String],
    samples: usize,
    mut tick: impl FnMut(usize),
) -> Vec<f64> {
    (0..samples)
        .map(|i| {
            tick(i);
            let q = &questions[i % questions.len()];
            let start = Instant::now();
            let out = system.answer_batch(std::slice::from_ref(q));
            let secs = start.elapsed().as_secs_f64();
            assert!(out[0].is_ok(), "latency workload question failed");
            std::hint::black_box(out);
            secs
        })
        .collect()
}

fn section_json(name: &str, samples: &mut [f64]) -> serde_json::Value {
    let total: f64 = samples.iter().sum();
    let p50 = percentile_micros(samples, 50.0);
    let p99 = percentile_micros(samples, 99.0);
    let p999 = percentile_micros(samples, 99.9);
    println!(
        "latency/{name}: n={} p50 {p50:.0}us p99 {p99:.0}us p999 {p999:.0}us",
        samples.len(),
    );
    serde_json::json!({
        "samples": samples.len(),
        "p50_micros": p50,
        "p99_micros": p99,
        "p999_micros": p999,
        "qps": samples.len() as f64 / total,
    })
}

fn bench(c: &mut Criterion) {
    let test_mode = c.is_test_mode();
    let ing = ingredients(if test_mode { 2_000 } else { TABLE_SIZE });
    let (read_n, mixed_n, fault_n) = if test_mode {
        (40, 40, 30)
    } else {
        (READ_SAMPLES, MIXED_SAMPLES, FAULT_SAMPLES)
    };

    // 1. read: resilience-enabled hot serving.
    let system = resilient_system(&ing);
    system.answer_batch(&ing.questions); // warm
    let mut read = measure(&system, &ing.questions, read_n, |_| {});

    // 2. mixed: periodic cache-invalidating inserts on the same system.
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
    let mut system = system;
    let mut mixed = Vec::with_capacity(mixed_n);
    for i in 0..mixed_n {
        if i % INVALIDATE_EVERY == 0 {
            system
                .insert_record("cars", clone_record(&template))
                .unwrap();
        }
        let q = &ing.questions[i % ing.questions.len()];
        let start = Instant::now();
        let out = system.answer_batch(std::slice::from_ref(q));
        mixed.push(start.elapsed().as_secs_f64());
        assert!(out[0].is_ok());
        std::hint::black_box(out);
    }
    let stats = system.serving_stats();
    println!(
        "latency/resilience: degraded {} stale {} shed {} pressure {}",
        stats.degraded, stats.stale_served, stats.shed, stats.pressure_level
    );

    // 3. fault: durable serving with transient WAL faults absorbed by the
    //    retry layer.
    let mem = Arc::new(MemFs::default());
    let fault = Arc::new(FaultFs::new(Arc::clone(&mem) as Arc<dyn Vfs>));
    let durable = durable_system(&ing, &fault);
    durable.answer_batch(&ing.questions);
    let mut faulty = measure(&durable, &ing.questions, fault_n, |i| {
        if i % FAULT_EVERY == 0 {
            fault.set_plan(FaultPlan {
                fail_appends: 1,
                ..FaultPlan::default()
            });
        }
    });
    let durable_stats = durable.serving_stats();
    assert_eq!(
        durable_stats.audit_failures, 0,
        "every injected transient fault must be absorbed by the retry layer"
    );
    assert!(
        durable_stats.wal_retries > 0,
        "the fault schedule must actually have fired"
    );
    println!(
        "latency/fault: wal_retries {} breaker_opens {}",
        durable_stats.wal_retries, durable_stats.breaker_opens
    );

    if !test_mode {
        let read_json = section_json("read", &mut read);
        let mixed_json = section_json("mixed", &mut mixed);
        let fault_section = section_json("fault", &mut faulty);
        let fault_json = serde_json::json!({
            "section": fault_section,
            "fault_every": FAULT_EVERY,
            "wal_retries": durable_stats.wal_retries,
            "breaker_opens": durable_stats.breaker_opens,
            "audit_failures": durable_stats.audit_failures,
        });
        let resilience_json = serde_json::json!({
            "degraded": stats.degraded,
            "stale_served": stats.stale_served,
            "shed": stats.shed,
            "pressure_level": stats.pressure_level,
        });
        let json = serde_json::json!({
            "bench": "latency",
            "hardware_threads": std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            "records": ing.table_size,
            "distinct_questions": ing.questions.len(),
            "read": read_json,
            "mixed": mixed_json,
            "fault": fault_json,
            "resilience": resilience_json,
        });
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_latency.json");
        std::fs::write(
            path,
            serde_json::to_string_pretty(&json).expect("serializable"),
        )
        .expect("write BENCH_latency.json");
        println!("wrote {path}");
    }

    let mut group = c.benchmark_group("latency");
    group.sample_size(10);
    let q = ing.questions[0].clone();
    group.bench_function("hot_single_question", |b| {
        system.answer_batch(std::slice::from_ref(&q));
        b.iter(|| std::hint::black_box(system.answer_batch(std::slice::from_ref(&q))))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
