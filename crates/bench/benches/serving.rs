//! Serving front-end bench: the generation-invalidated answer cache under
//! repetitive ad-search traffic.
//!
//! Four measurements over a generated cars table:
//!
//! 1. **Uncached baseline** — per-question `ask(q).domain(d).uncached().get()` over
//!    a repeated-question burst (the pre-cache serving cost).
//! 2. **Cold batch** — [`CqadsSystem::answer_batch`] on an empty cache: every
//!    distinct question misses, but the burst's partial-match phases share one
//!    thread scope per domain and repeats share one computation.
//! 3. **Hot batch** — the same burst again: every question is a cache hit.
//! 4. **Mixed batch** — half warm repeats, half never-seen questions, re-warmed
//!    from scratch each iteration.
//!
//! An **invalidation** pass then inserts a record that exactly matches a cached
//! question and proves the next burst reflects it (`exact_count` grows) — the
//! correctness half of the serving story — and times the post-insert re-fill burst.
//! Results land in `BENCH_serving.json` at the workspace root (skipped in `--test`
//! smoke mode).

// This target measures real wall time by design.
#![allow(clippy::disallowed_methods)]

use addb::{Record, Value};
use cqads::{CqadsConfig, CqadsSystem};
use cqads_datagen::{
    affinity_model, blueprint, generate_questions, generate_table, topic_groups, QuestionMix,
};
use cqads_querylog::{generate_log, LogGeneratorConfig, TIMatrix};
use cqads_wordsim::{CorpusSpec, SyntheticCorpus, WordSimMatrix};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

const TABLE_SIZE: usize = 20_000;
const DISTINCT_QUESTIONS: usize = 16;
const REPEATS: usize = 12;

struct Workload {
    system: CqadsSystem,
    /// Distinct questions that answer successfully, classified into "cars".
    questions: Vec<String>,
    /// Never-cached questions for the mixed burst.
    fresh: Vec<String>,
}

fn build_workload(table_size: usize) -> Workload {
    let bp = blueprint("cars");
    let table = generate_table(&bp, table_size, 4242);
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
    let mut system = CqadsSystem::with_config(CqadsConfig::default());
    system.set_word_sim(WordSimMatrix::build(&corpus));
    system.add_domain(bp.to_spec(), table, TIMatrix::build(&log));

    let table_ref = system.database().table("cars").unwrap();
    let generated = generate_questions(&bp, table_ref, 120, 99, &QuestionMix::plain_only());
    let mut usable: Vec<String> = Vec::new();
    for q in generated {
        if system.ask(&q.text).domain("cars").uncached().get().is_ok() && !usable.contains(&q.text)
        {
            usable.push(q.text);
        }
        if usable.len() == DISTINCT_QUESTIONS * 2 {
            break;
        }
    }
    assert!(
        usable.len() >= DISTINCT_QUESTIONS + 4,
        "workload too small: {} usable questions",
        usable.len()
    );
    let fresh = usable.split_off(usable.len().min(DISTINCT_QUESTIONS));
    Workload {
        system,
        questions: usable,
        fresh,
    }
}

/// The repeated-question burst: every distinct question `REPEATS` times,
/// round-robin interleaved (the shape of real repetitive traffic).
fn burst(questions: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(questions.len() * REPEATS);
    for _ in 0..REPEATS {
        out.extend(questions.iter().cloned());
    }
    out
}

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

fn time_median(iterations: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warmup
    let samples: Vec<f64> = (0..iterations)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median_secs(samples)
}

/// Clone a stored record into a fresh insertable `Record` (same attribute values, so
/// it matches every condition the original matched).
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

/// Prove the invalidation story: warm the cache, insert a record that exactly
/// matches a cached question's conditions, and require the next (previously cached)
/// answer to reflect it. Returns the question used and the exact counts before and
/// after.
fn prove_invalidation(workload: &mut Workload) -> (String, usize, usize) {
    let sys = &mut workload.system;
    sys.cache().clear();
    let burst = burst(&workload.questions);
    let warm = sys.answer_batch(&burst);

    // Pick a question with room in its exact set and a known exact answer record.
    let (question, before) = workload
        .questions
        .iter()
        .zip(&warm)
        .filter_map(|(q, outcome)| outcome.as_ref().ok().map(|a| (q, a)))
        .find(|(_, a)| a.exact_count >= 1 && a.exact_count < addb::DEFAULT_ANSWER_LIMIT)
        .map(|(q, a)| (q.clone(), a))
        .expect("a question with a non-full exact set");
    let template = before.exact()[0].record.clone();
    let before_count = before.exact_count;

    sys.insert_record("cars", clone_record(&template))
        .expect("cloned record re-inserts");

    let after = sys.answer_batch(&[question.as_str()]).remove(0).unwrap();
    assert_eq!(
        after.exact_count,
        before_count + 1,
        "post-insert answer must include the newly inserted record"
    );
    (question, before_count, after.exact_count)
}

fn bench(c: &mut Criterion) {
    let test_mode = c.is_test_mode();
    let mut workload = build_workload(if test_mode { 2_000 } else { TABLE_SIZE });
    let repeated: Vec<String> = burst(&workload.questions);
    // Mixed burst: warm and never-seen distinct questions, each repeated — half the
    // keys hit after the pre-warm, the other half compute once and then hit within
    // the burst itself.
    let mixed: Vec<String> = burst(
        &workload
            .questions
            .iter()
            .chain(workload.fresh.iter())
            .cloned()
            .collect::<Vec<String>>(),
    );

    // Sanity in every mode: hot answers equal uncached answers, and the cache hits.
    {
        let sys = &workload.system;
        sys.cache().clear();
        let cold = sys.answer_batch(&repeated);
        let hits_before = sys.cache_stats().hits;
        let hot = sys.answer_batch(&repeated);
        assert!(sys.cache_stats().hits > hits_before, "hot burst never hit");
        for ((q, a), b) in repeated.iter().zip(&cold).zip(&hot) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            let single = sys.ask(q).domain("cars").uncached().get().unwrap();
            assert_eq!(a.exact_count, single.exact_count, "cold diverged: {q}");
            assert_eq!(b.exact_count, single.exact_count, "hot diverged: {q}");
            assert_eq!(a.answers.len(), b.answers.len(), "hot/cold diverged: {q}");
        }
    }

    if !test_mode {
        let iterations = 5usize;
        let sys = &workload.system;

        // 1. Uncached per-question baseline over the repeated burst.
        let uncached_secs = time_median(iterations, || {
            for q in &repeated {
                std::hint::black_box(sys.ask(q).domain("cars").uncached().get().unwrap());
            }
        });

        // 2. Cold batch: cache cleared every pass, so every distinct question is a
        //    miss (repeats within the burst still dedup — that is the front-end's
        //    job).
        let cold_secs = time_median(iterations, || {
            sys.cache().clear();
            std::hint::black_box(sys.answer_batch(&repeated));
        });

        // 3. Hot batch: warmed once, then every pass is pure hits.
        sys.cache().clear();
        sys.answer_batch(&repeated);
        let hot_secs = time_median(iterations, || {
            std::hint::black_box(sys.answer_batch(&repeated));
        });

        // 4. Mixed burst: half the keys pre-warmed, half fresh, reset each pass (the
        //    pre-warm runs inside the pass but the repeat-heavy burst dominates).
        let mixed_secs = time_median(iterations, || {
            sys.cache().clear();
            sys.answer_batch(&workload.questions);
            std::hint::black_box(sys.answer_batch(&mixed));
        });

        let uncached_qps = repeated.len() as f64 / uncached_secs;
        let cold_qps = repeated.len() as f64 / cold_secs;
        let hot_qps = repeated.len() as f64 / hot_secs;
        let mixed_qps = mixed.len() as f64 / mixed_secs;
        let hot_speedup = uncached_secs / hot_secs;

        // Invalidation correctness + post-insert re-fill cost.
        let invalidation_start = Instant::now();
        let (question, before_count, after_count) = prove_invalidation(&mut workload);
        let sys = &workload.system;
        let refill_secs = {
            let start = Instant::now();
            std::hint::black_box(sys.answer_batch(&repeated));
            start.elapsed().as_secs_f64()
        };
        let invalidation_total = invalidation_start.elapsed().as_secs_f64();

        println!(
            "serving: {} records, {} distinct questions x{} repeats: uncached {:.0} q/s, \
             cold batch {:.0} q/s, hot {:.0} q/s ({:.0}x vs uncached), mixed {:.0} q/s",
            sys.database().total_records(),
            workload.questions.len(),
            REPEATS,
            uncached_qps,
            cold_qps,
            hot_qps,
            hot_speedup,
            mixed_qps,
        );
        println!(
            "invalidation: insert matching {question:?} -> exact {before_count} => {after_count}; \
             post-insert refill burst {:.2} ms",
            refill_secs * 1e3
        );

        let stats = sys.cache_stats();
        let invalidation_json = serde_json::json!({
            "question": question,
            "exact_before_insert": before_count,
            "exact_after_insert": after_count,
            "post_insert_refill_burst_ms": refill_secs * 1e3,
            "total_ms": invalidation_total * 1e3,
        });
        let cache_json = serde_json::json!({
            "hits": stats.hits,
            "misses": stats.misses,
            "stale_evictions": stats.stale_evictions,
            "capacity_evictions": stats.capacity_evictions,
            "entries": stats.entries,
            "shards": stats.shards,
        });
        let json = serde_json::json!({
            "bench": "serving",
            "hardware_threads": std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            "records": sys.database().total_records(),
            "distinct_questions": workload.questions.len(),
            "burst_len": repeated.len(),
            "iterations": iterations,
            "uncached_answer_in_domain_qps": uncached_qps,
            "cold_batch_qps": cold_qps,
            "hot_batch_qps": hot_qps,
            "mixed_batch_qps": mixed_qps,
            "hot_speedup_vs_uncached": hot_speedup,
            "invalidation": invalidation_json,
            "cache": cache_json,
        });
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
        std::fs::write(
            path,
            serde_json::to_string_pretty(&json).expect("serializable"),
        )
        .expect("write BENCH_serving.json");
        println!("wrote {path}");
    } else {
        // Smoke mode still proves the invalidation story end to end.
        let (_, before, after) = prove_invalidation(&mut workload);
        assert_eq!(after, before + 1);
    }

    let sys = &workload.system;
    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    group.bench_function("uncached_per_question", |b| {
        b.iter(|| {
            for q in repeated.iter().take(workload.questions.len()) {
                std::hint::black_box(sys.ask(q).domain("cars").uncached().get().unwrap());
            }
        })
    });
    group.bench_function("hot_batch", |b| {
        sys.answer_batch(&repeated);
        b.iter(|| std::hint::black_box(sys.answer_batch(&repeated)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
