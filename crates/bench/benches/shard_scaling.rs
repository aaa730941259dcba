//! Scatter-gather serving against the one-part baseline: the same cars
//! workload answered by a [`CqadsSystem`] whose records are dealt into
//! [`SHARD_COUNTS`] parts (`CqadsConfig::shards`) and by the default one-part
//! system.
//!
//! The soak is a Zipf-skewed read stream (question `i` drawn with weight
//! `1/(i+1)` from a seeded LCG, so a few hot questions dominate, as in the
//! paper's query-log traces) with one routed insert per [`INSERT_EVERY`]
//! answers — the write pattern whose cost the partition localises to a single
//! part. It runs twice per part count:
//!
//! * **Caches off** (`cache_capacity` 0 disables the answer cache and the
//!   per-part contribution caches alike), so each answer pays the full
//!   scatter → per-part engine → gather merge pipeline.
//!   `scatter_overhead_ratio` (= 2-part qps / one-part qps) is the gated
//!   metric: how much single-question throughput survives the scatter-gather
//!   detour. It is a ratio of two timings from the same run on the same box,
//!   so it transfers across machine classes the way absolute qps cannot.
//! * **Caches on** (the default config): the finer-invalidation soak. Every
//!   insert invalidates the whole answers of its domain, and beneath them
//!   only the written part's contributions; `ServingStats::contributions`
//!   must show both recomputed (miss) and reused (hit) contributions. Reported,
//!   not gated.
//!
//! Before any timing, every part count is asserted byte-identical to the
//! one-part answers for the whole question list — a fast wrong merge can
//! never win the gate.
//!
//! Results land in `BENCH_shard_scaling.json` at the workspace root
//! (skipped in `--test` smoke mode).

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

const TABLE_SIZE: usize = 4_000;
const DISTINCT_QUESTIONS: usize = 16;
const SOAK_OPS: usize = 400;
const INSERT_EVERY: usize = 25;
const SHARD_COUNTS: [usize; 2] = [2, 4];

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
    // Plain questions only: superlatives collapse the partial phase onto the
    // union view by design, which is a different (documented) code path than
    // the scatter this bench measures.
    let probe = system(CqadsConfig::default(), &spec, &ti, &ws, table_size);
    let table_ref = probe.database().table("cars").unwrap();
    let generated = generate_questions(&bp, table_ref, 120, 99, &QuestionMix::plain_only());
    let mut questions: Vec<String> = Vec::new();
    for q in generated {
        // The superlative check (not just the mix) is load-bearing: generated
        // phrasings like "cheapest ..." interpret as superlatives, which take
        // the union-view path instead of the scatter under measurement.
        match probe.ask(&q.text).domain("cars").uncached().get() {
            Ok(set)
                if set.interpretation.superlatives.is_empty() && !questions.contains(&q.text) =>
            {
                questions.push(q.text);
            }
            _ => {}
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

/// A system over the generated cars table.
fn system(
    config: CqadsConfig,
    spec: &cqads::DomainSpec,
    ti: &TIMatrix,
    ws: &WordSimMatrix,
    table_size: usize,
) -> CqadsSystem {
    let mut system = CqadsSystem::with_config(config);
    system.set_word_sim(ws.clone());
    system.add_domain(
        spec.clone(),
        generate_table(&blueprint("cars"), table_size, 4242),
        ti.clone(),
    );
    system
}

/// The system under measurement: `shards` parts (`None`: the one-part
/// default), caches on or off. Off, every answer recomputes — `cache_capacity`
/// 0 also disables the per-part contribution caches — so the timed phases
/// measure the scatter-gather pipeline rather than cache hits.
fn system_at(shards: Option<usize>, cached: bool, ing: &Ingredients) -> CqadsSystem {
    let mut config = CqadsConfig {
        shards,
        ..CqadsConfig::default()
    };
    if !cached {
        config.cache_capacity = 0;
    }
    config.validate().expect("bench config is valid");
    system(config, &ing.spec, &ing.ti, &ing.ws, ing.table_size)
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

/// Every part count must produce the same bytes as the one-part system for
/// the whole workload — asserted before any throughput is measured.
fn assert_byte_identical(reference: &CqadsSystem, sharded: &CqadsSystem, questions: &[String]) {
    let uncached = |system: &CqadsSystem, q: &str| system.ask(q).domain("cars").uncached().get();
    for q in questions {
        let want = uncached(reference, q).expect("workload question answers at one part");
        let got = uncached(sharded, q).expect("workload question answers sharded");
        let n = sharded.config().shards.unwrap_or(1);
        assert_eq!(want.sql, got.sql, "sql diverged at {n} shard(s) for {q:?}");
        assert_eq!(want.exact_count, got.exact_count);
        assert_eq!(want.answers.len(), got.answers.len());
        for (x, y) in want.answers.iter().zip(&got.answers) {
            assert_eq!(x.id, y.id, "answer order diverged at {n} shard(s)");
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.measure, y.measure);
            assert_eq!(x.rank_sim.to_bits(), y.rank_sim.to_bits());
        }
    }
}

/// Deterministic 64-bit LCG (Knuth's MMIX constants) driving the Zipf draw.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative Zipf weights over `n` ranks: rank `i` has weight `1/(i+1)`.
fn zipf_cumulative(n: usize) -> Vec<f64> {
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        total += 1.0 / (i as f64 + 1.0);
        cum.push(total);
    }
    cum
}

fn zipf_index(cum: &[f64], u: f64) -> usize {
    let target = u * cum.last().copied().unwrap_or(1.0);
    cum.partition_point(|&c| c < target).min(cum.len() - 1)
}

/// One step of the Zipf soak.
enum SoakOp {
    /// Answer question `i` of the workload.
    Read(usize),
    /// Insert one cloned template record.
    Insert,
}

struct SoakResult {
    read_qps: f64,
    inserts: usize,
    insert_ms_total: f64,
}

/// Run the Zipf soak: `ops` reads with one insert per `insert_every` reads,
/// all through the single `op` closure. Reads and inserts are timed in
/// separate buckets, so read qps gates on the scatter overhead this bench
/// exists to measure and not on insert cost. The inserts still interleave
/// with the reads, so every post-insert read runs against a freshly bumped
/// generation exactly as in a live write/read mix.
fn soak(ops: usize, insert_every: usize, cum: &[f64], mut op: impl FnMut(SoakOp)) -> SoakResult {
    let mut rng = Lcg(0x5eed_5ca1e);
    let mut read_secs = 0.0;
    let mut insert_secs = 0.0;
    let mut inserts = 0usize;
    for i in 0..ops {
        let q = zipf_index(cum, rng.next_f64());
        let start = Instant::now();
        op(SoakOp::Read(q));
        read_secs += start.elapsed().as_secs_f64();
        if (i + 1) % insert_every == 0 {
            let start = Instant::now();
            op(SoakOp::Insert);
            insert_secs += start.elapsed().as_secs_f64();
            inserts += 1;
        }
    }
    SoakResult {
        read_qps: ops as f64 / read_secs,
        inserts,
        insert_ms_total: insert_secs * 1e3,
    }
}

/// Soak `system`: Zipf reads through `ask` (served from the caches, or
/// computed from scratch when `cached` is off) beside routed inserts.
fn soak_system(
    system: &mut CqadsSystem,
    cached: bool,
    (ops, insert_every): (usize, usize),
    questions: &[String],
    template: &Record,
) -> SoakResult {
    let cum = zipf_cumulative(questions.len());
    soak(ops, insert_every, &cum, |op| match op {
        SoakOp::Read(q) => {
            let request = system.ask(&questions[q]).domain("cars");
            let request = if cached { request } else { request.uncached() };
            std::hint::black_box(request.get().expect("soak answer"));
        }
        SoakOp::Insert => {
            system
                .insert_record("cars", clone_record(template))
                .expect("soak insert");
        }
    })
}

fn bench(c: &mut Criterion) {
    let test_mode = c.is_test_mode();
    let ing = ingredients(if test_mode { 800 } else { TABLE_SIZE });
    let shape = if test_mode {
        (24, 8)
    } else {
        (SOAK_OPS, INSERT_EVERY)
    };
    let (ops, insert_every) = shape;

    // Identity first: no throughput number counts unless every part count
    // merges to the exact one-part bytes.
    let mut reference = system_at(None, false, &ing);
    for n in SHARD_COUNTS {
        assert_byte_identical(&reference, &system_at(Some(n), false, &ing), &ing.questions);
    }

    let first = reference.database().table("cars").unwrap().iter().next();
    let template = clone_record(first.expect("generated table is not empty").1);
    let questions = &ing.questions;

    // Caches off: the one-part baseline, then one soak per part count, each
    // over a fresh system so the insert streams are identical across phases.
    let unsharded = soak_system(&mut reference, false, shape, questions, &template);
    println!(
        "shard_scaling/one_part: {ops} reads, {} inserts ({:.1} ms), {:.0} qps",
        unsharded.inserts, unsharded.insert_ms_total, unsharded.read_qps
    );
    let mut sharded_results: Vec<(usize, SoakResult)> = Vec::new();
    for n in SHARD_COUNTS {
        let mut system = system_at(Some(n), false, &ing);
        let result = soak_system(&mut system, false, shape, questions, &template);
        println!(
            "shard_scaling/{n}_parts: {ops} reads, {} inserts ({:.1} ms), {:.0} qps",
            result.inserts, result.insert_ms_total, result.read_qps
        );
        sharded_results.push((n, result));
    }
    let scatter_overhead_ratio = sharded_results[0].1.read_qps / unsharded.read_qps;
    let hardware_threads = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    println!(
        "shard_scaling: scatter_overhead_ratio {scatter_overhead_ratio:.3}, \
         {hardware_threads} hardware thread(s)"
    );

    // Caches on: the finer-invalidation soak. Each insert makes every cached
    // whole answer stale; recomputing one reuses the untouched parts'
    // contributions and recomputes the written part's.
    let mut cached_soak = Vec::new();
    for n in SHARD_COUNTS {
        let mut system = system_at(Some(n), true, &ing);
        let result = soak_system(&mut system, true, shape, questions, &template);
        let stats = system.serving_stats();
        println!(
            "shard_scaling/{n}_parts cached: {:.0} qps, answers {}/{} hit, contributions {}/{} hit",
            result.read_qps,
            stats.cache.hits,
            stats.cache.hits + stats.cache.misses,
            stats.contributions.hits,
            stats.contributions.hits + stats.contributions.misses,
        );
        assert!(
            stats.contributions.hits > 0 && stats.contributions.misses > 0,
            "a single-part write must leave other parts' contributions reusable: {stats:?}"
        );
        cached_soak.push((
            n.to_string(),
            serde_json::json!({
                "read_qps": result.read_qps,
                "answer_hits": stats.cache.hits,
                "answer_misses": stats.cache.misses,
                "contribution_hits": stats.contributions.hits,
                "contribution_misses": stats.contributions.misses,
            }),
        ));
    }

    if !test_mode {
        let per_shard = serde_json::Value::Object(
            sharded_results
                .iter()
                .map(|(n, r)| (n.to_string(), serde_json::to_value(&r.read_qps)))
                .collect(),
        );
        let per_shard_insert_ms = serde_json::Value::Object(
            sharded_results
                .iter()
                .map(|(n, r)| {
                    (
                        n.to_string(),
                        serde_json::to_value(&(r.insert_ms_total / r.inserts.max(1) as f64)),
                    )
                })
                .collect(),
        );
        let json = serde_json::json!({
            "bench": "shard_scaling",
            "hardware_threads": hardware_threads,
            "records": ing.table_size,
            "distinct_questions": questions.len(),
            "soak_ops": ops,
            "insert_every": insert_every,
            "identity_checked_shard_counts": SHARD_COUNTS,
            "unsharded_read_qps": unsharded.read_qps,
            "unsharded_insert_ms_avg": unsharded.insert_ms_total / unsharded.inserts.max(1) as f64,
            "sharded_read_qps": per_shard,
            "sharded_insert_ms_avg": per_shard_insert_ms,
            "scatter_overhead_ratio": scatter_overhead_ratio,
            "cached_soak": serde_json::Value::Object(cached_soak),
        });
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_shard_scaling.json"
        );
        std::fs::write(
            path,
            serde_json::to_string_pretty(&json).expect("serializable"),
        )
        .expect("write BENCH_shard_scaling.json");
        println!("wrote {path}");
    }

    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    let system = system_at(Some(2), false, &ing);
    let q = questions[0].clone();
    group.bench_function("scatter_single_question", |b| {
        b.iter(|| {
            let request = system.ask(&q).domain("cars").uncached();
            std::hint::black_box(request.get().expect("criterion scatter answer"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
