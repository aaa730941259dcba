//! The one top-k bench: the production partial-match engine (index-driven, bounded,
//! value-ordered, id-sharded) at 1/2/4/8 workers over three ~100k-record tables.
//!
//! * **default** — the generated `cars` table and multi-condition generated
//!   questions: relaxations stream large posting-list intersections, the hot path the
//!   galloping advance and the sharded fan-out attack.
//! * **skewed** — a synthetic table whose relaxed column is drawn Zipf-style (value
//!   `k` with weight `1/(k+1)`): the values the questions probe sit on large posting
//!   lists, the top-k threshold saturates after a handful of value runs and the long
//!   tail is never scanned. The distribution real ad inventories follow.
//! * **uniform** — the same distinct values spread evenly: every posting list is the
//!   same size, the worst case for threshold pruning.
//!
//! The synthetic question mix covers the traversal's three shapes: single-condition
//! questions (the direct similarity scan collapses to pruned posting-list draining),
//! conjunctive questions (per-value streams leapfrog the remaining conditions) and
//! numeric-boundary questions (whose numeric relaxation keeps the exhaustive scan).
//!
//! Before anything is timed, every table's answers at every worker count are asserted
//! byte-identical to the full-scan oracle (`cqads::oracle`). Every pass is one batch
//! call (the serving shape: worker threads are spawned once per pass, not per
//! question). Medians land in `BENCH_partial_topk.json` at the workspace root
//! (skipped in `--test` smoke mode, which runs everything once on 5k-record tables).

// This target measures real wall time by design.
#![allow(clippy::disallowed_methods)]

use addb::{Executor, Record, RecordId, Schema, Table};
use cqads::oracle::full_scan_partial_answers;
use cqads::tagging::Tagger;
use cqads::translate::{interpret, Interpretation};
use cqads::{
    DomainSpec, PartialAnswer, PartialBatchRequest, PartialMatchOptions, PartialMatcher,
    SimilarityModel,
};
use cqads_datagen::{
    affinity_model, blueprint, generate_questions, generate_table, topic_groups, QuestionMix,
};
use cqads_querylog::{generate_log, LogGeneratorConfig, TIMatrix};
use cqads_wordsim::{CorpusSpec, SyntheticCorpus, WordSimMatrix};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

const TABLE_SIZE: usize = 100_000;
const BUDGET: usize = 30;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Workload {
    spec: DomainSpec,
    sim: SimilarityModel,
    table: Table,
    /// Interpreted question + the exact-answer exclusion set the pipeline would use.
    questions: Vec<(Interpretation, HashSet<RecordId>)>,
}

/// The exact answers the pipeline would exclude from the partial phase.
fn exact_ids(
    interp: &Interpretation,
    spec: &DomainSpec,
    table: &Table,
) -> Option<HashSet<RecordId>> {
    let query = interp.to_query_with_limit(spec, BUDGET).ok()?;
    let answers = Executor::new(table).execute(&query).ok()?;
    Some(answers.into_iter().map(|a| a.id).collect())
}

/// The generated `cars` table with generated multi-condition questions.
fn build_default(table_size: usize) -> Workload {
    let bp = blueprint("cars");
    let table = generate_table(&bp, table_size, 4242);
    let log = generate_log(
        &affinity_model(&bp),
        &LogGeneratorConfig {
            sessions: 400,
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
    let sim = SimilarityModel::new(
        Arc::new(TIMatrix::build(&log)),
        Arc::new(WordSimMatrix::build(&corpus)),
        spec.schema.clone(),
    );
    let tagger = Tagger::new(&spec);

    let generated = generate_questions(&bp, &table, 80, 99, &QuestionMix::plain_only());
    let mut questions = Vec::new();
    for q in &generated {
        let Ok(interp) = interpret(&tagger.tag(&q.text), &spec) else {
            continue;
        };
        if interp.all_sketches().len() < 2 {
            continue;
        }
        let Some(exact) = exact_ids(&interp, &spec, &table) else {
            continue;
        };
        questions.push((interp, exact));
        if questions.len() == 25 {
            break;
        }
    }
    assert!(
        questions.len() >= 10,
        "workload too small: only {} usable questions",
        questions.len()
    );
    Workload {
        spec,
        sim,
        table,
        questions,
    }
}

// ---------------------------------------------------------------------------
// Synthetic skewed / uniform tables
// ---------------------------------------------------------------------------

const MAKES: usize = 12;
const MODELS: usize = 300;
const COLORS: usize = 24;

/// Models the synthetic questions probe: spread across the skew so posting-list
/// sizes differ.
const QUESTION_MODELS: &[usize] = &[0, 1, 3, 9, 40, 120, 250];

/// Deterministic xorshift so both distributions are reproducible without a rand dep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn uniform(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn make_name(i: usize) -> String {
    format!("zeta{i}")
}

fn model_name(i: usize) -> String {
    format!("karma{i}")
}

fn color_name(i: usize) -> String {
    format!("teal{i}")
}

fn synthetic_spec() -> DomainSpec {
    let schema = Schema::builder("ads")
        .type1("make")
        .type1("model")
        .type2("color")
        .type3("price", 500.0, 120_000.0, Some("usd"))
        .build()
        .unwrap();
    let mut spec = DomainSpec::new(schema);
    for i in 0..MAKES {
        spec.add_type1_value("make", &make_name(i));
    }
    for i in 0..MODELS {
        spec.add_type1_value("model", &model_name(i));
    }
    for i in 0..COLORS {
        spec.add_type2_value("color", &color_name(i));
    }
    spec.add_type3_keyword("price", "dollars");
    spec.set_price_attribute("price");
    spec
}

/// Zipf-ish cumulative weights over `n` values (weight of value `k` is `1/(k+1)`).
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf = Vec::with_capacity(n);
    for k in 0..n {
        acc += 1.0 / (k + 1) as f64;
        cdf.push(acc);
    }
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

fn synthetic_table(spec: &DomainSpec, rows: usize, skewed: bool) -> Table {
    let mut table = Table::new(spec.schema.clone());
    let mut rng = Rng(0x5EED_1234 | 1);
    let model_cdf = zipf_cdf(MODELS);
    let color_cdf = zipf_cdf(COLORS);
    let pick = |cdf: &[f64], rng: &mut Rng| -> usize {
        let u = rng.f64();
        cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
    };
    for _ in 0..rows {
        let model = if skewed {
            pick(&model_cdf, &mut rng)
        } else {
            rng.uniform(MODELS)
        };
        let color = if skewed {
            pick(&color_cdf, &mut rng)
        } else {
            rng.uniform(COLORS)
        };
        table
            .insert(
                Record::builder()
                    .text("make", make_name(rng.uniform(MAKES)))
                    .text("model", model_name(model))
                    .text("color", color_name(color))
                    .number("price", 500.0 + rng.f64() * 119_500.0)
                    .build(),
            )
            .unwrap();
    }
    table
}

/// TI/WS matrices relating the question values to a spread of others, so the value
/// orders contain genuinely graded similarities (a dozen related values per probe,
/// everything else at zero).
fn synthetic_similarity(spec: &DomainSpec) -> SimilarityModel {
    let mut ti = TIMatrix::default();
    for &q in QUESTION_MODELS {
        for step in 1..=12usize {
            let other = (q + step * 7) % MODELS;
            let weight = 4.8 - 0.35 * step as f64;
            ti.insert(&model_name(q), &model_name(other), weight.max(0.1));
        }
    }
    for a in 0..MAKES {
        ti.insert(&make_name(a), &make_name((a + 1) % MAKES), 2.0);
    }
    let mut ws = WordSimMatrix::default();
    for c in 0..COLORS {
        ws.insert(&color_name(c), &color_name((c + 1) % COLORS), 0.8);
        ws.insert(&color_name(c), &color_name((c + 2) % COLORS), 0.4);
    }
    SimilarityModel::new(Arc::new(ti), Arc::new(ws), spec.schema.clone())
}

fn build_synthetic(rows: usize, skewed: bool) -> Workload {
    let spec = synthetic_spec();
    let table = synthetic_table(&spec, rows, skewed);
    let sim = synthetic_similarity(&spec);
    let tagger = Tagger::new(&spec);
    let mut texts = Vec::new();
    for &m in QUESTION_MODELS {
        // Single condition: the direct similarity scan, pruning's marquee case.
        texts.push(model_name(m));
        // Two equality conditions: per-value streams leapfrog the make conjunction.
        texts.push(format!("{} {}", make_name(m % MAKES), model_name(m)));
        // Color + model: Type II relaxation scores through the WS matrix.
        texts.push(format!("{} {}", color_name(m % COLORS), model_name(m)));
        // Numeric boundary: the price relaxation takes the exhaustive scan.
        texts.push(format!(
            "{} {} under 60000 dollars",
            make_name((m + 3) % MAKES),
            model_name(m)
        ));
    }
    let questions: Vec<_> = texts
        .iter()
        .map(|text| {
            let interp = interpret(&tagger.tag(text), &spec)
                .unwrap_or_else(|e| panic!("question {text:?} failed to interpret: {e:?}"));
            let exact = exact_ids(&interp, &spec, &table).unwrap_or_default();
            (interp, exact)
        })
        .collect();
    assert!(questions.len() >= 20, "workload too small");
    Workload {
        spec,
        sim,
        table,
        questions,
    }
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

fn matcher(workload: &Workload, workers: usize) -> PartialMatcher<'_> {
    PartialMatcher::with_options(
        &workload.spec,
        &workload.sim,
        PartialMatchOptions { workers },
    )
}

/// One pass: every workload question through the matcher as one batch.
fn run_all(matcher: &PartialMatcher<'_>, workload: &Workload) -> Vec<Vec<PartialAnswer>> {
    let requests: Vec<PartialBatchRequest<'_>> = workload
        .questions
        .iter()
        .map(|(interp, exact)| PartialBatchRequest {
            interpretation: interp,
            exclude: exact,
            budget: BUDGET,
        })
        .collect();
    matcher
        .partial_answers_batch_budgeted(&requests, &workload.table, None)
        .expect("partial matching succeeds")
        .into_iter()
        .map(|outcome| outcome.answers)
        .collect()
}

/// Byte-identity with the oracle at every worker count is a precondition of the
/// measurement. Returns the answers per pass.
fn assert_matches_oracle(name: &str, workload: &Workload) -> usize {
    let expected: Vec<Vec<PartialAnswer>> = workload
        .questions
        .iter()
        .map(|(interp, exact)| {
            full_scan_partial_answers(
                &workload.spec,
                &workload.sim,
                interp,
                &workload.table,
                exact,
                BUDGET,
            )
            .expect("oracle succeeds")
        })
        .collect();
    for workers in WORKER_COUNTS {
        let got = run_all(&matcher(workload, workers), workload);
        assert_eq!(got.len(), expected.len(), "{name}: question count");
        for (q, (x, y)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(x.len(), y.len(), "{name}: {workers}w question {q} count");
            for (p, r) in x.iter().zip(y) {
                assert!(
                    p.bits_eq(r),
                    "{name}: {workers}w question {q}: {p:?} != {r:?}"
                );
            }
        }
    }
    expected.iter().map(Vec::len).sum()
}

fn time_median(iterations: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warmup
    let mut samples: Vec<f64> = (0..iterations)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

fn bench(c: &mut Criterion) {
    let test_mode = c.is_test_mode();
    let rows = if test_mode { 5_000 } else { TABLE_SIZE };
    let workloads = [
        ("default", build_default(rows)),
        ("skewed", build_synthetic(rows, true)),
        ("uniform", build_synthetic(rows, false)),
    ];
    let answers_per_pass: Vec<usize> = workloads
        .iter()
        .map(|(name, workload)| assert_matches_oracle(name, workload))
        .collect();

    if !test_mode {
        let iterations = 7usize;
        // Per table: milliseconds per pass at each worker count, as JSON.
        let mut workers_ms: Vec<serde_json::Value> = Vec::new();
        let mut one_worker_ms: Vec<f64> = Vec::new();
        for (name, workload) in &workloads {
            let ms: Vec<(usize, f64)> = WORKER_COUNTS
                .iter()
                .map(|&workers| {
                    let matcher = matcher(workload, workers);
                    let secs = time_median(iterations, || {
                        std::hint::black_box(run_all(&matcher, workload));
                    });
                    (workers, secs * 1e3)
                })
                .collect();
            println!(
                "partial_topk[{name}]: {} records, {} questions, budget {BUDGET}: {}",
                workload.table.len(),
                workload.questions.len(),
                ms.iter()
                    .map(|(w, ms)| format!("{w}w {ms:.2} ms/pass"))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            one_worker_ms.push(ms[0].1);
            workers_ms.push(serde_json::Value::Object(
                ms.iter()
                    .map(|(w, ms)| (w.to_string(), serde_json::to_value(ms)))
                    .collect(),
            ));
        }
        let synthetic = |i: usize| {
            serde_json::json!({
                "questions": workloads[i].1.questions.len(),
                "partial_answers_per_pass": answers_per_pass[i],
                "ms_per_pass": one_worker_ms[i],
                "workers_ms_per_pass": workers_ms[i].clone(),
            })
        };
        let json = serde_json::json!({
            "bench": "partial_topk",
            "hardware_threads": std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            "records": workloads[0].1.table.len(),
            "budget": BUDGET,
            "iterations": iterations,
            "questions": workloads[0].1.questions.len(),
            "partial_answers_per_pass": answers_per_pass[0],
            "workers_ms_per_pass": workers_ms[0].clone(),
            "skewed": synthetic(1),
            "uniform": synthetic(2),
        });
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_partial_topk.json");
        std::fs::write(
            path,
            serde_json::to_string_pretty(&json).expect("serializable"),
        )
        .expect("write BENCH_partial_topk.json");
        println!("wrote {path}");
    }

    let mut group = c.benchmark_group("partial_topk");
    group.sample_size(10);
    for (name, workload) in &workloads {
        for workers in WORKER_COUNTS {
            let matcher = matcher(workload, workers);
            group.bench_function(format!("{name}_{workers}w"), |b| {
                b.iter(|| std::hint::black_box(run_all(&matcher, workload)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
