//! Equivalence of the bounded top-k partial-match engine with the original
//! full-scan/full-sort pipeline (kept as `cqads::oracle::full_scan_partial_answers`),
//! and of the id-sharded parallel engine with the sequential one.
//!
//! The deterministic randomized sweep below generates seeded datagen tables and
//! question workloads across several domains, interprets every question exactly as the
//! pipeline would, and asserts that engine and oracle return **byte-identical**
//! `(id, rank_sim, measure, relaxed_condition)` sequences for a spread of budgets and
//! exclusion sets — including the edge cases the top-k collector has to get right:
//! budget 0, budget larger than the match set, and every candidate excluded.

use cqads_suite::addb::{Record, RecordId, Schema, Table};
use cqads_suite::cqads::oracle::full_scan_partial_answers;
use cqads_suite::cqads::tagging::Tagger;
use cqads_suite::cqads::translate::{interpret, Interpretation};
use cqads_suite::cqads::{DomainSpec, PartialMatchOptions, PartialMatcher, SimilarityModel};
use cqads_suite::datagen::{
    affinity_model, blueprint, generate_questions, generate_table, topic_groups, DomainBlueprint,
    QuestionMix, ValuePool,
};
use cqads_suite::querylog::{generate_log, LogGeneratorConfig, TIMatrix};
use cqads_suite::wordsim::{CorpusSpec, SyntheticCorpus, WordSimMatrix};
use std::collections::HashSet;
use std::sync::Arc;

/// Compare two answer sequences for *byte* equality of the score
/// ([`cqads_suite::cqads::PartialAnswer::bits_eq`], the shared contract).
fn assert_identical(
    fast: &[cqads_suite::cqads::PartialAnswer],
    slow: &[cqads_suite::cqads::PartialAnswer],
    context: &str,
) {
    assert_eq!(fast.len(), slow.len(), "answer count diverged: {context}");
    for (i, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert!(
            a.bits_eq(b),
            "diverged at rank {i}: {context}: {a:?} != {b:?}"
        );
    }
}

/// How many of a sweep's questions compiled to a disjunction and to a negation —
/// the two shapes the executor streams as lazy union / complement cursors — and how
/// many superlatives reached the degree-of-match fallback (a superlative relaxation
/// keeps only its extreme, which is what starves the index pass on real pools).
/// Every sweep must draw all three.
#[derive(Default)]
struct BooleanShapes {
    or: usize,
    negated: usize,
    superlative_fallback: usize,
}

impl BooleanShapes {
    /// Note one question, asked with `exact` excluded at up to `budget` answers.
    fn note(
        &mut self,
        interp: &Interpretation,
        spec: &DomainSpec,
        table: &Table,
        exact: &HashSet<RecordId>,
        budget: usize,
    ) {
        let sql = interp.to_sql(spec).unwrap_or_default();
        self.or += usize::from(sql.contains(") OR ("));
        self.negated += usize::from(sql.contains("NOT ("));
        self.superlative_fallback += usize::from(
            !interp.superlatives.is_empty() && reaches_fallback(interp, spec, table, exact, budget),
        );
    }

    fn assert_all_drawn(&self, sweep: &str) {
        assert!(
            self.or > 0 && self.negated > 0 && self.superlative_fallback > 0,
            "{sweep}: drew {} OR, {} negated and {} superlative questions reaching the fallback",
            self.or,
            self.negated,
            self.superlative_fallback
        );
    }
}

/// "cheapest" plus the first Type I and Type II values of record 0: every relaxation
/// keeps one extreme, so the question reaches the fallback — a shape a few dozen
/// default-mix draws may miss.
fn superlative_question(bp: &DomainBlueprint, table: &Table) -> String {
    let record = table.get(RecordId(0)).unwrap();
    let first = |pools: &[ValuePool]| {
        pools
            .iter()
            .find_map(|pool| record.get_text(pool.attribute))
    };
    let values: Vec<&str> = [first(&bp.type1), first(&bp.type2)]
        .into_iter()
        .flatten()
        .collect();
    format!("cheapest {}", values.join(" "))
}

/// Does the engine fall back to degree of match? It does for a question of two or
/// more conditions whose relaxations find fewer than `budget` records beyond the
/// exact answers (the oracle's rule, restated over the executor).
fn reaches_fallback(
    interp: &Interpretation,
    spec: &DomainSpec,
    table: &Table,
    exact: &HashSet<RecordId>,
    budget: usize,
) -> bool {
    let conditions = interp.all_sketches().len();
    let executor = cqads_suite::addb::Executor::new(table);
    let mut found = HashSet::new();
    for skip in 0..conditions {
        let Ok(query) = interp.to_query_excluding(spec, skip) else {
            continue;
        };
        let Ok(answers) = executor.execute(&query.with_limit(usize::MAX)) else {
            continue;
        };
        found.extend(
            answers
                .into_iter()
                .map(|a| a.id)
                .filter(|id| !exact.contains(id)),
        );
    }
    conditions >= 2 && found.len() < budget
}

#[test]
fn topk_engine_matches_full_sort_across_seeded_workloads() {
    for (domain, table_seed, question_seed) in [
        ("cars", 11_u64, 21_u64),
        ("jewellery", 12, 22),
        ("furniture", 13, 23),
    ] {
        let bp = blueprint(domain);
        let table = generate_table(&bp, 400, table_seed);
        let log = generate_log(
            &affinity_model(&bp),
            &LogGeneratorConfig {
                sessions: 150,
                seed: table_seed ^ 0xA5A5,
                ..Default::default()
            },
        );
        let ti = TIMatrix::build(&log);
        let corpus = SyntheticCorpus::generate(
            &topic_groups(&bp),
            &CorpusSpec {
                documents: 80,
                ..CorpusSpec::default()
            },
        );
        let ws = WordSimMatrix::build(&corpus);
        let spec = bp.to_spec();
        let sim = SimilarityModel::new(Arc::new(ti), Arc::new(ws), spec.schema.clone());
        let tagger = Tagger::new(&spec);

        let fast = PartialMatcher::new(&spec, &sim);

        let mut questions: Vec<String> =
            generate_questions(&bp, &table, 60, question_seed, &QuestionMix::default())
                .into_iter()
                .map(|q| q.text)
                .collect();
        questions.push(superlative_question(&bp, &table));
        let mut compared = 0usize;
        let mut shapes = BooleanShapes::default();
        for text in &questions {
            let Ok(interp) = interpret(&tagger.tag(text), &spec) else {
                continue;
            };
            // The same exclusion the pipeline would apply: the exact answers.
            let exact: HashSet<RecordId> = {
                let query = interp.to_query_with_limit(&spec, 30).unwrap();
                cqads_suite::addb::Executor::new(&table)
                    .execute(&query)
                    .map(|answers| answers.into_iter().map(|a| a.id).collect())
                    .unwrap_or_default()
            };
            shapes.note(&interp, &spec, &table, &exact, table.len() + 10);
            for budget in [1usize, 5, 30, table.len() + 10] {
                let a = fast
                    .partial_answers(&interp, &table, &exact, budget)
                    .unwrap();
                let b = full_scan_partial_answers(&spec, &sim, &interp, &table, &exact, budget)
                    .unwrap();
                assert_identical(
                    &a,
                    &b,
                    &format!("domain {domain}, question {text:?}, budget {budget}"),
                );
                compared += 1;
            }
        }
        assert!(
            compared >= 100,
            "expected a substantive sweep for {domain}, compared only {compared}"
        );
        shapes.assert_all_drawn(domain);
    }
}

// ---------------------------------------------------------------------------
// Synthetic skewed / uniform tables: the mega posting lists 400-record datagen
// tables never build — what `TopK`'s ascending-run fast path and the
// equal-similarity `ScoredUnion` runs exist for.
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

/// `skewed`: the relaxed columns are drawn Zipf-style, so the probed values sit on
/// large posting lists and the top-k threshold saturates after a handful of value
/// runs. Otherwise every posting list is the same size — the worst case for
/// threshold pruning.
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

/// One table, its models and the question texts to sweep.
struct Workload {
    name: &'static str,
    spec: DomainSpec,
    sim: SimilarityModel,
    table: Table,
    questions: Vec<String>,
}

fn build_synthetic(rows: usize, skewed: bool) -> Workload {
    let spec = synthetic_spec();
    let table = synthetic_table(&spec, rows, skewed);
    let sim = synthetic_similarity(&spec);
    let mut questions = Vec::new();
    for &m in QUESTION_MODELS {
        // Single condition: the direct similarity scan, pruning's marquee case.
        questions.push(model_name(m));
        // Two equality conditions: per-value streams leapfrog the make conjunction.
        questions.push(format!("{} {}", make_name(m % MAKES), model_name(m)));
        // Color + model: Type II relaxation scores through the WS matrix.
        questions.push(format!("{} {}", color_name(m % COLORS), model_name(m)));
        // Numeric boundary: the price relaxation takes the exhaustive scan.
        questions.push(format!(
            "{} {} under 60000 dollars",
            make_name((m + 3) % MAKES),
            model_name(m)
        ));
    }
    // A disjunction and a negation: the relaxations stream through the lazy union
    // and complement cursors, over the mega posting lists.
    let (m, other) = (QUESTION_MODELS[1], QUESTION_MODELS[4]);
    questions.push(format!(
        "{} {} or {}",
        color_name(m % COLORS),
        model_name(m),
        model_name(other)
    ));
    questions.push(format!(
        "{} {} not {}",
        make_name(m % MAKES),
        model_name(m),
        color_name(m % COLORS)
    ));
    // A superlative: each relaxation keeps one extreme, so the degree-of-match
    // fallback tops the page up — from the index, over the mega posting lists.
    let m = QUESTION_MODELS[2];
    questions.push(format!(
        "cheapest {} {} {}",
        make_name(m % MAKES),
        model_name(m),
        color_name(m % COLORS)
    ));
    Workload {
        name: if skewed { "skewed" } else { "uniform" },
        spec,
        sim,
        table,
        questions,
    }
}

fn build_datagen(domain: &'static str, table_seed: u64, question_seed: u64) -> Workload {
    let bp = blueprint(domain);
    let table = generate_table(&bp, 400, table_seed);
    let log = generate_log(
        &affinity_model(&bp),
        &LogGeneratorConfig {
            sessions: 120,
            seed: table_seed ^ 0x3C3C,
            ..Default::default()
        },
    );
    let ti = TIMatrix::build(&log);
    let corpus = SyntheticCorpus::generate(
        &topic_groups(&bp),
        &CorpusSpec {
            documents: 60,
            ..CorpusSpec::default()
        },
    );
    let ws = WordSimMatrix::build(&corpus);
    let spec = bp.to_spec();
    let sim = SimilarityModel::new(Arc::new(ti), Arc::new(ws), spec.schema.clone());
    let mut questions: Vec<String> =
        generate_questions(&bp, &table, 40, question_seed, &QuestionMix::default())
            .into_iter()
            .map(|q| q.text)
            .collect();
    questions.push(superlative_question(&bp, &table));
    Workload {
        name: domain,
        spec,
        sim,
        table,
        questions,
    }
}

/// The value-ordered (WAND-style) pruned traversal is byte-identical to the full-scan
/// oracle across seeded workloads, budgets (the pruning thresholds) and worker
/// counts — the sharded variant prunes against each worker's private (lower)
/// threshold, which must still be lossless. Datagen tables carry the question
/// variety; the synthetic tables carry the posting-list sizes.
#[test]
fn wand_traversal_matches_the_oracle_across_seeded_workloads() {
    let sweeps: [(Workload, &[usize], &[usize]); 4] = [
        (build_datagen("cars", 61, 71), &[1, 3], &[1, 7, 30, 500]),
        (
            build_datagen("furniture", 62, 72),
            &[1, 3],
            &[1, 7, 30, 500],
        ),
        (build_synthetic(5_000, true), &[1, 2, 4, 8], &[1, 30]),
        (build_synthetic(5_000, false), &[1, 2, 4, 8], &[1, 30]),
    ];
    for (workload, worker_counts, budgets) in &sweeps {
        let Workload {
            name,
            spec,
            sim,
            table,
            questions,
        } = workload;
        let tagger = Tagger::new(spec);
        let mut compared = 0usize;
        let mut shapes = BooleanShapes::default();
        for text in questions {
            let Ok(interp) = interpret(&tagger.tag(text), spec) else {
                continue;
            };
            let exact: HashSet<RecordId> = {
                let query = interp.to_query_with_limit(spec, 30).unwrap();
                cqads_suite::addb::Executor::new(table)
                    .execute(&query)
                    .map(|answers| answers.into_iter().map(|a| a.id).collect())
                    .unwrap_or_default()
            };
            let largest = budgets.iter().copied().max().unwrap_or(0);
            shapes.note(&interp, spec, table, &exact, largest);
            for &budget in *budgets {
                let b =
                    full_scan_partial_answers(spec, sim, &interp, table, &exact, budget).unwrap();
                for &workers in *worker_counts {
                    let wand =
                        PartialMatcher::with_options(spec, sim, PartialMatchOptions { workers });
                    let a = wand
                        .partial_answers(&interp, table, &exact, budget)
                        .unwrap();
                    assert_identical(
                        &a,
                        &b,
                        &format!("{name}, question {text:?}, workers {workers}, budget {budget}"),
                    );
                    compared += 1;
                }
            }
        }
        assert!(
            compared >= 100,
            "expected a substantive WAND sweep for {name}, compared only {compared}"
        );
        shapes.assert_all_drawn(name);
    }
}

/// The id-sharded parallel engine is byte-identical to the sequential engine for
/// every worker count, across randomized datagen tables and question workloads —
/// including sparse questions that trigger the degree-of-match fallback and workers
/// far exceeding any shard's useful size.
#[test]
fn parallel_workers_match_sequential_across_seeded_workloads() {
    for (domain, table_seed, question_seed) in [("cars", 31_u64, 41_u64), ("jewellery", 32, 42)] {
        let bp = blueprint(domain);
        let table = generate_table(&bp, 350, table_seed);
        let log = generate_log(
            &affinity_model(&bp),
            &LogGeneratorConfig {
                sessions: 120,
                seed: table_seed ^ 0x5A5A,
                ..Default::default()
            },
        );
        let ti = TIMatrix::build(&log);
        let corpus = SyntheticCorpus::generate(
            &topic_groups(&bp),
            &CorpusSpec {
                documents: 60,
                ..CorpusSpec::default()
            },
        );
        let ws = WordSimMatrix::build(&corpus);
        let spec = bp.to_spec();
        let sim = SimilarityModel::new(Arc::new(ti), Arc::new(ws), spec.schema.clone());
        let tagger = Tagger::new(&spec);

        let sequential =
            PartialMatcher::with_options(&spec, &sim, PartialMatchOptions { workers: 1 });
        let mut questions: Vec<String> =
            generate_questions(&bp, &table, 40, question_seed, &QuestionMix::default())
                .into_iter()
                .map(|q| q.text)
                .collect();
        questions.push(superlative_question(&bp, &table));
        let mut compared = 0usize;
        let mut shapes = BooleanShapes::default();
        for text in &questions {
            let Ok(interp) = interpret(&tagger.tag(text), &spec) else {
                continue;
            };
            let exact: HashSet<RecordId> = {
                let query = interp.to_query_with_limit(&spec, 30).unwrap();
                cqads_suite::addb::Executor::new(&table)
                    .execute(&query)
                    .map(|answers| answers.into_iter().map(|a| a.id).collect())
                    .unwrap_or_default()
            };
            shapes.note(&interp, &spec, &table, &exact, 30);
            for workers in [2usize, 8] {
                let parallel = PartialMatcher::with_options(
                    &spec,
                    &sim,
                    PartialMatchOptions {
                        workers,
                        ..PartialMatchOptions::default()
                    },
                );
                for budget in [1usize, 7, 30] {
                    let a = parallel
                        .partial_answers(&interp, &table, &exact, budget)
                        .unwrap();
                    let b = sequential
                        .partial_answers(&interp, &table, &exact, budget)
                        .unwrap();
                    assert_identical(
                        &a,
                        &b,
                        &format!("domain {domain}, question {text:?}, workers {workers}, budget {budget}"),
                    );
                    compared += 1;
                }
            }
        }
        assert!(
            compared >= 100,
            "expected a substantive parallel sweep for {domain}, compared only {compared}"
        );
        shapes.assert_all_drawn(domain);
    }
}

/// The batch API is element-wise byte-identical to per-question calls, for every
/// worker count and across mixed budgets (including zero).
#[test]
fn batch_api_matches_per_question_calls() {
    use cqads_suite::cqads::PartialBatchRequest;
    let bp = blueprint("cars");
    let table = generate_table(&bp, 300, 17);
    let log = generate_log(
        &affinity_model(&bp),
        &LogGeneratorConfig {
            sessions: 100,
            seed: 23,
            ..Default::default()
        },
    );
    let ti = TIMatrix::build(&log);
    let spec = bp.to_spec();
    let sim = SimilarityModel::new(
        Arc::new(ti),
        Arc::new(WordSimMatrix::default()),
        spec.schema.clone(),
    );
    let tagger = Tagger::new(&spec);
    let questions = generate_questions(&bp, &table, 20, 29, &QuestionMix::default());
    let interps: Vec<_> = questions
        .iter()
        .filter_map(|q| interpret(&tagger.tag(&q.text), &spec).ok())
        .collect();
    assert!(interps.len() >= 8, "workload too small");
    let none = HashSet::new();
    let some: HashSet<RecordId> = [RecordId(1), RecordId(5)].into_iter().collect();
    let requests: Vec<PartialBatchRequest<'_>> = interps
        .iter()
        .enumerate()
        .map(|(i, interp)| PartialBatchRequest {
            interpretation: interp,
            exclude: if i % 2 == 0 { &none } else { &some },
            budget: [0usize, 1, 7, 30][i % 4],
        })
        .collect();
    for workers in [1usize, 2, 8] {
        let matcher = PartialMatcher::with_options(&spec, &sim, PartialMatchOptions { workers });
        let batched = matcher
            .partial_answers_batch_budgeted(&requests, &table, None)
            .unwrap();
        assert_eq!(batched.len(), requests.len());
        for (r, outcome) in requests.iter().zip(&batched) {
            let single = matcher
                .partial_answers(r.interpretation, &table, r.exclude, r.budget)
                .unwrap();
            assert_identical(
                &outcome.answers,
                &single,
                &format!("batch vs single, workers {workers}, budget {}", r.budget),
            );
        }
    }
}

/// The serving front-end (`CqadsSystem::answer_batch`) is byte-identical to
/// per-question uncached asks against the classified domain — for the full answer sets (exact + partial,
/// sql, counts), across worker counts, with the cache cold and hot.
#[test]
fn answer_batch_matches_per_question_uncached_asks() {
    use cqads_suite::cqads::{CqadsConfig, CqadsSystem};

    fn assert_sets_identical(
        batch: &cqads_suite::cqads::AnswerSet,
        single: &cqads_suite::cqads::AnswerSet,
        context: &str,
    ) {
        assert_eq!(batch.domain, single.domain, "domain diverged: {context}");
        assert_eq!(batch.sql, single.sql, "sql diverged: {context}");
        assert_eq!(
            batch.exact_count, single.exact_count,
            "exact count diverged: {context}"
        );
        assert_eq!(
            batch.answers.len(),
            single.answers.len(),
            "answer count diverged: {context}"
        );
        for (i, (a, b)) in batch.answers.iter().zip(&single.answers).enumerate() {
            assert_eq!(a.id, b.id, "id diverged at rank {i}: {context}");
            assert_eq!(a.kind, b.kind, "kind diverged at rank {i}: {context}");
            assert_eq!(
                a.rank_sim.to_bits(),
                b.rank_sim.to_bits(),
                "rank_sim diverged at rank {i}: {context}"
            );
            assert_eq!(
                a.measure, b.measure,
                "measure diverged at rank {i}: {context}"
            );
        }
    }

    for workers in [0usize, 2] {
        let mut system = CqadsSystem::with_config(CqadsConfig {
            partial_workers: workers,
            ..CqadsConfig::default()
        });
        let bp = blueprint("cars");
        let table = generate_table(&bp, 400, 51);
        let log = generate_log(
            &affinity_model(&bp),
            &LogGeneratorConfig {
                sessions: 150,
                seed: 52,
                ..Default::default()
            },
        );
        let corpus = SyntheticCorpus::generate(
            &topic_groups(&bp),
            &CorpusSpec {
                documents: 80,
                ..CorpusSpec::default()
            },
        );
        system.set_word_sim(WordSimMatrix::build(&corpus));
        system.add_domain(bp.to_spec(), table, TIMatrix::build(&log));

        let table_ref = system.database().table("cars").unwrap();
        let questions: Vec<String> =
            generate_questions(&bp, table_ref, 40, 53, &QuestionMix::default())
                .into_iter()
                .map(|q| q.text)
                .collect();
        // Burst with deliberate repeats so the dedup path is exercised.
        let mut burst: Vec<&str> = questions.iter().map(String::as_str).collect();
        burst.extend(questions.iter().take(10).map(String::as_str));

        let batched = system.answer_batch(&burst);
        assert_eq!(batched.len(), burst.len());
        let mut compared = 0usize;
        for (q, outcome) in burst.iter().zip(&batched) {
            let domain = system.classify(q).unwrap();
            let single = system.ask(q).domain(&domain).uncached().get();
            match (outcome, single) {
                (Ok(batch_set), Ok(single_set)) => {
                    assert_sets_identical(
                        batch_set,
                        &single_set,
                        &format!("workers {workers}, question {q:?}"),
                    );
                    compared += 1;
                }
                (Err(a), Err(b)) => assert_eq!(a, &b, "errors diverged for {q:?}"),
                (a, b) => panic!("outcome mismatch for {q:?}: batch {a:?} vs single {b:?}"),
            }
        }
        assert!(compared >= 20, "sweep too small: {compared}");

        // A hot second burst (pure cache hits) still matches the uncached path.
        let hot = system.answer_batch(&burst[..10]);
        for (q, outcome) in burst[..10].iter().zip(&hot) {
            if let Ok(batch_set) = outcome {
                let domain = system.classify(q).unwrap();
                let single = system.ask(q).domain(&domain).uncached().get().unwrap();
                assert_sets_identical(batch_set, &single, &format!("hot, question {q:?}"));
            }
        }
        assert!(
            system.cache_stats().hits > 0,
            "hot burst never hit the cache"
        );
    }
}

#[test]
fn edge_cases_budget_zero_oversized_and_all_excluded() {
    let bp = blueprint("cars");
    let table = generate_table(&bp, 120, 7);
    let spec = bp.to_spec();
    let sim = SimilarityModel::new(
        Arc::new(TIMatrix::default()),
        Arc::new(WordSimMatrix::default()),
        spec.schema.clone(),
    );
    let tagger = Tagger::new(&spec);
    let interp = interpret(&tagger.tag("blue honda accord under 20000 dollars"), &spec).unwrap();
    let fast = PartialMatcher::new(&spec, &sim);
    let slow = |exclude: &HashSet<RecordId>, budget: usize| {
        full_scan_partial_answers(&spec, &sim, &interp, &table, exclude, budget).unwrap()
    };

    // Budget 0 returns nothing from either engine.
    let none = HashSet::new();
    assert!(fast
        .partial_answers(&interp, &table, &none, 0)
        .unwrap()
        .is_empty());
    assert!(slow(&none, 0).is_empty());

    // Budget far larger than any match set: identical, and within table bounds.
    let a = fast
        .partial_answers(&interp, &table, &none, 10_000)
        .unwrap();
    let b = slow(&none, 10_000);
    assert!(a.len() <= table.len());
    assert_identical(&a, &b, "oversized budget");

    // Every record excluded: nothing can be returned.
    let all: HashSet<RecordId> = (0..table.len() as u32).map(RecordId).collect();
    assert!(fast
        .partial_answers(&interp, &table, &all, 30)
        .unwrap()
        .is_empty());
    assert!(slow(&all, 30).is_empty());
}
