//! Workspace-level property-based tests over the public API: arbitrary questions must
//! never panic, and core invariants must hold for whatever the generators produce.

use cqads_suite::addb::{
    retain_extreme, sql::render as addb_sql, AttrType, BoolExpr, Comparison, Condition, Executor,
    IdStream, PostingList, Query, Record, RecordId, ScoredUnion, Superlative, SuperlativeKind,
    Table, RECORD_CHUNK,
};
use cqads_suite::cqads::oracle::full_scan_partial_answers;
use cqads_suite::cqads::tagging::Tagger;
use cqads_suite::cqads::translate::interpret;
use cqads_suite::cqads::{
    AnswerSet, BoundaryOp, ConditionSketch, CqadsConfig, CqadsError, CqadsResult, CqadsSystem,
    CqadsWriter, DomainSpec, Interpretation, PartialMatcher, ResilienceOptions, SimilarityModel,
    StorageOptions,
};
use cqads_suite::datagen::{
    affinity_model, blueprint, generate_questions, generate_table, topic_groups, DomainBlueprint,
    GeneratedQuestion, QuestionKind, QuestionMix,
};
use cqads_suite::querylog::{
    generate_log, AffinityModel, ClickEvent, LogGeneratorConfig, QueryLogDelta, Session,
    SubmittedQuery, TIMatrix,
};
use cqads_suite::storage::{MemFs, Vfs};
use cqads_suite::wordsim::{CorpusSpec, SyntheticCorpus, WordSimMatrix};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::HashSet;
use std::sync::Arc;
use std::sync::OnceLock;

fn car_system() -> &'static CqadsSystem {
    static SYSTEM: OnceLock<CqadsSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let bp = blueprint("cars");
        let table = generate_table(&bp, 150, 77);
        let mut system = CqadsSystem::new();
        system.add_domain(bp.to_spec(), table, TIMatrix::default());
        system
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pipeline never panics on arbitrary free text and never exceeds the answer cap.
    #[test]
    fn arbitrary_text_never_panics(question in ".{0,80}") {
        let sys = car_system();
        if let Ok(set) = sys.ask(&question).domain("cars").uncached().get() {
            prop_assert!(set.answers.len() <= 30);
            prop_assert!(set.exact_count <= set.answers.len());
        }
    }

    /// The snapshot read path (a detached [`CqadsReader`] serving from the
    /// published snapshot) is byte-identical to the writer's own read path (its
    /// master state) for arbitrary text and for generated questions of every
    /// class: same error variant or same SQL, ids, match kinds and bit-exact
    /// `Rank_Sim` scores. This is the handle split's core contract —
    /// publication must never change an answer.
    #[test]
    fn snapshot_read_path_is_byte_identical_to_the_facade_path(
        arbitrary in ".{0,80}",
        question_seed in 0u64..1_000_000,
    ) {
        let sys = car_system();
        let reader = sys.reader();
        let table = sys.database().table("cars").unwrap();
        let generated =
            generate_questions(&blueprint("cars"), table, 2, question_seed, &QuestionMix::default());
        for question in generated.iter().map(|q| q.text.as_str()).chain([arbitrary.as_str()]) {
            let direct = sys.ask(question).domain("cars").uncached().get();
            let snapped = reader.ask(question).domain("cars").uncached().get();
            assert_answers_identical(&snapped, &direct, question)?;
        }
    }

    /// Whatever mix of words and numbers the user writes, every exact answer CQAds
    /// returns also satisfies the query it generated (internal consistency between the
    /// SQL translation and the executor).
    #[test]
    fn exact_answers_satisfy_the_generated_query(
        make in prop::sample::select(vec!["honda", "toyota", "ford", "chevy"]),
        color in prop::sample::select(vec!["blue", "red", "silver", "black"]),
        bound in 2_000u32..60_000,
    ) {
        let sys = car_system();
        let question = format!("{color} {make} under {bound} dollars");
        if let Ok(set) = sys.ask(&question).domain("cars").uncached().get() {
            let table = sys.database().table("cars").unwrap();
            let spec = sys.domain_spec("cars").unwrap();
            let (_, interp, _) = sys.interpret_in_domain(&question, "cars").unwrap();
            let query = interp.to_query(spec).unwrap();
            let expected: Vec<_> = Executor::new(table).execute(&query).unwrap();
            let expected_ids: Vec<_> = expected.iter().map(|a| a.id).collect();
            for answer in set.exact() {
                prop_assert!(expected_ids.contains(&answer.id));
            }
        }
    }
}

/// `count` questions of the default mix, then one that negates a value and one that
/// ORs two alternatives — the shapes the executor streams as complement and union
/// cursors, which a handful of default-mix draws may well miss.
fn questions_with_boolean_shapes(
    bp: &DomainBlueprint,
    table: &Table,
    count: usize,
    seed: u64,
) -> Vec<GeneratedQuestion> {
    let boolean = QuestionMix {
        plain: 0.0,
        implicit_boolean: 1.0,
        explicit_boolean: 1.0,
        ..QuestionMix::plain_only()
    };
    let pool = generate_questions(bp, table, 48, seed, &boolean);
    let negated = pool.iter().find(|q| q.text.contains(" not "));
    let or = pool
        .iter()
        .find(|q| q.kind == QuestionKind::ExplicitBoolean);
    let mut questions = generate_questions(bp, table, count, seed, &QuestionMix::default());
    questions.extend(negated.into_iter().chain(or).cloned());
    assert_eq!(
        questions.len(),
        count + 2,
        "the boolean pool has both shapes"
    );
    questions
}

/// Ascending posting list from an arbitrary id set.
fn posting(ids: &HashSet<u32>) -> PostingList {
    let mut sorted: Vec<RecordId> = ids.iter().copied().map(RecordId).collect();
    sorted.sort_unstable();
    PostingList::from_sorted(sorted)
}

/// Reference implementation: one-id-at-a-time two-pointer merge over the raw slices.
fn naive_intersect(a: &PostingList, b: &PostingList) -> Vec<RecordId> {
    let (xs, ys) = (a.ids(), b.ids());
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Equal => {
                out.push(xs[i]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The galloping, block-max-skipping intersection yields exactly the same id
    /// sequence as the naive sorted merge, for arbitrary (including skewed and
    /// disjoint) posting lists — and stays correct when nested.
    #[test]
    fn galloping_intersection_matches_naive_merge(
        a in prop::collection::hash_set(0u32..4_000, 0..600),
        b in prop::collection::hash_set(0u32..4_000, 0..60),
        c in prop::collection::hash_set(0u32..4_000, 0..300),
    ) {
        let (pa, pb, pc) = (posting(&a), posting(&b), posting(&c));
        // Two-way, both drive orders.
        let ab: Vec<RecordId> = IdStream::postings(&pa).intersect(IdStream::postings(&pb)).collect();
        let ba: Vec<RecordId> = IdStream::postings(&pb).intersect(IdStream::postings(&pa)).collect();
        let expected = naive_intersect(&pa, &pb);
        prop_assert_eq!(&ab, &expected);
        prop_assert_eq!(&ba, &expected);
        // Nested three-way intersection composes.
        let abc: Vec<RecordId> = IdStream::postings(&pa)
            .intersect(IdStream::postings(&pb))
            .intersect(IdStream::postings(&pc))
            .collect();
        let expected3: Vec<RecordId> = expected
            .iter()
            .copied()
            .filter(|id| pc.ids().binary_search(id).is_ok())
            .collect();
        prop_assert_eq!(&abc, &expected3);
    }

    /// The value-ordered (WAND-style) pruned traversal returns byte-identical answers
    /// to the full-scan oracle across random tables, questions and budgets (the
    /// pruning thresholds). Tables and question workloads come from the seeded
    /// generators, so every proptest case explores a different value distribution
    /// and relaxation mix.
    #[test]
    fn wand_traversal_matches_exhaustive_engine(
        domain_idx in 0usize..3,
        table_seed in 0u64..1_000_000,
        question_seed in 0u64..1_000_000,
        table_size in 20usize..180,
    ) {
        let domain = ["cars", "jewellery", "furniture"][domain_idx];
        let bp = blueprint(domain);
        let table = generate_table(&bp, table_size, table_seed);
        let log = generate_log(
            &affinity_model(&bp),
            &LogGeneratorConfig { sessions: 40, seed: table_seed ^ 0x77, ..Default::default() },
        );
        let ti = TIMatrix::build(&log);
        let corpus = SyntheticCorpus::generate(
            &topic_groups(&bp),
            &CorpusSpec { documents: 30, ..CorpusSpec::default() },
        );
        let ws = WordSimMatrix::build(&corpus);
        let spec = bp.to_spec();
        let sim = SimilarityModel::new(Arc::new(ti), Arc::new(ws), spec.schema.clone());
        let tagger = Tagger::new(&spec);

        let wand = PartialMatcher::new(&spec, &sim);

        let questions = questions_with_boolean_shapes(&bp, &table, 8, question_seed);
        for q in &questions {
            let Ok(interp) = interpret(&tagger.tag(&q.text), &spec) else { continue };
            let exact: HashSet<RecordId> = interp
                .to_query_with_limit(&spec, 30)
                .ok()
                .and_then(|query| Executor::new(&table).execute(&query).ok())
                .map(|answers| answers.into_iter().map(|a| a.id).collect())
                .unwrap_or_default();
            // Budgets double as pruning thresholds: 1 saturates instantly (maximal
            // pruning), table_size+10 never saturates (no pruning at all).
            for budget in [1usize, 7, 30, table_size + 10] {
                let a = wand.partial_answers(&interp, &table, &exact, budget).unwrap();
                let b = full_scan_partial_answers(&spec, &sim, &interp, &table, &exact, budget)
                    .unwrap();
                prop_assert_eq!(a.len(), b.len(), "count: {} budget {}", q.text, budget);
                for (x, y) in a.iter().zip(&b) {
                    prop_assert!(
                        x.bits_eq(y),
                        "diverged on {:?} budget {}: {:?} != {:?}", q.text, budget, x, y
                    );
                }
            }
        }
    }

    /// A ScoredUnion over arbitrary (overlapping, skewed, empty) id sets yields the
    /// sorted union of its constituents exactly once each, tagged with the smallest
    /// contributing stream index, and its seek_ge agrees with filtering.
    #[test]
    fn scored_union_matches_naive_union(
        sets in prop::collection::vec(
            prop::collection::hash_set(0u32..2_000, 0..200),
            1..6
        ),
        lo in 0u32..2_000,
    ) {
        let lists: Vec<PostingList> = sets.iter().map(posting).collect();
        let union = ScoredUnion::new(lists.iter().map(IdStream::postings).collect());
        let got: Vec<(RecordId, u32)> = union.collect();
        // Expected: sorted distinct ids, each tagged with the first set containing it.
        let mut all: Vec<RecordId> = sets
            .iter()
            .flatten()
            .copied()
            .map(RecordId)
            .collect();
        all.sort_unstable();
        all.dedup();
        let expected: Vec<(RecordId, u32)> = all
            .iter()
            .map(|id| {
                let tag = sets.iter().position(|s| s.contains(&id.0)).unwrap() as u32;
                (*id, tag)
            })
            .collect();
        prop_assert_eq!(&got, &expected);
        // seek_ge from `lo` yields exactly the tail of the union.
        let mut union = ScoredUnion::new(lists.iter().map(IdStream::postings).collect());
        let mut tail = Vec::new();
        let mut target = RecordId(lo);
        while let Some((id, tag)) = union.seek_ge(target) {
            tail.push((id, tag));
            target = RecordId(id.0 + 1);
        }
        let expected_tail: Vec<(RecordId, u32)> = expected
            .iter()
            .copied()
            .filter(|(id, _)| id.0 >= lo)
            .collect();
        prop_assert_eq!(tail, expected_tail);
    }

    /// seek_ge always yields the first remaining id >= target and never goes backwards.
    #[test]
    fn seek_ge_matches_linear_scan(
        ids in prop::collection::hash_set(0u32..2_000, 1..400),
        targets in prop::collection::vec(0u32..2_200, 1..30),
    ) {
        let list = posting(&ids);
        let mut targets = targets;
        targets.sort_unstable();
        let mut stream = IdStream::postings(&list);
        let mut consumed_up_to: Option<u32> = None;
        for t in targets {
            let expected = list
                .ids()
                .iter()
                .copied()
                .find(|id| id.0 >= t && consumed_up_to.is_none_or(|c| id.0 > c));
            let got = stream.seek_ge(RecordId(t));
            prop_assert_eq!(got, expected);
            if let Some(id) = got {
                consumed_up_to = Some(id.0);
            } else {
                // Exhausted: stays exhausted.
                prop_assert_eq!(stream.seek_ge(RecordId(0)), None);
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The executor against a record scan, for every boolean shape
// ---------------------------------------------------------------------------

/// A replayable stream of random choices: the property below decodes its table
/// rows, expressions, superlatives and seek targets from plain `u32` draws.
struct Dice<'a> {
    rolls: &'a [u32],
    at: usize,
}

impl Dice<'_> {
    /// Uniform in `0..n`.
    fn roll(&mut self, n: usize) -> usize {
        let roll = self.rolls[self.at % self.rolls.len()];
        self.at += 1;
        roll as usize % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.roll(items.len())]
    }
}

/// Few distinct values, alike in their letters, one of them never stored, one never
/// interned anywhere in the process.
const SCAN_NAMES: [&str; 6] = [
    "abc",
    "abcab",
    "bca b",
    "cab",
    "stored nowhere",
    "interned-nowhere-7f3a9c",
];
const SCAN_TAGS: [&str; 3] = ["ab", "bc", "abc"];
/// Duplicate-heavy, with neighbours a hair off 10 on either side, and a NaN (stored,
/// read back as missing, matched by no comparison and kept out of the range index).
const SCAN_NUMBERS: [f64; 8] = [
    5.0,
    10.0,
    10.0 + 5e-10,
    10.0 - 5e-10,
    10.0,
    20.5,
    40.0,
    f64::NAN,
];
/// Bounds that hit stored values, fall between them and fall outside them all.
const SCAN_BOUNDS: [f64; 7] = [0.0, 5.0, 10.0, 10.0 + 5e-10, 15.0, 40.0, 99.0];

/// `name` always; `tag`, `price` and `size` each missing from some rows.
fn scan_table(rows: &[u32]) -> Table {
    let schema = cqads_suite::addb::Schema::builder("things")
        .type1("name")
        .type2("tag")
        .type3("price", 0.0, 100.0, None)
        .type3("size", 0.0, 100.0, None)
        .build()
        .unwrap();
    let mut table = Table::new(schema);
    for row in rows {
        let row = *row as usize;
        let mut record = Record::builder().text("name", SCAN_NAMES[row % 4]);
        if !(row >> 4).is_multiple_of(4) {
            record = record.text("tag", SCAN_TAGS[(row >> 6) % 3]);
        }
        if !(row >> 8).is_multiple_of(5) {
            record = record.number("price", SCAN_NUMBERS[(row >> 11) % 8]);
        }
        if !(row >> 14).is_multiple_of(3) {
            record = record.number("size", SCAN_NUMBERS[(row >> 16) % 8]);
        }
        table.insert(record.build()).unwrap();
    }
    table
}

/// One leaf: every `Comparison`, a third of them negated.
fn scan_leaf(dice: &mut Dice<'_>) -> Condition {
    let number = dice.pick(&["price", "size"]);
    let bound = dice.pick(&SCAN_BOUNDS);
    let cond = match dice.roll(8) {
        0 => Condition::eq("name", dice.pick(&SCAN_NAMES)),
        1 => Condition::eq("tag", dice.pick(&SCAN_TAGS)),
        2 => Condition::eq_number(number, bound),
        3 => Condition::new(number, Comparison::Lt(bound)),
        4 => Condition::new(number, Comparison::Le(bound)),
        5 => Condition::new(number, Comparison::Gt(bound)),
        6 => Condition::new(number, Comparison::Ge(bound)),
        _ => {
            let other = dice.pick(&SCAN_BOUNDS);
            Condition::new(
                number,
                Comparison::Between(bound.min(other), bound.max(other)),
            )
        }
    };
    if dice.roll(3) == 0 {
        cond.negated()
    } else {
        cond
    }
}

/// A random expression nested at most `depth` operators deep. Built from the enum
/// variants directly (not the flattening helpers), so empty, single, duplicate and
/// identical operand lists all occur.
fn scan_expr(dice: &mut Dice<'_>, depth: usize) -> BoolExpr {
    if depth == 0 {
        return BoolExpr::Cond(scan_leaf(dice));
    }
    match dice.roll(8) {
        0 => BoolExpr::True,
        1 | 2 => BoolExpr::Cond(scan_leaf(dice)),
        3 => BoolExpr::Not(Box::new(scan_expr(dice, depth - 1))),
        kind => {
            let mut operands: Vec<BoolExpr> = (0..dice.roll(4))
                .map(|_| scan_expr(dice, depth - 1))
                .collect();
            if let (Some(first), 0) = (operands.first().cloned(), dice.roll(3)) {
                operands.push(first);
            }
            if kind < 6 {
                BoolExpr::And(operands)
            } else {
                BoolExpr::Or(operands)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever the boolean shape, the executor's index-driven streams answer
    /// exactly what a scan of the records through `BoolExpr::matches` answers:
    /// `execute` the first `limit` ids (the extreme ones under a superlative),
    /// `execute_stream` all of them — pulled, drained in bulk, or sought with
    /// ascending targets.
    #[test]
    fn executor_matches_record_scan_for_every_boolean_shape(
        rows in prop::collection::vec(0u32..u32::MAX, 1..420),
        rolls in prop::collection::vec(0u32..u32::MAX, 256..257),
    ) {
        let table = scan_table(&rows);
        let executor = Executor::new(&table);
        let len = table.len() as u32;
        let mut dice = Dice { rolls: &rolls, at: 0 };
        for _ in 0..6 {
            let expr = scan_expr(&mut dice, 3);
            let superlatives: Vec<Superlative> = (0..dice.roll(4).saturating_sub(1))
                .map(|_| {
                    let attribute = dice.pick(&["price", "size"]);
                    if dice.roll(2) == 0 { Superlative::min(attribute) } else { Superlative::max(attribute) }
                })
                .collect();
            let mut query = Query::new("things").with_expr(expr.clone());
            let mut scanned: Vec<RecordId> = table
                .iter()
                .filter(|(_, record)| expr.matches(record))
                .map(|(id, _)| id)
                .collect();
            for superlative in &superlatives {
                query = query.with_superlative(superlative.clone());
                retain_extreme(&mut scanned, superlative.kind == SuperlativeKind::Max, |id| {
                    table.get(id).and_then(|record| record.get_number(&superlative.attribute))
                });
            }
            let context = addb_sql(&query);

            for limit in [0, 1, 7, 30, usize::MAX] {
                let page: Vec<RecordId> = executor
                    .execute(&query.clone().with_limit(limit))
                    .unwrap()
                    .iter()
                    .map(|answer| answer.id)
                    .collect();
                let want = &scanned[..limit.min(scanned.len())];
                prop_assert_eq!(&page[..], want, "limit {}: {}", limit, &context);
            }

            let stream = || executor.execute_stream(&query).unwrap();
            prop_assert_eq!(&stream().collect::<Vec<_>>(), &scanned, "pulled: {}", &context);
            prop_assert_eq!(&stream().into_ids(), &scanned, "drained: {}", &context);

            // Ascending seeks never go backwards and never skip a match.
            let mut targets: Vec<u32> = (0..12).map(|_| dice.roll(len as usize + 2) as u32).collect();
            targets.sort_unstable();
            let mut sought = stream();
            let mut rest = &scanned[..];
            for target in targets {
                rest = &rest[rest.partition_point(|id| id.0 < target)..];
                let got = sought.seek_ge(RecordId(target));
                prop_assert_eq!(got, rest.first().copied(), "seek_ge({}): {}", target, &context);
                rest = rest.get(1..).unwrap_or_default();
            }
            prop_assert_eq!(&sought.collect::<Vec<_>>(), rest, "after the seeks: {}", &context);
        }
    }
}

// ---------------------------------------------------------------------------
// The partial engine against the oracle, on sparse questions
// ---------------------------------------------------------------------------

/// What sparse questions ask for: values [`scan_table`] stores, one it stores in no
/// record and one interned nowhere in the process.
const SPARSE_NAMES: [&str; 4] = ["abc", "cab", "stored nowhere", "interned-nowhere-e5b1d2"];
const SPARSE_TAGS: [&str; 4] = ["ab", "bc", "abc", "interned-nowhere-0c77a4"];

/// One condition: mostly categorical (the probes the fallback's index layer reads),
/// some numeric, a sixth of them negated (the probes it scans for).
fn sparse_sketch(dice: &mut Dice<'_>) -> ConditionSketch {
    let negated = dice.roll(6) == 0;
    match dice.roll(5) {
        0 | 1 => ConditionSketch::Categorical {
            attribute: "name".into(),
            value: dice.pick(&SPARSE_NAMES).into(),
            is_type1: true,
            negated,
        },
        2 | 3 => ConditionSketch::Categorical {
            attribute: "tag".into(),
            value: dice.pick(&SPARSE_TAGS).into(),
            is_type1: false,
            negated,
        },
        _ => {
            let op = dice.pick(&[
                BoundaryOp::Eq,
                BoundaryOp::Lt,
                BoundaryOp::Ge,
                BoundaryOp::Between,
            ]);
            let (a, b) = (dice.pick(&SCAN_BOUNDS), dice.pick(&SCAN_BOUNDS));
            ConditionSketch::Numeric {
                attribute: Some(dice.pick(&["price", "size"]).into()),
                op,
                value: a.min(b),
                value2: (op == BoundaryOp::Between).then_some(a.max(b)),
                negated,
            }
        }
    }
}

/// 2–5 conditions, duplicates included ("grey grey blue"), in one segment or split
/// into two OR segments, with or without a superlative.
fn sparse_question(dice: &mut Dice<'_>) -> Interpretation {
    let count = 2 + dice.roll(4);
    let mut sketches: Vec<ConditionSketch> = Vec::new();
    while sketches.len() < count {
        let sketch = match sketches.len() {
            n if n > 0 && dice.roll(4) == 0 => sketches[dice.roll(n)].clone(),
            _ => sparse_sketch(dice),
        };
        sketches.push(sketch);
    }
    let segments = match dice.roll(3) {
        0 => {
            let second = sketches.split_off(1 + dice.roll(sketches.len() - 1));
            vec![sketches, second]
        }
        _ => vec![sketches],
    };
    let superlatives = match dice.roll(3) {
        0 => vec![Superlative::min(dice.pick(&["price", "size"]))],
        1 => vec![Superlative::max(dice.pick(&["price", "size"]))],
        _ => Vec::new(),
    };
    Interpretation {
        domain: "things".into(),
        segments,
        superlatives,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The production engine answers sparse questions — those whose relaxations
    /// starve, so the degree-of-match fallback reads the index and maybe scans —
    /// bit for bit like the full-scan oracle, at every budget:
    /// tables with missing attributes and values a hair off each other, question
    /// values stored nowhere or interned nowhere, duplicated conditions, OR
    /// segments, negations and superlatives.
    #[test]
    fn partial_answers_match_the_oracle_on_sparse_questions(
        rows in prop::collection::vec(0u32..u32::MAX, 1..240),
        rolls in prop::collection::vec(0u32..u32::MAX, 128..129),
    ) {
        let table = scan_table(&rows);
        let spec = DomainSpec::new(table.schema().clone());
        let mut ti = TIMatrix::default();
        ti.insert("abc", "abcab", 3.0);
        ti.insert("abc", "cab", 1.5);
        ti.insert("cab", "bca b", 2.0);
        ti.insert("stored nowhere", "abc", 1.0);
        let mut ws = WordSimMatrix::default();
        ws.insert("ab", "abc", 0.6);
        ws.insert("bc", "abc", 0.3);
        ws.insert("ab", "bc", 0.2);
        let sim = SimilarityModel::new(Arc::new(ti), Arc::new(ws), spec.schema.clone());
        let matcher = PartialMatcher::new(&spec, &sim);
        let mut dice = Dice { rolls: &rolls, at: 0 };
        for _ in 0..4 {
            let interp = sparse_question(&mut dice);
            let exact: HashSet<RecordId> = interp
                .to_query_with_limit(&spec, 30)
                .ok()
                .and_then(|query| Executor::new(&table).execute(&query).ok())
                .map(|answers| answers.into_iter().map(|a| a.id).collect())
                .unwrap_or_default();
            for budget in [1usize, 7, 30] {
                let want = full_scan_partial_answers(&spec, &sim, &interp, &table, &exact, budget)
                    .unwrap();
                let got = matcher.partial_answers(&interp, &table, &exact, budget).unwrap();
                prop_assert_eq!(got.len(), want.len(), "count: {:?} budget {}", interp, budget);
                for (x, y) in got.iter().zip(&want) {
                    prop_assert!(
                        x.bits_eq(y),
                        "{:?} budget {}: {:?} != {:?}", interp, budget, x, y
                    );
                }
            }
        }
    }

    /// The lemma behind the partial matcher's relaxation rule: in a question without
    /// a superlative, the relaxation of a categorical condition `i` (the question
    /// without it) finds a record holding its value only if the whole question finds
    /// it too — `E₋ᵢ ∩ Sᵢ ⊆ E`. So a relaxation that skips such records drops only
    /// exact answers, which the partial phase excludes anyway. Same generator as
    /// above, superlatives stripped: OR segments, duplicated conditions, negations,
    /// `Between`, missing values and values stored nowhere. The rule leaves out what
    /// the lemma does not cover: superlatives (a relaxation that drops an OR branch
    /// takes its extreme over fewer records) and numeric conditions (the generator's
    /// negated boundaries, which `interpret` never builds, are plain boundaries in
    /// the query but negated in the probe).
    #[test]
    fn a_relaxation_finds_no_new_record_its_condition_matches(
        rows in prop::collection::vec(0u32..u32::MAX, 1..240),
        rolls in prop::collection::vec(0u32..u32::MAX, 128..129),
    ) {
        let table = scan_table(&rows);
        let spec = DomainSpec::new(table.schema().clone());
        let sim = SimilarityModel::new(
            Arc::new(TIMatrix::default()),
            Arc::new(WordSimMatrix::default()),
            spec.schema.clone(),
        );
        let executor = Executor::new(&table);
        let mut dice = Dice { rolls: &rolls, at: 0 };
        for _ in 0..8 {
            let mut interp = sparse_question(&mut dice);
            interp.superlatives.clear();
            let stream = |query: CqadsResult<Query>| query.ok().and_then(|q| executor.execute_stream(&q).ok());
            let Some(exact) = stream(interp.to_query(&spec)) else { continue };
            let exact: HashSet<RecordId> = exact.collect();
            for (i, sketch) in interp.all_sketches().into_iter().enumerate() {
                if !matches!(sketch, ConditionSketch::Categorical { negated: false, .. }) {
                    continue;
                }
                let Some(relaxed) = stream(interp.to_query_excluding(&spec, i)) else { continue };
                let probe = sim.compile(sketch, &table);
                for id in relaxed {
                    prop_assert!(
                        !probe.satisfied(id) || exact.contains(&id),
                        "{:?} relaxing condition {}: {:?} satisfies it but is no exact answer",
                        interp, i, id
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot isolation of the structurally shared table
// ---------------------------------------------------------------------------

/// `got` reads exactly as `want` through every public reader of a table.
fn assert_tables_identical(got: &Table, want: &Table, context: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "len: {}", context);
    prop_assert_eq!(
        got.generation(),
        want.generation(),
        "generation: {}",
        context
    );
    prop_assert!(got.iter().eq(want.iter()), "records: {}", context);
    let ids = || (0..=want.len() as u32).map(RecordId); // one past the end included
    for attr in want.schema().attributes() {
        let name = attr.name.as_str();
        let context = format!("{context}, {name}");
        if attr.attr_type == AttrType::TypeIII {
            let (got_col, want_col) = (got.numeric_column(name), want.numeric_column(name));
            let (got_col, want_col) = (got_col.unwrap(), want_col.unwrap());
            prop_assert!(
                ids().all(|id| got_col.value(id) == want_col.value(id)),
                "{}",
                &context
            );
            prop_assert_eq!(
                got.observed_range(name),
                want.observed_range(name),
                "{}",
                &context
            );
            // Bounds on stored values (ties at both ends), between and beyond them.
            let Some((min, max)) = want.observed_range(name) else {
                continue;
            };
            let mid = want_col
                .value(RecordId(want.len() as u32 / 2))
                .unwrap_or(min);
            for (low, high) in [
                (f64::NEG_INFINITY, f64::INFINITY),
                (min, mid),
                (mid, mid),
                (mid, max),
                ((min + mid) / 2.0, (mid + max) / 2.0),
                (max, min - 1.0),
            ] {
                prop_assert_eq!(
                    got.range_count(name, low, high),
                    want.range_count(name, low, high),
                    "range_count [{}, {}]: {}",
                    low,
                    high,
                    &context
                );
                // The id *sequence*: value order, newest first among equal values.
                prop_assert_eq!(
                    got.lookup_range(name, low, high),
                    want.lookup_range(name, low, high),
                    "lookup_range [{}, {}]: {}",
                    low,
                    high,
                    &context
                );
            }
        } else {
            let (got_col, want_col) = (got.text_column(name), want.text_column(name));
            let (got_col, want_col) = (got_col.unwrap(), want_col.unwrap());
            prop_assert!(
                ids().all(|id| got_col.sym(id) == want_col.sym(id)),
                "{}",
                &context
            );
            let (got_values, want_values) = (got.value_index(name), want.value_index(name));
            let (got_values, want_values) = (got_values.unwrap(), want_values.unwrap());
            prop_assert_eq!(got_values.len(), want_values.len(), "{}", &context);
            for ((sym, postings), (want_sym, want_postings)) in
                got_values.entries().zip(want_values.entries())
            {
                prop_assert_eq!(sym, want_sym, "directory order: {}", &context);
                prop_assert_eq!(postings.ids(), want_postings.ids(), "{}", &context);
                prop_assert_eq!(
                    postings.block_max(),
                    want_postings.block_max(),
                    "{}",
                    &context
                );
                prop_assert_eq!(
                    got_values.stems(sym),
                    want_values.stems(sym),
                    "{}",
                    &context
                );
                let value = cqads_suite::text::intern::resolve(sym);
                prop_assert_eq!(
                    got.posting_list(name, &value).map(PostingList::ids),
                    Some(want_postings.ids()),
                    "{}",
                    &context
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A clone of a table is a snapshot: whatever is inserted afterwards — into the
    /// source or into the clone — each of them reads, and answers, exactly as a table
    /// rebuilt from its own records. The inserts cross two chunk boundaries of the
    /// per-record columns and split sorted-index leaves, with clones taken before,
    /// between and after, so every snapshot shares chunks with its neighbours.
    #[test]
    fn table_clones_are_isolated_snapshots(
        table_seed in 0u64..1_000_000,
        question_seed in 0u64..1_000_000,
        random_cuts in prop::collection::vec(0usize..2 * RECORD_CHUNK + 80, 2..5),
        fork_len in 1usize..40,
    ) {
        // On both sides of a chunk boundary, and wherever the case says.
        let mut cuts = vec![RECORD_CHUNK - 1, RECORD_CHUNK, 2 * RECORD_CHUNK + 1];
        cuts.extend(random_cuts);
        let bp = blueprint("cars");
        let spec = bp.to_spec();
        let source = generate_table(&bp, 2 * RECORD_CHUNK + 80 + fork_len, table_seed);
        let records: Vec<Record> = source.iter().map(|(_, r)| r.clone()).collect();
        let (records, fork_records) = records.split_at(2 * RECORD_CHUNK + 80);
        let rebuild = |records: &[Record]| {
            Table::from_records(spec.schema.clone(), records.iter().cloned(), 0).unwrap()
        };

        // One writer; a clone at every cut, then more inserts behind its back.
        let mut table = Table::new(spec.schema.clone());
        let mut clones: Vec<Table> = Vec::new();
        for (i, record) in records.iter().enumerate() {
            clones.extend(cuts.iter().filter(|cut| **cut == i).map(|_| table.clone()));
            table.insert(record.clone()).unwrap();
        }
        // A clone that is written to diverges from its source, and neither sees the other.
        let mut fork = clones.last().unwrap().clone();
        let fork_at = fork.len();
        for record in fork_records {
            fork.insert(record.clone()).unwrap();
        }
        let forked: Vec<Record> = records[..fork_at].iter().chain(fork_records).cloned().collect();

        let mut snapshots: Vec<(String, &Table, Table)> = clones
            .iter()
            .map(|clone| (format!("clone at {}", clone.len()), clone, rebuild(&records[..clone.len()])))
            .collect();
        snapshots.push(("the writer's table".into(), &table, rebuild(records)));
        snapshots.push((format!("fork at {fork_at}"), &fork, rebuild(&forked)));

        let sim = SimilarityModel::new(
            Arc::new(TIMatrix::default()),
            Arc::new(WordSimMatrix::default()),
            spec.schema.clone(),
        );
        let matcher = PartialMatcher::new(&spec, &sim);
        let tagger = Tagger::new(&spec);
        let questions = generate_questions(&bp, &table, 6, question_seed, &QuestionMix::default());
        for (context, snapshot, rebuilt) in &snapshots {
            assert_tables_identical(snapshot, rebuilt, context)?;
            for q in &questions {
                let Ok(interp) = interpret(&tagger.tag(&q.text), &spec) else { continue };
                let Ok(query) = interp.to_query_with_limit(&spec, 30) else { continue };
                let exact = Executor::new(snapshot).execute(&query);
                prop_assert_eq!(&exact, &Executor::new(rebuilt).execute(&query), "{}: {}", context, q.text);
                let exact: HashSet<RecordId> = exact.unwrap_or_default().iter().map(|a| a.id).collect();
                let got = matcher.partial_answers(&interp, snapshot, &exact, 30).unwrap();
                let want = matcher.partial_answers(&interp, rebuilt, &exact, 30).unwrap();
                prop_assert_eq!(got.len(), want.len(), "{}: {}", context, q.text);
                prop_assert!(
                    got.iter().zip(&want).all(|(x, y)| x.bits_eq(y)),
                    "partial answers diverged, {}: {}", context, q.text
                );
            }
        }
    }
}

#[test]
fn generated_workloads_are_reproducible() {
    let bp = blueprint("furniture");
    let table = generate_table(&bp, 90, 5);
    let a = generate_questions(&bp, &table, 40, 9, &QuestionMix::default());
    let b = generate_questions(&bp, &table, 40, 9, &QuestionMix::default());
    assert_eq!(
        a.iter().map(|q| q.text.clone()).collect::<Vec<_>>(),
        b.iter().map(|q| q.text.clone()).collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------------
// Incremental TI-matrix learning: apply == full rebuild, bit for bit
// ---------------------------------------------------------------------------

/// The Type I vocabulary the random logs draw from (kept small so pairs repeat and
/// every feature accumulates real evidence).
const TI_VALUES: [&str; 5] = ["accord", "camry", "civic", "corolla", "mustang"];

fn ti_affinities() -> AffinityModel {
    let mut m = AffinityModel::new(&TI_VALUES);
    m.set_affinity("accord", "camry", 0.9);
    m.set_affinity("civic", "corolla", 0.8);
    m.set_affinity("accord", "mustang", 0.1);
    m
}

/// A hand-built session exercising the estimator's edge cases: repeated identical
/// queries (no Mod/Time evidence), a result page showing the searched value itself,
/// clicks on the searched value (skipped), zero-dwell clicks and an empty tail query.
fn adversarial_session(user_id: u64, a: &str, b: &str) -> Session {
    Session {
        user_id,
        queries: vec![
            SubmittedQuery {
                value: a.to_string(),
                at_seconds: 0.0,
                clicks: vec![
                    ClickEvent {
                        ad_value: a.to_string(), // click on itself: ignored
                        rank: 1,
                        dwell_seconds: 50.0,
                    },
                    ClickEvent {
                        ad_value: b.to_string(),
                        rank: 2,
                        dwell_seconds: 0.0, // zero dwell still counts as a click
                    },
                ],
                shown: vec![a.to_string(), a.to_string(), b.to_string()],
            },
            SubmittedQuery {
                value: a.to_string(), // identical reformulation: ignored
                at_seconds: 5.0,
                clicks: vec![],
                shown: vec![],
            },
            SubmittedQuery {
                value: b.to_string(),
                at_seconds: 5.0, // zero gap to the previous query
                clicks: vec![],
                shown: vec![],
            },
        ],
    }
}

/// Every vocabulary pair (and self-pair) must agree bit-for-bit, as must the
/// normalization maximum and the stored pair count.
fn assert_ti_bit_identical(full: &TIMatrix, incremental: &TIMatrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(full.len(), incremental.len());
    prop_assert_eq!(
        full.max_value().to_bits(),
        incremental.max_value().to_bits()
    );
    for a in TI_VALUES {
        for b in TI_VALUES {
            prop_assert_eq!(
                full.ti_sim(a, b).to_bits(),
                incremental.ti_sim(a, b).to_bits(),
                "ti_sim({}, {}) diverged",
                a,
                b
            );
            prop_assert_eq!(
                full.normalized(a, b).to_bits(),
                incremental.normalized(a, b).to_bits(),
                "normalized({}, {}) diverged",
                a,
                b
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `TIMatrix::build(log ++ delta)` == `TIMatrix::build(log).apply(delta)`, bit
    /// for bit, for random logs and deltas of any size (either may be empty) —
    /// including deltas spliced with adversarial hand-built sessions. Also checks
    /// the batch form (`apply_all` over a split delta, one renormalization).
    #[test]
    fn ti_apply_is_bit_identical_to_full_rebuild(
        base_sessions in 0usize..50,
        delta_sessions in 0usize..20,
        base_seed in 0u64..10_000,
        delta_seed in 0u64..10_000,
        weird in 0usize..3,
        pair in prop::sample::select(vec![(0usize, 1usize), (1, 4), (2, 3), (3, 3)]),
    ) {
        let model = ti_affinities();
        let base = generate_log(
            &model,
            &LogGeneratorConfig { sessions: base_sessions, seed: base_seed, ..Default::default() },
        );
        let mut fresh = generate_log(
            &model,
            &LogGeneratorConfig { sessions: delta_sessions, seed: delta_seed, ..Default::default() },
        )
        .sessions;
        for w in 0..weird {
            fresh.push(adversarial_session(
                1_000 + w as u64,
                TI_VALUES[pair.0],
                TI_VALUES[pair.1],
            ));
        }
        let delta = QueryLogDelta::from_sessions(fresh);

        let full = TIMatrix::build(&base.concat(&delta));

        let mut incremental = TIMatrix::build(&base);
        incremental.apply(&delta);
        assert_ti_bit_identical(&full, &incremental)?;

        // Batch form: split the delta in two, finalize once.
        let mid = delta.sessions.len() / 2;
        let head = QueryLogDelta::from_sessions(delta.sessions[..mid].to_vec());
        let tail = QueryLogDelta::from_sessions(delta.sessions[mid..].to_vec());
        let mut batched = TIMatrix::build(&base);
        batched.apply_all([&head, &tail]);
        assert_ti_bit_identical(&full, &batched)?;

        // Applying the two halves one at a time is identical too (intermediate
        // finalizations are pure).
        let mut stepwise = TIMatrix::build(&base);
        stepwise.apply(&head);
        stepwise.apply(&tail);
        assert_ti_bit_identical(&full, &stepwise)?;
    }
}

// ---------------------------------------------------------------------------
// The config matrix: every accepted config answers like the default one
// ---------------------------------------------------------------------------

/// `storage × resilience × cache_capacity`: every combination of the values
/// below, each over its own in-memory filesystem.
fn config_matrix() -> Vec<(String, CqadsConfig)> {
    let mut matrix = Vec::new();
    for durable in [false, true] {
        for resilient in [false, true] {
            for cache_capacity in [0, CqadsConfig::default().cache_capacity] {
                let label =
                    format!("durable {durable}, resilient {resilient}, cache {cache_capacity}");
                let storage = durable.then(|| {
                    StorageOptions::with_vfs("db", Arc::new(MemFs::new()) as Arc<dyn Vfs>)
                });
                // A deadline no test run reaches: admission and the budget are
                // armed, nothing is ever cut.
                let resilience = resilient.then(|| ResilienceOptions {
                    deadline_micros: Some(3_600_000_000),
                    ..ResilienceOptions::default()
                });
                let config = CqadsConfig {
                    storage,
                    resilience,
                    cache_capacity,
                    ..CqadsConfig::default()
                };
                matrix.push((label, config));
            }
        }
    }
    matrix
}

/// `validate` accepts the whole matrix and rejects only values that
/// contradict themselves — never a combination of knobs.
#[test]
fn config_validation_rejects_only_contradictory_values() {
    for (label, config) in config_matrix() {
        assert_eq!(config.validate(), Ok(()), "{label}");
    }
    let contradictory = [
        CqadsConfig {
            cache_shards: 0,
            ..CqadsConfig::default()
        },
        CqadsConfig {
            partial_threshold: 31,
            ..CqadsConfig::default()
        },
        CqadsConfig {
            answer_limit: 0,
            partial_threshold: 0,
            ..CqadsConfig::default()
        },
        CqadsConfig {
            resilience: Some(ResilienceOptions {
                deadline_micros: Some(100),
                min_deadline_micros: 200,
                ..ResilienceOptions::default()
            }),
            ..CqadsConfig::default()
        },
    ];
    for config in contradictory {
        assert!(
            matches!(config.validate(), Err(CqadsError::Config(_))),
            "{config:?}"
        );
    }
}

/// Byte-identity across every observable answer field (or the same error):
/// the contract ARCHITECTURE.md promises for the snapshot path (invariant 8)
/// and for every accepted config.
fn assert_answers_identical(
    got: &CqadsResult<Arc<AnswerSet>>,
    want: &CqadsResult<Arc<AnswerSet>>,
    context: &str,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(&a.sql, &b.sql, "sql diverged: {}", context);
            prop_assert_eq!(a.exact_count, b.exact_count, "exact_count: {}", context);
            prop_assert_eq!(&a.quality, &b.quality, "quality: {}", context);
            prop_assert_eq!(a.answers.len(), b.answers.len(), "count: {}", context);
            for (x, y) in a.answers.iter().zip(&b.answers) {
                prop_assert_eq!(x.id, y.id, "id: {}", context);
                prop_assert_eq!(x.kind, y.kind, "kind: {}", context);
                prop_assert_eq!(x.measure, y.measure, "measure: {}", context);
                prop_assert_eq!(
                    x.rank_sim.to_bits(),
                    y.rank_sim.to_bits(),
                    "rank_sim bits: {}",
                    context
                );
            }
        }
        (got, want) => prop_assert_eq!(
            got.as_ref().err(),
            want.as_ref().err(),
            "error diverged: {}",
            context
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every config of the matrix answers byte-identically to the default
    /// config over the same records, for generated tables and questions —
    /// fresh, repeated (through the answer cache), through `answer_batch`,
    /// after mid-stream inserts, and after a query-log ingest — with the same
    /// record ids and the same generations along the way.
    #[test]
    fn every_config_answers_byte_identically_to_the_default(
        domain_idx in 0usize..3,
        table_seed in 0u64..1_000_000,
        question_seed in 0u64..1_000_000,
        table_size in 10usize..100,
    ) {
        let domain = ["cars", "jewellery", "furniture"][domain_idx];
        let bp = blueprint(domain);
        let table = generate_table(&bp, table_size, table_seed);
        let log = generate_log(
            &affinity_model(&bp),
            &LogGeneratorConfig { sessions: 30, seed: table_seed ^ 0x77, ..Default::default() },
        );
        let ti = TIMatrix::build(&log);
        let corpus = SyntheticCorpus::generate(
            &topic_groups(&bp),
            &CorpusSpec { documents: 20, ..CorpusSpec::default() },
        );
        let ws = WordSimMatrix::build(&corpus);
        let spec = bp.to_spec();
        let build = |config: CqadsConfig| -> CqadsResult<CqadsWriter> {
            let mut writer = CqadsWriter::try_with_config(config)?;
            writer.try_set_word_sim(ws.clone())?;
            writer.try_add_domain(spec.clone(), table.clone(), ti.clone())?;
            Ok(writer)
        };

        let mut reference = build(CqadsConfig::default()).unwrap();
        let mut systems: Vec<(String, CqadsWriter)> = config_matrix()
            .into_iter()
            .map(|(label, config)| (label, build(config).unwrap()))
            .collect();

        let questions = questions_with_boolean_shapes(&bp, &table, 6, question_seed);
        let texts: Vec<&str> = questions.iter().map(|q| q.text.as_str()).collect();
        // One round: the reference computes every answer from scratch; every
        // system serves each question through `ask` and then the whole burst
        // through `answer_batch` (one registered domain: classification
        // cannot pick another), and reports the reference's generations.
        let round = |reference: &CqadsWriter,
                     systems: &[(String, CqadsWriter)],
                     phase: &str|
         -> Result<(), TestCaseError> {
            let want: Vec<_> = texts
                .iter()
                .map(|q| reference.ask(q).domain(domain).uncached().get())
                .collect();
            let reader = reference.reader();
            for (label, system) in systems {
                let context = format!("{label}, {phase}");
                for (q, want) in texts.iter().zip(&want) {
                    assert_answers_identical(&system.ask(q).domain(domain).get(), want, &context)?;
                }
                for (got, want) in system.answer_batch(&texts).iter().zip(&want) {
                    assert_answers_identical(got, want, &format!("{context}, batch"))?;
                }
                let published = system.reader();
                prop_assert_eq!(
                    published.table_generation(domain),
                    reader.table_generation(domain),
                    "table generation: {}", &context
                );
                prop_assert_eq!(
                    published.model_generation(domain),
                    reader.model_generation(domain),
                    "model generation: {}", &context
                );
            }
            Ok(())
        };
        // The sweep really asks a negation and a disjunction.
        let sqls: Vec<String> = texts
            .iter()
            .filter_map(|q| reference.ask(q).domain(domain).uncached().get().ok())
            .map(|set| set.sql.clone())
            .collect();
        prop_assert!(sqls.iter().any(|sql| sql.contains("NOT (")), "no negation: {:?}", texts);
        prop_assert!(sqls.iter().any(|sql| sql.contains(") OR (")), "no OR: {:?}", texts);
        round(&reference, &systems, "fresh")?;
        round(&reference, &systems, "repeated")?;

        // Mid-stream inserts: every config assigns the same ids.
        let extra = generate_table(&bp, 5, table_seed ^ 0x5a5a);
        for (_, record) in extra.iter() {
            let id = reference.insert_record(domain, record.clone()).unwrap();
            for (label, system) in &mut systems {
                let inserted = system.insert_record(domain, record.clone());
                prop_assert_eq!(inserted, Ok(id), "id assignment diverged: {}", label);
            }
        }
        round(&reference, &systems, "after inserts")?;

        // Mid-stream model mutation: one ingest moves the generation once.
        let delta = QueryLogDelta::from_sessions(
            generate_log(
                &affinity_model(&bp),
                &LogGeneratorConfig {
                    sessions: 8,
                    seed: question_seed ^ 0x99,
                    ..Default::default()
                },
            )
            .sessions,
        );
        let report = reference.ingest_query_log(domain, &delta).unwrap();
        for (label, system) in &mut systems {
            prop_assert_eq!(system.ingest_query_log(domain, &delta), Ok(report), "{}", label);
        }
        round(&reference, &systems, "after ingest")?;
    }
}
