//! The partition and the one answering core: a domain's records dealt into `N`
//! parts of one snapshot, answered by scatter-gather byte-identically to one
//! table.
//!
//! # Why
//!
//! Production scale wants a domain's records in `N` tables — each with its own
//! posting lists and its own table generation — so that an insert touches
//! (and, with readers attached, copies) one `N`-th of the data
//! and leaves the other parts' cached work valid. The partition is a property
//! of the one snapshot, not a second system:
//! [`CqadsConfig::shards`](crate::CqadsConfig::shards) picks `N`, a
//! [`CqadsWriter`] deals every record to a part through the [`RecordRouter`],
//! and everything else — the domain's spec, tagger and similarity model, the
//! classifier, the WS matrix, the answer cache, admission, deadlines, the audit
//! trail, durable storage — exists once, whatever `N` is. [`ShardedCqads`] is
//! a constructor kept for callers that name it.
//!
//! # One core, two arms
//!
//! `answer_parts` is the whole answering procedure (§4.3) over `k` questions
//! × `N` parts (a `Part` is one part's table plus the budget arming it), and
//! the only one: `ask` and `answer_batch` ([`crate::handle`]) call it with the
//! parts of their one snapshot. Compilation, the exact answers, the partial
//! budget and the final absorb/truncate are shared; the exact and the partial
//! stage each have two arms, selected by `parts.len()` and nothing else. One
//! part runs the executor on the query as compiled and one batched partial
//! engine call with the engine's own fallback. Many parts scatter to every part,
//! run the same WAND/partial engines per part, one part after another on the
//! calling thread, and gather through the same deterministic top-k collector the
//! engine ranks with.
//!
//! # The byte-identity argument
//!
//! A system with any part count returns the same `AnswerSet` — same SQL, same
//! ids, same kinds, same `rank_sim` bits, same `exact_count`, same quality —
//! as the one-part system over the same records (`tests/properties.rs`
//! machine-checks this across the whole config matrix). At `N = 1` identity
//! holds by construction, because it is the same call on the same table; for
//! the many-parts arm:
//!
//! * **Routing is invertible and order-preserving.** [`RecordRouter`] deals
//!   global record id `g` to part `g % N` as local id `g / N`; both maps are
//!   strictly monotone per part, so per-part ascending-id order is global
//!   ascending-id order and a freshly inserted record (global id = the running
//!   count) lands exactly where the part's own table assigns its next local
//!   id. No id ever moves (rebalance-free by construction), and because the
//!   deal is pure arithmetic over insertion order nothing about it is
//!   persisted: durable storage sees the union in global-id order, and
//!   reopening with a different `N` re-deals the same records (resharding is
//!   a reopen).
//! * **There is one model.** Tagging, interpretation, query translation and
//!   SQL rendering read only the domain's one runtime, never a table.
//!   Schema-level validation is record-independent and runs first in every
//!   executor call, so part 0's own pass (on the query as compiled) surfaces
//!   the one-part error before any cache entry can exist.
//! * **Exact gather is a sorted-merge.** Each part's exact pass returns its
//!   first `limit` matching ids ascending; any id in the global first-`limit`
//!   has fewer than `limit` global predecessors, hence fewer than `limit`
//!   predecessors within its own part — so the union of per-part prefixes
//!   covers the global prefix, and merge + truncate reproduces it exactly.
//!   Superlative chains are re-applied at the gather over the merged candidate
//!   set through [`addb::retain_extreme`], the definition the executor's own
//!   superlative steps are documented against.
//! * **Partial gather is one heap's merge.** Per-record scores are
//!   table-independent (`Num_Sim` ranges come from the spec, text/TI scores
//!   from the one model), part id spaces are disjoint, and the gather runs
//!   the same `TopK` collector over the per-part lists — a record survives iff
//!   fewer than `budget` records beat it in the whole domain, whatever order
//!   the distinct-id offers arrive in — so the merged top-k equals the one heap
//!   the one-table engine builds, ties resolving by global id either way.
//!   Parts prune against one cross-part [`SharedThreshold`], admissible
//!   because a published value is the worst of some full heap of the same
//!   budget. The sparse degree-of-match fallback is
//!   a *global* decision (a per-part sparse heap says nothing about the whole
//!   table), so parts run phase 1 with the fallback suppressed and the gather
//!   re-runs the plain per-part engine at the real budget in the rare sparse
//!   case — if any part's heap ever filled, the candidate total already
//!   covers the budget and no fallback was due anyway. The one non-decomposable
//!   case is a *superlative* question's partial phase: every relaxation stream
//!   re-applies its superlative filter over the global candidate set, and a
//!   per-part extreme is not the global extreme — those asks collapse onto a
//!   transient union view in global id order and run the one-table engine
//!   verbatim (superlative questions already pay a full scan in the executor,
//!   so the union build does not change the complexity class).
//! * **Degradation composes.** A part cut by a [`QueryBudget`] reports its
//!   certification bound ([`PartialOutcome::cut_bound`]); the gather truncates
//!   the merged list at the max of the part bounds, which certifies every
//!   kept entry against everything *any* part's cut skipped, and propagates
//!   [`AnswerQuality::Degraded`] — never a silent partial merge. The serving
//!   path arms every part with the batch's one budget; the unit tests below
//!   arm parts differently.
//!
//! # Finer invalidation
//!
//! The whole-answer cache is stamped with the domain's table generation — the
//! sum of its parts' — so any insert invalidates the whole answer. Beneath
//! it, each part has its own instance of the same cache
//! ([`GenerationCache`]) holding that part's contribution to a question,
//! stamped with the part's own table generation: inserting into part A
//! invalidates only part A's contribution, and the next ask recomputes one
//! part and reuses N−1 ([`ServingStats::contributions`](crate::ServingStats)
//! counts both). Reuse across asks is sound because tables are insert-only
//! under routing (a part's merged-exact piece and its phase-1 candidate set
//! are frozen while its stamp holds; the global threshold a pruned entry lost
//! to only ever rises) and a model mutation bumps the one model generation
//! every part's stamp carries.

use crate::cache::{CacheKey, GenerationCache, GenerationStamp};
use crate::error::CqadsResult;
use crate::handle::{CqadsWriter, DomainRuntime};
use crate::partial::{
    merge_partial_answers, take_single, PartialAnswer, PartialBatchRequest, PartialMatcher,
    PartialOutcome, SharedThreshold,
};
use crate::pipeline::{Answer, AnswerSet, CqadsConfig, MatchKind};
use crate::ranking::SimilarityMeasure;
use crate::resilience::{AnswerQuality, QueryBudget};
use crate::translate::interpret;
use addb::{retain_extreme, DbResult, Executor, Query, Record, RecordId, SuperlativeKind, Table};
use cqads_storage::RetryClock;
use std::collections::HashSet;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

/// The deterministic, rebalance-free record router: global record id `g`
/// lives on part `g mod N` as local id `g div N`.
///
/// Global ids are assigned sequentially per domain (insertion order), so the
/// deal is round-robin: part loads stay within one record of each other, and
/// both directions of the map are pure arithmetic — no routing table to keep
/// consistent, nothing to rebalance or persist, and the local-id order within
/// a part is exactly the global-id order restricted to it (the property the
/// sorted exact-merge and the top-k tie-order both lean on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRouter {
    shards: usize,
}

impl RecordRouter {
    /// A router over `shards` partitions (`0` is treated as `1`).
    pub fn new(shards: usize) -> Self {
        RecordRouter {
            shards: shards.max(1),
        }
    }

    /// Number of partitions routed over.
    pub fn shards(self) -> usize {
        self.shards
    }

    /// Which shard owns global id `id`.
    pub fn shard_of(self, id: RecordId) -> usize {
        (id.0 as usize) % self.shards
    }

    /// The shard-local id of global id `id` within [`RecordRouter::shard_of`].
    pub fn local_of(self, id: RecordId) -> RecordId {
        RecordId(id.0 / self.shards as u32)
    }

    /// Invert the deal: the global id of `local` on `shard`.
    pub fn global_of(self, shard: usize, local: RecordId) -> RecordId {
        RecordId(local.0 * self.shards as u32 + shard as u32)
    }

    /// Deal `records` (in global id order) into one table per partition.
    pub(crate) fn deal(
        self,
        schema: &addb::Schema,
        records: impl IntoIterator<Item = Record>,
    ) -> DbResult<Vec<Table>> {
        let mut parts: Vec<Table> = (0..self.shards)
            .map(|_| Table::new(schema.clone()))
            .collect();
        for (g, record) in records.into_iter().enumerate() {
            parts[g % self.shards].insert(record)?;
        }
        Ok(parts)
    }
}

/// One part's cached contribution to one question: the part's exact-match
/// prefix and (when the partial phase ran losslessly) its phase-1 partial
/// list at heap budget `answer_limit`. The cache entry holding it is stamped
/// with the part's own table generation and the domain's model generation.
#[derive(Debug, Clone)]
pub(crate) struct Contribution {
    /// Part-local exact-match ids, ascending (the part's first-`limit`
    /// prefix for plain questions; superlative questions never cache).
    exact: Vec<RecordId>,
    /// Part-local phase-1 partial answers at heap budget `answer_limit`
    /// (independent of the ask-time partial budget: the top-`b` prefix of the
    /// top-`limit` list is the top-`b` list). `None` when the partial phase
    /// did not run for this question.
    partial: Option<Vec<PartialAnswer>>,
}

/// A [`CqadsWriter`] whose [`CqadsConfig::shards`] is validated up front —
/// the whole of what "sharded" means now that the partition lives inside the
/// one snapshot (module docs). Everything else is the writer's own surface,
/// reached through `Deref`.
///
/// ```
/// use cqads::shard::ShardedCqads;
/// use cqads::domain::toy_car_domain;
/// use addb::{Record, Table};
///
/// let spec = toy_car_domain();
/// let mut table = Table::new(spec.schema.clone());
/// table.insert(Record::builder()
///     .text("make", "honda").text("model", "civic")
///     .text("color", "red").text("transmission", "manual")
///     .number("price", 4500.0).number("year", 2001.0)
///     .number("mileage", 50_000.0).build()).unwrap();
/// let mut sharded = ShardedCqads::new(3).unwrap();
/// sharded.add_domain(spec, table, Default::default());
/// let set = sharded.ask("red manual cars").domain("cars").get().unwrap();
/// assert_eq!(set.answers[0].id.0, 0);
/// ```
#[derive(Debug)]
pub struct ShardedCqads(CqadsWriter);

impl ShardedCqads {
    /// A system over `shards` parts with the default configuration.
    pub fn new(shards: usize) -> CqadsResult<Self> {
        Self::with_config(CqadsConfig {
            shards: Some(shards),
            ..CqadsConfig::default()
        })
    }

    /// [`CqadsWriter::try_with_config`] behind [`CqadsConfig::validate`].
    pub fn with_config(config: CqadsConfig) -> CqadsResult<Self> {
        config.validate()?;
        CqadsWriter::try_with_config(config).map(ShardedCqads)
    }

    /// Classify, then answer: `self.ask(question).get()`.
    pub fn answer(&self, question: &str) -> CqadsResult<Arc<AnswerSet>> {
        self.0.ask(question).get()
    }
}

impl Deref for ShardedCqads {
    type Target = CqadsWriter;

    fn deref(&self) -> &CqadsWriter {
        &self.0
    }
}

impl DerefMut for ShardedCqads {
    fn deref_mut(&mut self) -> &mut CqadsWriter {
        &mut self.0
    }
}

/// One part as the answering core sees it: its table for the domain, plus the
/// cooperative budget (if any) arming this part's partial-match work.
pub(crate) struct Part<'a> {
    pub(crate) table: &'a Table,
    pub(crate) budget: Option<&'a QueryBudget>,
}

impl Part<'_> {
    /// Part-local ids of the records `query` matches, as the executor returns them.
    fn exact_ids(&self, query: &Query) -> CqadsResult<Vec<RecordId>> {
        let found = Executor::new(self.table).execute(query)?;
        Ok(found.iter().map(|a| a.id).collect())
    }
}

/// One question between the exact and the partial phase.
struct InFlight<'c> {
    /// The answer so far: exact answers only, not yet timed.
    set: AnswerSet,
    /// Clock reading when the answer began.
    start_micros: u64,
    /// Global ids of the exact answers — what the partial phase excludes.
    exact_ids: HashSet<RecordId>,
    /// `0` when the exact answers already satisfy the partial threshold.
    partial_budget: usize,
    scatter: Scatter<'c>,
}

/// What the many-parts exact phase learned per part, kept for the partial
/// phase and the contribution caches. Empty at one part.
#[derive(Default)]
struct Scatter<'c> {
    /// The per-part contribution caches and this ask's key — plain
    /// (non-superlative) unbudgeted asks only: a superlative's stripped
    /// candidate list is unbounded and a budgeted outcome is not reusable.
    cache: Option<(&'c [GenerationCache<Arc<Contribution>>], CacheKey)>,
    entries: Vec<PartEntry>,
}

/// One part's contribution to the ask in flight — the cached one, or its
/// freshly computed part-local exact ids (ascending), joined by its phase-1
/// partial list when the partial phase runs.
struct PartEntry {
    /// The part's stamp, read before anything was computed.
    stamp: GenerationStamp,
    contribution: Contribution,
    /// Whether any of the contribution was computed rather than served.
    fresh: bool,
}

impl Scatter<'_> {
    /// Remember every contribution this ask computed, so a repeat ask skips
    /// those parts' executors and engines.
    fn store(self) {
        let Some((caches, key)) = self.cache else {
            return;
        };
        for (cache, entry) in caches.iter().zip(self.entries) {
            if entry.fresh {
                cache.fill(key.clone(), entry.stamp, Arc::new(entry.contribution));
            }
        }
    }
}

/// The answering pipeline (§4.3), written once for `k` questions × `N` parts
/// of one domain: compile against the domain's one `runtime` (tag → interpret
/// → translate → render; failures reported in place) → exact phase → exact
/// answers → partial budget → partial phase → absorb, truncate, time. The
/// exact and the partial phase each have two arms, selected by `parts.len()`
/// and nothing else (module docs). `contributions` is one cache per part, or
/// empty for an ask that must compute from scratch. The outer error is a
/// partial-engine failure, which fails the call.
pub(crate) fn answer_parts(
    config: &CqadsConfig,
    clock: &dyn RetryClock,
    runtime: &DomainRuntime,
    questions: &[&str],
    parts: &[Part<'_>],
    contributions: &[GenerationCache<Arc<Contribution>>],
) -> CqadsResult<Vec<CqadsResult<AnswerSet>>> {
    let router = RecordRouter::new(parts.len());
    let domain = runtime.spec.name();

    let mut flights: Vec<CqadsResult<InFlight<'_>>> = questions
        .iter()
        .map(|question| {
            let start_micros = clock.now_micros();
            let tagged = runtime.tagger.tag(question);
            let interpretation = interpret(&tagged, &runtime.spec)?;
            let query = interpretation.to_query_with_limit(&runtime.spec, config.answer_limit)?;
            let sql = addb::sql::render(&query);

            let (exact, scatter) = if parts.len() == 1 {
                (parts[0].exact_ids(&query)?, Scatter::default())
            } else {
                scatter_exact(runtime, parts, router, &query, contributions, question)?
            };
            let n_conds = interpretation.condition_count();
            let answers: Vec<Answer> = exact
                .iter()
                .filter_map(|&id| {
                    record_of(parts, router, id).map(|record| Answer {
                        id,
                        record,
                        kind: MatchKind::Exact,
                        rank_sim: n_conds as f64,
                        measure: SimilarityMeasure::None,
                    })
                })
                .collect();
            // Top up with partially-matched answers when exact answers are scarce.
            let partial_budget = config.partial_budget(answers.len());
            Ok(InFlight {
                set: AnswerSet {
                    domain: domain.to_string(),
                    tagged,
                    interpretation,
                    sql,
                    exact_count: answers.len(),
                    answers,
                    quality: AnswerQuality::Complete,
                    elapsed: Duration::ZERO,
                },
                start_micros,
                exact_ids: exact.into_iter().collect(),
                partial_budget,
                scatter,
            })
        })
        .collect();

    let mut needy: Vec<&mut InFlight<'_>> = flights
        .iter_mut()
        .filter_map(|flight| flight.as_mut().ok())
        .filter(|flight| flight.partial_budget > 0)
        .collect();
    let partials: Vec<PartialOutcome> = if needy.is_empty() {
        Vec::new()
    } else if parts.len() == 1 {
        // One batched engine call serves every question of the call.
        let requests: Vec<PartialBatchRequest<'_>> = needy
            .iter()
            .map(|flight| PartialBatchRequest {
                interpretation: &flight.set.interpretation,
                exclude: &flight.exact_ids,
                budget: flight.partial_budget,
            })
            .collect();
        PartialMatcher::new(&runtime.spec, &runtime.similarity).partial_answers_batch_budgeted(
            &requests,
            parts[0].table,
            parts[0].budget,
        )?
    } else {
        needy
            .iter_mut()
            .map(|flight| scatter_partial(config, runtime, parts, router, flight))
            .collect::<CqadsResult<_>>()?
    };
    for (flight, outcome) in needy.into_iter().zip(partials) {
        if outcome.degraded {
            flight.set.quality = AnswerQuality::Degraded {
                visited: outcome.visited,
                budget_exhausted: true,
            };
        }
        let absorbed = outcome.answers.into_iter().filter_map(|p| {
            record_of(parts, router, p.id).map(|record| Answer {
                id: p.id,
                record,
                kind: MatchKind::Partial,
                rank_sim: p.rank_sim,
                measure: p.measure,
            })
        });
        flight.set.answers.extend(absorbed);
        flight.set.answers.truncate(config.answer_limit);
    }

    let timed = flights.into_iter().map(|flight| {
        let mut flight = flight?;
        flight.scatter.store();
        let micros = clock.now_micros().saturating_sub(flight.start_micros);
        flight.set.elapsed = Duration::from_micros(micros);
        Ok(flight.set)
    });
    Ok(timed.collect())
}

/// The record behind global id `gid`, from whichever part holds it.
fn record_of(parts: &[Part<'_>], router: RecordRouter, gid: RecordId) -> Option<Arc<Record>> {
    parts[router.shard_of(gid)]
        .table
        .get_shared(router.local_of(gid))
}

/// The union of `tables` (the parts of one domain, in part order) in global
/// id order: record `g` comes from part `g mod N`.
pub(crate) fn in_global_order<'a>(tables: &'a [&'a Table]) -> impl Iterator<Item = &'a Record> {
    let router = RecordRouter::new(tables.len());
    let total: usize = tables.iter().map(|t| t.len()).sum();
    (0..total as u32)
        .filter_map(move |g| tables[router.shard_of(RecordId(g))].get(router.local_of(RecordId(g))))
}

/// Many-parts exact phase: the global ids of the first `query.limit` exact
/// matches, ascending (superlatives applied), plus what the partial phase and
/// the contribution caches need per part.
fn scatter_exact<'c>(
    runtime: &DomainRuntime,
    parts: &[Part<'_>],
    router: RecordRouter,
    query: &Query,
    contributions: &'c [GenerationCache<Arc<Contribution>>],
    question: &str,
) -> CqadsResult<(Vec<RecordId>, Scatter<'c>)> {
    let superlative = !query.superlatives.is_empty();
    let cacheable = contributions.len() == parts.len()
        && contributions.iter().all(GenerationCache::is_enabled)
        && !superlative
        && parts.iter().all(|p| p.budget.is_none());
    let cache = cacheable.then(|| (contributions, CacheKey::new(runtime.spec.name(), question)));

    // A superlative filters over the *global* candidate set, so each part
    // reports its full (untruncated) pre-superlative matches and the gather
    // re-applies the chain over the merge. The stripped query skips the
    // executor's superlative validation, so part 0 first vets the query as
    // compiled (every part shares the one schema).
    let stripped;
    let per_part = if superlative {
        Executor::new(parts[0].table).validate(query)?;
        stripped = Query::new(query.table.as_str())
            .with_expr(query.expr.clone())
            .with_limit(usize::MAX);
        &stripped
    } else {
        query
    };
    let model = runtime.similarity.generation();
    let mut entries = Vec::with_capacity(parts.len());
    for (i, part) in parts.iter().enumerate() {
        // Read before computing, like every stamp (cache module docs).
        let stamp = GenerationStamp::new(part.table.generation(), model);
        let cached = cache
            .as_ref()
            .and_then(|(caches, key)| caches[i].lookup(key, stamp));
        entries.push(match cached {
            Some(hit) => PartEntry {
                stamp,
                contribution: Arc::unwrap_or_clone(hit),
                fresh: false,
            },
            None => PartEntry {
                stamp,
                contribution: Contribution {
                    exact: part.exact_ids(per_part)?,
                    partial: None,
                },
                fresh: true,
            },
        });
    }

    let mut merged: Vec<RecordId> = entries
        .iter()
        .enumerate()
        .flat_map(|(i, entry)| {
            let exact = entry.contribution.exact.iter();
            exact.map(move |&local| router.global_of(i, local))
        })
        .collect();
    merged.sort_unstable();
    // One `retain_extreme` step per superlative over the merged (ascending)
    // global candidates, values resolved from whichever part holds the record.
    for s in &query.superlatives {
        let max = matches!(s.kind, SuperlativeKind::Max);
        retain_extreme(&mut merged, max, |gid| {
            record_of(parts, router, gid).and_then(|r| r.get_number(&s.attribute))
        });
    }
    merged.truncate(query.limit);
    Ok((merged, Scatter { cache, entries }))
}

/// Many-parts partial phase for one question: its top `partial_budget`
/// partial answers in global id space, with the visit tally and the
/// degradation flag gathered across parts.
fn scatter_partial(
    config: &CqadsConfig,
    runtime: &DomainRuntime,
    parts: &[Part<'_>],
    router: RecordRouter,
    flight: &mut InFlight<'_>,
) -> CqadsResult<PartialOutcome> {
    let interpretation = &flight.set.interpretation;
    let partial_budget = flight.partial_budget;
    let engine = PartialMatcher::new(&runtime.spec, &runtime.similarity);
    // The plain engine (own thresholds, own fallback) on one table.
    let plain = |table, exclude, cut| {
        let request = PartialBatchRequest {
            interpretation,
            exclude,
            budget: partial_budget,
        };
        take_single(engine.partial_answers_batch_budgeted(&[request], table, cut)?)
    };
    if !interpretation.superlatives.is_empty() {
        // Every relaxation stream re-applies its superlative filter over
        // the *global* candidate set — a per-part extreme is not the global
        // extreme, so the partial phase of a superlative question does not
        // decompose per part. Collapse it onto a transient union view in
        // global id order and run the one-table engine verbatim
        // (byte-identity by construction; superlative questions already pay
        // a full scan in the executor, so the union build does not change
        // the complexity class).
        let tables: Vec<&Table> = parts.iter().map(|p| p.table).collect();
        let union = Table::from_records(
            tables[0].schema().clone(),
            in_global_order(&tables).cloned(),
            0,
        )?;
        let cut = parts.iter().find_map(|p| p.budget);
        return plain(&union, &flight.exact_ids, cut);
    }

    let Scatter { cache, entries } = &mut flight.scatter;
    // The exclusion set is the *merged* exact result dealt back to part-local
    // id space — exactly the set the one-table engine excludes.
    let mut excludes: Vec<HashSet<RecordId>> = vec![HashSet::new(); parts.len()];
    for &gid in &flight.exact_ids {
        excludes[router.shard_of(gid)].insert(router.local_of(gid));
    }
    // One WAND threshold shared across every freshly-computed part: a full
    // heap anywhere prunes everywhere (admissible; see the partial-matcher
    // module docs).
    let thresholds = vec![Arc::new(SharedThreshold::new())];
    let mut outcomes: Vec<PartialOutcome> = Vec::with_capacity(parts.len());
    for (i, (part, entry)) in parts.iter().zip(entries).enumerate() {
        outcomes.push(match entry.contribution.partial.take() {
            Some(answers) => PartialOutcome {
                answers,
                visited: 0,
                degraded: false,
                cut_bound: f64::NEG_INFINITY,
            },
            None => {
                let request = PartialBatchRequest {
                    interpretation,
                    exclude: &excludes[i],
                    // Heap budget = answer_limit regardless of the ask-time
                    // partial budget, so the contribution is reusable: top-b
                    // prefix of top-limit = top-b.
                    budget: config.answer_limit,
                };
                let outcome = take_single(engine.partial_answers_batch_scatter(
                    &[request],
                    part.table,
                    part.budget,
                    &thresholds,
                )?)?;
                if cache.is_some() {
                    entry.contribution.partial = Some(outcome.answers.clone());
                    entry.fresh = true;
                }
                outcome
            }
        });
    }

    let any_cut = outcomes.iter().any(|o| o.degraded);
    let counts: usize = outcomes.iter().map(|o| o.answers.len()).sum();
    let is_multi = interpretation.all_sketches().len() > 1;
    // Global sparse-fallback decision: if any part's heap ever filled,
    // `counts >= answer_limit >= partial_budget` already (a threshold only
    // rises off a full heap), so a short count here proves the global phase-1
    // candidate set is genuinely smaller than the budget — the same condition
    // the unsharded engine checks on its single heap.
    if is_multi && !any_cut && counts < partial_budget {
        // Rare sparse case: discard phase 1 and run the plain per-part
        // engine at the real budget — each part is sparse too (its candidate
        // count is below the budget), so each runs the same phase-1 +
        // degree-of-match pass the unsharded engine would, and the merge of
        // complete per-part lists is the global list.
        outcomes.clear();
        for (part, exclude) in parts.iter().zip(&excludes) {
            outcomes.push(plain(part.table, exclude, part.budget)?);
        }
    }

    let visited = outcomes.iter().map(|o| o.visited).sum();
    let degraded = outcomes.iter().any(|o| o.degraded);
    let mut cut_bound = outcomes
        .iter()
        .fold(f64::NEG_INFINITY, |bound, o| bound.max(o.cut_bound));
    // Scores, measures and relaxed-condition indexes are part-independent;
    // only the id moves to global space.
    let global = outcomes.into_iter().enumerate().flat_map(|(i, outcome)| {
        let to_global = move |p: PartialAnswer| PartialAnswer {
            id: router.global_of(i, p.id),
            ..p
        };
        outcome.answers.into_iter().map(to_global)
    });
    let mut answers = merge_partial_answers(partial_budget, global);
    // A cut plus a short merged list means the undegraded engine might have
    // run the degree-of-match fallback (scores up to N): widen the
    // certification bound accordingly, exactly like the single-heap engine's
    // sparse-under-cut arm.
    if degraded && is_multi && answers.len() < partial_budget {
        cut_bound = cut_bound.max(interpretation.condition_count() as f64);
    }
    if cut_bound > f64::NEG_INFINITY {
        let keep = answers
            .iter()
            .take_while(|a| a.rank_sim > cut_bound)
            .count();
        answers.truncate(keep);
    }
    Ok(PartialOutcome {
        answers,
        visited,
        degraded,
        cut_bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{toy_car_domain, DomainSpec};
    use crate::error::CqadsError;
    use cqads_querylog::{QueryLogDelta, TIMatrix};
    use cqads_storage::ManualClock;
    use cqads_wordsim::WordSimMatrix;

    /// make, model, color, transmission; price, year.
    type Row = ([&'static str; 4], f64, f64);

    const SEED_ROWS: [Row; 6] = [
        (["honda", "accord", "blue", "automatic"], 6600.0, 2004.0),
        (["honda", "accord", "gold", "manual"], 16_536.0, 2009.0),
        (["honda", "civic", "red", "automatic"], 4500.0, 2001.0),
        (["toyota", "camry", "blue", "automatic"], 8561.0, 2006.0),
        (["toyota", "corolla", "silver", "manual"], 3900.0, 1999.0),
        (["ford", "focus", "blue", "manual"], 6795.0, 2005.0),
    ];
    const EXTRA_ROW: Row = (["ford", "focus", "red", "manual"], 7000.0, 2007.0);

    fn car_builder(([make, model, color, trans], price, year): Row) -> addb::RecordBuilder {
        let text = Record::builder()
            .text("make", make)
            .text("model", model)
            .text("color", color)
            .text("transmission", trans);
        text.number("price", price)
            .number("year", year)
            .number("mileage", 50_000.0)
    }

    fn car(row: Row) -> Record {
        car_builder(row).build()
    }

    fn seeded_table() -> Table {
        Table::from_records(toy_car_domain().schema, SEED_ROWS.map(car), 0).unwrap()
    }

    fn models() -> (WordSimMatrix, TIMatrix) {
        let mut ws = WordSimMatrix::default();
        ws.insert("blue", "gold", 0.5);
        let mut ti = TIMatrix::default();
        ti.insert("accord", "camry", 4.0);
        (ws, ti)
    }

    /// The system under test at `n` parts (`None`: the default config).
    fn system(n: Option<usize>) -> CqadsWriter {
        system_over(n, toy_car_domain(), seeded_table())
    }

    fn system_over(n: Option<usize>, spec: DomainSpec, table: Table) -> CqadsWriter {
        let (ws, ti) = models();
        let mut writer = CqadsWriter::with_config(CqadsConfig {
            shards: n,
            ..CqadsConfig::default()
        });
        writer.set_word_sim(ws);
        writer.try_add_domain(spec, table, ti).unwrap();
        writer
    }

    const QUESTIONS: [&str; 6] = [
        "Do you have automatic blue cars?",
        "red manual cars",
        "honda accord under 10000 dollars",
        "cheapest blue car",
        "newest honda",
        "toyota camry automatic blue",
    ];

    fn assert_same(a: &AnswerSet, b: &AnswerSet) {
        assert_eq!(a.sql, b.sql);
        assert_eq!(a.exact_count, b.exact_count);
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.answers.len(), b.answers.len(), "{} vs {}", a.sql, b.sql);
        for (x, y) in a.answers.iter().zip(&b.answers) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.measure, y.measure);
            assert_eq!(x.rank_sim.to_bits(), y.rank_sim.to_bits());
        }
    }

    /// Every question answers on `sharded` exactly as `reference` computes it
    /// — and again when served whole from the answer cache.
    fn assert_answers_like(reference: &CqadsWriter, sharded: &CqadsWriter) {
        for q in QUESTIONS {
            let want = reference.ask(q).domain("cars").uncached().get().unwrap();
            for _ in 0..2 {
                assert_same(&sharded.ask(q).domain("cars").get().unwrap(), &want);
            }
        }
    }

    #[test]
    fn router_round_trips_every_id() {
        for n in [1, 2, 3, 7, 16] {
            let router = RecordRouter::new(n);
            for raw in 0..200u32 {
                let id = RecordId(raw);
                let shard = router.shard_of(id);
                assert!(shard < n);
                assert_eq!(router.global_of(shard, router.local_of(id)), id);
            }
        }
    }

    #[test]
    fn sharded_answers_match_unsharded_byte_for_byte() {
        let reference = system(None);
        for n in [1, 2, 3, 7] {
            assert_answers_like(&reference, &system(Some(n)));
        }
        // The constructor adds validation and nothing else.
        let (ws, ti) = models();
        let mut sharded = ShardedCqads::new(3).unwrap();
        sharded.set_word_sim(ws);
        sharded.add_domain(toy_car_domain(), seeded_table(), ti);
        assert_answers_like(&reference, &sharded);
        let want = reference.ask(QUESTIONS[1]).uncached().get().unwrap();
        assert_same(&sharded.answer(QUESTIONS[1]).unwrap(), &want);
    }

    #[test]
    fn insert_routes_to_one_shard_and_keeps_identity() {
        let mut reference = system(None);
        let mut sharded3 = system(Some(3));
        let part_lens = |system: &CqadsWriter| -> Vec<usize> {
            let tables = system.master.tables("cars").unwrap();
            tables.iter().map(|table| table.len()).collect()
        };
        assert_eq!(part_lens(&sharded3), [2, 2, 2]);
        let a = reference.insert_record("cars", car(EXTRA_ROW)).unwrap();
        let b = sharded3.insert_record("cars", car(EXTRA_ROW)).unwrap();
        assert_eq!(a, b, "global id assignment must match the one-part table");
        // Global id 6 lives on part 0 of 3, and nowhere else.
        assert_eq!(part_lens(&sharded3), [3, 2, 2]);
        assert_eq!(
            sharded3.master.table_generation("cars"),
            reference.master.table_generation("cars"),
            "the domain-level generation is the same number at every part count"
        );
        assert_answers_like(&reference, &sharded3);
    }

    /// `ShardedCqads::add_domain` used to deal into tables built from
    /// `spec.schema` and drop, in release builds, every record that schema
    /// rejected — here all of them, because the table's own schema carries an
    /// attribute the spec's does not. The deal now keeps the table's schema
    /// (as the one-part system does by moving the table in), so the records,
    /// their ids and every answer are the same at every part count.
    #[test]
    fn a_table_whose_schema_differs_from_the_specs_is_dealt_whole() {
        let wider = addb::Schema::builder("cars")
            .type1("make")
            .type1("model")
            .type2("color")
            .type2("transmission")
            .type2("trim")
            .type3("price", 500.0, 120_000.0, Some("usd"))
            .type3("year", 1985.0, 2011.0, None)
            .type3("mileage", 0.0, 300_000.0, Some("miles"))
            .build()
            .unwrap();
        let table = || {
            let trimmed = SEED_ROWS.map(|row| car_builder(row).text("trim", "sport").build());
            Table::from_records(wider.clone(), trimmed, 0).unwrap()
        };
        let reference = system_over(None, toy_car_domain(), table());
        for n in [2, 3] {
            let mut sharded = system_over(Some(n), toy_car_domain(), table());
            assert_eq!(sharded.master.totals("cars"), Some((6, 6)), "{n} parts");
            assert_answers_like(&reference, &sharded);
            let id = sharded.insert_record("cars", car(EXTRA_ROW)).unwrap();
            assert_eq!(id, RecordId(6), "{n} parts");
        }
    }

    /// A record the deal cannot place is a typed error, and nothing is dealt.
    #[test]
    fn a_record_the_deal_cannot_place_is_a_typed_error() {
        let narrow = toy_car_domain().schema;
        let stray = car_builder(EXTRA_ROW).text("trim", "sport").build();
        let records = SEED_ROWS.map(car).into_iter().chain([stray]);
        let err = RecordRouter::new(2).deal(&narrow, records).unwrap_err();
        assert!(
            matches!(err, addb::DbError::UnknownAttribute { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn single_shard_write_invalidates_only_its_contribution() {
        let mut sharded2 = system(Some(2));
        let ask = |system: &CqadsWriter| -> (u64, u64) {
            system.ask(QUESTIONS[0]).domain("cars").get().unwrap();
            let stats = system.serving_stats().contributions;
            (stats.hits, stats.misses)
        };
        assert_eq!(ask(&sharded2), (0, 2), "first ask misses every part");
        // A repeat ask is the whole-answer cache's; beneath it, every part's
        // contribution is there for a recomputation to reuse.
        assert_eq!(ask(&sharded2), (0, 2));
        sharded2.cache().clear();
        assert_eq!(ask(&sharded2), (2, 2), "recomputing hits every part");
        // Global id 6 routes to part 0: part 1's contribution survives.
        let id = sharded2.insert_record("cars", car(EXTRA_ROW)).unwrap();
        assert_eq!(RecordRouter::new(2).shard_of(id), 0);
        assert_eq!(
            ask(&sharded2),
            (3, 3),
            "after a part-0 write, part 1 hits and part 0 recomputes"
        );
        // One part has no such layer: a contribution there is the answer.
        assert_eq!(ask(&system(Some(1))), (0, 0));
    }

    /// There is one model, so a model mutation runs once whatever the part
    /// count — every generation it moves lands on the one-part system's
    /// number — and invalidates every part's contribution at once.
    #[test]
    fn model_mutations_broadcast_and_invalidate_everywhere() {
        let q = QUESTIONS[2];
        for n in [1, 2, 3, 7] {
            let mut system = system(Some(n));
            system.set_word_sim(models().0);
            system.ask(q).domain("cars").get().unwrap();
            let before = system.serving_stats().contributions;
            let report = system
                .ingest_query_log("cars", &QueryLogDelta::default())
                .unwrap();
            assert_eq!(
                report.model_generation, 2,
                "one swap + one ingest, {n} parts"
            );
            assert_eq!(system.model_generation("cars"), Some(2));
            system.ask(q).domain("cars").get().unwrap();
            let after = system.serving_stats().contributions;
            assert_eq!(after.hits, before.hits, "no contribution stays fresh");
            let recomputed = if n == 1 { 0 } else { n as u64 };
            assert_eq!(after.misses - before.misses, recomputed);
        }
    }

    #[test]
    fn zero_shards_is_a_config_error() {
        let config = CqadsConfig {
            shards: Some(0),
            ..CqadsConfig::default()
        };
        assert!(matches!(config.validate(), Err(CqadsError::Config(_))));
        let refused = ShardedCqads::with_config(config);
        assert!(matches!(refused, Err(CqadsError::Config(_))));
    }

    /// Every erroring question fails exactly as the one-part system does, at
    /// every part count. The toy domain itself cannot make the executor fail,
    /// so the last two cases misdeclare it: a superlative over the categorical
    /// `color` compiles and is rejected by `Executor::validate` (which the
    /// stripped per-part queries would pass), a numeric comparison over it is
    /// rejected by the translator.
    #[test]
    fn unknown_domain_and_empty_question_errors_match() {
        let mut misdeclared = toy_car_domain();
        misdeclared.set_price_attribute("color");
        misdeclared.add_type3_keyword("color", "hue");
        let contradiction = "honda above 9000 dollars and below 2000 dollars";
        let cases = [
            (toy_car_domain(), "blue cars", "boats"),
            (toy_car_domain(), "the of and", "cars"),
            (toy_car_domain(), contradiction, "cars"),
            (misdeclared.clone(), "cheapest blue car", "cars"),
            (misdeclared, "honda hue under 5", "cars"),
        ];
        for (spec, question, domain) in cases {
            let failure = |n| {
                let system = system_over(n, spec.clone(), seeded_table());
                system.ask(question).domain(domain).get().unwrap_err()
            };
            let want = failure(None);
            for n in [1, 2, 3] {
                let context = format!("{question:?} in {domain:?} at {n} part(s)");
                assert_eq!(failure(Some(n)), want, "{context}");
            }
        }
    }

    /// One part exhausting its [`QueryBudget`] mid-scatter must degrade only
    /// its contribution: the gathered answer is a certified prefix of the
    /// complete (unbudgeted) answer with [`AnswerQuality::Degraded`]
    /// propagated — never a silent partial merge — and the exact phase
    /// survives intact because budgets only govern the partial engines. The
    /// serving path arms every part with one budget (`tests/chaos.rs` covers
    /// that); only a direct `answer_parts` call can arm them differently.
    #[test]
    fn one_shards_exhausted_budget_degrades_only_its_contribution() {
        let system = system(Some(2));
        let clock: Arc<dyn RetryClock> = Arc::new(ManualClock::new());
        let cancelled = QueryBudget::new(Arc::clone(&clock), 1_000_000);
        cancelled.cancel();
        let answer = |budgets: [Option<&QueryBudget>; 2], q: &str| {
            let (runtime, mut parts) = system.master.domain_parts("cars", None).unwrap();
            for (part, budget) in parts.iter_mut().zip(budgets) {
                part.budget = budget;
            }
            let config = system.config();
            let answered = answer_parts(config, clock.as_ref(), runtime, &[q], &parts, &[]);
            take_single(answered.unwrap()).unwrap().unwrap()
        };
        let cut = Some(&cancelled);
        let mut degraded = 0;
        for q in QUESTIONS {
            let complete = answer([None, None], q);
            assert!(complete.quality.is_complete());
            // Cancel each part's budget in turn (the other part stays whole),
            // then both: the fully-cut scatter is the worst case, not a
            // special one.
            for budgets in [[cut, None], [None, cut], [cut, cut]] {
                let got = answer(budgets, q);
                // Explicit degradation or byte-identical completeness —
                // never a silently short answer.
                assert!(got.answers.len() <= complete.answers.len());
                if got.answers.len() < complete.answers.len() {
                    let flagged = AnswerQuality::Degraded {
                        visited: 0,
                        budget_exhausted: true,
                    };
                    assert_eq!(got.quality, flagged, "silent partial merge on {q:?}");
                    degraded += 1;
                }
                // The gathered answer is a certified prefix of the complete one.
                assert_eq!(got.exact_count, complete.exact_count, "{q:?}");
                for (x, y) in got.answers.iter().zip(&complete.answers) {
                    assert_eq!(x.id, y.id, "{q:?} diverged beyond truncation");
                    assert_eq!(x.kind, y.kind);
                    assert_eq!(x.rank_sim.to_bits(), y.rank_sim.to_bits());
                }
            }
        }
        assert!(degraded > 0, "a cancelled budget must cut something");
    }
}
