//! Scatter-gather sharded serving: N independent per-domain partitions behind
//! one byte-identical `answer` call.
//!
//! # Why
//!
//! PR 2's worker sharding splits the record-id space *inside* one matcher call
//! over one table; production scale wants N independent shards per domain —
//! each a full [`CqadsWriter`]/[`CqadsReader`] pair with its own posting
//! lists, its own answer-cache stripes and its own [`GenerationStamp`] space —
//! answered by scatter-gather. [`ShardedCqads`] is that layer: writes route to
//! exactly one shard (bumping only that shard's generations, so unrelated
//! shards' cached contributions survive — see the contribution cache below),
//! reads load every shard's published snapshot and hand them, as `N` parts,
//! to the one answering core.
//!
//! # One core, two arms
//!
//! `answer_parts` is the whole answering procedure (§4.3) over `k` questions
//! × `N` parts (a `Part` is one snapshot's runtime and table for the domain),
//! and the only one: the unsharded `ask` and `answer_batch` ([`crate::handle`])
//! call it with their one snapshot, [`ShardedCqads`] with its `N`. Compilation,
//! the exact answers, the partial budget and the final absorb/truncate are
//! shared; the exact and the partial stage each have two arms, selected by
//! `parts.len()` and nothing else. One part runs the executor on the query as
//! compiled and one batched partial fan-out with the engine's own fallback.
//! Many parts scatter to every part, run the same WAND/partial engines per
//! part and gather through the same deterministic top-k merge the in-table
//! worker fan-out uses.
//!
//! # The byte-identity argument
//!
//! `ShardedCqads` with any shard count returns the same `AnswerSet` — same
//! SQL, same ids, same kinds, same `rank_sim` bits, same `exact_count`, same
//! quality — as one unsharded [`CqadsReader`] over the union table
//! (`tests/properties.rs` machine-checks this for shard counts 1/2/3/7). At
//! `N = 1` identity holds by construction, because it is the same call on the
//! same table; for the many-parts arm:
//!
//! * **Routing is invertible and order-preserving.** [`RecordRouter`] deals
//!   global record id `g` to shard `g % N` as local id `g / N`; both maps are
//!   strictly monotone per shard, so per-shard ascending-id order is global
//!   ascending-id order and a freshly inserted record (global id = the running
//!   count) lands exactly where the shard's own table assigns its next local
//!   id. No id ever moves (rebalance-free by construction).
//! * **Compilation is table-independent.** Tagging, interpretation, query
//!   translation and SQL rendering read only the domain spec and the shared
//!   models, which every shard replicates verbatim — compiling on shard 0
//!   equals compiling anywhere. Schema-level validation is record-independent
//!   and runs first in every executor call, so shard 0's own pass (on the query
//!   as compiled) surfaces the unsharded error before any cache entry can exist.
//! * **Exact gather is a sorted-merge.** Each shard's exact pass returns its
//!   first `limit` matching ids ascending; any id in the global first-`limit`
//!   has fewer than `limit` global predecessors, hence fewer than `limit`
//!   predecessors within its own shard — so the union of per-shard prefixes
//!   covers the global prefix, and merge + truncate reproduces it exactly.
//!   Superlative chains are re-applied at the gather over the merged candidate
//!   set through [`addb::retain_extreme`], the definition the executor's own
//!   superlative steps are documented against.
//! * **Partial gather inherits the worker-merge proof.** Per-record scores are
//!   table-independent (`Num_Sim` ranges come from the spec, text/TI scores
//!   from the shared models), shard id spaces are disjoint, and the gather
//!   runs the same `TopK` collector over the per-shard lists — so the merged
//!   top-k equals the one heap the unsharded engine builds, ties resolving by
//!   global id either way. Shards prune against one cross-shard
//!   [`SharedThreshold`], admissible because a published value is the worst of
//!   some full heap of the same budget. The sparse degree-of-match fallback is
//!   a *global* decision (a per-shard sparse heap says nothing about the whole
//!   table), so shards run phase 1 with the fallback suppressed and the gather
//!   re-runs the plain per-shard engine at the real budget in the rare sparse
//!   case — if any shard's heap ever filled, the candidate total already
//!   covers the budget and no fallback was due anyway. The one non-decomposable
//!   case is a *superlative* question's partial phase: every relaxation stream
//!   re-applies its superlative filter over the global candidate set, and a
//!   per-shard extreme is not the global extreme — those asks collapse onto a
//!   transient union view in global id order and run the one-table engine
//!   verbatim (superlative questions already pay a full scan in the executor,
//!   so the union build does not change the complexity class).
//! * **Degradation composes.** A shard cut by a [`QueryBudget`] reports its
//!   certification bound ([`PartialOutcome::cut_bound`]); the gather truncates
//!   the merged list at the max of the shard bounds, which certifies every
//!   kept entry against everything *any* shard's cut skipped, and propagates
//!   [`AnswerQuality::Degraded`] — never a silent partial merge.
//!
//! # Finer invalidation
//!
//! Each shard contributes from its own generation space, so the contribution
//! cache keeps one stamped entry per shard per question:
//! inserting into shard A invalidates only shard A's contribution, and the
//! next ask recomputes one shard and reuses N−1 (ARCHITECTURE.md invariant
//! #9; the `shard_scaling` bench soaks this under a Zipf-skewed write mix).
//! Reuse across scatters is sound because tables are insert-only under
//! routing (a shard's merged-exact piece and its phase-1 candidate set are
//! frozen while its stamp holds; the global threshold a pruned entry lost to
//! only ever rises) and model mutations broadcast to every shard, bumping
//! every model generation at once.

use crate::cache::{CacheKey, GenerationStamp};
use crate::domain::DomainSpec;
use crate::error::{CqadsError, CqadsResult};
use crate::handle::{CqadsReader, CqadsWriter, DomainRuntime};
use crate::partial::{
    merge_partial_answers, take_single, PartialAnswer, PartialBatchRequest, PartialMatchOptions,
    PartialMatcher, PartialOutcome, SharedThreshold,
};
use crate::pipeline::{Answer, AnswerSet, CqadsConfig, IngestReport, MatchKind};
use crate::ranking::SimilarityMeasure;
use crate::resilience::{AnswerQuality, QueryBudget};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use crate::translate::interpret;
use addb::{retain_extreme, Executor, Query, Record, RecordId, SuperlativeKind, Table};
use cqads_classifier::LabelledDoc;
use cqads_querylog::{QueryLogDelta, TIMatrix};
use cqads_storage::RetryClock;
use cqads_wordsim::WordSimMatrix;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// The deterministic, rebalance-free record router: global record id `g`
/// lives on shard `g mod N` as local id `g div N`.
///
/// Global ids are assigned sequentially per domain (insertion order), so the
/// deal is round-robin: shard loads stay within one record of each other, and
/// both directions of the map are pure arithmetic — no routing table to keep
/// consistent, nothing to rebalance, and the local-id order within a shard is
/// exactly the global-id order restricted to it (the property the sorted
/// exact-merge and the top-k tie-order both lean on).
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
}

/// One shard's cached contribution to one question: the shard's exact-match
/// prefix and (when the partial phase ran losslessly) its phase-1 partial
/// list at heap budget `answer_limit`, stamped with the shard's own
/// generations.
#[derive(Debug, Clone)]
struct CachedContribution {
    /// The shard's generation stamp when this contribution was computed.
    stamp: GenerationStamp,
    /// Shard-local exact-match ids, ascending (the shard's first-`limit`
    /// prefix for plain questions; superlative questions never cache).
    exact: Vec<RecordId>,
    /// Shard-local phase-1 partial answers at heap budget `answer_limit`
    /// (independent of the ask-time partial budget: the top-`b` prefix of the
    /// top-`limit` list is the top-`b` list). `None` when the partial phase
    /// did not run for this question.
    partial: Option<Vec<PartialAnswer>>,
}

/// Per-shard, generation-stamped cache of shard contributions — the
/// finer-invalidation layer: a write bumps one shard's generations, so only
/// that shard's entries go stale and the next scatter recomputes exactly one
/// contribution.
///
/// Each shard owns one stripe; a scatter touches each stripe once, for one
/// clone-out or one insert. Capacity is per stripe; an overflowing stripe is
/// cleared wholesale (same crash-only eviction the answer cache started
/// with — an LRU here is a ROADMAP follow-up).
#[derive(Debug)]
pub(crate) struct ContributionCache {
    // shard: one stripe *per shard*, never shared between shards — stripe i
    // is only ever touched while gathering shard i's contribution, under its
    // own lock, so no cross-shard state flows through it.
    stripes: Vec<Mutex<HashMap<CacheKey, CachedContribution>>>,
    /// Max entries per stripe before the wholesale clear.
    capacity: usize,
    /// Monotone count of shard contributions served from the cache.
    hits: AtomicU64,
    /// Monotone count of shard contributions that had to be recomputed.
    misses: AtomicU64,
}

impl ContributionCache {
    fn new(shards: usize, capacity: usize) -> Self {
        ContributionCache {
            // shard: construction only — each stripe stays private to its
            // shard index for the cache's whole life (see the field docs).
            stripes: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Clone out shard `shard`'s entry for `key` if it is at least as fresh
    /// as `current`.
    fn lookup(
        &self,
        shard: usize,
        key: &CacheKey,
        current: GenerationStamp,
    ) -> Option<CachedContribution> {
        // lock: O(1) — one hash probe and one clone-out of a bounded entry.
        let stripe = self.stripes.get(shard)?.lock();
        stripe.get(key).filter(|e| e.stamp.covers(current)).cloned()
    }

    fn fill(&self, shard: usize, key: CacheKey, entry: CachedContribution) {
        let Some(stripe) = self.stripes.get(shard) else {
            return;
        };
        // lock: O(1) amortized — one insert; the overflow clear is paid once
        // per `capacity` fills.
        let mut stripe = stripe.lock();
        if stripe.len() >= self.capacity && !stripe.contains_key(&key) {
            stripe.clear();
        }
        stripe.insert(key, entry);
    }

    fn note_hit(&self) {
        // ordering: monotone stats counter read for reporting only; Relaxed.
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn note_miss(&self) {
        // ordering: monotone stats counter read for reporting only; Relaxed.
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> (u64, u64) {
        // ordering: advisory reads of monotone tallies; Relaxed.
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// N per-domain partitions behind one scatter-gather `answer` call, byte-
/// identical to the unsharded [`CqadsReader`] path (module docs have the
/// argument; `tests/properties.rs` has the machine check).
///
/// Writes route to exactly one shard through the [`RecordRouter`]; model
/// mutations ([`ShardedCqads::ingest_query_log`],
/// [`ShardedCqads::set_word_sim`], [`ShardedCqads::train_classifier`])
/// broadcast to every shard so the replicated models never diverge.
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
/// let set = sharded.answer_in_domain("red manual cars", "cars").unwrap();
/// assert_eq!(set.answers[0].id.0, 0);
/// ```
#[derive(Debug)]
pub struct ShardedCqads {
    shards: Vec<CqadsWriter>,
    readers: Vec<CqadsReader>,
    router: RecordRouter,
    config: CqadsConfig,
    /// Per-domain running record count = the next global id to assign.
    next_ids: BTreeMap<String, u64>,
    cache: ContributionCache,
}

impl ShardedCqads {
    /// A sharded system over `shards` partitions with the default
    /// configuration.
    pub fn new(shards: usize) -> CqadsResult<Self> {
        Self::with_config(CqadsConfig {
            shards: Some(shards),
            ..CqadsConfig::default()
        })
    }

    /// A sharded system from `config` ([`CqadsConfig::shards`] picks the
    /// partition count; `None` means 1). [`CqadsConfig::validate`] decides what
    /// a sharded config may combine (durable storage and the resilience layer
    /// are not yet wired through the scatter path); per-request deadlines are
    /// available via [`ShardedCqads::answer_in_domain_budgeted`].
    pub fn with_config(config: CqadsConfig) -> CqadsResult<Self> {
        // Always validated as the sharded config it is: `None` means one shard.
        let n = config.shards.unwrap_or(1);
        let config = CqadsConfig {
            shards: Some(n),
            ..config
        };
        config.validate()?;
        let router = RecordRouter::new(n);
        // Each shard is a full single-table system; the per-shard config must
        // not recurse into sharding.
        let shard_config = CqadsConfig {
            shards: None,
            ..config.clone()
        };
        let shards: Vec<CqadsWriter> = (0..router.shards())
            .map(|_| CqadsWriter::try_with_config(shard_config.clone()))
            .collect::<CqadsResult<_>>()?;
        let readers = shards.iter().map(CqadsWriter::reader).collect();
        let cache = ContributionCache::new(router.shards(), config.cache_capacity);
        Ok(ShardedCqads {
            shards,
            readers,
            router,
            config,
            next_ids: BTreeMap::new(),
            cache,
        })
    }

    /// Number of partitions.
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// The record router (global ↔ shard-local id arithmetic).
    pub fn router(&self) -> RecordRouter {
        self.router
    }

    /// A detached reader handle onto one shard's published snapshot (for
    /// inspection and the interleaving tests; scatter reads go through
    /// [`ShardedCqads::answer_in_domain`]).
    pub fn shard_reader(&self, shard: usize) -> Option<CqadsReader> {
        self.readers.get(shard).cloned()
    }

    /// `(hits, misses)` of the per-shard contribution cache, counted per
    /// shard per question — the observable for the finer-invalidation
    /// property: after a single-shard write, the next ask misses once and
    /// hits N−1 times.
    pub fn contribution_cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Register a domain, dealing `table`'s records to the shards in global
    /// id order (record `g` → shard `g mod N`). The spec, TI-matrix and every
    /// model are replicated to each shard.
    pub fn add_domain(&mut self, spec: DomainSpec, table: Table, ti_matrix: TIMatrix) {
        let n = self.router.shards();
        let mut parts: Vec<Table> = (0..n).map(|_| Table::new(spec.schema.clone())).collect();
        for (id, record) in table.iter() {
            let shard = self.router.shard_of(id);
            if let Ok(local) = parts[shard].insert(record.clone()) {
                debug_assert_eq!(local, self.router.local_of(id));
            }
        }
        self.next_ids
            .insert(spec.name().to_string(), table.len() as u64);
        for (writer, part) in self.shards.iter_mut().zip(parts) {
            writer.add_domain(spec.clone(), part, ti_matrix.clone());
        }
    }

    /// Insert a record, routing it to exactly one shard — only that shard's
    /// table generation bumps, so the other shards' cached contributions
    /// survive. Returns the record's *global* id.
    pub fn insert_record(&mut self, domain: &str, record: Record) -> CqadsResult<RecordId> {
        let next = *self
            .next_ids
            .get(domain)
            .ok_or_else(|| CqadsError::UnknownDomain(domain.to_string()))?;
        let global = RecordId(next as u32);
        let shard = self.router.shard_of(global);
        let local = self.shards[shard].insert_record(domain, record)?;
        debug_assert_eq!(local, self.router.local_of(global));
        self.next_ids.insert(domain.to_string(), next + 1);
        Ok(global)
    }

    /// Apply a query-log delta to every shard's replicated TI-matrix (model
    /// mutations broadcast: the per-shard models must never diverge, and a
    /// model bump must invalidate every shard's cached contributions).
    pub fn ingest_query_log(
        &mut self,
        domain: &str,
        delta: &QueryLogDelta,
    ) -> CqadsResult<IngestReport> {
        let mut report = None;
        for writer in &mut self.shards {
            report = Some(writer.ingest_query_log(domain, delta)?);
        }
        // The constructor guarantees at least one shard; the error arm is
        // unreachable but cheaper than a panic path on this API.
        report.ok_or_else(|| CqadsError::UnknownDomain(domain.to_string()))
    }

    /// Replace the word-similarity matrix on every shard (broadcast).
    pub fn set_word_sim(&mut self, matrix: WordSimMatrix) {
        for writer in &mut self.shards {
            writer.set_word_sim(matrix.clone());
        }
    }

    /// Train the domain classifier on every shard (broadcast).
    pub fn train_classifier(&mut self, docs: &[LabelledDoc]) {
        for writer in &mut self.shards {
            writer.train_classifier(docs);
        }
    }

    /// Classify a question into a domain (the classifier is replicated;
    /// shard 0 answers for all).
    pub fn classify(&self, question: &str) -> CqadsResult<String> {
        self.readers[0].classify(question)
    }

    /// Classify, then scatter-gather the answer.
    pub fn answer(&self, question: &str) -> CqadsResult<AnswerSet> {
        let domain = self.classify(question)?;
        self.answer_in_domain(question, &domain)
    }

    /// Scatter `question` to every shard's snapshot and gather the
    /// byte-identical answer (module docs have the identity argument).
    pub fn answer_in_domain(&self, question: &str, domain: &str) -> CqadsResult<AnswerSet> {
        self.answer_in_domain_budgeted(question, domain, &[])
    }

    /// [`ShardedCqads::answer_in_domain`] with one optional cooperative
    /// [`QueryBudget`] per shard (`budgets[i]` arms shard `i`; missing tail
    /// entries mean unbudgeted). A cut shard degrades only its contribution:
    /// the gathered answer is the certified prefix of the complete one and
    /// carries [`AnswerQuality::Degraded`] — never a silent partial merge.
    pub fn answer_in_domain_budgeted(
        &self,
        question: &str,
        domain: &str,
        budgets: &[Option<&QueryBudget>],
    ) -> CqadsResult<AnswerSet> {
        // One snapshot guard per shard, all held for the whole call: each
        // shard's contribution is consistent with one published snapshot
        // whose generations bracket the call (invariant #9).
        let guards: Vec<_> = self
            .readers
            .iter()
            .map(|r| r.shared.snapshot.load())
            .collect();
        let parts: Vec<Part<'_>> = guards
            .iter()
            .enumerate()
            .map(|(i, snap)| {
                Ok(Part {
                    budget: budgets.get(i).copied().flatten(),
                    ..snap.part(domain)?
                })
            })
            .collect::<CqadsResult<_>>()?;
        take_single(answer_parts(
            &self.config,
            self.readers[0].shared.clock.as_ref(),
            domain,
            &[question],
            &parts,
            Some(&self.cache),
        )?)?
    }
}

/// One partition as the answering core sees it: one snapshot's runtime and
/// table for the domain, plus the cooperative budget (if any) arming this
/// partition's partial-match work.
pub(crate) struct Part<'a> {
    pub(crate) runtime: &'a DomainRuntime,
    pub(crate) table: &'a Table,
    pub(crate) budget: Option<&'a QueryBudget>,
}

impl Part<'_> {
    /// This partition's generation stamp: table generation × model generation.
    pub(crate) fn stamp(&self) -> GenerationStamp {
        GenerationStamp::new(
            self.table.generation(),
            self.runtime.similarity.generation(),
        )
    }

    /// Part-local ids of the records `query` matches, as the executor returns them.
    fn exact_ids(&self, query: &Query) -> CqadsResult<Vec<RecordId>> {
        let found = Executor::new(self.table).execute(query)?;
        Ok(found.iter().map(|a| a.id).collect())
    }

    /// The partial matcher configured the way every answering path uses it.
    fn matcher(&self, config: &CqadsConfig) -> PartialMatcher<'_> {
        PartialMatcher::with_options(
            &self.runtime.spec,
            &self.runtime.similarity,
            PartialMatchOptions {
                workers: config.partial_workers,
            },
        )
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
/// phase and the contribution cache. Empty at one part.
#[derive(Default)]
struct Scatter<'c> {
    /// The contribution cache and this ask's key — plain (non-superlative)
    /// unbudgeted asks only: a superlative's stripped candidate list is
    /// unbounded and a budgeted outcome is not reusable.
    cache: Option<(&'c ContributionCache, CacheKey)>,
    /// Per part, its contribution — the cached one, or its freshly computed
    /// part-local exact ids (ascending), joined by its phase-1 partial list
    /// when the partial phase runs — and whether any of it was computed
    /// rather than served.
    entries: Vec<(CachedContribution, bool)>,
}

impl Scatter<'_> {
    /// Remember every contribution this ask computed, so a repeat ask skips
    /// those parts' executors and engines.
    fn store(self) {
        let Some((cache, key)) = self.cache else {
            return;
        };
        for (i, (entry, fresh)) in self.entries.into_iter().enumerate() {
            if fresh {
                cache.note_miss();
                cache.fill(i, key.clone(), entry);
            } else {
                cache.note_hit();
            }
        }
    }
}

/// The answering pipeline (§4.3), written once for `k` questions × `N` parts:
/// compile on `parts[0]` (tag → interpret → translate → render; failures
/// reported in place) → exact phase → exact answers → partial budget →
/// partial phase → absorb, truncate, time. The exact and the partial phase
/// each have two arms, selected by `parts.len()` and nothing else (module
/// docs). The outer error is a partial-engine failure, which fails the call.
pub(crate) fn answer_parts(
    config: &CqadsConfig,
    clock: &dyn RetryClock,
    domain: &str,
    questions: &[&str],
    parts: &[Part<'_>],
    contributions: Option<&ContributionCache>,
) -> CqadsResult<Vec<CqadsResult<AnswerSet>>> {
    let router = RecordRouter::new(parts.len());
    let first = parts[0].runtime;

    let mut flights: Vec<CqadsResult<InFlight<'_>>> = questions
        .iter()
        .map(|question| {
            let start_micros = clock.now_micros();
            // Compilation reads only the spec and the shared models, which
            // every part replicates: compiling on part 0 is compiling anywhere.
            let tagged = first.tagger.tag(question);
            let interpretation = interpret(&tagged, &first.spec)?;
            let query = interpretation.to_query_with_limit(&first.spec, config.answer_limit)?;
            let sql = addb::sql::render(&query);

            let (exact, scatter) = if parts.len() == 1 {
                (parts[0].exact_ids(&query)?, Scatter::default())
            } else {
                scatter_exact(parts, router, &query, domain, question, contributions)?
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
        // One fan-out (a single set of scoped worker threads) serves every
        // question of the call.
        let requests: Vec<PartialBatchRequest<'_>> = needy
            .iter()
            .map(|flight| PartialBatchRequest {
                interpretation: &flight.set.interpretation,
                exclude: &flight.exact_ids,
                budget: flight.partial_budget,
            })
            .collect();
        parts[0].matcher(config).partial_answers_batch_budgeted(
            &requests,
            parts[0].table,
            parts[0].budget,
        )?
    } else {
        needy
            .iter_mut()
            .map(|flight| scatter_partial(config, parts, router, flight))
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

/// Many-parts exact phase: the global ids of the first `query.limit` exact
/// matches, ascending (superlatives applied), plus what the partial phase and
/// the contribution cache need per part.
fn scatter_exact<'c>(
    parts: &[Part<'_>],
    router: RecordRouter,
    query: &Query,
    domain: &str,
    question: &str,
    contributions: Option<&'c ContributionCache>,
) -> CqadsResult<(Vec<RecordId>, Scatter<'c>)> {
    let superlative = !query.superlatives.is_empty();
    let cache = contributions
        .filter(|c| c.enabled() && !superlative && parts.iter().all(|p| p.budget.is_none()))
        .map(|c| (c, CacheKey::new(domain, question)));

    // A superlative filters over the *global* candidate set, so each part
    // reports its full (untruncated) pre-superlative matches and the gather
    // re-applies the chain over the merge. The stripped query skips the
    // executor's superlative validation, so part 0 first vets the query as
    // compiled (validation precedes execution; limit 0 keeps nothing).
    let stripped;
    let per_part = if superlative {
        parts[0].exact_ids(&query.clone().with_limit(0))?;
        stripped = Query::new(query.table.as_str())
            .with_expr(query.expr.clone())
            .with_limit(usize::MAX);
        &stripped
    } else {
        query
    };
    let mut entries = Vec::with_capacity(parts.len());
    for (i, part) in parts.iter().enumerate() {
        let stamp = part.stamp();
        let cached = cache.as_ref().and_then(|(c, key)| c.lookup(i, key, stamp));
        entries.push(match cached {
            Some(entry) => (entry, false),
            None => {
                let exact = part.exact_ids(per_part)?;
                let partial = None;
                (
                    CachedContribution {
                        stamp,
                        exact,
                        partial,
                    },
                    true,
                )
            }
        });
    }

    let mut merged: Vec<RecordId> = entries
        .iter()
        .enumerate()
        .flat_map(|(i, (entry, _))| entry.exact.iter().map(move |&l| router.global_of(i, l)))
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
    parts: &[Part<'_>],
    router: RecordRouter,
    flight: &mut InFlight<'_>,
) -> CqadsResult<PartialOutcome> {
    let interpretation = &flight.set.interpretation;
    let partial_budget = flight.partial_budget;
    // The plain engine (own thresholds, own fallback) on one table.
    let plain = |part: &Part<'_>, table, exclude, cut| {
        let request = PartialBatchRequest {
            interpretation,
            exclude,
            budget: partial_budget,
        };
        let engine = part.matcher(config);
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
        let union = union_view(parts, router);
        let cut = parts.iter().find_map(|p| p.budget);
        return plain(&parts[0], &union, &flight.exact_ids, cut);
    }

    let Scatter { cache, entries } = &mut flight.scatter;
    // The exclusion set is the *merged* exact result dealt back to part-local
    // id space — exactly the set the unsharded engine excludes.
    let mut excludes: Vec<HashSet<RecordId>> = vec![HashSet::new(); parts.len()];
    for &gid in &flight.exact_ids {
        excludes[router.shard_of(gid)].insert(router.local_of(gid));
    }
    // One WAND threshold shared across every freshly-computed part: a full
    // heap anywhere prunes everywhere (admissible; see the partial-matcher
    // module docs).
    let thresholds = vec![Arc::new(SharedThreshold::new())];
    let mut outcomes: Vec<PartialOutcome> = Vec::with_capacity(parts.len());
    for (i, (part, (entry, fresh))) in parts.iter().zip(entries).enumerate() {
        outcomes.push(match entry.partial.take() {
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
                let outcome = take_single(part.matcher(config).partial_answers_batch_scatter(
                    &[request],
                    part.table,
                    part.budget,
                    &thresholds,
                )?)?;
                if cache.is_some() {
                    entry.partial = Some(outcome.answers.clone());
                    *fresh = true;
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
            outcomes.push(plain(part, part.table, exclude, part.budget)?);
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

/// Rebuild the unsharded table in global id order from the part snapshots
/// (record `g` comes from part `g mod N`). Only the many-parts partial phase
/// of superlative questions pays this — see [`scatter_partial`].
fn union_view(parts: &[Part<'_>], router: RecordRouter) -> Table {
    let total: usize = parts.iter().map(|p| p.table.len()).sum();
    let mut union = Table::new(parts[0].table.schema().clone());
    for g in 0..total as u32 {
        if let Some(record) = record_of(parts, router, RecordId(g)) {
            if let Ok(assigned) = union.insert((*record).clone()) {
                debug_assert_eq!(assigned, RecordId(g));
            }
        }
    }
    union
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::toy_car_domain;
    use crate::resilience::ResilienceOptions;
    use crate::storage::StorageOptions;

    fn car(make: &str, model: &str, color: &str, trans: &str, price: f64, year: f64) -> Record {
        Record::builder()
            .text("make", make)
            .text("model", model)
            .text("color", color)
            .text("transmission", trans)
            .number("price", price)
            .number("year", year)
            .number("mileage", 50_000.0)
            .build()
    }

    fn seed_cars() -> Vec<Record> {
        vec![
            car("honda", "accord", "blue", "automatic", 6600.0, 2004.0),
            car("honda", "accord", "gold", "manual", 16_536.0, 2009.0),
            car("honda", "civic", "red", "automatic", 4500.0, 2001.0),
            car("toyota", "camry", "blue", "automatic", 8561.0, 2006.0),
            car("toyota", "corolla", "silver", "manual", 3900.0, 1999.0),
            car("ford", "focus", "blue", "manual", 6795.0, 2005.0),
        ]
    }

    fn seeded_table() -> Table {
        let spec = toy_car_domain();
        let mut table = Table::new(spec.schema.clone());
        for record in seed_cars() {
            table.insert(record).unwrap();
        }
        table
    }

    fn models() -> (WordSimMatrix, TIMatrix) {
        let mut ws = WordSimMatrix::default();
        ws.insert("blue", "gold", 0.5);
        let mut ti = TIMatrix::default();
        ti.insert("accord", "camry", 4.0);
        (ws, ti)
    }

    fn unsharded() -> CqadsWriter {
        unsharded_over(toy_car_domain())
    }

    fn unsharded_over(spec: DomainSpec) -> CqadsWriter {
        let (ws, ti) = models();
        let mut writer = CqadsWriter::with_config(CqadsConfig::default());
        writer.set_word_sim(ws);
        writer.add_domain(spec, seeded_table(), ti);
        writer
    }

    fn sharded(n: usize) -> ShardedCqads {
        sharded_over(n, toy_car_domain())
    }

    fn sharded_over(n: usize, spec: DomainSpec) -> ShardedCqads {
        let (ws, ti) = models();
        let mut sharded = ShardedCqads::new(n).unwrap();
        sharded.set_word_sim(ws);
        sharded.add_domain(spec, seeded_table(), ti);
        sharded
    }

    const QUESTIONS: [&str; 6] = [
        "Do you have automatic blue cars?",
        "red manual cars",
        "honda accord under 10000 dollars",
        "cheapest blue car",
        "newest honda",
        "toyota camry automatic blue",
    ];

    fn uncached(reader: &CqadsReader, question: &str, domain: &str) -> CqadsResult<Arc<AnswerSet>> {
        reader.ask(question).domain(domain).uncached().get()
    }

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
        let reference = unsharded();
        let reader = reference.reader();
        for n in [1, 2, 3, 7] {
            let sharded = sharded(n);
            for q in QUESTIONS {
                let want = uncached(&reader, q, "cars").unwrap();
                let got = sharded.answer_in_domain(q, "cars").unwrap();
                assert_same(&got, &want);
            }
        }
    }

    #[test]
    fn insert_routes_to_one_shard_and_keeps_identity() {
        let reference = unsharded();
        let mut writer = reference;
        let mut sharded3 = sharded(3);
        let new = car("honda", "civic", "blue", "automatic", 5100.0, 2003.0);
        let a = writer.insert_record("cars", new.clone()).unwrap();
        let b = sharded3.insert_record("cars", new).unwrap();
        assert_eq!(a, b, "global id assignment must match the unsharded table");
        let reader = writer.reader();
        for q in QUESTIONS {
            let want = uncached(&reader, q, "cars").unwrap();
            let got = sharded3.answer_in_domain(q, "cars").unwrap();
            assert_same(&got, &want);
        }
    }

    #[test]
    fn single_shard_write_invalidates_only_its_contribution() {
        let mut sharded2 = sharded(2);
        let q = QUESTIONS[0];
        sharded2.answer_in_domain(q, "cars").unwrap();
        let (h0, m0) = sharded2.contribution_cache_stats();
        assert_eq!((h0, m0), (0, 2), "first ask misses every shard");
        sharded2.answer_in_domain(q, "cars").unwrap();
        let (h1, m1) = sharded2.contribution_cache_stats();
        assert_eq!((h1 - h0, m1 - m0), (2, 0), "repeat ask hits every shard");
        // Global id 6 routes to shard 0: shard 1's contribution survives.
        let id = sharded2
            .insert_record(
                "cars",
                car("ford", "focus", "red", "manual", 7000.0, 2007.0),
            )
            .unwrap();
        assert_eq!(sharded2.router().shard_of(id), 0);
        sharded2.answer_in_domain(q, "cars").unwrap();
        let (h2, m2) = sharded2.contribution_cache_stats();
        assert_eq!(
            (h2 - h1, m2 - m1),
            (1, 1),
            "after a shard-0 write, shard 1 hits and shard 0 recomputes"
        );
    }

    #[test]
    fn model_mutations_broadcast_and_invalidate_everywhere() {
        let mut sharded2 = sharded(2);
        let q = QUESTIONS[2];
        sharded2.answer_in_domain(q, "cars").unwrap();
        sharded2.answer_in_domain(q, "cars").unwrap();
        let (h0, m0) = sharded2.contribution_cache_stats();
        let delta = QueryLogDelta::default();
        let report = sharded2.ingest_query_log("cars", &delta).unwrap();
        assert!(report.model_generation > 0);
        sharded2.answer_in_domain(q, "cars").unwrap();
        let (h1, m1) = sharded2.contribution_cache_stats();
        assert_eq!(h1, h0, "model bump leaves no shard contribution fresh");
        assert_eq!(m1 - m0, 2);
    }

    #[test]
    fn sharded_config_rejects_storage_and_resilience() {
        // The builder itself refuses both combinations...
        let config = CqadsConfig::builder()
            .shards(2)
            .storage(StorageOptions::at("/tmp/nowhere"))
            .build();
        assert!(matches!(config, Err(CqadsError::Config(_))));
        let config = CqadsConfig::builder()
            .shards(2)
            .resilience(ResilienceOptions::default())
            .build();
        assert!(matches!(config, Err(CqadsError::Config(_))));
        // ...and a hand-built config is refused by the constructor, which
        // validates it as sharded even when `shards` was left unset.
        for shards in [Some(2), None] {
            let err = ShardedCqads::with_config(CqadsConfig {
                shards,
                storage: Some(StorageOptions::at("/tmp/nowhere")),
                ..CqadsConfig::default()
            });
            assert!(matches!(err, Err(CqadsError::Config(_))));
            let err = ShardedCqads::with_config(CqadsConfig {
                shards,
                resilience: Some(ResilienceOptions::default()),
                ..CqadsConfig::default()
            });
            assert!(matches!(err, Err(CqadsError::Config(_))));
        }
    }

    #[test]
    fn zero_shards_is_a_config_error() {
        let err = CqadsConfig {
            shards: Some(0),
            ..CqadsConfig::default()
        }
        .validate();
        assert!(matches!(err, Err(CqadsError::Config(_))));
    }

    /// Every erroring question fails exactly as the unsharded system does, at
    /// every shard count. The toy domain itself cannot make the executor fail,
    /// so the last two cases misdeclare it: a superlative over the categorical
    /// `color` compiles and is rejected inside `Executor::execute` (by the
    /// validation the stripped per-part queries skip), a numeric comparison
    /// over it is rejected by the translator.
    #[test]
    fn unknown_domain_and_empty_question_errors_match() {
        let mut misdeclared = toy_car_domain();
        misdeclared.set_price_attribute("color");
        misdeclared.add_type3_keyword("color", "hue");
        let cases = [
            (toy_car_domain(), "blue cars", "boats"),
            (toy_car_domain(), "the of and", "cars"),
            (
                toy_car_domain(),
                "honda above 9000 dollars and below 2000 dollars",
                "cars",
            ),
            (misdeclared.clone(), "cheapest blue car", "cars"),
            (misdeclared, "honda hue under 5", "cars"),
        ];
        for (spec, question, domain) in cases {
            let reference = unsharded_over(spec.clone());
            let want = uncached(&reference.reader(), question, domain).unwrap_err();
            for n in [1, 2, 3] {
                let got = sharded_over(n, spec.clone())
                    .answer_in_domain(question, domain)
                    .unwrap_err();
                assert_eq!(got, want, "{question:?} in {domain:?} at {n} shard(s)");
            }
        }
    }
}
