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
//! reads compile the question once, scatter it to every shard's published
//! snapshot, run the existing WAND/partial engines per shard and gather
//! through the same deterministic top-k merge the in-table worker fan-out
//! uses.
//!
//! # The byte-identity argument
//!
//! `ShardedCqads` with any shard count returns the same `AnswerSet` — same
//! SQL, same ids, same kinds, same `rank_sim` bits, same `exact_count`, same
//! quality — as one unsharded [`CqadsReader`] over the union table
//! (`tests/properties.rs` machine-checks this for shard counts 1/2/3/7):
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
//!   equals compiling anywhere. Schema-level validation errors are reproduced
//!   by executing the compiled query against an empty same-schema table before
//!   any shard work.
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
use crate::handle::{CqadsReader, CqadsWriter, DomainRuntime, ReadContext};
use crate::partial::SharedThreshold;
use crate::partial::{merge_partial_answers, PartialAnswer, PartialBatchRequest, PartialOutcome};
use crate::pipeline::{Answer, AnswerSet, CqadsConfig, IngestReport, MatchKind};
use crate::ranking::SimilarityMeasure;
use crate::resilience::{AnswerQuality, QueryBudget};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use crate::translate::interpret;
use addb::{retain_extreme, Executor, Query, Record, RecordId, SuperlativeKind, Table};
use cqads_classifier::LabelledDoc;
use cqads_querylog::{QueryLogDelta, TIMatrix};
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
struct ContributionCache {
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
        let budgets: Vec<Option<&QueryBudget>> = vec![None; self.router.shards()];
        self.answer_scatter(question, domain, &budgets)
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
        self.answer_scatter(question, domain, budgets)
    }

    /// The scatter-gather read path. Mirrors the unsharded
    /// `ReadContext::answer_one` stage by stage; every deliberate
    /// difference is argued in the module docs.
    fn answer_scatter(
        &self,
        question: &str,
        domain: &str,
        budgets: &[Option<&QueryBudget>],
    ) -> CqadsResult<AnswerSet> {
        let n = self.router.shards();
        let config = &self.config;
        // One snapshot guard per shard, all held for the whole call: each
        // shard's contribution is consistent with one published snapshot
        // whose generations bracket the call (invariant #9).
        let guards: Vec<_> = self
            .readers
            .iter()
            .map(|r| r.shared.snapshot.load())
            .collect();
        let ctxs: Vec<ReadContext<'_>> = self
            .readers
            .iter()
            .zip(&guards)
            .map(|(r, g)| ReadContext {
                shared: &r.shared,
                snap: g,
            })
            .collect();
        let per_shard: Vec<(&DomainRuntime, &Table)> = ctxs
            .iter()
            .map(|ctx| ctx.domain_runtime(domain))
            .collect::<CqadsResult<_>>()?;

        // Compile once on shard 0: tagging/interpretation/translation read
        // only the spec and shared models, which every shard replicates.
        let clock = &self.readers[0].shared.clock;
        let start_micros = clock.now_micros();
        let (runtime0, _) = per_shard[0];
        let tagged = runtime0.tagger.tag(question);
        let interpretation = interpret(&tagged, &runtime0.spec)?;
        let query = interpretation.to_query_with_limit(&runtime0.spec, config.answer_limit)?;
        let sql = addb::sql::render(&query);
        // Surface every schema-level validation error exactly as the
        // unsharded executor would: validation is record-independent, so an
        // empty same-schema table reproduces it byte for byte.
        Executor::new(&Table::new(runtime0.spec.schema.clone())).execute(&query)?;

        let tables: Vec<&Table> = per_shard.iter().map(|&(_, t)| t).collect();
        let stamps: Vec<GenerationStamp> = per_shard
            .iter()
            .map(|&(rt, t)| GenerationStamp::new(t.generation(), rt.similarity.generation()))
            .collect();

        // Contribution-cache plan: plain (non-superlative) unbudgeted asks
        // only — a superlative's stripped candidate list is unbounded and a
        // budgeted outcome is not reusable.
        let cacheable = self.cache.enabled()
            && query.superlatives.is_empty()
            && budgets.iter().all(Option::is_none);
        let key = cacheable.then(|| CacheKey::new(domain, question));
        let mut cached: Vec<Option<CachedContribution>> = (0..n)
            .map(|i| {
                key.as_ref()
                    .and_then(|k| self.cache.lookup(i, k, stamps[i]))
            })
            .collect();

        // --- Exact phase -------------------------------------------------
        let has_superlatives = !query.superlatives.is_empty();
        let mut shard_exact: Vec<Vec<RecordId>> = Vec::with_capacity(n);
        if has_superlatives {
            // A superlative filters over the *global* candidate set, so each
            // shard reports its full (untruncated) pre-superlative matches
            // and the gather re-applies the chain over the merge.
            let stripped = Query {
                superlatives: Vec::new(),
                limit: usize::MAX,
                ..query.clone()
            };
            for table in &tables {
                let found = Executor::new(table).execute(&stripped)?;
                shard_exact.push(found.iter().map(|a| a.id).collect());
            }
        } else {
            for (i, table) in tables.iter().enumerate() {
                match &cached[i] {
                    Some(entry) => shard_exact.push(entry.exact.clone()),
                    None => {
                        let found = Executor::new(table).execute(&query)?;
                        shard_exact.push(found.iter().map(|a| a.id).collect());
                    }
                }
            }
        }
        let mut merged_exact: Vec<RecordId> = shard_exact
            .iter()
            .enumerate()
            .flat_map(|(i, locals)| locals.iter().map(move |&l| self.router.global_of(i, l)))
            .collect();
        merged_exact.sort_unstable();
        if has_superlatives {
            self.apply_superlatives_gather(&query, &mut merged_exact, &tables);
        }
        merged_exact.truncate(query.limit);

        let exact_ids: HashSet<RecordId> = merged_exact.iter().copied().collect();
        let n_conds = interpretation.condition_count();
        let mut answers: Vec<Answer> = merged_exact
            .iter()
            .filter_map(|&gid| {
                let shard = self.router.shard_of(gid);
                tables[shard]
                    .get_shared(self.router.local_of(gid))
                    .map(|record| Answer {
                        id: gid,
                        record,
                        kind: MatchKind::Exact,
                        rank_sim: n_conds as f64,
                        measure: SimilarityMeasure::None,
                    })
            })
            .collect();

        let partial_budget = config.partial_budget(answers.len());

        // --- Partial phase -----------------------------------------------
        let mut quality = AnswerQuality::Complete;
        if partial_budget > 0 && has_superlatives {
            // Every relaxation stream re-applies its superlative filter over
            // the *global* candidate set — a per-shard extreme is not the
            // global extreme, so the partial phase of a superlative question
            // does not decompose per shard. Collapse it onto a transient
            // union view in global id order and run the one-table engine
            // verbatim (byte-identity by construction; superlative questions
            // already pay a full scan in the executor, so the union build
            // does not change the complexity class).
            let union = self.union_view(&tables);
            let matcher = ctxs[0].matcher(runtime0);
            let merged = match budgets.iter().copied().flatten().next() {
                None => {
                    matcher.partial_answers(&interpretation, &union, &exact_ids, partial_budget)?
                }
                Some(budget) => {
                    let request = PartialBatchRequest {
                        interpretation: &interpretation,
                        exclude: &exact_ids,
                        budget: partial_budget,
                    };
                    let outcome = take_single(matcher.partial_answers_batch_budgeted(
                        &[request],
                        &union,
                        Some(budget),
                    )?)?;
                    if outcome.degraded {
                        quality = AnswerQuality::Degraded {
                            visited: outcome.visited,
                            budget_exhausted: true,
                        };
                    }
                    outcome.answers
                }
            };
            for p in merged {
                let shard = self.router.shard_of(p.id);
                if let Some(record) = tables[shard].get_shared(self.router.local_of(p.id)) {
                    answers.push(Answer {
                        id: p.id,
                        record,
                        kind: MatchKind::Partial,
                        rank_sim: p.rank_sim,
                        measure: p.measure,
                    });
                }
            }
        } else if partial_budget > 0 {
            // The exclusion set is the *merged* exact result dealt back to
            // shard-local id space — exactly the set the unsharded engine
            // excludes.
            let mut excludes: Vec<HashSet<RecordId>> = vec![HashSet::new(); n];
            for &gid in &merged_exact {
                excludes[self.router.shard_of(gid)].insert(self.router.local_of(gid));
            }
            // One WAND threshold shared across every freshly-computed shard:
            // a full heap anywhere prunes everywhere (admissible; see the
            // partial-matcher module docs).
            let thresholds = vec![Arc::new(SharedThreshold::new())];
            let mut outcomes: Vec<PartialOutcome> = Vec::with_capacity(n);
            for i in 0..n {
                let from_cache = cached[i].as_mut().and_then(|e| e.partial.take());
                let outcome = match from_cache {
                    Some(partial) => {
                        self.cache.note_hit();
                        PartialOutcome {
                            answers: partial,
                            visited: 0,
                            degraded: false,
                            cut_bound: f64::NEG_INFINITY,
                        }
                    }
                    None => {
                        let request = PartialBatchRequest {
                            interpretation: &interpretation,
                            exclude: &excludes[i],
                            // Heap budget = answer_limit regardless of the
                            // ask-time partial budget, so the contribution is
                            // reusable: top-b prefix of top-limit = top-b.
                            budget: config.answer_limit,
                        };
                        let matcher = ctxs[i].matcher(per_shard[i].0);
                        let outcome = take_single(matcher.partial_answers_batch_scatter(
                            &[request],
                            tables[i],
                            budgets.get(i).copied().flatten(),
                            &thresholds,
                        )?)?;
                        if let Some(k) = &key {
                            self.cache.note_miss();
                            if !outcome.degraded {
                                self.cache.fill(
                                    i,
                                    k.clone(),
                                    CachedContribution {
                                        stamp: stamps[i],
                                        exact: shard_exact[i].clone(),
                                        partial: Some(outcome.answers.clone()),
                                    },
                                );
                            }
                        }
                        outcome
                    }
                };
                outcomes.push(outcome);
            }

            let any_cut = outcomes.iter().any(|o| o.degraded);
            let counts: usize = outcomes.iter().map(|o| o.answers.len()).sum();
            let is_multi = interpretation.all_sketches().len() > 1;
            // Global sparse-fallback decision: if any shard's heap ever
            // filled, `counts >= answer_limit >= partial_budget` already (a
            // threshold only rises off a full heap), so a short count here
            // proves the global phase-1 candidate set is genuinely smaller
            // than the budget — the same condition the unsharded engine
            // checks on its single heap.
            let run_fallback = is_multi && !any_cut && counts < partial_budget;

            let mut bound = f64::NEG_INFINITY;
            let mut visited_total: u64 = 0;
            let mut degraded = false;
            let mut gathered: Vec<PartialAnswer> = Vec::new();
            if run_fallback {
                // Rare sparse case: discard phase 1 and run the *plain*
                // per-shard engine (own thresholds, own fallback) at the real
                // budget — each shard is sparse too (its candidate count is
                // below the budget), so each runs the same phase-1 +
                // degree-of-match pass the unsharded engine would, and the
                // merge of complete per-shard lists is the global list.
                for i in 0..n {
                    let request = PartialBatchRequest {
                        interpretation: &interpretation,
                        exclude: &excludes[i],
                        budget: partial_budget,
                    };
                    let matcher = ctxs[i].matcher(per_shard[i].0);
                    let outcome = take_single(matcher.partial_answers_batch_budgeted(
                        &[request],
                        tables[i],
                        budgets.get(i).copied().flatten(),
                    )?)?;
                    visited_total += outcome.visited;
                    degraded |= outcome.degraded;
                    bound = bound.max(outcome.cut_bound);
                    gathered.extend(translate_partials(self.router, i, outcome.answers));
                }
            } else {
                for (i, outcome) in outcomes.into_iter().enumerate() {
                    visited_total += outcome.visited;
                    degraded |= outcome.degraded;
                    bound = bound.max(outcome.cut_bound);
                    gathered.extend(translate_partials(self.router, i, outcome.answers));
                }
            }
            let mut merged = merge_partial_answers(partial_budget, gathered);
            // A cut plus a short merged list means the undegraded engine
            // might have run the degree-of-match fallback (scores up to N):
            // widen the certification bound accordingly, exactly like the
            // single-heap engine's sparse-under-cut arm.
            if degraded && is_multi && merged.len() < partial_budget {
                bound = bound.max(n_conds as f64);
            }
            if bound > f64::NEG_INFINITY {
                let keep = merged.iter().take_while(|a| a.rank_sim > bound).count();
                merged.truncate(keep);
            }
            if degraded {
                quality = AnswerQuality::Degraded {
                    visited: visited_total,
                    budget_exhausted: true,
                };
            }
            for p in merged {
                let shard = self.router.shard_of(p.id);
                if let Some(record) = tables[shard].get_shared(self.router.local_of(p.id)) {
                    answers.push(Answer {
                        id: p.id,
                        record,
                        kind: MatchKind::Partial,
                        rank_sim: p.rank_sim,
                        measure: p.measure,
                    });
                }
            }
        } else if let Some(k) = &key {
            // Exact answers alone satisfied the threshold: remember the
            // per-shard exact prefixes so a repeat ask skips every executor.
            for i in 0..n {
                match &cached[i] {
                    Some(_) => self.cache.note_hit(),
                    None => {
                        self.cache.note_miss();
                        self.cache.fill(
                            i,
                            k.clone(),
                            CachedContribution {
                                stamp: stamps[i],
                                exact: shard_exact[i].clone(),
                                partial: None,
                            },
                        );
                    }
                }
            }
        }

        answers.truncate(config.answer_limit);
        let exact_count = exact_ids.len().min(answers.len());
        Ok(AnswerSet {
            domain: domain.to_string(),
            tagged,
            interpretation,
            sql,
            answers,
            exact_count,
            quality,
            elapsed: Duration::from_micros(clock.now_micros().saturating_sub(start_micros)),
        })
    }

    /// Rebuild the unsharded table in global id order from the shard
    /// snapshots (record `g` comes from shard `g mod N`). Only the partial
    /// phase of superlative questions pays this — see `answer_scatter`.
    fn union_view(&self, tables: &[&Table]) -> Table {
        let total: usize = tables.iter().map(|t| t.len()).sum();
        let mut union = Table::new(tables[0].schema().clone());
        for g in 0..total as u32 {
            let gid = RecordId(g);
            let shard = self.router.shard_of(gid);
            if let Some(record) = tables[shard].get_shared(self.router.local_of(gid)) {
                if let Ok(assigned) = union.insert((*record).clone()) {
                    debug_assert_eq!(assigned, gid);
                }
            }
        }
        union
    }

    /// Re-apply a superlative chain over the merged (ascending) global
    /// candidate set: one [`retain_extreme`] step per superlative, values
    /// resolved from whichever shard holds the record.
    fn apply_superlatives_gather(
        &self,
        query: &Query,
        candidates: &mut Vec<RecordId>,
        tables: &[&Table],
    ) {
        for s in &query.superlatives {
            if candidates.is_empty() {
                return;
            }
            let max = matches!(s.kind, SuperlativeKind::Max);
            retain_extreme(candidates, max, |gid| {
                tables[self.router.shard_of(gid)]
                    .get_shared(self.router.local_of(gid))
                    .and_then(|r| r.get_number(&s.attribute))
            });
        }
    }
}

/// Translate one shard's partial answers into global id space (scores,
/// measures and relaxed-condition indexes are shard-independent).
fn translate_partials(
    router: RecordRouter,
    shard: usize,
    answers: Vec<PartialAnswer>,
) -> impl Iterator<Item = PartialAnswer> {
    answers.into_iter().map(move |p| PartialAnswer {
        id: router.global_of(shard, p.id),
        ..p
    })
}

/// The single outcome of a one-request batch. The engine returns exactly one
/// outcome per request; the error arm is unreachable but cheaper than a
/// panic on the serving path.
fn take_single(mut outcomes: Vec<PartialOutcome>) -> CqadsResult<PartialOutcome> {
    outcomes.pop().ok_or_else(|| {
        CqadsError::Config("internal: partial engine returned no outcome".to_string())
    })
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

    fn unsharded() -> CqadsWriter {
        let mut writer = CqadsWriter::with_config(CqadsConfig::default());
        let mut ws = WordSimMatrix::default();
        ws.insert("blue", "gold", 0.5);
        writer.set_word_sim(ws);
        let mut ti = TIMatrix::default();
        ti.insert("accord", "camry", 4.0);
        writer.add_domain(toy_car_domain(), seeded_table(), ti);
        writer
    }

    fn sharded(n: usize) -> ShardedCqads {
        let mut sharded = ShardedCqads::new(n).unwrap();
        let mut ws = WordSimMatrix::default();
        ws.insert("blue", "gold", 0.5);
        sharded.set_word_sim(ws);
        let mut ti = TIMatrix::default();
        ti.insert("accord", "camry", 4.0);
        sharded.add_domain(toy_car_domain(), seeded_table(), ti);
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

    #[test]
    fn unknown_domain_and_empty_question_errors_match() {
        let sharded2 = sharded(2);
        let reference = unsharded();
        let reader = reference.reader();
        assert_eq!(
            sharded2.answer_in_domain("blue cars", "boats").unwrap_err(),
            uncached(&reader, "blue cars", "boats").unwrap_err(),
        );
        assert_eq!(
            sharded2.answer_in_domain("the of and", "cars").unwrap_err(),
            uncached(&reader, "the of and", "cars").unwrap_err(),
        );
    }
}
