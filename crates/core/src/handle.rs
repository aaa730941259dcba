//! The lock-free snapshot read path: reader/writer handle split over
//! epoch-style snapshot publication.
//!
//! # Why
//!
//! Historically every read went through one monolithic system whose
//! `&mut self` ingest methods forced concurrent deployments to wrap it in an
//! `RwLock` — one insert stalled every in-flight reader. This module moves the
//! hot read state — the [`Database`] tables (one per domain), the compiled
//! [`SimilarityModel`] behind
//! each domain runtime, the domain registry, the classifier and the WS
//! matrix, i.e. everything a [`GenerationStamp`] covers — into an immutable
//! `Snapshot` behind an [`arcswap::ArcSwap`]. Writers rebuild-and-swap
//! atomically; readers load once per call/batch and never block on a
//! writer's work.
//!
//! # The protocol
//!
//! * `Snapshot` is a **cheap-to-clone** value: the database holds its
//!   tables behind `Arc` ([`addb::Database`]), each domain runtime is behind
//!   `Arc`, and the classifier and WS matrix are `Arc`s too. Cloning the
//!   master snapshot for publication costs refcount bumps, not data copies.
//! * [`CqadsWriter`] owns the **master** snapshot and mutates it with
//!   `Arc::make_mut` copy-on-write: unshared state is mutated in place,
//!   state still shared with a published snapshot is cloned on first write.
//!   For a table that clone is structural sharing, not a deep copy
//!   ([`addb::table`], "What a clone shares"): an insert copies the tail
//!   chunk of each per-record column, one leaf of each numeric attribute's
//!   sorted index and the posting lists with their value directories;
//!   every sealed chunk and every other leaf stays shared between the
//!   master and all published snapshots, so the snapshots the swap ring
//!   still holds pin no copies of them.
//!   Every mutation runs in one order: validate, append its frames to the
//!   write-ahead log (durable systems), apply to the master, publish. So a
//!   published state is a logged state, and a mutation that fails changes
//!   nothing anyone can see.
//!   After every successful mutation the writer republishes
//!   `master.clone()` — but only when a reader handle actually exists
//!   ([`Arc::strong_count`] on the shared block), so a single-handle
//!   deployment pays nothing for the machinery.
//! * [`CqadsReader`] is a cheap `Clone + Send + Sync` handle that loads the
//!   published snapshot once per call and answers against it. A reader never
//!   observes a torn snapshot and the generations it reads never regress
//!   across a swap — `tests/interleavings.rs` model-checks both claims
//!   against the vendored [`arcswap`] shim.
//!
//! Generation stamps and the answer cache compose with this the same way
//! they always did, with one twist: a reader reads its stamp **from its own
//! snapshot**, so stamp and data are consistent by construction. A reader on
//! an older snapshot may be served a *newer* cached answer (the entry's
//! stamp [`covers`](GenerationStamp::covers) the older current stamp) —
//! fresher than requested is safe; staler is impossible.
//!
//! # The route memo
//!
//! A cached ask without an explicit domain must be routed — classified into
//! a domain, then keyed for the answer cache — before the cache can answer
//! it, and routing costs far more than the cache lookup. So each snapshot
//! also holds a route memo: a bounded [`GenerationCache`] from the *exact
//! question text* to its [`CacheKey`] (which names the domain). A repeated
//! ask then costs one hash of the text and one stripe lookup before the
//! answer-cache lookup. Routing reads only the classifier and the set of
//! registered domain names (the classifier's fallbacks), so the memo is valid
//! by construction rather than stamped: a retrain or a new domain name
//! installs a fresh, empty memo in the master, and a reader on an older
//! snapshot keeps routing with that snapshot's classifier and memo. Inserts,
//! query-log deltas and WS-matrix swaps keep it. It is keyed by the text, not
//! by its tokens, because the classifier tokenizes differently from the
//! tagger (see [`crate::cache`], "Key"). Uncached and explicit-domain asks
//! never touch it; [`ServingStats::routes`] counts it.
//!
//! # Choosing a handle
//!
//! * One thread, or external synchronization: a [`CqadsWriter`] alone — it
//!   answers ([`CqadsWriter::ask`], [`CqadsWriter::answer_batch`]) from its own
//!   master state, so every mutation is visible to its next read.
//! * Concurrent serving: call [`CqadsWriter::reader`] once per serving thread
//!   and keep mutating through the writer — no outer lock required.
//!
//! Either way there is one way to ask a single question: [`AnswerRequest`]
//! (`.ask(q)[.domain(d)][.uncached()].get()`) — and one engine that serves it:
//! a single ask is `answer_batch`'s one-question case. Both entry points run
//! the same steps of `ReadContext`: admit (the in-flight permit and the
//! deadline budget), look up (the stamp, the stale capture and the hit),
//! compute (one domain's misses, the stale fallback and the cache fill) and
//! finish (the pressure controller). The one function that answers,
//! `shard::answer_in_table`, has one caller, `ReadContext::compute`. This
//! module keeps only what wraps it: routing (classification and the route
//! memo), the cache, admission and stale fallback.
//!
//! # Storage belongs to the writer
//!
//! A durable system's storage engine lives in the [`CqadsWriter`], not in the
//! state it shares with its readers: `ReadContext`, [`CqadsReader`] and the
//! shared block hold no storage handle, so no read can wait on the writer's
//! appends, fsyncs or snapshot rotation.

use crate::cache::{AnswerCache, CacheKey, CacheStats, GenerationCache, GenerationStamp};
use crate::clock::{Clock, RealClock};
use crate::domain::DomainSpec;
use crate::error::{CqadsError, CqadsResult};
use crate::partial::take_single;
use crate::pipeline::{AnswerSet, ClassifyOutcome, CqadsConfig, IngestReport};
use crate::ranking::SimilarityModel;
use crate::resilience::{
    AdmissionPermit, AnswerQuality, QueryBudget, ResilienceRuntime, ServingStats,
};
use crate::shard::answer_in_table;
use crate::storage::{config_to_snap, data_to_spec, spec_to_data, DurableStorage, StorageOptions};
use crate::tagging::{TaggedQuestion, Tagger};
use crate::translate::{interpret, Interpretation};
use addb::{Database, Record, RecordId, Table};
use arcswap::ArcSwap;
use cqads_classifier::{BetaBinomialNb, LabelledDoc};
use cqads_querylog::{QueryLogDelta, TIMatrix};
use cqads_storage::{
    DomainSnap, Recovered, RecoveryReport, SnapshotData, StorageEngine, WalRecord,
};
use cqads_wordsim::WordSimMatrix;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Everything the system holds for one registered domain.
#[derive(Debug, Clone)]
pub(crate) struct DomainRuntime {
    pub(crate) spec: Arc<DomainSpec>,
    pub(crate) tagger: Tagger,
    pub(crate) similarity: SimilarityModel,
}

/// The route memo: exact question text → the answer-cache key of the domain
/// the question was classified into ([`ReadContext::route`]).
pub(crate) type Routes = GenerationCache<Box<str>, Arc<CacheKey>>;

/// The route memo's one stamp: a route stays valid for the life of the memo
/// that holds it, because the memo is replaced, never stamped.
const ROUTE_STAMP: GenerationStamp = GenerationStamp::new(0, 0);

/// The immutable hot read state, published as a unit. Cloning is cheap by
/// construction (every heavy member is behind an `Arc`), which is what makes
/// per-mutation republication affordable.
#[derive(Debug, Clone)]
pub(crate) struct Snapshot {
    /// The records: one table per domain.
    pub(crate) database: Database,
    pub(crate) domains: BTreeMap<String, Arc<DomainRuntime>>,
    pub(crate) classifier: Arc<BetaBinomialNb>,
    pub(crate) word_sim: Arc<WordSimMatrix>,
    /// The routes of this snapshot's classifier over its domain names — the
    /// only two inputs of routing — so a retrain or a new domain name
    /// installs a fresh memo ([`Snapshot::reset_routes`]) and nothing else
    /// touches it.
    pub(crate) routes: Arc<Routes>,
}

impl Snapshot {
    fn empty(config: &CqadsConfig) -> Self {
        Snapshot {
            database: Database::new(),
            domains: BTreeMap::new(),
            classifier: Arc::new(BetaBinomialNb::new()),
            word_sim: Arc::new(WordSimMatrix::default()),
            routes: Arc::new(Routes::new(config.cache_capacity, config.cache_shards)),
        }
    }

    /// Install an empty route memo of the same size: the classifier or the
    /// set of domain names changed, so any memoized route may now be wrong.
    /// Snapshots published before keep the old memo with the classifier it
    /// describes.
    fn reset_routes(&mut self) {
        self.routes = Arc::new(self.routes.empty_like());
    }

    /// The current model generation of a registered domain.
    pub(crate) fn model_generation(&self, domain: &str) -> Option<u64> {
        self.domains.get(domain).map(|r| r.similarity.generation())
    }

    /// The runtime of a registered domain.
    fn runtime(&self, domain: &str) -> CqadsResult<&DomainRuntime> {
        let runtime = self.domains.get(domain).map(Arc::as_ref);
        runtime.ok_or_else(|| CqadsError::UnknownDomain(domain.to_string()))
    }

    /// A domain's runtime and its table, distinguishing an unregistered
    /// domain ([`CqadsError::UnknownDomain`]) from a registered domain whose
    /// table is missing ([`CqadsError::MissingTable`]).
    pub(crate) fn domain_table(&self, domain: &str) -> CqadsResult<(&DomainRuntime, &Table)> {
        let runtime = self.runtime(domain)?;
        let table = self.database.table(domain);
        let table = table.ok_or_else(|| CqadsError::MissingTable(domain.to_string()))?;
        Ok((runtime, table))
    }

    /// A domain's table generation; `None` when the domain has no table.
    pub(crate) fn table_generation(&self, domain: &str) -> Option<u64> {
        self.database.generation(domain)
    }

    /// The table a domain's records go into.
    fn table_mut(&mut self, domain: &str) -> CqadsResult<&mut Table> {
        let table = self.database.table_mut(domain);
        table.ok_or_else(|| CqadsError::MissingTable(domain.to_string()))
    }

    /// (Re)register a domain's runtime: its similarity model built over `ti`
    /// and the current WS matrix, at generation `model_floor` or above.
    /// Returns the model generation.
    fn register(
        &mut self,
        spec: Arc<DomainSpec>,
        tagger: Tagger,
        ti: Arc<TIMatrix>,
        model_floor: u64,
    ) -> u64 {
        let mut similarity =
            SimilarityModel::new(ti, Arc::clone(&self.word_sim), spec.schema.clone());
        similarity.raise_generation(model_floor);
        let generation = similarity.generation();
        let runtime = DomainRuntime {
            spec: Arc::clone(&spec),
            tagger,
            similarity,
        };
        // A new name can be a classifier fallback target; a re-registration
        // routes exactly as before.
        if !self.domains.contains_key(spec.name()) {
            self.reset_routes();
        }
        self.domains
            .insert(spec.name().to_string(), Arc::new(runtime));
        generation
    }

    /// Rebuild one domain from its persisted form with its *exact* persisted
    /// generations — no WAL writes, no extra bumps (recovery controls the
    /// floors itself). Returns the domain name.
    pub(crate) fn restore_domain(&mut self, snap: &DomainSnap) -> CqadsResult<String> {
        let records = snap.records.iter().cloned();
        let table = Table::from_records(snap.spec.schema.clone(), records, snap.table_gen)?;
        self.database.add_table(table);
        let spec = Arc::new(data_to_spec(&snap.spec));
        let tagger = Tagger::from_arc(Arc::clone(&spec));
        let ti = Arc::new(TIMatrix::from_state(&snap.ti));
        self.register(Arc::clone(&spec), tagger, ti, snap.model_gen);
        Ok(spec.name().to_string())
    }

    /// Swap in a WS matrix and rebuild every per-domain similarity model
    /// against it. With `bump` set each model's generation moves past its
    /// previous value (the matrix changed ranking semantics); recovery passes
    /// `false` because it restores exact persisted generations and controls
    /// the floors itself.
    pub(crate) fn rebuild_models_with_word_sim(&mut self, matrix: WordSimMatrix, bump: bool) {
        self.word_sim = Arc::new(matrix);
        let runtimes: Vec<Arc<DomainRuntime>> = self.domains.values().cloned().collect();
        for runtime in runtimes {
            let floor = runtime.similarity.generation() + u64::from(bump);
            let ti = runtime.similarity.ti_matrix();
            self.register(Arc::clone(&runtime.spec), runtime.tagger.clone(), ti, floor);
        }
    }
}

/// State shared by value between every handle: the published snapshot slot
/// plus the interior-mutable serving infrastructure (cache, resilience) that
/// is already safe under concurrent `&self` access. It holds no storage
/// handle: the storage engine is the writer's alone.
#[derive(Debug)]
pub(crate) struct Shared {
    /// The published snapshot. Readers load it; the writer swaps it.
    pub(crate) snapshot: ArcSwap<Snapshot>,
    pub(crate) config: CqadsConfig,
    pub(crate) cache: AnswerCache,
    pub(crate) resilience: Option<ResilienceRuntime>,
    /// Time source for answer timing. Shared with the resilience layer's
    /// clock when one is configured, so an injected
    /// [`ManualClock`](crate::ManualClock) governs *all* observable time in
    /// the system; wall clock otherwise.
    pub(crate) clock: Arc<dyn Clock>,
}

impl Shared {
    /// One operator-facing snapshot of the serving path's health, with the
    /// route memo of `snap`, the snapshot being served.
    pub(crate) fn serving_stats(&self, snap: &Snapshot) -> ServingStats {
        ServingStats {
            cache: self.cache.stats(),
            routes: snap.routes.stats(),
            shed: self.resilience.as_ref().map_or(0, |r| r.shed()),
            degraded: self.resilience.as_ref().map_or(0, |r| r.degraded()),
            stale_served: self.resilience.as_ref().map_or(0, |r| r.stale_served()),
            pressure_level: self.resilience.as_ref().map_or(0, |r| r.pressure_level()),
        }
    }
}

/// One borrowed view for the whole read path: the shared serving
/// infrastructure plus **one** snapshot, loaded once per call/batch. The
/// writer passes its master snapshot here (so it sees its own mutations
/// immediately); a reader passes the loaded published snapshot.
/// Either way the answering code below is the same — byte-identical answers
/// on both paths is a proptested invariant.
#[derive(Clone, Copy)]
pub(crate) struct ReadContext<'a> {
    pub(crate) shared: &'a Shared,
    pub(crate) snap: &'a Snapshot,
}

/// One admitted read call — a single ask or a burst — from
/// [`ReadContext::admit`] to [`ReadContext::finish`]. The steps a cache hit
/// runs are `#[inline]`: called out of line they added about 0.1 µs to a
/// 0.5 µs hit.
struct Call<'a> {
    /// The in-flight slot, held until the call finishes.
    _permit: Option<AdmissionPermit<'a>>,
    /// The call's one cooperative deadline, after pressure step-down.
    budget: Option<QueryBudget>,
    /// Whether a deadline-cut answer falls back on a stale cache entry.
    stale_ok: bool,
    /// Whether a deadline cut any question of the call.
    degraded: bool,
}

/// What the answer cache holds for one key ([`ReadContext::look_up`]).
enum Lookup {
    /// A fresh entry.
    Hit(Arc<AnswerSet>),
    /// No fresh entry; carries the stale one a deadline cut may fall back on.
    Miss(Option<Arc<AnswerSet>>),
}

/// A question the cache did not answer, on its way into
/// [`ReadContext::compute`].
struct Miss<'q> {
    question: &'q str,
    /// The key a complete answer fills; `None` when the ask is uncached.
    key: Option<&'q CacheKey>,
    /// The entry served, flagged `Stale`, if the deadline cuts the question.
    stale: Option<Arc<AnswerSet>>,
}

impl<'a> ReadContext<'a> {
    /// Classify a question into a registered domain (Equation 2).
    pub(crate) fn classify(self, question: &str) -> CqadsResult<String> {
        Ok(self.classify_outcome(question)?.into_domain())
    }

    /// Like [`ReadContext::classify`], but reports *how* the domain was
    /// chosen.
    pub(crate) fn classify_outcome(self, question: &str) -> CqadsResult<ClassifyOutcome> {
        if self.snap.domains.is_empty() {
            return Err(CqadsError::NoDomain);
        }
        let first = || {
            self.snap
                .domains
                .keys()
                .next()
                // lint: allow(no-panic) — guarded by the NoDomain early return above
                .expect("non-empty checked above")
                .clone()
        };
        Ok(match self.snap.classifier.classify_text(question) {
            Some(domain) if self.snap.domains.contains_key(&domain) => {
                ClassifyOutcome::Classified(domain)
            }
            Some(predicted) => ClassifyOutcome::FallbackUnknownDomain {
                predicted,
                fallback: first(),
            },
            None => ClassifyOutcome::FallbackUntrained(first()),
        })
    }

    /// Route a question: the answer-cache key of the domain it is classified
    /// into (named by [`CacheKey::domain`]). A question whose exact text this
    /// snapshot has routed before costs one hash of the text and one stripe
    /// lookup in the snapshot's memo; any other is classified, keyed and
    /// memoized. Only cached asks route: an uncached or explicit-domain ask
    /// never reads or fills the memo.
    pub(crate) fn route(self, question: &str) -> CqadsResult<Arc<CacheKey>> {
        let memo = &self.snap.routes;
        // A disabled memo is not consulted, so its counters stay at zero.
        if memo.is_enabled() {
            if let Some(route) = memo.lookup(question, ROUTE_STAMP) {
                return Ok(route);
            }
        }
        let route = Arc::new(CacheKey::new(&self.classify(question)?, question));
        memo.fill(question.into(), ROUTE_STAMP, Arc::clone(&route));
        Ok(route)
    }

    /// Answer one question — the single function behind [`AnswerRequest::get`]
    /// and the one-question case of [`ReadContext::answer_batch`]: the same
    /// admission, lookup, computation and finish. `domain: None` classifies
    /// first (through the route memo when cached); `cached: false` builds no
    /// key and reads and fills no cache.
    pub(crate) fn answer_one(
        self,
        question: &str,
        domain: Option<&str>,
        cached: bool,
    ) -> CqadsResult<Arc<AnswerSet>> {
        let mut call = self.admit()?;
        let cached = cached && self.shared.cache.is_enabled();
        let served = self.serve_one(&mut call, question, domain, cached);
        self.finish(call);
        served
    }

    /// [`ReadContext::answer_one`] between admission and finish: resolve the
    /// key, look it up, and on a miss compute the one question.
    #[inline]
    fn serve_one(
        self,
        call: &mut Call<'_>,
        question: &str,
        domain: Option<&str>,
        cached: bool,
    ) -> CqadsResult<Arc<AnswerSet>> {
        let key = match (cached, domain) {
            (false, _) => None,
            (true, Some(domain)) => Some(Arc::new(CacheKey::new(domain, question))),
            (true, None) => Some(self.route(question)?),
        };
        let stale = match &key {
            Some(key) => match self.look_up(call, key) {
                Lookup::Hit(hit) => return Ok(hit),
                Lookup::Miss(stale) => stale,
            },
            None => None,
        };
        let classified;
        let domain = match (&key, domain) {
            (Some(key), _) => key.domain(),
            (None, Some(domain)) => domain,
            (None, None) => {
                classified = self.classify(question)?;
                &classified
            }
        };
        let miss = Miss {
            question,
            key: key.as_deref(),
            stale,
        };
        take_single(self.compute(call, domain, vec![miss]))?
    }

    /// The domain's current [`GenerationStamp`] **as of this context's
    /// snapshot**: its table generation paired with its
    /// similarity-model generation. `None` when the domain is unregistered or
    /// its table is missing (the computation then reports the precise error).
    fn current_stamp(self, domain: &str) -> Option<GenerationStamp> {
        let table = self.snap.table_generation(domain)?;
        let model = self.snap.domains.get(domain)?.similarity.generation();
        Some(GenerationStamp::new(table, model))
    }

    /// Admit one read call, single ask or burst: shed it with
    /// [`CqadsError::Overloaded`] before any work when the in-flight bound is
    /// saturated, and arm its one cooperative budget after pressure
    /// step-down.
    #[inline]
    fn admit(self) -> CqadsResult<Call<'a>> {
        let runtime = self.shared.resilience.as_ref();
        let admit =
            |runtime: &'a ResilienceRuntime| runtime.try_admit().ok_or(CqadsError::Overloaded);
        let _permit = runtime.map(admit).transpose()?;
        let budget = runtime.and_then(|runtime| {
            let clock = &runtime.opts.clock;
            let micros = runtime.effective_deadline_micros()?;
            Some(QueryBudget::new(Arc::clone(clock), micros))
        });
        let stale_ok = budget.is_some() && runtime.is_some_and(|r| r.opts.serve_stale_on_timeout);
        Ok(Call {
            _permit,
            budget,
            stale_ok,
            degraded: false,
        })
    }

    /// Look a key up in the answer cache at its domain's current stamp. A
    /// miss comes with the entry a deadline cut may fall back on when stale
    /// serving is armed.
    #[inline]
    fn look_up(self, call: &Call<'_>, key: &CacheKey) -> Lookup {
        let cache = &self.shared.cache;
        let stamp = self.current_stamp(key.domain());
        // The stale entry is captured *before* the lookup: a
        // generation-stale entry is evicted by the lookup itself, and it is
        // exactly the answer the degradation path wants to fall back on.
        let stale = call.stale_ok.then(|| cache.peek_stale(key)).flatten();
        if let (true, Some(stamp)) = (cache.is_enabled(), stamp) {
            if let Some(hit) = cache.lookup(key, stamp) {
                return Lookup::Hit(hit);
            }
        }
        Lookup::Miss(stale)
    }

    /// Answer one domain's misses over its table with one
    /// [`answer_in_table`] call under the call's budget, then settle each: a
    /// cut answer is counted and falls back on its stale entry, flagged
    /// [`AnswerQuality::Stale`]; and only a complete answer fills the cache
    /// (a degraded or stale one must never be served later as if fresh).
    /// Results are positional.
    fn compute(
        self,
        call: &mut Call<'_>,
        domain: &str,
        misses: Vec<Miss<'_>>,
    ) -> Vec<CqadsResult<Arc<AnswerSet>>> {
        let questions: Vec<&str> = misses.iter().map(|miss| miss.question).collect();
        let computed = self.snap.domain_table(domain).and_then(|(runtime, table)| {
            // Stamp read from this snapshot before any computation: a
            // concurrently published mutation can only make the filled
            // entries look *older* than the post-mutation stamp.
            let stamp = GenerationStamp::new(table.generation(), runtime.similarity.generation());
            let config = &self.shared.config;
            let clock = self.shared.clock.as_ref();
            let budget = call.budget.as_ref();
            let answers = answer_in_table(config, clock, runtime, &questions, table, budget)?;
            Ok((stamp, answers))
        });
        let (stamp, answers) = match computed {
            Ok(pair) => pair,
            Err(e) => return misses.iter().map(|_| Err(e.clone())).collect(),
        };
        let settle = |(miss, answer): (Miss<'_>, CqadsResult<AnswerSet>)| {
            let mut set = answer?;
            if !set.quality.is_complete() {
                call.degraded = true;
                if let Some(runtime) = &self.shared.resilience {
                    runtime.note_degraded(1);
                    // A cached answer — even a generation-stale one — is
                    // complete as of an older generation, which can beat a
                    // cut fresh answer.
                    if let Some(stale) = miss.stale {
                        set = (*stale).clone();
                        set.quality = AnswerQuality::Stale;
                        runtime.note_stale(1);
                    }
                }
            }
            let answer = Arc::new(set);
            if let (Some(key), true) = (miss.key, answer.quality.is_complete()) {
                self.shared
                    .cache
                    .fill(key.clone(), stamp, Arc::clone(&answer));
            }
            Ok(answer)
        };
        misses.into_iter().zip(answers).map(settle).collect()
    }

    /// Finish an admitted call: feed the pressure step-down controller (only
    /// calls that ran under a deadline count toward its streaks). Dropping
    /// the call frees its in-flight slot.
    #[inline]
    fn finish(self, call: Call<'_>) {
        if let (Some(runtime), Some(_)) = (&self.shared.resilience, &call.budget) {
            runtime.note_batch(call.degraded);
        }
    }

    /// Serve a burst of questions against this context's snapshot — the
    /// engine behind [`CqadsWriter::answer_batch`] (which documents the full
    /// contract) and [`CqadsReader::answer_batch`]: admit the burst once,
    /// route and dedup it, look every distinct key up, compute the misses one
    /// domain at a time and finish.
    pub(crate) fn answer_batch<S: AsRef<str>>(
        self,
        questions: &[S],
    ) -> Vec<CqadsResult<Arc<AnswerSet>>> {
        let mut call = match self.admit() {
            Ok(call) => call,
            Err(e) => return questions.iter().map(|_| Err(e.clone())).collect(),
        };

        // Route + dedup: one slot per distinct (domain, normalized question)
        // key; each question points at its slot, or at its routing error.
        // Byte-identical repeats are collapsed *before* routing so a burst
        // pays the route memo (or, on its miss, the classifier + tokenizer)
        // once per distinct string, not once per element; the key then also
        // merges case/punctuation variants.
        let mut slots: Vec<(Arc<CacheKey>, &str)> = Vec::new();
        let mut by_key: HashMap<Arc<CacheKey>, usize> = HashMap::new();
        let mut by_text: HashMap<&str, CqadsResult<usize>> = HashMap::new();
        let slot_of = questions.iter().map(|question| {
            let question = question.as_ref();
            let slot = by_text.entry(question).or_insert_with(|| {
                let key = self.route(question)?;
                let next = slots.len();
                let slot = *by_key.entry(Arc::clone(&key)).or_insert(next);
                if slot == next {
                    slots.push((key, question));
                }
                Ok(slot)
            });
            slot.clone()
        });
        let slot_of: Vec<CqadsResult<usize>> = slot_of.collect();

        // Serve hits; group the residual misses by domain.
        let mut outcomes: Vec<Option<CqadsResult<Arc<AnswerSet>>>> = vec![None; slots.len()];
        let mut misses_by_domain: BTreeMap<&str, Vec<(usize, Miss<'_>)>> = BTreeMap::new();
        for (slot, (key, question)) in slots.iter().enumerate() {
            match self.look_up(&call, key) {
                Lookup::Hit(hit) => outcomes[slot] = Some(Ok(hit)),
                Lookup::Miss(stale) => {
                    let miss = Miss {
                        question,
                        key: Some(key),
                        stale,
                    };
                    misses_by_domain
                        .entry(key.domain())
                        .or_default()
                        .push((slot, miss));
                }
            }
        }
        for (domain, misses) in misses_by_domain {
            let (missed, misses): (Vec<usize>, Vec<Miss<'_>>) = misses.into_iter().unzip();
            let served = self.compute(&mut call, domain, misses);
            for (slot, served) in missed.into_iter().zip(served) {
                outcomes[slot] = Some(served);
            }
        }
        self.finish(call);

        // Scatter: each question gets its slot's outcome.
        let scatter = |slot: CqadsResult<usize>| {
            // lint: allow(no-panic) — the loops above resolve every slot exactly once
            slot.and_then(|slot| outcomes[slot].clone().expect("every slot resolved"))
        };
        slot_of.into_iter().map(scatter).collect()
    }

    /// Produce only the interpretation of a question in a given domain.
    pub(crate) fn interpret_in_domain(
        self,
        question: &str,
        domain: &str,
    ) -> CqadsResult<(TaggedQuestion, Interpretation, String)> {
        let runtime = self.snap.runtime(domain)?;
        let tagged = runtime.tagger.tag(question);
        let interpretation = interpret(&tagged, &runtime.spec)?;
        let sql = interpretation.to_sql(&runtime.spec)?;
        Ok((tagged, interpretation, sql))
    }
}

/// The write half of the handle split: owns the master `Snapshot`, logs every
/// mutation to durable storage, applies it to the master copy-on-write, and
/// republishes after each mutation so detached [`CqadsReader`]s observe it.
///
/// The writer also *reads*: [`CqadsWriter::ask`], [`CqadsWriter::answer_batch`]
/// and the inspection accessors serve from the master state directly, so every
/// mutation — raw [`CqadsWriter::database_mut`] edits included — is visible to
/// the writer's next read without a publish. Single-handle usage therefore
/// never pays for the snapshot machinery; for concurrent serving mint detached
/// [`CqadsReader`]s with [`CqadsWriter::reader`].
///
/// # Error model
///
/// A mutation that returns `Err` changed nothing: not the master, not the
/// published snapshot, not the write-ahead log.
#[derive(Debug)]
pub struct CqadsWriter {
    pub(crate) shared: Arc<Shared>,
    pub(crate) master: Snapshot,
    /// The storage engine of a durable system. The writer's alone: the state
    /// it shares with its readers holds no storage handle.
    storage: Option<DurableStorage>,
}

impl CqadsWriter {
    /// Create an empty writer with the default configuration.
    pub fn new() -> Self {
        Self::with_config(CqadsConfig::default())
    }

    /// Create an empty writer with an explicit configuration.
    ///
    /// # Panics
    ///
    /// When [`CqadsConfig::storage`] is set and the store cannot be opened or
    /// recovered; use [`CqadsWriter::try_with_config`] to handle that error.
    pub fn with_config(config: CqadsConfig) -> Self {
        match Self::try_with_config(config) {
            Ok(writer) => writer,
            // lint: allow(no-panic) — the documented panicking convenience; try_with_config is the fallible API
            Err(e) => panic!(
                "failed to open durable storage \
                 (use try_with_config to handle this): {e}"
            ),
        }
    }

    /// Fallible form of [`CqadsWriter::with_config`]. With
    /// [`CqadsConfig::storage`] set this opens the directory, recovers the
    /// newest valid snapshot plus the WAL tail (truncating a torn suffix),
    /// and resumes appending; the config's scalar knobs are kept exactly as
    /// passed. [`CqadsWriter::open`] is the variant that restores the
    /// persisted knobs from the snapshot instead.
    pub fn try_with_config(config: CqadsConfig) -> CqadsResult<Self> {
        Self::open_internal(config, false)
    }

    /// Open (or create) a durable system rooted at `dir` with
    /// [`StorageOptions::at`]'s defaults: load the newest valid snapshot,
    /// replay the WAL tail, truncate any torn suffix at the last valid frame,
    /// and raise every generation counter far enough that no
    /// [`GenerationStamp`] handed out before the crash can ever be re-issued
    /// for different state. Scalar config knobs persisted by the snapshot
    /// (answer limit, cache sizing, ...) are restored;
    /// [`CqadsWriter::storage_report`] describes what recovery found. The
    /// domain classifier is not persisted: the reopened system routes every
    /// question to the first registered domain until
    /// [`CqadsWriter::train_classifier`] runs again.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> CqadsResult<Self> {
        Self::open_with(StorageOptions::at(dir))
    }

    /// [`CqadsWriter::open`] with explicit [`StorageOptions`] (fsync policy,
    /// snapshot cadence, injected filesystem).
    pub fn open_with(opts: StorageOptions) -> CqadsResult<Self> {
        let config = CqadsConfig {
            storage: Some(opts),
            ..CqadsConfig::default()
        };
        Self::open_internal(config, true)
    }

    /// Identity, kept on purpose because `crates/benchmark/src/sut.rs` still
    /// calls it (`CqadsSystem::open_with(..)?.into_writer()`), from when
    /// `CqadsSystem` was a facade over the writer.
    pub fn into_writer(self) -> Self {
        self
    }

    fn assemble(master: Snapshot, config: CqadsConfig, storage: Option<DurableStorage>) -> Self {
        let cache = AnswerCache::new(config.cache_capacity, config.cache_shards);
        let resilience = config.resilience.clone().map(ResilienceRuntime::new);
        let clock: Arc<dyn Clock> = match &config.resilience {
            Some(opts) => Arc::clone(&opts.clock),
            None => Arc::new(RealClock::new()),
        };
        let shared = Arc::new(Shared {
            // The first published snapshot: recovery (or emptiness) is
            // visible to readers before any post-open mutation.
            snapshot: ArcSwap::new(Arc::new(master.clone())),
            config,
            cache,
            resilience,
            clock,
        });
        CqadsWriter {
            shared,
            master,
            storage,
        }
    }

    fn open_internal(mut config: CqadsConfig, prefer_snapshot_config: bool) -> CqadsResult<Self> {
        let Some(opts) = config.storage.clone() else {
            return Ok(Self::assemble(Snapshot::empty(&config), config, None));
        };
        let (mut engine, recovered) =
            StorageEngine::open(Arc::clone(&opts.vfs), &opts.dir, opts.fsync)
                .map_err(CqadsError::Storage)?;
        let Recovered {
            snapshot,
            records,
            report,
        } = recovered;
        if prefer_snapshot_config {
            if let Some(snap) = &snapshot {
                crate::storage::apply_snap_to_config(&mut config, &snap.config);
            }
        }
        // Built after the restore, so the route memo gets the persisted cache
        // sizing.
        let mut master = Snapshot::empty(&config);

        // Highest (table, model) generation per domain that any persisted
        // artifact proves was observable before the crash. Recovery must end
        // with every live counter at or above its target — the
        // generation-never-regresses invariant the answer cache depends on.
        let mut targets: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        fn observe(targets: &mut BTreeMap<String, (u64, u64)>, name: &str, table: u64, model: u64) {
            let entry = targets.entry(name.to_string()).or_insert((0, 0));
            entry.0 = entry.0.max(table);
            entry.1 = entry.1.max(model);
        }

        if let Some(snap) = &snapshot {
            master.word_sim = Arc::new(WordSimMatrix::from_state(&snap.ws));
            for d in &snap.domains {
                let name = master.restore_domain(d)?;
                observe(&mut targets, &name, d.table_gen, d.model_gen);
            }
        }

        // Replay the WAL tail. Registrations and inserts apply eagerly;
        // query-log deltas are buffered and applied in ONE batch per domain
        // at the end (one O(pairs) renormalization instead of one per tiny
        // delta); of several WS swaps only the final one can matter.
        let mut buffered_deltas: BTreeMap<String, Vec<QueryLogDelta>> = BTreeMap::new();
        let mut pending_ws: Option<cqads_wordsim::WsMatrixState> = None;
        for record in records {
            match record {
                WalRecord::RegisterDomain {
                    spec,
                    records,
                    ti,
                    table_gen,
                    model_gen,
                } => {
                    let snap = DomainSnap {
                        spec: *spec,
                        records,
                        table_gen,
                        ti,
                        model_gen,
                    };
                    let name = master.restore_domain(&snap)?;
                    // Re-registration replaced the TI-matrix: deltas logged
                    // against the previous registration are already folded
                    // into the `ti` state this frame carries.
                    buffered_deltas.remove(&name);
                    observe(&mut targets, &name, table_gen, model_gen);
                }
                WalRecord::Insert {
                    domain,
                    record,
                    table_gen,
                } => {
                    master.table_mut(&domain)?.insert(record)?;
                    observe(&mut targets, &domain, table_gen, 0);
                }
                WalRecord::LogDelta {
                    domain,
                    delta,
                    model_gen,
                } => {
                    buffered_deltas
                        .entry(domain.clone())
                        .or_default()
                        .push(delta);
                    observe(&mut targets, &domain, 0, model_gen);
                }
                WalRecord::SetWordSim { ws, model_gens } => {
                    for (name, model_gen) in &model_gens {
                        observe(&mut targets, name, 0, *model_gen);
                    }
                    pending_ws = Some(ws);
                }
                WalRecord::Floors { floors } => {
                    for (name, table, model) in &floors {
                        observe(&mut targets, name, *table, *model);
                    }
                }
            }
        }
        for (domain, deltas) in buffered_deltas {
            if let Some(runtime) = master.domains.get_mut(&domain) {
                Arc::make_mut(runtime).similarity.apply_log_deltas(&deltas);
            }
        }
        if let Some(ws) = pending_ws {
            master.rebuild_models_with_word_sim(WordSimMatrix::from_state(&ws), false);
        }

        // Raise every counter to its proven floor, plus a safety margin when
        // recovery dropped bytes it could not decode: each dropped frame can
        // have advanced a counter by at most one, so targets + bump bounds
        // every stamp the crashed process can possibly have handed out.
        let bump = report.generation_safety_bump;
        for (name, (table_target, model_target)) in &targets {
            if let Some(table) = master.database.table_mut(name) {
                table.raise_generation(table_target + bump);
            }
            if let Some(runtime) = master.domains.get_mut(name) {
                Arc::make_mut(runtime)
                    .similarity
                    .raise_generation(model_target + bump);
            }
        }
        if bump > 0 {
            // Persist the raised floors so a second recovery (which sees a
            // clean, already-truncated log and computes bump = 0) lands on
            // the same generations — recovery is idempotent.
            let floors: Vec<(String, u64, u64)> = targets
                .keys()
                .map(|name| {
                    (
                        name.clone(),
                        master.table_generation(name).unwrap_or(0),
                        master.model_generation(name).unwrap_or(0),
                    )
                })
                .collect();
            engine
                .append(&WalRecord::Floors { floors })
                .map_err(CqadsError::Storage)?;
        }
        let storage = Some(DurableStorage::new(engine, opts, report));
        Ok(Self::assemble(master, config, storage))
    }

    /// Publish the master state: detached readers observe every mutation up
    /// to this point on their next load. Called automatically after every
    /// mutation method that succeeds; the one reason to call it explicitly is
    /// after mutating through [`CqadsWriter::database_mut`], which hands out a
    /// raw `&mut` the writer cannot observe.
    pub fn publish(&self) {
        self.shared.snapshot.store(Arc::new(self.master.clone()));
    }

    /// Publish only when a detached handle can observe it. A single-handle
    /// deployment (no reader minted) then never clones a table: nothing
    /// shares the master's `Arc`s, so every mutation stays in-place. With a
    /// reader, the first write after each publication clones the written
    /// table — refcount bumps plus its posting lists, see the module docs.
    fn publish_if_observed(&self) {
        if Arc::strong_count(&self.shared) > 1 {
            self.publish();
        }
    }

    /// Mint a detached read handle. Publishes first, so the reader starts at
    /// the writer's current state. Readers are cheap to clone and `Send +
    /// Sync`; mint one per serving thread or clone one freely.
    pub fn reader(&self) -> CqadsReader {
        self.publish();
        CqadsReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The writer's view for the read path: always the master snapshot, so a
    /// read observes every mutation immediately (no publish needed).
    fn ctx(&self) -> ReadContext<'_> {
        ReadContext {
            shared: &self.shared,
            snap: &self.master,
        }
    }

    /// Start building an answer request served from the master state. See
    /// [`AnswerRequest`].
    pub fn ask<'a>(&'a self, question: &'a str) -> AnswerRequest<'a> {
        AnswerRequest::new(RequestTarget::Writer(self), question)
    }

    /// Serve a burst of questions: classify + normalize + dedup, serve repeats from
    /// the cache, and run the residual misses' partial-match phases as one
    /// [`PartialMatcher::partial_answers_batch_budgeted`](crate::PartialMatcher::partial_answers_batch_budgeted)
    /// call per domain, back-filling the cache for the next burst. A single
    /// [`ask`](CqadsWriter::ask) is this engine's one-question case:
    /// `ask(q).get()` answers and counts exactly as
    /// `answer_batch(&[q])[0]` does.
    ///
    /// Results are positional (`results[i]` answers `questions[i]`); a complete
    /// result is identical to `ask(q).domain(classified).uncached().get()` —
    /// duplicate questions within the burst share one computation and one `Arc`.
    /// Per-question failures (empty question, contradictory ranges, ...) are
    /// reported in place and never cached.
    /// With [`CqadsConfig::resilience`] configured the batch runs behind the
    /// resilience layer, as every ask does: it may be shed whole with
    /// [`CqadsError::Overloaded`] when the in-flight bound is saturated, and a
    /// configured deadline cuts the partial-match phase cooperatively — a cut
    /// question's answer is the certified prefix of the complete one, flagged
    /// [`AnswerQuality::Degraded`] (or replaced by a generation-stale cached
    /// answer flagged [`AnswerQuality::Stale`] when
    /// [`ResilienceOptions::serve_stale_on_timeout`](crate::ResilienceOptions::serve_stale_on_timeout)
    /// is on). Non-`Complete` answers are never cached.
    pub fn answer_batch<S: AsRef<str>>(&self, questions: &[S]) -> Vec<CqadsResult<Arc<AnswerSet>>> {
        self.ctx().answer_batch(questions)
    }

    /// Classify a question into a registered domain (Equation 2). Falls back to the
    /// first registered domain when the classifier has not been trained or emits an
    /// unregistered domain; [`CqadsWriter::classify_outcome`] reports which path fired.
    pub fn classify(&self, question: &str) -> CqadsResult<String> {
        self.ctx().classify(question)
    }

    /// Like [`CqadsWriter::classify`], but reports *how* the domain was chosen.
    pub fn classify_outcome(&self, question: &str) -> CqadsResult<ClassifyOutcome> {
        self.ctx().classify_outcome(question)
    }

    /// Produce only the interpretation of a question in a given domain (used by the
    /// Boolean-interpretation experiment, which compares interpretations rather than
    /// answers).
    pub fn interpret_in_domain(
        &self,
        question: &str,
        domain: &str,
    ) -> CqadsResult<(TaggedQuestion, Interpretation, String)> {
        self.ctx().interpret_in_domain(question, domain)
    }

    /// The pipeline configuration this system was built with (after
    /// [`CqadsWriter::open`] restored persisted knobs, if it did).
    pub fn config(&self) -> &CqadsConfig {
        &self.shared.config
    }

    /// Registered domain names.
    pub fn domain_names(&self) -> Vec<&str> {
        self.master.domains.keys().map(String::as_str).collect()
    }

    /// The underlying ads database: one table per registered domain.
    pub fn database(&self) -> &Database {
        &self.master.database
    }

    /// The domain specification of a registered domain.
    pub fn domain_spec(&self, domain: &str) -> Option<&DomainSpec> {
        self.master.domains.get(domain).map(|r| r.spec.as_ref())
    }

    /// The current model generation of a registered domain (bumped by
    /// [`CqadsWriter::ingest_query_log`] and [`CqadsWriter::set_word_sim`]); `None`
    /// for unregistered domains. The table-side counterpart is
    /// [`CqadsReader::table_generation`].
    pub fn model_generation(&self, domain: &str) -> Option<u64> {
        self.master.model_generation(domain)
    }

    /// The serving cache (stats, clearing; filled by cached asks and batches).
    pub fn cache(&self) -> &crate::cache::AnswerCache {
        &self.shared.cache
    }

    /// Snapshot of the serving cache's hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// One operator-facing snapshot of the serving path's health: cache
    /// counters plus every degradation signal — shed batches, deadline-cut
    /// questions, stale answers served and the current pressure step-down
    /// level. The degradation signals stay at zero on a system without
    /// resilience configured.
    pub fn serving_stats(&self) -> ServingStats {
        self.shared.serving_stats(&self.master)
    }

    /// Install the shared WS word-correlation matrix used by `Feat_Sim`.
    ///
    /// # Panics
    ///
    /// When the durable store cannot log the swap; use
    /// [`CqadsWriter::try_set_word_sim`] to handle that error. A memory-only
    /// system never panics here.
    pub fn set_word_sim(&mut self, matrix: WordSimMatrix) {
        if let Err(e) = self.try_set_word_sim(matrix) {
            // lint: allow(no-panic) — the documented panicking convenience; try_set_word_sim is the fallible API
            panic!("failed to log the WS-matrix swap (use try_set_word_sim to handle this): {e}");
        }
    }

    /// Fallible form of [`CqadsWriter::set_word_sim`]: every domain's model
    /// generation advances by one.
    pub fn try_set_word_sim(&mut self, matrix: WordSimMatrix) -> CqadsResult<()> {
        self.append_mutations(|| {
            let model_gens = self
                .master
                .domains
                .iter()
                .map(|(name, runtime)| (name.clone(), runtime.similarity.generation() + 1))
                .collect();
            vec![WalRecord::SetWordSim {
                ws: matrix.export_state(),
                model_gens,
            }]
        })?;
        self.master.rebuild_models_with_word_sim(matrix, true);
        self.publish_if_observed();
        Ok(())
    }

    /// Register an ads domain; `table` is moved in as it is.
    ///
    /// # Panics
    ///
    /// When [`CqadsWriter::try_add_domain`] fails; use it to handle that
    /// error. A memory-only system never panics here.
    pub fn add_domain(&mut self, spec: DomainSpec, table: Table, ti_matrix: TIMatrix) {
        if let Err(e) = self.try_add_domain(spec, table, ti_matrix) {
            // lint: allow(no-panic) — the documented panicking convenience; try_add_domain is the fallible API
            panic!("failed to register the domain (use try_add_domain to handle this): {e}");
        }
    }

    /// Fallible form of [`CqadsWriter::add_domain`]. On a durable system it
    /// fails for a table whose schema is not its spec's
    /// ([`CqadsError::Database`]), or when the registration cannot be logged.
    pub fn try_add_domain(
        &mut self,
        spec: DomainSpec,
        table: Table,
        ti_matrix: TIMatrix,
    ) -> CqadsResult<()> {
        // A store persists `spec.schema` only and recovery rebuilds the table
        // under it: a table with any other schema would be acknowledged here
        // and then fail every reopen.
        if self.storage.is_some() && table.schema() != &spec.schema {
            return Err(CqadsError::Database(addb::DbError::InvalidSchema(format!(
                "table `{}` differs from its spec's schema, the one a durable store persists",
                table.name()
            ))));
        }
        // Capture the persisted mirror before the moves below consume the
        // args.
        let frame = self.storage.as_ref().map(|_| {
            (
                spec_to_data(&spec),
                table.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
                ti_matrix.export_state(),
            )
        });
        // Stage the registration on a copy of the master (refcount bumps):
        // `add_table` and `register` decide the generations the frame carries.
        let mut next = self.master.clone();
        let name = spec.name().to_string();
        next.database.add_table(table);
        let spec = Arc::new(spec);
        let tagger = Tagger::from_arc(Arc::clone(&spec));
        // Re-registration moves the model generation past the replaced one.
        let floor = next.model_generation(&name).map_or(0, |g| g + 1);
        let model_gen = next.register(spec, tagger, Arc::new(ti_matrix), floor);
        let table_gen = next.table_generation(&name).unwrap_or(0);
        self.append_mutations(|| {
            let frame = frame.map(|(spec, records, ti)| WalRecord::RegisterDomain {
                spec: Box::new(spec),
                records,
                ti,
                table_gen,
                model_gen,
            });
            frame.into_iter().collect()
        })?;
        self.master = next;
        self.publish_if_observed();
        Ok(())
    }

    /// Log a mutation before it is applied: build its frames (only on a
    /// durable system), rotate to a fresh snapshot first when the current
    /// epoch is due — the snapshot holds the state before these frames — and
    /// persist the frames in one WAL append (one fsync). An error leaves the
    /// master, the published snapshot and the WAL as they were.
    fn append_mutations(&self, frames: impl FnOnce() -> Vec<WalRecord>) -> CqadsResult<()> {
        let Some(storage) = &self.storage else {
            return Ok(());
        };
        let frames = frames();
        if frames.is_empty() {
            return Ok(());
        }
        let due = storage.opts.snapshot_every > 0
            && storage.with_engine(|e| Ok(e.mutation_frames()))? >= storage.opts.snapshot_every;
        if due {
            self.write_snapshot()?;
        }
        storage.append_mutations(&frames)
    }

    /// Write a point-in-time durable snapshot and rotate to a fresh WAL
    /// epoch. Returns the new epoch number, or `None` on a memory-only
    /// system.
    pub fn write_snapshot(&self) -> CqadsResult<Option<u64>> {
        let Some(storage) = &self.storage else {
            return Ok(None);
        };
        let data = self.snapshot_data();
        storage
            .with_engine(|engine| {
                engine.install_snapshot(data)?;
                Ok(engine.seq())
            })
            .map(Some)
    }

    fn snapshot_data(&self) -> SnapshotData {
        let domains = self
            .master
            .domains
            .iter()
            .map(|(name, runtime)| {
                let (table_gen, records) = match self.master.database.table(name) {
                    Some(table) => (
                        table.generation(),
                        table.iter().map(|(_, record)| record.clone()).collect(),
                    ),
                    None => (0, Vec::new()),
                };
                DomainSnap {
                    spec: spec_to_data(&runtime.spec),
                    records,
                    table_gen,
                    ti: runtime.similarity.ti_matrix().export_state(),
                    model_gen: runtime.similarity.generation(),
                }
            })
            .collect();
        SnapshotData {
            seq: 0, // assigned by the engine on install
            domains,
            ws: self.master.word_sim.export_state(),
            config: config_to_snap(&self.shared.config),
        }
    }

    /// Train the JBBSM domain classifier on labelled example questions.
    ///
    /// Training is **not durable**: no WAL frame or snapshot section holds the
    /// classifier, so a reopened store ([`CqadsWriter::open`]) routes every
    /// question through [`ClassifyOutcome::FallbackUntrained`] (the first
    /// registered domain) until this runs again.
    pub fn train_classifier(&mut self, docs: &[LabelledDoc]) {
        Arc::make_mut(&mut self.master.classifier).train(docs);
        self.master.reset_routes();
        self.publish_if_observed();
    }

    /// Insert a record into a registered domain's table.
    pub fn insert_record(&mut self, domain: &str, record: Record) -> CqadsResult<RecordId> {
        let mut ids = self.insert_record_batch(domain, vec![record])?;
        // lint: allow(no-panic) — a successful batch of one yields exactly one id
        Ok(ids.pop().expect("a successful batch of one yields one id"))
    }

    /// Insert a batch of records, returning their ids in order. All or
    /// nothing: one record the schema rejects inserts none of them. One WAL
    /// append (one fsync) for the whole batch, and — with readers attached —
    /// one snapshot publication for the whole batch.
    /// A publication no longer costs a copy of the table (a single insert
    /// copies the tail chunks, one sorted-index leaf per numeric attribute
    /// and the posting lists), but bulk loads should still prefer this over
    /// `n` single inserts: it saves `n − 1` publications, posting-list
    /// copies and fsyncs.
    pub fn insert_record_batch(
        &mut self,
        domain: &str,
        records: Vec<Record>,
    ) -> CqadsResult<Vec<RecordId>> {
        let (_, table) = self.master.domain_table(domain)?;
        for record in &records {
            table.validate(record)?;
        }
        // One frame per record, each with the generation its insert reaches:
        // a single frame never advances the table generation by more than
        // one, which the torn-tail safety margin of recovery relies on.
        let first_gen = table.generation() + 1;
        self.append_mutations(|| {
            let frame = |(record, table_gen): (&Record, u64)| WalRecord::Insert {
                domain: domain.to_string(),
                record: record.clone(),
                table_gen,
            };
            records.iter().zip(first_gen..).map(frame).collect()
        })?;
        // Cannot fail: the table exists and every record was validated above.
        let table = self.master.table_mut(domain)?;
        let ids = records.into_iter().map(|record| table.insert(record));
        let ids = ids.collect::<addb::DbResult<Vec<_>>>()?;
        self.publish_if_observed();
        Ok(ids)
    }

    /// Mutable access to the underlying database. Inserts through this
    /// handle bump the owning table's generation exactly like
    /// [`CqadsWriter::insert_record`], so cached answers still invalidate
    /// correctly — but the writer cannot see the mutation happen, so
    /// detached readers only observe it after the next mutation method or an
    /// explicit [`CqadsWriter::publish`]. Nothing is written to durable
    /// storage through this handle.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.master.database
    }

    /// Absorb one batch of freshly recorded query-log sessions into a
    /// domain's TI-matrix — the live-learning path. Fallible primary form.
    /// The delta is applied incrementally ([`TIMatrix::apply`]: `O(delta)`
    /// accumulation plus a cheap renormalization, bit-identical to a full
    /// rebuild over the whole log), and the domain's model generation
    /// advances, which atomically invalidates every cached answer ranked
    /// under the old matrix — no flush happens or is needed.
    ///
    /// **Vocabulary contract:** the delta's query/ad values are interned into the
    /// process-global string pool (which never evicts) exactly as
    /// [`TIMatrix::build`] has always interned its log. Feed it the domain's
    /// **Type I attribute values** (the paper's query-log shape, already matched
    /// against the ads vocabulary upstream), not raw user text — a caller
    /// streaming unbounded free text here would grow the interner with traffic
    /// diversity, which is precisely what the answer cache's plain-string keys
    /// avoid (see [`crate::cache::CacheKey`]).
    pub fn ingest_query_log(
        &mut self,
        domain: &str,
        delta: &QueryLogDelta,
    ) -> CqadsResult<IngestReport> {
        self.ingest_query_log_batch(domain, std::slice::from_ref(delta))
    }

    /// Batch form of [`CqadsWriter::ingest_query_log`]: apply several deltas
    /// with a **single** renormalization, a **single** model-generation bump
    /// and a single snapshot publication. An empty batch changes nothing: it
    /// reports the current generation and zero sessions and queries.
    pub fn ingest_query_log_batch(
        &mut self,
        domain: &str,
        deltas: &[QueryLogDelta],
    ) -> CqadsResult<IngestReport> {
        // Each frame carries the post-batch generation: the whole batch
        // performs ONE bump, and recovery re-applies buffered deltas as one
        // batch per domain, so the stamps line up exactly.
        let model_gen = self.master.runtime(domain)?.similarity.generation() + 1;
        // An empty batch changes nothing, so it bumps, logs and publishes
        // nothing: a generation no frame records is one a reopen would not
        // restore.
        if !deltas.is_empty() {
            self.append_mutations(|| {
                let frames = deltas.iter().map(|delta| WalRecord::LogDelta {
                    domain: domain.to_string(),
                    delta: delta.clone(),
                    model_gen,
                });
                frames.collect()
            })?;
            if let Some(runtime) = self.master.domains.get_mut(domain) {
                Arc::make_mut(runtime).similarity.apply_log_deltas(deltas);
            }
            self.publish_if_observed();
        }
        let similarity = &self.master.runtime(domain)?.similarity;
        Ok(IngestReport {
            sessions: deltas.iter().map(QueryLogDelta::len).sum(),
            queries: deltas.iter().map(QueryLogDelta::query_count).sum(),
            model_generation: similarity.generation(),
            ti_pairs: similarity.ti_matrix().len(),
        })
    }

    /// Whether this system persists to durable storage.
    pub fn is_durable(&self) -> bool {
        self.storage.is_some()
    }

    /// What recovery found when this durable system was opened.
    pub fn storage_report(&self) -> Option<&RecoveryReport> {
        self.storage.as_ref().map(|s| &s.report)
    }
}

impl Default for CqadsWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// The read half of the handle split: a cheap `Clone + Send + Sync` handle
/// that answers against the snapshot published by its [`CqadsWriter`].
///
/// Every call loads the published `Snapshot` exactly once and serves the
/// whole call (or batch) from it — the load never blocks on a writer's work
/// (see the [module docs](self)), so readers on other threads keep serving
/// at full throughput while a writer ingests.
///
/// Mint one with [`CqadsWriter::reader`]; clone it freely.
///
/// ```
/// use addb::{Record, Table};
/// use cqads::domain::toy_car_domain;
/// use cqads::CqadsSystem;
/// use cqads_querylog::TIMatrix;
///
/// let spec = toy_car_domain();
/// let mut table = Table::new(spec.schema.clone());
/// table
///     .insert(
///         Record::builder()
///             .text("make", "honda")
///             .text("model", "accord")
///             .text("color", "blue")
///             .text("transmission", "automatic")
///             .number("price", 6_600.0)
///             .build(),
///     )
///     .unwrap();
/// let mut system = CqadsSystem::new();
/// system.add_domain(spec, table, TIMatrix::default());
///
/// let reader = system.reader(); // Clone + Send + Sync: one per thread
/// let answers = reader.ask("blue honda").domain("cars").get().unwrap();
/// assert_eq!(answers.exact_count, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CqadsReader {
    pub(crate) shared: Arc<Shared>,
}

impl CqadsReader {
    /// Classify a question into a registered domain.
    pub fn classify(&self, question: &str) -> CqadsResult<String> {
        let snap = self.shared.snapshot.load();
        self.ctx(&snap).classify(question)
    }

    /// Like [`CqadsReader::classify`], but reports *how* the domain was
    /// chosen.
    pub fn classify_outcome(&self, question: &str) -> CqadsResult<ClassifyOutcome> {
        let snap = self.shared.snapshot.load();
        self.ctx(&snap).classify_outcome(question)
    }

    /// Start building an answer request against the published snapshot. See
    /// [`AnswerRequest`].
    pub fn ask<'a>(&'a self, question: &'a str) -> AnswerRequest<'a> {
        AnswerRequest::new(RequestTarget::Reader(self), question)
    }

    /// Serve a burst of questions against one snapshot load. Same contract
    /// as [`CqadsWriter::answer_batch`].
    pub fn answer_batch<S: AsRef<str>>(&self, questions: &[S]) -> Vec<CqadsResult<Arc<AnswerSet>>> {
        let snap = self.shared.snapshot.load();
        self.ctx(&snap).answer_batch(questions)
    }

    /// Registered domain names, as of the published snapshot.
    pub fn domain_names(&self) -> Vec<String> {
        let snap = self.shared.snapshot.load();
        snap.domains.keys().cloned().collect()
    }

    /// The current model generation of a registered domain, as of the
    /// published snapshot.
    pub fn model_generation(&self, domain: &str) -> Option<u64> {
        let snap = self.shared.snapshot.load();
        snap.model_generation(domain)
    }

    /// The table generation of a registered domain, as of the published
    /// snapshot ([`addb::Table::generation`]).
    pub fn table_generation(&self, domain: &str) -> Option<u64> {
        let snap = self.shared.snapshot.load();
        snap.table_generation(domain)
    }

    /// The pipeline configuration this system was built with.
    pub fn config(&self) -> &CqadsConfig {
        &self.shared.config
    }

    /// Snapshot of the serving cache's hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// One operator-facing snapshot of the serving path's health, as of the
    /// published snapshot.
    pub fn serving_stats(&self) -> ServingStats {
        self.shared.serving_stats(&self.shared.snapshot.load())
    }

    fn ctx<'a>(&'a self, snap: &'a arcswap::Guard<Snapshot>) -> ReadContext<'a> {
        ReadContext {
            shared: &self.shared,
            snap,
        }
    }
}

/// Where an [`AnswerRequest`] resolves its snapshot from.
enum RequestTarget<'a> {
    /// A detached reader: load the published snapshot.
    Reader(&'a CqadsReader),
    /// The writer: serve from its master state.
    Writer(&'a CqadsWriter),
}

/// The one way to ask a single question, on a [`CqadsWriter`] or a
/// [`CqadsReader`]:
///
/// ```
/// # use addb::{Record, Table};
/// # use cqads::domain::toy_car_domain;
/// # use cqads::CqadsSystem;
/// # use cqads_querylog::TIMatrix;
/// # let spec = toy_car_domain();
/// # let mut table = Table::new(spec.schema.clone());
/// # table.insert(Record::builder().text("make", "honda").text("model", "accord").text("color", "blue").number("price", 6600.0).build()).unwrap();
/// # let mut system = CqadsSystem::new();
/// # system.add_domain(spec, table, TIMatrix::default());
/// let reader = system.reader();
/// // Cached (the default), classified automatically:
/// let a = reader.ask("blue honda").get().unwrap();
/// // Uncached, against an explicit domain:
/// let b = reader.ask("blue honda").domain("cars").uncached().get().unwrap();
/// assert_eq!(a.answers.len(), b.answers.len());
/// ```
///
/// Requests default to **cached** (the serving front-end behaviour);
/// [`AnswerRequest::uncached`] forces a from-scratch computation. Without
/// [`AnswerRequest::domain`] the question is classified first; a cached one
/// is routed through the snapshot's route memo (module docs, "The route
/// memo"), so a repeat of the exact text skips the classifier. An uncached
/// ask never reads or fills the memo.
///
/// A request is a batch of one ([`CqadsWriter::answer_batch`]): with
/// [`CqadsConfig::resilience`] set, every ask, cached or not, takes an
/// in-flight permit (or fails with [`CqadsError::Overloaded`]) and runs
/// under the deadline, and a cut answer comes back flagged
/// [`AnswerQuality::Degraded`] or [`AnswerQuality::Stale`].
#[must_use = "an AnswerRequest does nothing until .get() is called"]
pub struct AnswerRequest<'a> {
    target: RequestTarget<'a>,
    question: &'a str,
    domain: Option<&'a str>,
    cached: bool,
}

impl<'a> AnswerRequest<'a> {
    fn new(target: RequestTarget<'a>, question: &'a str) -> Self {
        AnswerRequest {
            target,
            question,
            domain: None,
            cached: true,
        }
    }

    /// Answer against this domain instead of classifying the question.
    pub fn domain(mut self, domain: &'a str) -> Self {
        self.domain = Some(domain);
        self
    }

    /// Skip the serving cache and the route memo: compute from scratch and
    /// fill nothing.
    pub fn uncached(mut self) -> Self {
        self.cached = false;
        self
    }

    /// Execute the request. Exactly one snapshot is loaded for the whole
    /// call; cached answers come back sharing their `Arc`, uncached ones are
    /// freshly computed (and wrapped, so the return type is uniform).
    pub fn get(self) -> CqadsResult<Arc<AnswerSet>> {
        let AnswerRequest {
            target,
            question,
            domain,
            cached,
        } = self;
        match target {
            RequestTarget::Reader(reader) => {
                let snap = reader.shared.snapshot.load();
                reader.ctx(&snap).answer_one(question, domain, cached)
            }
            RequestTarget::Writer(writer) => writer.ctx().answer_one(question, domain, cached),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::toy_car_domain;

    /// A context over a snapshot taken before a retrain keeps routing with that
    /// snapshot's classifier and memo, while the master routes with the new ones.
    #[test]
    fn a_pre_retrain_snapshot_routes_with_its_own_classifier() {
        let mut writer = CqadsWriter::new();
        for name in ["cars", "trucks"] {
            let mut spec = toy_car_domain();
            spec.schema.name = name.into();
            let table = Table::new(spec.schema.clone());
            writer.add_domain(spec, table, TIMatrix::default());
        }
        let question = "blue honda";
        writer.train_classifier(&[LabelledDoc::from_text("cars", question)]);
        let old = writer.master.clone();
        writer.train_classifier(&vec![LabelledDoc::from_text("trucks", question); 8]);
        let routed = |snap: &Snapshot| {
            let ctx = ReadContext {
                shared: &writer.shared,
                snap,
            };
            ctx.answer_one(question, None, true).unwrap().domain.clone()
        };
        for _ in 0..2 {
            assert_eq!(routed(&old), "cars");
            assert_eq!(routed(&writer.master), "trucks");
        }
        let (old, new) = (old.routes.stats(), writer.master.routes.stats());
        assert_eq!((old.misses, old.hits), (1, 1));
        assert_eq!((new.misses, new.hits), (1, 1));
    }
}
