//! The probes' own copy of every layer's state, driven through the layers' public
//! functions.
//!
//! The engine keeps its per-domain tagger, similarity model and table private, so
//! the probes hold a mirror built from the same parts, feed it the same inserts and
//! query-log deltas, and answer every question a second time stage by stage. The
//! staged answer must equal the end-to-end one (ids, `rank_sim` bits, match kind);
//! that equality is what entitles the stage times to be read as a breakdown of the
//! end-to-end time.

use crate::spans::Stage;
use addb::{Executor, Record, RecordId, Table};
use cqads::translate::interpret;
use cqads::{
    AnswerCache, AnswerSet, CacheKey, DomainSpec, GenerationStamp, PartialMatchOptions,
    PartialMatcher, SimilarityModel, Tagger,
};
use cqads_benchmark::clock::Clock;
use cqads_benchmark::sut::{digest, Parts};
use cqads_querylog::QueryLogDelta;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// The engine's answer limit and partial threshold (both default to the paper's 30).
const LIMIT: usize = addb::DEFAULT_ANSWER_LIMIT;

/// One domain's layers.
struct DomainMirror {
    spec: DomainSpec,
    tagger: Tagger,
    similarity: SimilarityModel,
    table: Table,
}

/// What the staged pipeline found for one question.
pub struct Staged {
    /// Digest of the staged answer list, comparable with `Answered::digest`.
    pub digest: u64,
    /// Conditions in the interpretation.
    pub conditions: usize,
    /// Whether partial matching ran.
    pub ran_partial: bool,
}

/// A question tagged, interpreted and executed, ready for its partial phase.
pub struct Prepared {
    domain: String,
    interpretation: cqads::Interpretation,
    exact_ids: HashSet<RecordId>,
    exact: Vec<RecordId>,
}

/// The mirror of the whole system, plus the probes' own answer cache.
pub struct Mirror {
    domains: BTreeMap<String, DomainMirror>,
    cache: AnswerCache,
}

impl Mirror {
    /// Build the mirror from the parts the system under test was assembled from.
    pub fn new(parts: Parts, cache_capacity: usize, cache_shards: usize) -> Self {
        let word_sim = Arc::new(parts.word_sim);
        let domains = parts
            .domains
            .into_iter()
            .map(|(spec, table, ti)| {
                let similarity =
                    SimilarityModel::new(Arc::new(ti), Arc::clone(&word_sim), spec.schema.clone());
                let mirror = DomainMirror {
                    tagger: Tagger::new(&spec),
                    similarity,
                    table,
                    spec,
                };
                (mirror.spec.name().to_string(), mirror)
            })
            .collect();
        Mirror {
            domains,
            cache: AnswerCache::new(cache_capacity, cache_shards),
        }
    }

    fn domain(&self, name: &str) -> Result<&DomainMirror, String> {
        self.domains
            .get(name)
            .ok_or_else(|| format!("mirror has no domain {name}"))
    }

    /// Tag, interpret and execute `question` in `domain`, timing each stage through
    /// `rec(stage, start_ns, end_ns)`.
    pub fn prepare(
        &self,
        domain: &str,
        question: &str,
        clock: &Clock,
        rec: &mut impl FnMut(Stage, u64, u64),
    ) -> Result<Prepared, String> {
        let d = self.domain(domain)?;
        let start = clock.now_ns();
        let tagged = d.tagger.tag(question);
        rec(Stage::Tag, start, clock.now_ns());

        let start = clock.now_ns();
        let interpretation = interpret(&tagged, &d.spec).map_err(|e| e.to_string())?;
        let query = interpretation
            .to_query_with_limit(&d.spec, LIMIT)
            .map_err(|e| e.to_string())?;
        std::hint::black_box(addb::sql::render(&query));
        rec(Stage::Interpret, start, clock.now_ns());

        let start = clock.now_ns();
        let exact = Executor::new(&d.table)
            .execute(&query)
            .map_err(|e| e.to_string())?;
        rec(Stage::Execute, start, clock.now_ns());

        let exact: Vec<RecordId> = exact.iter().map(|a| a.id).collect();
        Ok(Prepared {
            domain: domain.to_string(),
            exact_ids: exact.iter().copied().collect(),
            exact,
            interpretation,
        })
    }

    /// Run the partial phase of a prepared question with `workers` threads and
    /// assemble the answer list the way the engine does.
    pub fn finish(
        &self,
        prepared: &Prepared,
        workers: usize,
        clock: &Clock,
        rec: &mut impl FnMut(Stage, u64, u64),
    ) -> Result<Staged, String> {
        let d = self.domain(&prepared.domain)?;
        let conditions = prepared.interpretation.condition_count();
        let mut answers: Vec<(u32, u64, bool)> = prepared
            .exact
            .iter()
            .filter(|id| d.table.get(**id).is_some())
            .map(|id| (id.0, (conditions as f64).to_bits(), true))
            .collect();
        let budget = LIMIT.saturating_sub(answers.len());
        if budget > 0 {
            let matcher = PartialMatcher::with_options(
                &d.spec,
                &d.similarity,
                PartialMatchOptions {
                    workers,
                    ..PartialMatchOptions::default()
                },
            );
            let start = clock.now_ns();
            let partial = matcher
                .partial_answers(
                    &prepared.interpretation,
                    &d.table,
                    &prepared.exact_ids,
                    budget,
                )
                .map_err(|e| e.to_string())?;
            rec(Stage::Partial, start, clock.now_ns());
            answers.extend(
                partial
                    .iter()
                    .filter(|p| d.table.get(p.id).is_some())
                    .map(|p| (p.id.0, p.rank_sim.to_bits(), false)),
            );
        }
        answers.truncate(LIMIT);
        Ok(Staged {
            digest: digest(answers.iter().copied()),
            conditions,
            ran_partial: budget > 0,
        })
    }

    /// The uncached pipeline, stage by stage.
    pub fn compute(
        &self,
        domain: &str,
        question: &str,
        clock: &Clock,
        rec: &mut impl FnMut(Stage, u64, u64),
    ) -> Result<Staged, String> {
        let prepared = self.prepare(domain, question, clock, rec)?;
        self.finish(&prepared, 1, clock, rec)
    }

    /// `CacheKey::new` and `AnswerCache::lookup` against the probes' cache. When
    /// the system hit but the mirror cache is still cold for the key, the entry is
    /// primed first (untimed), so that the timed lookup is the hit the system made.
    pub fn lookup(
        &self,
        domain: &str,
        question: &str,
        stamp: (u64, u64),
        system_hit: Option<&Arc<AnswerSet>>,
        clock: &Clock,
        rec: &mut impl FnMut(Stage, u64, u64),
    ) -> (CacheKey, Option<Arc<AnswerSet>>) {
        let stamp = GenerationStamp::new(stamp.0, stamp.1);
        let start = clock.now_ns();
        let key = CacheKey::new(domain, question);
        rec(Stage::CacheKey, start, clock.now_ns());
        if let Some(answer) = system_hit {
            if self.cache.peek_stale(&key).is_none() {
                self.cache.fill(key.clone(), stamp, Arc::clone(answer));
            }
        }
        let start = clock.now_ns();
        let found = self.cache.lookup(&key, stamp);
        let stage = if found.is_some() {
            Stage::CacheLookupHit
        } else {
            Stage::CacheLookupMiss
        };
        rec(stage, start, clock.now_ns());
        (key, found)
    }

    /// `AnswerCache::fill` into the probes' cache.
    pub fn fill(
        &self,
        key: CacheKey,
        stamp: (u64, u64),
        answer: Arc<AnswerSet>,
        clock: &Clock,
        rec: &mut impl FnMut(Stage, u64, u64),
    ) {
        let start = clock.now_ns();
        self.cache
            .fill(key, GenerationStamp::new(stamp.0, stamp.1), answer);
        rec(Stage::CacheFill, start, clock.now_ns());
    }

    /// `Table::insert` of the record the system just inserted.
    pub fn insert(
        &mut self,
        domain: &str,
        record: Record,
        clock: &Clock,
        rec: &mut impl FnMut(Stage, u64, u64),
    ) -> Result<(), String> {
        let d = self
            .domains
            .get_mut(domain)
            .ok_or_else(|| format!("mirror has no domain {domain}"))?;
        let start = clock.now_ns();
        let inserted = d.table.insert(record);
        rec(Stage::TableInsert, start, clock.now_ns());
        inserted.map(drop).map_err(|e| e.to_string())
    }

    /// `SimilarityModel::apply_log_deltas` of the delta the system just ingested.
    pub fn ingest(
        &mut self,
        domain: &str,
        delta: &QueryLogDelta,
        clock: &Clock,
        rec: &mut impl FnMut(Stage, u64, u64),
    ) -> Result<(), String> {
        let d = self
            .domains
            .get_mut(domain)
            .ok_or_else(|| format!("mirror has no domain {domain}"))?;
        let start = clock.now_ns();
        d.similarity.apply_log_deltas([delta]);
        rec(Stage::ModelApply, start, clock.now_ns());
        Ok(())
    }
}

/// Median time of a fill into a full stripe of a fresh cache of the system's shape:
/// each such fill scans the stripe for its least recently used entry.
pub fn overflow_fill_ns(
    capacity: usize,
    shards: usize,
    answer: &Arc<AnswerSet>,
    clock: &Clock,
) -> u64 {
    let cache = AnswerCache::new(capacity, shards);
    let stamp = GenerationStamp::new(1, 1);
    let key = |i: usize| CacheKey::new("cars", &format!("overflow probe question {i}"));
    // Twice the capacity: every stripe is full whatever the process's stripe hash.
    for i in 0..2 * capacity {
        cache.fill(key(i), stamp, Arc::clone(answer));
    }
    let mut times: Vec<u64> = (0..200)
        .map(|i| {
            let k = key(2 * capacity + i);
            clock.time(|| cache.fill(k, stamp, Arc::clone(answer))).1
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}
