//! The end-to-end CQAds pipeline: its configuration and result types.
//!
//! A [`CqadsWriter`] (also reachable under its historical name [`CqadsSystem`]) owns
//! the ads database, one [`DomainSpec`](crate::DomainSpec)/tagger/TI-matrix per
//! registered domain, the shared WS word-correlation matrix and the JBBSM question
//! classifier. `ask(question).get()` runs the full paper pipeline: classify → tag →
//! interpret → translate to SQL → execute exactly → top up with ranked
//! partially-matched answers when fewer than 30 exact answers exist.
//!
//! The system also **learns from live traffic**: [`CqadsWriter::ingest_query_log`]
//! streams freshly recorded query-log deltas into a domain's TI-matrix
//! incrementally (no full rebuild, bit-identical result) and advances the domain's
//! *model generation*, which — together with the table generation — stamps every
//! cached answer so stale rankings are provably never served (see
//! [`crate::cache`]).
//!
//! The handles themselves live in [`crate::handle`]: the writer serves reads from
//! its own master state, and [`CqadsWriter::reader`] mints detached
//! [`CqadsReader`](crate::CqadsReader) handles that serve concurrently with
//! mutations.

use crate::error::{CqadsError, CqadsResult};
use crate::handle::CqadsWriter;
use crate::ranking::SimilarityMeasure;
use crate::resilience::{AnswerQuality, ResilienceOptions};
use crate::storage::StorageOptions;
use crate::tagging::TaggedQuestion;
use crate::translate::Interpretation;
use addb::{Record, RecordId};
use std::sync::Arc;
use std::time::Duration;

/// Whether an answer matched every condition or was retrieved by the N−1 strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// The record satisfies every selection criterion.
    Exact,
    /// The record satisfies all but one criterion; ranked by `Rank_Sim`.
    Partial,
}

/// One answer returned to the user.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Record id within the domain table.
    pub id: RecordId,
    /// Shared handle to the advertisement record (the table keeps records behind
    /// [`Arc`], so building an answer never deep-clones the record).
    pub record: Arc<Record>,
    /// Exact or partial match.
    pub kind: MatchKind,
    /// `Rank_Sim` score for partial answers (exact answers carry the full condition
    /// count, which always sorts above any partial score).
    pub rank_sim: f64,
    /// Similarity measure used for the relaxed condition (partial answers only).
    pub measure: SimilarityMeasure,
}

/// The result of answering one question.
#[derive(Debug, Clone)]
pub struct AnswerSet {
    /// The domain the question was classified into.
    pub domain: String,
    /// The tagged question (for inspection / debugging).
    pub tagged: TaggedQuestion,
    /// The interpretation (condition sketches, superlatives).
    pub interpretation: Interpretation,
    /// The SQL statement shipped to the database layer.
    pub sql: String,
    /// Exact answers followed by ranked partial answers, at most `answer_limit` total.
    pub answers: Vec<Answer>,
    /// Number of exact answers at the head of `answers`.
    pub exact_count: usize,
    /// How this answer relates to the one an unbounded run would produce:
    /// [`Complete`](AnswerQuality::Complete) on every path unless the
    /// resilience layer ([`CqadsConfig::resilience`]) cut a deadline
    /// ([`Degraded`](AnswerQuality::Degraded)) or served a generation-stale
    /// cache entry ([`Stale`](AnswerQuality::Stale)). Degradation is always
    /// explicit — a short or stale answer never carries `Complete`.
    pub quality: AnswerQuality,
    /// Wall-clock time spent answering.
    pub elapsed: Duration,
}

impl AnswerSet {
    /// Answers that matched every condition.
    pub fn exact(&self) -> &[Answer] {
        &self.answers[..self.exact_count]
    }

    /// Ranked partially-matched answers.
    pub fn partial(&self) -> &[Answer] {
        &self.answers[self.exact_count..]
    }
}

/// Pipeline configuration.
///
/// The struct remains plainly constructible (every knob is public, functional
/// update works as it always did); [`CqadsConfig::builder`] is the validating
/// front door that rejects nonsensical combinations with
/// [`CqadsError::Config`] instead of letting them fail obscurely later.
///
/// ```
/// use cqads::CqadsConfig;
///
/// // Tune one knob, keep the paper-mandated defaults for the rest.
/// let config = CqadsConfig { answer_limit: 10, ..CqadsConfig::default() };
/// assert_eq!(config.partial_threshold, 30); // paper's answer budget
/// assert_eq!(config.cache_capacity, 4096);
///
/// // Or go through the validating builder:
/// let config = CqadsConfig::builder().answer_limit(10).build().unwrap();
/// assert_eq!(config.partial_threshold, 10); // follows answer_limit unless set
/// assert!(CqadsConfig::builder().cache_shards(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct CqadsConfig {
    /// Total answers returned per question (exact + partial). The paper uses 30.
    pub answer_limit: usize,
    /// Retrieve partial answers whenever fewer exact answers than this threshold exist.
    /// The paper tops up to the full answer limit, so the default equals `answer_limit`.
    pub partial_threshold: usize,
    /// Ignored: the partial phase runs every question on the calling thread.
    /// Kept only because `crates/benchmark` still sets it; a `[benchmark]`
    /// change deletes it along with the benchmark's mirror.
    pub partial_workers: usize,
    /// Total answer sets held by the serving cache ([`AnswerCache`](crate::AnswerCache)); `0` disables
    /// caching entirely (every [`CqadsWriter::answer_batch`] question recomputes).
    /// It also bounds each snapshot's route memo — question texts whose domain
    /// and cache key a cached ask reuses instead of classifying again
    /// ([`ServingStats::routes`](crate::ServingStats::routes)) — and `0`
    /// disables that too.
    pub cache_capacity: usize,
    /// Lock stripes of the serving cache: concurrent readers of different questions
    /// contend only within a stripe. Clamped to at least 1 (and at most the
    /// capacity) by the cache itself. The route memo has as many.
    pub cache_shards: usize,
    /// Durable storage. `None` (the default) keeps the system purely in
    /// memory — bit-identical to the behaviour before persistence existed.
    /// `Some` write-ahead-logs every mutation (domain registration, record
    /// insert, query-log ingest, WS-matrix swap) with a CRC-checksummed,
    /// generation-stamped frame under [`StorageOptions::dir`] and rotates
    /// periodic snapshots; [`CqadsWriter::open`] recovers the state after a
    /// crash. Reads never touch storage.
    pub storage: Option<StorageOptions>,
    /// Serving resilience: admission control, deadline-cut partial matching
    /// with explicit degradation, stale-on-timeout fallback and pressure
    /// step-down. `None` (the default) disables the whole layer — every
    /// answering path is then byte-identical to the system before it existed.
    /// Like [`CqadsConfig::storage`], these knobs describe *this process* and
    /// are never persisted in snapshots.
    pub resilience: Option<ResilienceOptions>,
    /// Ignored: every domain is one table. Kept only because `crates/benchmark`
    /// still sets it; a `[benchmark]` change deletes it along with
    /// [`ShardedCqads`](crate::ShardedCqads).
    pub shards: Option<usize>,
}

impl Default for CqadsConfig {
    fn default() -> Self {
        CqadsConfig {
            answer_limit: addb::DEFAULT_ANSWER_LIMIT,
            partial_threshold: addb::DEFAULT_ANSWER_LIMIT,
            partial_workers: 0,
            cache_capacity: 4096,
            cache_shards: 16,
            storage: None,
            resilience: None,
            shards: None,
        }
    }
}

impl CqadsConfig {
    /// Start a validating [`CqadsConfigBuilder`] seeded with the defaults.
    pub fn builder() -> CqadsConfigBuilder {
        CqadsConfigBuilder {
            config: CqadsConfig::default(),
            partial_threshold: None,
        }
    }

    /// Check this configuration for combinations that cannot work:
    /// a zero answer limit, a partial threshold above the answer limit,
    /// zero cache shards with a non-zero cache capacity, or a resilience
    /// deadline floor above the deadline itself. Every other combination of
    /// knobs works and answers identically.
    /// [`CqadsConfigBuilder::build`] runs this automatically; call it directly
    /// when constructing the struct by hand.
    pub fn validate(&self) -> CqadsResult<()> {
        if self.answer_limit == 0 {
            return Err(CqadsError::Config(
                "answer_limit must be at least 1 (the paper uses 30)".to_string(),
            ));
        }
        if self.partial_threshold > self.answer_limit {
            return Err(CqadsError::Config(format!(
                "partial_threshold ({}) exceeds answer_limit ({}): the threshold is \
                 clamped to the limit, so the extra headroom can never take effect",
                self.partial_threshold, self.answer_limit
            )));
        }
        if self.cache_capacity > 0 && self.cache_shards == 0 {
            return Err(CqadsError::Config(
                "cache_shards must be at least 1 when the cache is enabled \
                 (set cache_capacity to 0 to disable caching)"
                    .to_string(),
            ));
        }
        if let Some(resilience) = &self.resilience {
            if let Some(deadline) = resilience.deadline_micros {
                if resilience.min_deadline_micros > deadline {
                    return Err(CqadsError::Config(format!(
                        "resilience.min_deadline_micros ({}) exceeds deadline_micros ({}): \
                         the step-down floor can never be above the starting deadline",
                        resilience.min_deadline_micros, deadline
                    )));
                }
            }
        }
        Ok(())
    }

    /// How many partial answers to request once `exact_len` exact answers are in
    /// hand: top up to the answer limit when the exact answers fall short of the
    /// partial threshold, nothing otherwise.
    pub fn partial_budget(&self, exact_len: usize) -> usize {
        if exact_len < self.partial_threshold.min(self.answer_limit) {
            self.answer_limit - exact_len
        } else {
            0
        }
    }
}

/// Validating builder for [`CqadsConfig`] — see [`CqadsConfig::builder`].
///
/// Unset knobs keep their defaults, with one dependent default:
/// `partial_threshold` follows `answer_limit` (the paper tops partial answers
/// up to the full budget) unless set explicitly. [`CqadsConfigBuilder::build`]
/// rejects invalid combinations with [`CqadsError::Config`].
///
/// Marked `#[non_exhaustive]` so future knobs never break downstream matches
/// or construction; the only way to obtain one is [`CqadsConfig::builder`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CqadsConfigBuilder {
    config: CqadsConfig,
    /// Explicit override; `None` follows `answer_limit`.
    partial_threshold: Option<usize>,
}

impl CqadsConfigBuilder {
    /// Total answers returned per question (exact + partial).
    pub fn answer_limit(mut self, answer_limit: usize) -> Self {
        self.config.answer_limit = answer_limit;
        self
    }

    /// Retrieve partial answers whenever fewer exact answers than this exist.
    pub fn partial_threshold(mut self, partial_threshold: usize) -> Self {
        self.partial_threshold = Some(partial_threshold);
        self
    }

    /// Total answer sets held by the serving cache (`0` disables caching).
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.config.cache_capacity = cache_capacity;
        self
    }

    /// Lock stripes of the serving cache.
    pub fn cache_shards(mut self, cache_shards: usize) -> Self {
        self.config.cache_shards = cache_shards;
        self
    }

    /// Enable durable storage with these options.
    pub fn storage(mut self, storage: StorageOptions) -> Self {
        self.config.storage = Some(storage);
        self
    }

    /// Enable the serving-resilience layer with these options.
    pub fn resilience(mut self, resilience: ResilienceOptions) -> Self {
        self.config.resilience = Some(resilience);
        self
    }

    /// Validate and produce the configuration; [`CqadsError::Config`] names
    /// the offending knob combination.
    pub fn build(self) -> CqadsResult<CqadsConfig> {
        let mut config = self.config;
        config.partial_threshold = self.partial_threshold.unwrap_or(config.answer_limit);
        config.validate()?;
        Ok(config)
    }
}

/// How [`CqadsWriter::classify`] arrived at its domain: a genuine classifier
/// prediction, or one of the two fallback paths (which used to be silent — callers
/// debugging routing could not tell a confident prediction from a shrug).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassifyOutcome {
    /// The trained classifier predicted a registered domain.
    Classified(String),
    /// The classifier produced no prediction at all (not trained, or the question
    /// shares no vocabulary with the training set); fell back to the first
    /// registered domain.
    FallbackUntrained(String),
    /// The classifier predicted a domain that was never registered with
    /// [`CqadsWriter::add_domain`]; fell back to the first registered domain.
    FallbackUnknownDomain {
        /// What the classifier emitted.
        predicted: String,
        /// The registered domain actually used.
        fallback: String,
    },
}

impl ClassifyOutcome {
    /// The domain the question will be answered in, however it was chosen.
    pub fn domain(&self) -> &str {
        match self {
            ClassifyOutcome::Classified(d) | ClassifyOutcome::FallbackUntrained(d) => d,
            ClassifyOutcome::FallbackUnknownDomain { fallback, .. } => fallback,
        }
    }

    /// Consume the outcome, keeping only the chosen domain.
    pub fn into_domain(self) -> String {
        match self {
            ClassifyOutcome::Classified(d) | ClassifyOutcome::FallbackUntrained(d) => d,
            ClassifyOutcome::FallbackUnknownDomain { fallback, .. } => fallback,
        }
    }

    /// True when either fallback path fired instead of a real prediction.
    pub fn is_fallback(&self) -> bool {
        !matches!(self, ClassifyOutcome::Classified(_))
    }
}

/// What one [`CqadsWriter::ingest_query_log`] (or batch) call absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Sessions applied to the TI-matrix.
    pub sessions: usize,
    /// Submitted queries across those sessions.
    pub queries: usize,
    /// The domain's model generation *after* the ingest — every cached answer
    /// stamped with an older model generation is now unservable.
    pub model_generation: u64,
    /// Distinct value pairs the TI-matrix holds after the ingest.
    pub ti_pairs: usize,
}

/// The CQAds question-answering system — the historical name of
/// [`CqadsWriter`], which owns the ads database, one tagger/TI-matrix/similarity
/// model per registered domain, the shared WS-matrix, the domain classifier and
/// the serving cache, and serves reads from its own master state. The alias is
/// kept on purpose: `crates/benchmark/src/sut.rs` names it.
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
///             .number("year", 2004.0)
///             .build(),
///     )
///     .unwrap();
/// let mut system = CqadsSystem::new();
/// system.add_domain(spec, table, TIMatrix::default());
/// let answers = system.ask("blue honda").domain("cars").get().unwrap();
/// assert_eq!(answers.exact_count, 1);
/// ```
pub type CqadsSystem = CqadsWriter;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::toy_car_domain;
    use addb::Table;
    use cqads_classifier::LabelledDoc;
    use cqads_querylog::{QueryLogDelta, Session, SubmittedQuery, TIMatrix};
    use cqads_wordsim::WordSimMatrix;

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

    fn system_with(config: CqadsConfig) -> CqadsSystem {
        let spec = toy_car_domain();
        let mut table = Table::new(spec.schema.clone());
        table
            .insert(car("honda", "accord", "blue", "automatic", 6600.0, 2004.0))
            .unwrap();
        table
            .insert(car("honda", "accord", "gold", "manual", 16_536.0, 2009.0))
            .unwrap();
        table
            .insert(car("honda", "civic", "red", "automatic", 4500.0, 2001.0))
            .unwrap();
        table
            .insert(car("toyota", "camry", "blue", "automatic", 8561.0, 2006.0))
            .unwrap();
        table
            .insert(car("ford", "focus", "blue", "manual", 6795.0, 2005.0))
            .unwrap();
        let mut ti = TIMatrix::default();
        ti.insert("accord", "camry", 4.0);
        ti.insert("accord", "focus", 2.0);
        let mut system = CqadsSystem::with_config(config);
        let mut ws = WordSimMatrix::default();
        ws.insert("blue", "gold", 0.5);
        system.set_word_sim(ws);
        system.add_domain(spec, table, ti);
        system
    }

    fn system() -> CqadsSystem {
        system_with(CqadsConfig::default())
    }

    #[test]
    fn exact_answers_come_back_for_example_7() {
        let sys = system();
        let result = sys
            .ask("Do you have automatic blue cars?")
            .domain("cars")
            .uncached()
            .get()
            .unwrap();
        assert_eq!(result.exact_count, 2);
        assert!(result.sql.contains("automatic"));
        for a in result.exact() {
            assert_eq!(a.kind, MatchKind::Exact);
            assert_eq!(a.record.get_text("transmission"), Some("automatic"));
            assert_eq!(a.record.get_text("color"), Some("blue"));
        }
        // partial answers fill the remainder of the 30-answer budget
        assert!(result.answers.len() > result.exact_count);
        assert!(result.answers.len() <= 30);
    }

    #[test]
    fn cheapest_honda_returns_the_cheapest_honda() {
        let sys = system();
        let result = sys
            .ask("cheapest honda")
            .domain("cars")
            .uncached()
            .get()
            .unwrap();
        assert!(result.exact_count >= 1);
        let top = &result.exact()[0];
        assert_eq!(top.record.get_text("make"), Some("honda"));
        assert_eq!(top.record.get_number("price"), Some(4500.0));
    }

    #[test]
    fn partial_answers_are_ranked_when_no_exact_match_exists() {
        let sys = system();
        let result = sys
            .ask("Find Honda Accord blue less than 5000 dollars")
            .domain("cars")
            .uncached()
            .get()
            .unwrap();
        assert_eq!(result.exact_count, 0);
        assert!(!result.partial().is_empty());
        // partial answers are sorted by Rank_Sim descending
        let scores: Vec<f64> = result.partial().iter().map(|a| a.rank_sim).collect();
        for w in scores.windows(2) {
            assert!(w[0] >= w[1] + -1e-9);
        }
        // every partial answer reports which measure ranked it
        assert!(result
            .partial()
            .iter()
            .all(|a| a.measure != SimilarityMeasure::None || a.rank_sim > 0.0));
    }

    #[test]
    fn classification_routes_to_registered_domains() {
        let mut sys = system();
        sys.train_classifier(&[
            LabelledDoc::from_text("cars", "honda accord blue automatic price"),
            LabelledDoc::from_text("cars", "cheapest toyota camry sedan"),
        ]);
        assert_eq!(sys.classify("blue honda please").unwrap(), "cars");
        let result = sys.ask("blue honda").uncached().get().unwrap();
        assert_eq!(result.domain, "cars");
        // unknown domains error
        assert!(matches!(
            sys.ask("blue honda").domain("boats").uncached().get(),
            Err(CqadsError::UnknownDomain(_))
        ));
        // an empty system cannot classify
        let empty = CqadsSystem::new();
        assert!(matches!(
            empty.classify("anything"),
            Err(CqadsError::NoDomain)
        ));
    }

    #[test]
    fn unknown_domain_and_missing_table_are_distinct_failures() {
        let mut sys = system();
        // Path 1: the domain was never registered at all.
        assert!(matches!(
            sys.ask("blue honda").domain("boats").uncached().get(),
            Err(CqadsError::UnknownDomain(d)) if d == "boats"
        ));
        // Path 2: the domain IS registered, but its table is missing from the
        // database (here: a spec registered under a name whose table was stored
        // under a different one).
        let mut other = toy_car_domain();
        other.schema.name = "wrecked-cars".to_string();
        let orphan_table = Table::new(toy_car_domain().schema.clone());
        sys.add_domain(other, orphan_table, TIMatrix::default());
        // The spec is registered under "wrecked-cars" but the table kept its schema
        // name ("cars"), so the database has no "wrecked-cars" table.
        assert!(sys.domain_names().contains(&"wrecked-cars"));
        assert!(sys.database().table("wrecked-cars").is_none());
        assert!(matches!(
            sys.ask("blue honda").domain("wrecked-cars").uncached().get(),
            Err(CqadsError::MissingTable(d)) if d == "wrecked-cars"
        ));
        // The cached path reports the same distinction.
        assert!(matches!(
            sys.ask("blue honda").domain("boats").get(),
            Err(CqadsError::UnknownDomain(_))
        ));
        assert!(matches!(
            sys.ask("blue honda").domain("wrecked-cars").get(),
            Err(CqadsError::MissingTable(_))
        ));
        // insert_record distinguishes them too.
        assert!(matches!(
            sys.insert_record("boats", Record::builder().build()),
            Err(CqadsError::UnknownDomain(_))
        ));
        assert!(matches!(
            sys.insert_record("wrecked-cars", Record::builder().build()),
            Err(CqadsError::MissingTable(_))
        ));
    }

    #[test]
    fn classify_outcome_surfaces_both_fallback_paths() {
        let mut sys = system();
        // Untrained classifier: fallback to the first registered domain, visibly.
        let outcome = sys.classify_outcome("blue honda").unwrap();
        assert_eq!(outcome, ClassifyOutcome::FallbackUntrained("cars".into()));
        assert!(outcome.is_fallback());
        assert_eq!(outcome.domain(), "cars");

        // Train with a label that is NOT a registered domain: the classifier's
        // prediction cannot be served, and the fallback now says so instead of
        // silently routing to the first domain.
        sys.train_classifier(&[
            LabelledDoc::from_text("boats", "blue sailing boat with a honda outboard"),
            LabelledDoc::from_text("boats", "cheap honda jetski blue"),
        ]);
        let outcome = sys.classify_outcome("blue honda").unwrap();
        assert_eq!(
            outcome,
            ClassifyOutcome::FallbackUnknownDomain {
                predicted: "boats".into(),
                fallback: "cars".into(),
            }
        );
        assert!(outcome.is_fallback());
        assert_eq!(outcome.domain(), "cars");
        // classify() keeps its historical contract: it returns the served domain.
        assert_eq!(sys.classify("blue honda").unwrap(), "cars");

        // A genuine prediction reports Classified.
        let mut trained = system();
        trained.train_classifier(&[LabelledDoc::from_text("cars", "blue honda accord price")]);
        assert_eq!(
            trained.classify_outcome("blue honda").unwrap(),
            ClassifyOutcome::Classified("cars".into())
        );
    }

    #[test]
    fn cached_answers_hit_until_an_insert_invalidates() {
        let mut sys = system();
        let question = "Do you have automatic blue cars?";
        let first = sys.ask(question).domain("cars").get().unwrap();
        assert_eq!(first.exact_count, 2);
        assert_eq!(sys.cache_stats().hits, 0);
        // Same question (modulo case/punctuation) is a hit sharing the same Arc.
        let second = sys
            .ask("do you have AUTOMATIC blue cars")
            .domain("cars")
            .get();
        let second = second.unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(sys.cache_stats().hits, 1);

        // Insert a matching record: the table generation advances, so the cached
        // answer must not be served again.
        sys.insert_record(
            "cars",
            car("honda", "civic", "blue", "automatic", 7200.0, 2007.0),
        )
        .unwrap();
        let third = sys.ask(question).domain("cars").get().unwrap();
        assert!(!Arc::ptr_eq(&first, &third), "stale answer served");
        assert_eq!(
            third.exact_count, 3,
            "post-insert answer reflects the insert"
        );
        assert_eq!(sys.cache_stats().stale_evictions, 1);

        // A classified ask routes through classification then the same cache.
        let fourth = sys.ask(question).get().unwrap();
        assert!(Arc::ptr_eq(&third, &fourth));
    }

    #[test]
    fn ingesting_a_query_log_delta_invalidates_cached_answers() {
        use cqads_querylog::{QueryLogDelta, Session, SubmittedQuery};

        let mut sys = system();
        // A question with no exact match: its answers are partial, ranked by the
        // TI-matrix — exactly what a live log update can change.
        let question = "Find Honda Accord blue less than 5000 dollars";
        let first = sys.ask(question).domain("cars").get().unwrap();
        let hit = sys.ask(question).domain("cars").get().unwrap();
        assert!(Arc::ptr_eq(&first, &hit));
        assert_eq!(sys.model_generation("cars"), Some(0));

        // Stream in a delta: users reformulating accord -> camry.
        let delta = QueryLogDelta::from_sessions(vec![Session {
            user_id: 1,
            queries: vec![
                SubmittedQuery {
                    value: "accord".into(),
                    at_seconds: 0.0,
                    clicks: vec![],
                    shown: vec!["accord".into(), "camry".into()],
                },
                SubmittedQuery {
                    value: "camry".into(),
                    at_seconds: 30.0,
                    clicks: vec![],
                    shown: vec!["camry".into()],
                },
            ],
        }]);
        let report = sys.ingest_query_log("cars", &delta).unwrap();
        assert_eq!(report.sessions, 1);
        assert_eq!(report.queries, 2);
        assert_eq!(report.model_generation, 1);
        assert!(report.ti_pairs >= 1);
        assert_eq!(sys.model_generation("cars"), Some(1));

        // The cached answer was ranked by the pre-delta matrix: it must not be
        // served again, even though the table never changed.
        let refreshed = sys.ask(question).domain("cars").get().unwrap();
        assert!(!Arc::ptr_eq(&first, &refreshed), "stale ranking served");
        assert_eq!(sys.cache_stats().stale_evictions, 1);
        // The recomputed answer equals a from-scratch computation.
        let scratch = sys.ask(question).domain("cars").uncached().get().unwrap();
        assert_eq!(refreshed.answers.len(), scratch.answers.len());
        for (a, b) in refreshed.answers.iter().zip(&scratch.answers) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.rank_sim.to_bits(), b.rank_sim.to_bits());
        }

        // Unknown domains are rejected; the batch form bumps the generation once.
        assert!(matches!(
            sys.ingest_query_log("boats", &delta),
            Err(CqadsError::UnknownDomain(_))
        ));
        let report = sys
            .ingest_query_log_batch("cars", &[delta.clone(), delta])
            .unwrap();
        assert_eq!(report.sessions, 2);
        assert_eq!(report.model_generation, 2);
    }

    #[test]
    fn word_sim_swap_and_domain_reregistration_never_regress_the_model_generation() {
        let mut sys = system();
        assert_eq!(sys.model_generation("cars"), Some(0));
        // Swapping the WS-matrix re-ranks Feat_Sim answers: generation advances.
        let mut ws = WordSimMatrix::default();
        ws.insert("blue", "silver", 0.9);
        sys.set_word_sim(ws);
        assert_eq!(sys.model_generation("cars"), Some(1));

        // Re-registering the domain with a fresh (generation-0) model must not
        // regress the observable generation.
        let spec = toy_car_domain();
        let table = Table::new(spec.schema.clone());
        sys.add_domain(spec, table, TIMatrix::default());
        assert_eq!(sys.model_generation("cars"), Some(2));
        assert_eq!(sys.model_generation("boats"), None);
    }

    #[test]
    fn answer_batch_dedups_serves_hits_and_reports_errors_in_place() {
        let sys = system();
        let burst = [
            "Do you have automatic blue cars?",
            "hello there",                     // EmptyQuestion, reported in place
            "do you have automatic blue cars", // duplicate of [0] modulo case
            "cheapest honda",
            "Do you have automatic blue cars?", // exact duplicate of [0]
        ];
        let results = sys.answer_batch(&burst);
        assert_eq!(results.len(), burst.len());
        let a0 = results[0].as_ref().unwrap();
        assert!(matches!(results[1], Err(CqadsError::EmptyQuestion)));
        // Duplicates share one computation and one Arc.
        assert!(Arc::ptr_eq(a0, results[2].as_ref().unwrap()));
        assert!(Arc::ptr_eq(a0, results[4].as_ref().unwrap()));
        assert_eq!(a0.exact_count, 2);
        assert!(results[3].as_ref().unwrap().exact_count >= 1);
        // Errors are never cached; the two distinct questions were.
        assert_eq!(sys.cache_stats().entries, 2);

        // A second burst is served entirely from the cache.
        let again = sys.answer_batch(&["cheapest honda"]);
        assert!(Arc::ptr_eq(
            results[3].as_ref().unwrap(),
            again[0].as_ref().unwrap()
        ));
    }

    #[test]
    fn zero_capacity_config_disables_the_serving_cache() {
        let spec = toy_car_domain();
        let mut table = Table::new(spec.schema.clone());
        table
            .insert(car("honda", "accord", "blue", "automatic", 6600.0, 2004.0))
            .unwrap();
        let mut sys = CqadsSystem::with_config(CqadsConfig {
            cache_capacity: 0,
            ..CqadsConfig::default()
        });
        sys.add_domain(spec, table, TIMatrix::default());
        let a = sys.ask("blue honda").domain("cars").get().unwrap();
        let b = sys.ask("blue honda").domain("cars").get().unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "disabled cache must not share");
        assert_eq!(sys.cache_stats().entries, 0);
        assert_eq!(sys.cache_stats().hits, 0);
    }

    #[test]
    fn empty_questions_and_contradictions_error() {
        let sys = system();
        assert!(matches!(
            sys.ask("hello there").domain("cars").uncached().get(),
            Err(CqadsError::EmptyQuestion)
        ));
        assert!(matches!(
            sys.ask("honda above 9000 dollars and below 2000 dollars")
                .domain("cars")
                .uncached()
                .get(),
            Err(CqadsError::ContradictoryRange { .. })
        ));
    }

    #[test]
    fn interpret_in_domain_exposes_sql_and_sketches() {
        let sys = system();
        let (tagged, interp, sql) = sys
            .interpret_in_domain("Toyota Corolla or a silver Honda Accord", "cars")
            .unwrap();
        assert!(tagged.has_criteria());
        assert_eq!(interp.segments.len(), 2);
        assert!(sql.contains(" OR "));
    }

    #[test]
    fn answer_limit_is_configurable() {
        let spec = toy_car_domain();
        let mut table = Table::new(spec.schema.clone());
        for i in 0..40 {
            table
                .insert(car(
                    "honda",
                    "accord",
                    "blue",
                    "automatic",
                    5000.0 + i as f64,
                    2004.0,
                ))
                .unwrap();
        }
        let mut sys = CqadsSystem::with_config(CqadsConfig {
            answer_limit: 10,
            partial_threshold: 10,
            ..CqadsConfig::default()
        });
        sys.add_domain(spec, table, TIMatrix::default());
        let result = sys
            .ask("blue honda accord")
            .domain("cars")
            .uncached()
            .get()
            .unwrap();
        assert_eq!(result.answers.len(), 10);
        assert_eq!(result.exact_count, 10);
        assert!(result.partial().is_empty());
    }

    // ------------------------------------------------------------ api redesign

    #[test]
    fn config_builder_validates_and_defaults_the_threshold() {
        // partial_threshold follows answer_limit unless set explicitly.
        let c = CqadsConfig::builder().answer_limit(12).build().unwrap();
        assert_eq!(c.partial_threshold, 12);
        let c = CqadsConfig::builder()
            .answer_limit(12)
            .partial_threshold(5)
            .build()
            .unwrap();
        assert_eq!(c.partial_threshold, 5);

        // Rejections carry the Config variant and name the offending knob.
        for (builder, needle) in [
            (CqadsConfig::builder().answer_limit(0), "answer_limit"),
            (
                CqadsConfig::builder().answer_limit(5).partial_threshold(6),
                "partial_threshold",
            ),
            (CqadsConfig::builder().cache_shards(0), "cache_shards"),
        ] {
            match builder.build() {
                Err(CqadsError::Config(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("expected Config error, got {other:?}"),
            }
        }
        // A shardless cache is fine when the cache is disabled outright.
        assert!(CqadsConfig::builder()
            .cache_capacity(0)
            .cache_shards(0)
            .build()
            .is_ok());

        // The resilience floor must not exceed the deadline.
        let bad = ResilienceOptions {
            deadline_micros: Some(100),
            min_deadline_micros: 200,
            ..ResilienceOptions::default()
        };
        assert!(matches!(
            CqadsConfig::builder().resilience(bad).build(),
            Err(CqadsError::Config(_))
        ));
        assert!(CqadsConfig::builder()
            .storage(StorageOptions::at("db"))
            .resilience(ResilienceOptions::default())
            .build()
            .is_ok());
    }

    #[test]
    fn ask_builder_matches_the_answer_quartet() {
        // The four `domain x cached` builder combinations agree with each
        // other and, element-wise, with `answer_batch` — on the writer's
        // master state and on a detached reader.
        fn key(set: &AnswerSet) -> (String, String, Vec<(RecordId, MatchKind, u64)>) {
            let answers = set
                .answers
                .iter()
                .map(|a| (a.id, a.kind, a.rank_sim.to_bits()))
                .collect();
            (set.domain.clone(), set.sql.clone(), answers)
        }
        let questions = [
            "Do you have automatic blue cars?",
            "Find Honda Accord blue less than 5000 dollars",
            "cheapest honda",
        ];
        let sys = system();
        let reader = sys.reader();
        for question in questions {
            let on_writer = [
                sys.ask(question).domain("cars").uncached().get().unwrap(),
                sys.ask(question).uncached().get().unwrap(),
                sys.ask(question).domain("cars").get().unwrap(),
                sys.ask(question).get().unwrap(),
            ];
            let on_reader = [
                reader
                    .ask(question)
                    .domain("cars")
                    .uncached()
                    .get()
                    .unwrap(),
                reader.ask(question).uncached().get().unwrap(),
                reader.ask(question).domain("cars").get().unwrap(),
                reader.ask(question).get().unwrap(),
            ];
            let want = key(&on_writer[0]);
            assert_eq!(want.0, "cars");
            for set in on_writer.iter().chain(&on_reader) {
                assert_eq!(key(set), want, "{question}");
            }
            // Cached forms share one entry (writer and reader share the
            // cache); uncached forms never alias it.
            assert!(Arc::ptr_eq(&on_writer[2], &on_writer[3]));
            assert!(Arc::ptr_eq(&on_writer[2], &on_reader[2]));
            assert!(Arc::ptr_eq(&on_writer[2], &on_reader[3]));
            assert!(!Arc::ptr_eq(&on_writer[0], &on_writer[2]));
        }
        for batch in [
            sys.answer_batch(&questions),
            reader.answer_batch(&questions),
        ] {
            for (question, outcome) in questions.iter().zip(batch) {
                let single = sys.ask(question).uncached().get().unwrap();
                assert_eq!(key(&outcome.unwrap()), key(&single), "{question}");
            }
        }
    }

    #[test]
    fn detached_readers_observe_published_mutations_only() {
        let mut sys = system();
        let reader = sys.reader();
        assert_eq!(reader.domain_names(), vec!["cars".to_string()]);
        let before = reader
            .ask("Do you have automatic blue cars?")
            .domain("cars")
            .uncached()
            .get()
            .unwrap();
        assert_eq!(before.exact_count, 2);

        // A mutation through the system republishes: the same reader handle
        // sees it on its next call, and generations advance monotonically.
        let gen_before = reader.table_generation("cars").unwrap();
        sys.insert_record(
            "cars",
            car("honda", "civic", "blue", "automatic", 7200.0, 2007.0),
        )
        .unwrap();
        let after = reader
            .ask("Do you have automatic blue cars?")
            .domain("cars")
            .uncached()
            .get()
            .unwrap();
        assert_eq!(after.exact_count, 3);
        assert!(reader.table_generation("cars").unwrap() > gen_before);

        // Raw database_mut edits are invisible to detached readers until an
        // explicit publish — the writer itself sees them immediately.
        sys.database_mut()
            .table_mut("cars")
            .unwrap()
            .insert(car("kia", "rio", "blue", "automatic", 3000.0, 2010.0))
            .unwrap();
        assert_eq!(
            sys.ask("Do you have automatic blue cars?")
                .domain("cars")
                .uncached()
                .get()
                .unwrap()
                .exact_count,
            4
        );
        assert_eq!(
            reader
                .ask("Do you have automatic blue cars?")
                .domain("cars")
                .uncached()
                .get()
                .unwrap()
                .exact_count,
            3
        );
        sys.publish();
        assert_eq!(
            reader
                .ask("Do you have automatic blue cars?")
                .domain("cars")
                .uncached()
                .get()
                .unwrap()
                .exact_count,
            4
        );

        // Reader handles clone cheaply and agree with each other.
        let clone = reader.clone();
        assert_eq!(
            clone.table_generation("cars"),
            reader.table_generation("cars")
        );
    }

    // ---------------------------------------------------------------- durability

    use cqads_storage::MemFs;

    fn durable_config(fs: &Arc<MemFs>) -> CqadsConfig {
        CqadsConfig {
            storage: Some(StorageOptions::with_vfs("db", Arc::clone(fs) as _)),
            ..CqadsConfig::default()
        }
    }

    /// Compare the observable state of two systems for one domain: answers to
    /// a probe question, generations, TI/WS exports and record contents.
    fn assert_same_state(a: &CqadsSystem, b: &CqadsSystem, domain: &str, probe: &str) {
        assert_eq!(a.domain_names(), b.domain_names());
        assert_eq!(
            a.database().generation(domain),
            b.database().generation(domain)
        );
        assert_eq!(a.model_generation(domain), b.model_generation(domain));
        let (ta, tb) = (
            a.database().table(domain).unwrap(),
            b.database().table(domain).unwrap(),
        );
        let rows = |t: &Table| t.iter().map(|(id, r)| (id, r.clone())).collect::<Vec<_>>();
        assert_eq!(rows(ta), rows(tb));
        let ti = |s: &CqadsSystem| {
            s.master.domains[domain]
                .similarity
                .ti_matrix()
                .export_state()
        };
        assert_eq!(ti(a), ti(b));
        assert_eq!(
            a.master.word_sim.export_state(),
            b.master.word_sim.export_state()
        );
        let ans_a = a.ask(probe).domain(domain).uncached().get().unwrap();
        let ans_b = b.ask(probe).domain(domain).uncached().get().unwrap();
        assert_eq!(ans_a.sql, ans_b.sql);
        let key = |r: &AnswerSet| {
            r.answers
                .iter()
                .map(|x| (x.id, x.kind, x.rank_sim.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&ans_a), key(&ans_b));
    }

    #[test]
    fn durable_system_round_trips_through_reopen() {
        let fs = Arc::new(MemFs::default());
        let mut sys = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
        assert!(sys.is_durable());
        assert!(sys.storage_report().unwrap().is_clean());
        let spec = toy_car_domain();
        let mut table = Table::new(spec.schema.clone());
        table
            .insert(car("honda", "accord", "blue", "automatic", 6600.0, 2004.0))
            .unwrap();
        let mut ti = TIMatrix::default();
        ti.insert("accord", "camry", 4.0);
        sys.try_add_domain(spec, table, ti).unwrap();
        let mut ws = WordSimMatrix::default();
        ws.insert("blue", "gold", 0.5);
        sys.try_set_word_sim(ws).unwrap();
        sys.insert_record(
            "cars",
            car("toyota", "camry", "blue", "automatic", 8561.0, 2006.0),
        )
        .unwrap();
        let ids = sys
            .insert_record_batch(
                "cars",
                vec![
                    car("honda", "civic", "red", "automatic", 4500.0, 2001.0),
                    car("ford", "focus", "blue", "manual", 6795.0, 2005.0),
                ],
            )
            .unwrap();
        assert_eq!(ids.len(), 2);
        let delta = QueryLogDelta::from_sessions(vec![Session {
            user_id: 7,
            queries: vec![
                SubmittedQuery {
                    value: "accord".into(),
                    at_seconds: 0.0,
                    clicks: vec![],
                    shown: vec![],
                },
                SubmittedQuery {
                    value: "camry".into(),
                    at_seconds: 5.0,
                    clicks: vec![],
                    shown: vec![],
                },
            ],
        }]);
        sys.ingest_query_log("cars", &delta).unwrap();

        let reopened = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
        assert!(reopened.storage_report().unwrap().is_clean());
        assert_same_state(&sys, &reopened, "cars", "blue automatic cars");
    }

    #[test]
    fn reopen_after_torn_tail_recovers_prefix_and_generations_never_regress() {
        let fs = Arc::new(MemFs::default());
        let mut sys = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
        let spec = toy_car_domain();
        let table = Table::new(spec.schema.clone());
        sys.try_add_domain(spec, table, TIMatrix::default())
            .unwrap();
        for i in 0..4 {
            sys.insert_record(
                "cars",
                car(
                    "honda",
                    "accord",
                    "blue",
                    "automatic",
                    6000.0 + i as f64,
                    2004.0,
                ),
            )
            .unwrap();
        }
        let stamp_before = (
            sys.database().generation("cars").unwrap(),
            sys.model_generation("cars").unwrap(),
        );
        // Tear the last WAL frame mid-payload.
        let wal = std::path::Path::new("db/wal-000000.log");
        let len = fs.file_bytes(wal).unwrap().len() as u64;
        fs.truncate_file(wal, len - 3).unwrap();

        let reopened = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
        let report = reopened.storage_report().unwrap();
        assert!(!report.is_clean());
        assert!(report.dropped_bytes > 0);
        // The torn insert is gone...
        let table = reopened.database().table("cars").unwrap();
        assert_eq!(table.iter().count(), 3);
        // ...but no generation the old process handed out can regress.
        assert!(reopened.database().generation("cars").unwrap() >= stamp_before.0);
        assert!(reopened.model_generation("cars").unwrap() >= stamp_before.1);

        // Double recovery is idempotent: a third open replays a clean log and
        // lands on the same state.
        let again = CqadsSystem::try_with_config(durable_config(&fs)).unwrap();
        assert_same_state(&reopened, &again, "cars", "blue automatic cars");
    }

    #[test]
    fn snapshot_rotation_survives_reopen_and_open_restores_config() {
        let fs = Arc::new(MemFs::default());
        let mut opts = StorageOptions::with_vfs("db", Arc::clone(&fs) as _);
        opts.snapshot_every = 2; // rotate aggressively
        let config = CqadsConfig {
            answer_limit: 7,
            partial_threshold: 7,
            storage: Some(opts.clone()),
            ..CqadsConfig::default()
        };
        let mut sys = CqadsSystem::try_with_config(config).unwrap();
        let spec = toy_car_domain();
        let table = Table::new(spec.schema.clone());
        sys.try_add_domain(spec, table, TIMatrix::default())
            .unwrap();
        for i in 0..5 {
            sys.insert_record(
                "cars",
                car(
                    "honda",
                    "accord",
                    "blue",
                    "automatic",
                    6000.0 + i as f64,
                    2004.0,
                ),
            )
            .unwrap();
        }
        // Rotation happened at least once and pruned old epochs down to two.
        let snapshots = fs
            .paths()
            .into_iter()
            .filter(|p| p.to_string_lossy().contains("snapshot-"))
            .count();
        assert!((1..=2).contains(&snapshots), "snapshots: {snapshots}");

        // `open_with` restores the persisted scalar knobs from the snapshot.
        let reopened = CqadsSystem::open_with(opts).unwrap();
        assert_eq!(reopened.config().answer_limit, 7);
        assert_eq!(reopened.database().table("cars").unwrap().iter().count(), 5);
        assert_same_state(&sys, &reopened, "cars", "blue automatic cars");
    }

    #[test]
    fn memory_only_system_reports_no_storage() {
        let sys = system();
        assert!(!sys.is_durable());
        assert!(sys.storage_report().is_none());
        assert_eq!(sys.write_snapshot().unwrap(), None);
    }
}
