//! # cqads — the CQAds question-answering system
//!
//! This crate is the paper's primary contribution: a closed-domain question-answering
//! system that turns a natural-language advertisement question into a SQL-style query,
//! evaluates it against the ads database, and — when exact answers are scarce — returns
//! ranked partially-matched answers.
//!
//! The processing pipeline (Section 4 of the paper) is:
//!
//! 1. **Domain classification** — a Naive Bayes / JBBSM classifier (the
//!    `cqads-classifier` crate) routes the question to one of the ads domains.
//! 2. **Keyword tagging** ([`tagging`]) — the per-domain trie labels every essential
//!    keyword with its attribute type (Type I/II/III), comparison operator, superlative
//!    or boundary role, negation or Boolean operator, following the identifiers table
//!    (Table 1). Misspellings and missing spaces are repaired on the way ([`spell`]),
//!    shorthand notations are expanded, and stop words are dropped.
//! 3. **Interpretation** ([`translate`], [`boolean`]) — context-switching analysis merges
//!    partial superlatives/boundaries with the attributes and numbers around them;
//!    incomplete numeric conditions are expanded into a union over every Type III
//!    attribute whose valid range contains the value; the implicit-Boolean rules of
//!    Section 4.4.1 combine everything into one boolean expression.
//! 4. **Execution** — the expression becomes an [`addb::Query`] (and a SQL string) and
//!    is evaluated in the Type I → Type II → Type III → superlative order.
//! 5. **Partial matching and ranking** ([`partial`], [`ranking`]) — if fewer than 30
//!    exact answers exist, the N−1 strategy relaxes one condition at a time and ranks
//!    the relaxed answers by `Rank_Sim` (Equation 5), built from `TI_Sim`, `Feat_Sim`
//!    and `Num_Sim`.
//!
//! A [`CqadsWriter`] (historically `CqadsSystem`, which survives as an alias) wires all
//! of this together behind one way to ask: `writer.ask(question).get()` — see
//! [`AnswerRequest`]. The `examples/` directory of the workspace shows it in use.
//!
//! For repetitive serving traffic the same handle offers a burst front-end:
//! [`CqadsWriter::answer_batch`] normalizes and dedups a question burst, serves
//! repeats from a sharded, generation-invalidated answer cache ([`cache`]) and runs the
//! residual misses' partial-match phases as one batched engine call per domain
//! ([`PartialMatcher::partial_answers_batch_budgeted`](partial::PartialMatcher::partial_answers_batch_budgeted)).
//! Inserting into a table bumps its mutation generation, and ingesting a query-log
//! delta ([`CqadsWriter::ingest_query_log`]) bumps the domain's *model* generation;
//! cached answers are stamped with both, so either mutation invalidates every affected
//! cached answer without any flush — see the [`cache`] module docs for the protocol.
//!
//! **Concurrent serving** uses the reader/writer handle split ([`handle`]):
//! [`CqadsWriter::reader`] mints detached [`CqadsReader`] handles
//! (`Clone + Send + Sync`) that answer — through the same `ask` / `answer_batch` —
//! against an atomically published immutable snapshot while the owner keeps
//! ingesting: readers never block on a mutation's work and never observe a
//! half-applied one. No lock around the system is required (or wanted); see
//! `ARCHITECTURE.md` invariant #8.
//!
//! There is one production partial-match engine ([`partial`]) and one trusted
//! reference it is differentially tested against ([`oracle`]). Every domain is one
//! table, answered by one function ([`shard`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod boolean;
pub mod cache;
pub mod domain;
pub mod error;
pub mod handle;
pub mod identifiers;
pub mod oracle;
pub mod partial;
pub mod pipeline;
pub mod ranking;
pub mod resilience;
pub mod shard;
pub mod spell;
pub mod storage;
pub mod sync;
pub mod tagging;
pub mod translate;

pub use boolean::combine_conditions;
pub use cache::{AnswerCache, CacheKey, CacheStats, GenerationStamp};
pub use domain::DomainSpec;
pub use error::{CqadsError, CqadsResult};
pub use handle::{AnswerRequest, CqadsReader, CqadsWriter};
pub use identifiers::{BoundaryOp, Tag};
pub use partial::{
    PartialAnswer, PartialBatchRequest, PartialMatchOptions, PartialMatcher, PartialOutcome,
};
pub use pipeline::{
    Answer, AnswerSet, ClassifyOutcome, CqadsConfig, CqadsConfigBuilder, CqadsSystem, IngestReport,
    MatchKind,
};
pub use ranking::{
    boundary_matches, CompiledProbe, ProbeScorer, ScoredValue, SimilarityMeasure, SimilarityModel,
    ValueOrder,
};
pub use resilience::{AnswerQuality, QueryBudget, ResilienceOptions, ServingStats};
pub use shard::ShardedCqads;
pub use storage::StorageOptions;
pub use tagging::{TaggedQuestion, TaggedToken, Tagger};
pub use translate::{ConditionSketch, Interpretation};
