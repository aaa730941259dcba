//! # cqads-text — text-processing substrate
//!
//! CQAds manipulates natural-language ads questions with a handful of lightweight text
//! tools. None of them existed as reusable components in the paper's description, so
//! this crate builds them from scratch:
//!
//! * [`mod@tokenize`] — question tokenization and number/unit splitting ("20k miles",
//!   "$5000", "2dr").
//! * [`stopwords`] — the stop-word list used to drop non-essential keywords
//!   (Section 4.1.4 and Example 2).
//! * [`stem`] — a Porter stemmer; the WS word-correlation matrix stores *stemmed*
//!   words, and negation keywords are matched on their stemmed versions.
//! * [`mod@similar_text`] — the PHP-style `similar_text` percentage used by the spelling
//!   corrector (Section 4.2.1).
//! * [`shorthand`] — the ordered-subsequence rule that detects shorthand notations such
//!   as "4dr" for "4 door" (Section 4.2.3).
//! * [`edit`] — Levenshtein distance, an independent check for tests (the spelling
//!   corrector ranks by `similar_text` alone).
//! * [`trie`] — the keyword trie with per-node labels and identifiers that drives
//!   keyword tagging, missing-space repair and spelling correction (Sections 4.1.3,
//!   4.1.4, 4.2.1).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod edit;
pub mod intern;
pub mod shorthand;
pub mod similar_text;
pub mod stem;
pub mod stopwords;
pub mod tokenize;
pub mod trie;

pub use edit::levenshtein;
pub use intern::Sym;
pub use shorthand::{is_shorthand_of, shorthand_related};
pub use similar_text::{similar_text, similar_text_percent};
pub use stem::porter_stem;
pub use stopwords::{is_stopword, STOPWORDS};
pub use tokenize::{normalize_token, tokenize, Token, TokenKind};
pub use trie::{Trie, TrieMatch};
