//! # addb — the advertisements database substrate
//!
//! The CQAds paper evaluates SQL queries, translated from natural-language ads
//! questions, against a MySQL database holding one table per advertisement domain
//! (Cars-for-Sale, CS Jobs, ...). This crate is a self-contained, in-memory
//! re-implementation of everything CQAds needs from that database layer:
//!
//! * **Typed attribute model** (Section 4.1.1 of the paper): Type I attributes are the
//!   required, primary-indexed identifiers of the advertised product (car Make/Model),
//!   Type II attributes are descriptive, secondary-indexed properties (Color,
//!   Transmission), and Type III attributes are numeric quantities (Price, Year,
//!   Mileage) with a known valid range.
//! * **Tables with hash primary/secondary indexes** keyed by interned value symbols,
//!   plus a sorted range index per numeric attribute.
//! * **A SQL-style query AST** ([`query::Query`]) with equality, range, negation,
//!   BETWEEN and superlative (`group by`/extreme value) constructs, and boolean
//!   combinations of sub-queries.
//! * **An executor** ([`exec::Executor`]) that follows the evaluation order mandated in
//!   Section 4.3: Type I conditions first (primary index), then Type II (secondary
//!   index), then Type III boundaries, and superlatives last; results are capped at 30
//!   answers as in the paper.
//! * **SQL rendering** ([`sql`]) so the translated query can be displayed exactly the
//!   way the paper shows it (Example 7).
//!
//! The engine is deliberately small but is a real query processor: the CQAds pipeline,
//! the baseline rankers and every experiment in the evaluation harness run on top of it.
//!
//! ```
//! use addb::prelude::*;
//!
//! // Build a tiny Cars-for-Sale table.
//! let schema = Schema::builder("cars")
//!     .type1("make")
//!     .type1("model")
//!     .type2("color")
//!     .type2("transmission")
//!     .type3("price", 500.0, 120_000.0, Some("usd"))
//!     .type3("year", 1985.0, 2011.0, None)
//!     .build()
//!     .unwrap();
//! let mut table = Table::new(schema);
//! table
//!     .insert(
//!         Record::builder()
//!             .text("make", "honda")
//!             .text("model", "accord")
//!             .text("color", "blue")
//!             .text("transmission", "automatic")
//!             .number("price", 6600.0)
//!             .number("year", 2004.0)
//!             .build(),
//!     )
//!     .unwrap();
//!
//! // "automatic blue cars"
//! let query = Query::new("cars")
//!     .with_condition(Condition::eq("transmission", "automatic"))
//!     .with_condition(Condition::eq("color", "blue"));
//! let executor = Executor::new(&table);
//! let answers = executor.execute(&query).unwrap();
//! assert_eq!(answers.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod chunked;
pub mod database;
pub mod error;
pub mod exec;
pub mod query;
pub mod record;
pub mod schema;
pub mod sql;
pub mod table;
pub mod value;

pub use database::Database;
pub use error::{DbError, DbResult};
pub use exec::{Executor, IdStream, QueryAnswer, ScoredUnion};
pub use query::{BoolExpr, Comparison, Condition, Query, Superlative, SuperlativeKind};
pub use record::{Record, RecordBuilder, RecordId};
pub use schema::{AttrType, AttributeDef, Schema, SchemaBuilder};
pub use table::{
    retain_extreme, NumericColumn, PostingList, Table, TextColumn, ValueIndex, POSTING_BLOCK,
    RECORD_CHUNK, SUPERLATIVE_TIE_WINDOW,
};
pub use value::Value;

/// Convenience re-exports for downstream crates and doctests.
pub mod prelude {
    pub use crate::database::Database;
    pub use crate::error::{DbError, DbResult};
    pub use crate::exec::{Executor, QueryAnswer};
    pub use crate::query::{BoolExpr, Comparison, Condition, Query, Superlative, SuperlativeKind};
    pub use crate::record::{Record, RecordBuilder, RecordId};
    pub use crate::schema::{AttrType, AttributeDef, Schema, SchemaBuilder};
    pub use crate::table::Table;
    pub use crate::value::Value;
}

/// The paper caps retrieval at the first three result pages (30 answers), based on the
/// iProspect search-behaviour study cited in Section 4.3.1.
pub const DEFAULT_ANSWER_LIMIT: usize = 30;
