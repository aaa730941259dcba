//! A database is a collection of ads tables, one per advertisement domain, exactly as
//! the paper stores "a table in the DB for each domain" (Section 4.1).

use crate::error::{DbError, DbResult};
use crate::exec::{Executor, QueryAnswer};
use crate::query::Query;
use crate::schema::Schema;
use crate::table::Table;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Collection of ads domain tables.
///
/// Tables are held behind `Arc` so that cloning a `Database` — the operation
/// the serving layer performs on every snapshot publish — costs one refcount
/// bump per domain. Mutation goes through [`Database::table_mut`] /
/// [`Database::create_table`], which use [`Arc::make_mut`]: an unshared table
/// is mutated in place, a table still shared with a published snapshot is
/// cloned on first write. That clone is not a deep copy: a [`Table`] shares
/// its per-record chunks, sorted-index leaves and per-value state with its
/// clones and copies only its posting lists and value directories (see
/// "What a clone shares" in [`crate::table`]), so the write that follows
/// copies just the chunks it touches.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create the table for a domain schema and return a mutable handle.
    ///
    /// If a table is already registered under the schema's name it is **replaced** by
    /// the new, empty table — an explicit reload semantic, not an accident: the old
    /// records and indexes are dropped, and the new table's [`Table::generation`]
    /// starts strictly above the old one's so any serving-layer cache entry stamped
    /// against the replaced table is invalidated.
    pub fn create_table(&mut self, schema: Schema) -> &mut Table {
        let name = schema.name.clone();
        let slot = match self.tables.entry(name) {
            Entry::Occupied(mut occupied) => {
                let floor = occupied.get().generation() + 1;
                let mut table = Table::new(schema);
                table.raise_generation(floor);
                occupied.insert(Arc::new(table));
                occupied.into_mut()
            }
            Entry::Vacant(vacant) => vacant.insert(Arc::new(Table::new(schema))),
        };
        Arc::make_mut(slot)
    }

    /// Add an already-populated table (used by the data generators). Like
    /// [`Database::create_table`], registering a name that already exists is an
    /// explicit replace, and the incoming table's generation is raised above the
    /// replaced table's so per-domain generations stay monotonic.
    pub fn add_table(&mut self, mut table: Table) {
        if let Some(old) = self.tables.get(table.name()) {
            table.raise_generation(old.generation() + 1);
        }
        self.tables
            .insert(table.name().to_string(), Arc::new(table));
    }

    /// Get a table by domain name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Get a mutable table by domain name. If the table is shared with a
    /// published snapshot this first write works on a clone of it
    /// ([`Arc::make_mut`]; the clone shares every chunk the write does not
    /// touch); otherwise this is in-place mutation.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name).map(Arc::make_mut)
    }

    /// Like [`Database::table`] but returns the crate error for unknown domains.
    pub fn require_table(&self, name: &str) -> DbResult<&Table> {
        self.table(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Names of all domains, sorted.
    pub fn domain_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the database holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total number of records across every domain.
    pub fn total_records(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Mutation generation of one domain's table (see [`Table::generation`]).
    /// `None` when the domain has no table.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.table(name).map(Table::generation)
    }

    /// Execute a query against the domain it names.
    pub fn execute(&self, query: &Query) -> DbResult<Vec<QueryAnswer>> {
        let table = self.require_table(&query.table)?;
        Executor::new(table).execute(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Condition;
    use crate::record::Record;

    fn db() -> Database {
        let mut db = Database::new();
        let cars = Schema::builder("cars")
            .type1("make")
            .type1("model")
            .type2("color")
            .type3("price", 500.0, 120_000.0, Some("usd"))
            .build()
            .unwrap();
        let jobs = Schema::builder("jobs")
            .type1("title")
            .type2("language")
            .type3("salary", 20_000.0, 300_000.0, Some("usd"))
            .build()
            .unwrap();
        let t = db.create_table(cars);
        t.insert(
            Record::builder()
                .text("make", "honda")
                .text("model", "accord")
                .text("color", "blue")
                .number("price", 6600.0)
                .build(),
        )
        .unwrap();
        let t = db.create_table(jobs);
        t.insert(
            Record::builder()
                .text("title", "software engineer")
                .text("language", "c++")
                .number("salary", 95_000.0)
                .build(),
        )
        .unwrap();
        db
    }

    #[test]
    fn tables_are_addressable_by_domain() {
        let db = db();
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        assert_eq!(db.domain_names(), vec!["cars", "jobs"]);
        assert_eq!(db.total_records(), 2);
        assert!(db.table("cars").is_some());
        assert!(db.table("boats").is_none());
        assert!(db.require_table("boats").is_err());
    }

    #[test]
    fn queries_route_to_the_right_table() {
        let db = db();
        let q = Query::new("cars").with_condition(Condition::eq("make", "honda"));
        assert_eq!(db.execute(&q).unwrap().len(), 1);
        let q = Query::new("jobs").with_condition(Condition::eq("language", "c++"));
        assert_eq!(db.execute(&q).unwrap().len(), 1);
        let q = Query::new("boats");
        assert!(db.execute(&q).is_err());
    }

    #[test]
    fn table_mut_allows_incremental_loading() {
        let mut db = db();
        db.table_mut("cars")
            .unwrap()
            .insert(
                Record::builder()
                    .text("make", "ford")
                    .text("model", "focus")
                    .number("price", 5000.0)
                    .build(),
            )
            .unwrap();
        assert_eq!(db.table("cars").unwrap().len(), 2);
    }

    #[test]
    fn create_table_replace_is_explicit_and_generation_monotonic() {
        let mut db = db();
        let gen_before = db.generation("cars").unwrap();
        assert_eq!(gen_before, 1); // one record inserted by db()

        // Re-registering the same name replaces the table: records are dropped,
        // but the per-domain generation keeps rising so cached answers stamped
        // against the old table can never be mistaken for fresh ones.
        let cars_again = Schema::builder("cars")
            .type1("make")
            .type1("model")
            .type2("color")
            .type3("price", 500.0, 120_000.0, Some("usd"))
            .build()
            .unwrap();
        let t = db.create_table(cars_again);
        assert!(t.is_empty());
        assert!(db.generation("cars").unwrap() > gen_before);
        assert_eq!(db.len(), 2);

        // add_table replacement carries the generation forward too.
        let replacement = Table::new(Schema::builder("jobs").type1("title").build().unwrap());
        let jobs_gen = db.generation("jobs").unwrap();
        db.add_table(replacement);
        assert!(db.generation("jobs").unwrap() > jobs_gen);
        assert!(db.table("jobs").unwrap().is_empty());
        assert_eq!(db.generation("boats"), None);
    }
}
