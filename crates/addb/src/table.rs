//! Ads tables: record storage plus the paper's three index structures.
//!
//! * Type I attribute values are kept in a **primary index** (value → record ids).
//! * Type II attribute values are kept in a **secondary index**.
//! * All categorical values also feed the length-3 **substring index** of Section 4.5.
//! * Type III attribute values are stored in a per-column sorted index so that range
//!   evaluation does not need to touch unrelated records.
//!
//! In addition to the indexes, every categorical value is **interned at insert time**:
//! the normalized value becomes an integer symbol in its [`TextColumn`], and the
//! stemmed words of each *distinct* value become symbols in its [`ValueIndex`] entry,
//! so similarity scoring during partial matching never re-normalizes or re-stems a
//! stored string. Posting lists ([`PostingList`]) are kept **sorted by record id** (ids
//! are assigned in insertion order and appended monotonically), which lets the executor
//! intersect them by sorted merge instead of hashing, and carry **per-block max-id
//! metadata** (one entry per [`POSTING_BLOCK`] ids, maintained incrementally at insert)
//! so a skewed intersection can skip whole blocks without touching the ids themselves.
//! Records live behind [`Arc`] so answers can share them without deep-cloning.
//!
//! # What a clone shares
//!
//! The serving layer publishes snapshots that share their tables with the writer, so
//! the first insert after a reader has loaded runs on a clone of the table
//! ([`crate::Database::table_mut`]). The layout makes that clone cheap and the insert
//! local. What is stored **per record** — the records, every [`TextColumn`]'s symbols,
//! every [`NumericColumn`]'s values — lives in chunks of [`RECORD_CHUNK`] entries
//! behind `Arc`s: a clone bumps one refcount per chunk, an insert copies the tail
//! chunk only, a full chunk is shared by every snapshot from then on. The sorted range
//! index is a run of `Arc`-shared leaves of which an insert rewrites one. What is
//! stored **per distinct value** — stems, the substring index — is shared outright and
//! written only when a value is seen for the first time. The posting lists and value
//! directories are contiguous (the executor's cursors gallop over plain slices) and
//! are copied whole: 4 bytes per record and text attribute.

use crate::chunked::{ChunkedVec, SortedIndex};
use crate::error::{DbError, DbResult};
use crate::record::{Record, RecordId};
use crate::schema::{AttrType, Schema};
use crate::substring::SubstringIndex;
use cqads_text::intern::{self, Sym};
use cqads_text::porter_stem;
use std::collections::HashMap;
use std::sync::Arc;

/// Ids per block of the [`PostingList`] skip metadata. 64 ids (256 bytes) spans four
/// cache lines — small enough that a block scan stays cheap, large enough that the
/// block-max array is ~1.5% of the list and fits in cache even for huge lists.
pub const POSTING_BLOCK: usize = 64;

/// Records per `Arc`-shared chunk of the per-record columns, and half the capacity of
/// a sorted-index leaf: 8 KB of symbols or values, at most 32 KB per leaf — what one
/// insert into a table shared with a snapshot copies per column.
pub const RECORD_CHUNK: usize = 1024;

/// Two numeric values closer than this count as the same extreme: a superlative
/// ("cheapest", "newest") keeps every candidate tied within it.
pub const SUPERLATIVE_TIE_WINDOW: f64 = 1e-9;

/// Does `value` tie the extreme `best`? Within [`SUPERLATIVE_TIE_WINDOW`] of it; an
/// infinite extreme ties nothing, itself included.
pub(crate) fn tied(value: f64, best: f64) -> bool {
    (value - best).abs() < SUPERLATIVE_TIE_WINDOW
}

/// One superlative step over candidates whose values the caller resolves — the
/// single definition of the semantics, which the executor applies over one table's
/// numeric column.
/// The extreme is taken among the candidates that *have* a value; the survivors, kept
/// in order, are the candidates within [`SUPERLATIVE_TIE_WINDOW`] of it; a step in
/// which no candidate has a value clears the set.
pub fn retain_extreme(
    candidates: &mut Vec<RecordId>,
    max: bool,
    value_of: impl Fn(RecordId) -> Option<f64>,
) {
    let values: Vec<Option<f64>> = candidates.iter().map(|&id| value_of(id)).collect();
    let best = values
        .iter()
        .flatten()
        .copied()
        .reduce(|a, b| if max { a.max(b) } else { a.min(b) });
    match best {
        Some(best) => {
            let mut kept = values.iter().map(|v| v.is_some_and(|v| tied(v, best)));
            candidates.retain(|_| kept.next().unwrap_or(false));
        }
        None => candidates.clear(),
    }
}

/// One sorted posting list (record ids ascending) plus per-block max-id skip metadata.
///
/// `block_max[b]` is the largest id in `ids[b * POSTING_BLOCK ..][..POSTING_BLOCK]`,
/// i.e. the last id of the block (lists are sorted). A seek for `target` first gallops
/// over `block_max` to find the first block that can contain `target`, then binary
/// searches only inside that one block — the ids of skipped blocks are never read.
/// Both vectors are maintained incrementally: appending a monotonically increasing id
/// either updates the last block's max or opens a new block, so inserts stay O(1).
#[derive(Debug, Clone, Default)]
pub struct PostingList {
    ids: Vec<RecordId>,
    block_max: Vec<RecordId>,
}

impl PostingList {
    /// Build a list from ids already sorted strictly ascending — a drained id stream,
    /// say: the partial matcher materializes each relaxation's remaining conditions
    /// through it once per relaxation, so every value run it drains gallops over block
    /// maxima like a table list. (The table builds its own lists incrementally.)
    pub fn from_sorted(ids: Vec<RecordId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be ascending");
        let block_max = ids
            .chunks(POSTING_BLOCK)
            // lint: allow(no-panic) — slice::chunks never yields an empty chunk
            .map(|block| *block.last().expect("chunks are non-empty"))
            .collect();
        PostingList { ids, block_max }
    }

    /// Append an id larger than every id already present.
    fn push(&mut self, id: RecordId) {
        debug_assert!(self.ids.last().is_none_or(|last| *last < id));
        if self.ids.len().is_multiple_of(POSTING_BLOCK) {
            self.block_max.push(id);
        } else {
            *self
                .block_max
                .last_mut()
                // lint: allow(no-panic) — len not a block multiple implies a started block
                .expect("non-empty list has blocks") = id;
        }
        self.ids.push(id);
    }

    /// The record ids, sorted ascending.
    pub fn ids(&self) -> &[RecordId] {
        &self.ids
    }

    /// Per-block maximum id (the last id of each [`POSTING_BLOCK`]-sized block).
    pub fn block_max(&self) -> &[RecordId] {
        &self.block_max
    }

    /// Number of ids in the list.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the list holds no ids.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Per-attribute directory of distinct categorical values: interned value symbol →
/// posting list, plus the **value directory** — every distinct value in first-seen
/// (insertion) order with its stems and its document frequency (`postings.len()`).
///
/// This is the substrate of the value-ordered (WAND-style) partial scorer: a
/// relaxed-attribute plan walks [`ValueIndex::entries`] once, scores each distinct
/// value exactly, and then drains only the posting lists whose score can still beat
/// the current top-k threshold — the ids of sub-threshold values are never touched.
/// Keying by [`Sym`] keeps the equality lookup a single integer hash probe (values
/// are normalized and interned at insert time), and the first-seen entry order makes
/// score-tie ordering deterministic across runs.
#[derive(Debug, Clone, Default)]
pub struct ValueIndex {
    /// Value symbol → slot in `entries`.
    by_sym: HashMap<Sym, u32, intern::SymHashBuilder>,
    /// Distinct values in first-seen order.
    entries: Vec<ValueEntry>,
}

#[derive(Debug, Clone)]
struct ValueEntry {
    sym: Sym,
    /// Symbols of the Porter-stemmed words of the value, mirroring the WS-matrix
    /// convention (stem of the lowercase word). A function of the value alone, so
    /// computed when the value is first seen and shared by every clone.
    stems: Arc<[Sym]>,
    postings: PostingList,
}

impl ValueIndex {
    /// Append `id` to the posting list of the value `text`, interned as `sym` (ids
    /// arrive monotonically increasing, so lists stay sorted and their block maxima
    /// current — see [`PostingList`]). Returns the value's slot when this is its
    /// first occurrence in the column.
    fn push(&mut self, sym: Sym, text: &str, id: RecordId) -> Option<u32> {
        if let Some(&slot) = self.by_sym.get(&sym) {
            self.entries[slot as usize].postings.push(id);
            return None;
        }
        let slot = self.entries.len() as u32;
        self.by_sym.insert(sym, slot);
        let mut postings = PostingList::default();
        postings.push(id);
        self.entries.push(ValueEntry {
            sym,
            stems: text
                .split_whitespace()
                .map(|w| intern::intern(&porter_stem(w)))
                .collect(),
            postings,
        });
        Some(slot)
    }

    fn find(&self, sym: Sym) -> Option<&ValueEntry> {
        self.by_sym
            .get(&sym)
            .map(|&slot| &self.entries[slot as usize])
    }

    /// Posting list of one value, `None` when the value never occurs in the column.
    pub fn get(&self, sym: Sym) -> Option<&PostingList> {
        self.find(sym).map(|entry| &entry.postings)
    }

    /// Interned stems of one value's words (what a `Feat_Sim` probe walks), `None`
    /// when the value never occurs in the column.
    pub fn stems(&self, sym: Sym) -> Option<&[Sym]> {
        self.find(sym).map(|entry| &*entry.stems)
    }

    /// The value directory: every distinct value with its posting list, in first-seen
    /// order. Document frequency of a value is `postings.len()`.
    pub fn entries(&self) -> impl Iterator<Item = (Sym, &PostingList)> {
        self.entries.iter().map(|e| (e.sym, &e.postings))
    }

    /// The directory entry at `slot` (its position in [`ValueIndex::entries`]) — how
    /// the [`SubstringIndex`] names a value.
    pub fn entry(&self, slot: u32) -> Option<(Sym, &PostingList)> {
        self.entries
            .get(slot as usize)
            .map(|e| (e.sym, &e.postings))
    }

    /// How many records carry `sym` in this column (0 when the value never occurs).
    pub fn doc_frequency(&self, sym: Sym) -> usize {
        self.get(sym).map_or(0, PostingList::len)
    }

    /// Number of distinct values in the column.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the column holds no values at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Per-attribute column of interned categorical values, indexed by record id: one
/// value symbol (8 bytes) per record and nothing else. Batch scoring is memory-bound
/// on this column — the memoizing scorer needs *only* the value symbol per record;
/// what depends on the value alone (its stems) is stored once per distinct value in
/// the attribute's [`ValueIndex`].
#[derive(Debug, Clone, Default)]
pub struct TextColumn {
    syms: ChunkedVec<Option<Sym>, RECORD_CHUNK>,
}

impl TextColumn {
    /// The value symbol of `id`, if the record carries this attribute.
    pub fn sym(&self, id: RecordId) -> Option<Sym> {
        self.syms.get(id.0 as usize).copied().flatten()
    }
}

/// Per-attribute column of numeric values, indexed by record id (O(1) per-record
/// access; the sorted `(value, id)` index remains the range index).
/// Missing values are stored as a NaN sentinel so a cell costs 8 bytes, not 16 —
/// range predicates stream this column for every surviving candidate.
#[derive(Debug, Clone, Default)]
pub struct NumericColumn {
    values: ChunkedVec<f64, RECORD_CHUNK>,
}

impl NumericColumn {
    /// The numeric value of `id`, if the record carries this attribute.
    pub fn value(&self, id: RecordId) -> Option<f64> {
        match self.values.get(id.0 as usize) {
            Some(v) if !v.is_nan() => Some(*v),
            _ => None,
        }
    }
}

/// One ads domain table: schema, rows and indexes.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    /// Monotonic mutation counter: bumped on every successful [`Table::insert`].
    /// Serving-layer caches stamp entries with the generation observed *before*
    /// computing an answer; a stamp that trails the current generation proves a
    /// mutation happened in between, so the entry can never be served stale.
    generation: u64,
    records: ChunkedVec<Arc<Record>, RECORD_CHUNK>,
    /// attribute -> value directory + sym-keyed block-max posting lists (Type I).
    primary: HashMap<String, ValueIndex>,
    /// attribute -> value directory + sym-keyed block-max posting lists (Type II).
    secondary: HashMap<String, ValueIndex>,
    /// attribute -> (value, record id) sorted by value (Type III).
    numeric: HashMap<String, SortedIndex<RECORD_CHUNK>>,
    /// attribute -> value symbol by record id (Type I and Type II).
    text_cols: HashMap<String, TextColumn>,
    /// attribute -> numeric value by record id (Type III).
    num_cols: HashMap<String, NumericColumn>,
    /// Trigrams of the distinct values; written only when a value is first seen.
    substring: Arc<SubstringIndex>,
}

impl Table {
    /// Create an empty table for the given schema.
    pub fn new(schema: Schema) -> Self {
        let mut primary = HashMap::new();
        let mut secondary = HashMap::new();
        let mut numeric = HashMap::new();
        let mut text_cols = HashMap::new();
        let mut num_cols = HashMap::new();
        for attr in schema.attributes() {
            match attr.attr_type {
                AttrType::TypeI => {
                    primary.insert(attr.name.clone(), ValueIndex::default());
                    text_cols.insert(attr.name.clone(), TextColumn::default());
                }
                AttrType::TypeII => {
                    secondary.insert(attr.name.clone(), ValueIndex::default());
                    text_cols.insert(attr.name.clone(), TextColumn::default());
                }
                AttrType::TypeIII => {
                    numeric.insert(attr.name.clone(), SortedIndex::default());
                    num_cols.insert(attr.name.clone(), NumericColumn::default());
                }
            }
        }
        Table {
            schema,
            generation: 0,
            records: ChunkedVec::default(),
            primary,
            secondary,
            numeric,
            text_cols,
            num_cols,
            substring: Arc::default(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Domain / table name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.len() == 0
    }

    /// Current mutation generation: `0` for a fresh table, incremented by every
    /// successful [`Table::insert`] (failed inserts leave it untouched). Strictly
    /// monotonic for the lifetime of the table; [`crate::Database`] carries it
    /// forward when a domain's table is replaced, so a generation observed for a
    /// domain name never goes backwards either.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Raise the generation to at least `floor`; never lowers it. Used by
    /// [`crate::Database`] to keep per-domain generations monotonic across table
    /// replacement, and by crash recovery to restore a persisted generation (and
    /// to raise it further when part of the write-ahead log was lost, so no
    /// generation stamp handed out before the crash can exceed the recovered
    /// one).
    pub fn raise_generation(&mut self, floor: u64) {
        self.generation = self.generation.max(floor);
    }

    /// Rebuild a table from records in storage order, restoring a persisted
    /// mutation generation.
    ///
    /// Every index structure (posting lists, block maxima, substring index,
    /// interned columns) is rebuilt by the ordinary [`Table::insert`] path, so
    /// a recovered table is structurally identical to one that received the
    /// same inserts live — record ids are assigned in iteration order exactly
    /// as [`Table::iter`] yields them. The resulting generation is the larger
    /// of `generation` and the insert count (each insert advances it by one;
    /// a persisted generation can exceed the count when the table replaced an
    /// earlier one, never trail it).
    pub fn from_records(
        schema: Schema,
        records: impl IntoIterator<Item = Record>,
        generation: u64,
    ) -> DbResult<Self> {
        let mut table = Table::new(schema);
        for record in records {
            table.insert(record)?;
        }
        table.raise_generation(generation);
        Ok(table)
    }

    /// The substring index over the distinct values of every categorical attribute;
    /// its candidates are slots of the attribute's [`Table::value_index`].
    pub fn substring_index(&self) -> &SubstringIndex {
        &self.substring
    }

    /// Check a record against the schema without inserting it: every attribute
    /// is known and of its declared type, and every Type I value is present.
    /// [`Table::insert`] fails exactly when this does.
    pub fn validate(&self, record: &Record) -> DbResult<()> {
        for (name, value) in record.fields() {
            let attr = self.schema.require(name)?;
            let ok = match attr.attr_type {
                AttrType::TypeI | AttrType::TypeII => value.is_text(),
                AttrType::TypeIII => value.is_number(),
            };
            if !ok {
                return Err(DbError::TypeMismatch {
                    attribute: name.to_string(),
                    expected: match attr.attr_type {
                        AttrType::TypeIII => "number",
                        _ => "text",
                    },
                    found: value.type_name().to_string(),
                });
            }
        }
        for t1 in self.schema.type1_names() {
            if !record.has(t1) {
                return Err(DbError::MissingRequiredAttribute {
                    attribute: t1.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Validate a record against the schema ([`Table::validate`]) and insert it,
    /// updating every index.
    pub fn insert(&mut self, record: Record) -> DbResult<RecordId> {
        self.validate(&record)?;

        // One slot per record in every column, so columns stay aligned with record
        // ids. Values were normalized (lowercased) by `Value::text`, so the interned
        // symbol is exactly what a question's normalized value resolves to. `id` is
        // monotonically increasing, so posting lists stay sorted ascending (and their
        // block maxima current) without an explicit sort.
        let id = RecordId(self.records.len() as u32);
        for (name, col) in self.text_cols.iter_mut() {
            let sym = record.get_text(name).map(|text| {
                let sym = intern::intern(text);
                let index = self.primary.get_mut(name);
                let index = index.or_else(|| self.secondary.get_mut(name));
                if let Some(slot) = index.and_then(|index| index.push(sym, text, id)) {
                    Arc::make_mut(&mut self.substring).insert(name, text, slot);
                }
                sym
            });
            col.syms.push(sym);
        }
        for (name, col) in self.num_cols.iter_mut() {
            // A NaN is stored, and read back as missing (`NumericColumn::value`); it
            // stays out of the range index, which it would leave unsorted (every
            // comparison with it is false, so no range or superlative ever holds it).
            let value = record.get_number(name);
            let indexed = value.filter(|n| !n.is_nan());
            if let (Some(n), Some(sorted)) = (indexed, self.numeric.get_mut(name)) {
                sorted.insert(n, id);
            }
            col.values.push(value.unwrap_or(f64::NAN));
        }
        self.records.push(Arc::new(record));
        self.generation += 1;
        Ok(id)
    }

    /// Fetch a record by id.
    pub fn get(&self, id: RecordId) -> Option<&Record> {
        self.records.get(id.0 as usize).map(Arc::as_ref)
    }

    /// Fetch a shared handle to a record by id (answers hold this instead of cloning
    /// the whole record).
    pub fn get_shared(&self, id: RecordId) -> Option<Arc<Record>> {
        self.records.get(id.0 as usize).cloned()
    }

    /// Iterate over `(id, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, &Record)> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| (RecordId(i as u32), r.as_ref()))
    }

    /// Interned categorical column of an attribute (Type I / Type II).
    pub fn text_column(&self, attribute: &str) -> Option<&TextColumn> {
        self.text_cols.get(attribute)
    }

    /// Record-id-indexed numeric column of an attribute (Type III).
    pub fn numeric_column(&self, attribute: &str) -> Option<&NumericColumn> {
        self.num_cols.get(attribute)
    }

    /// Records whose Type I or Type II `attribute` equals `value`, via the hash indexes.
    pub fn lookup_eq(&self, attribute: &str, value: &str) -> Vec<RecordId> {
        self.posting_list(attribute, value)
            .map(|list| list.ids().to_vec())
            .unwrap_or_default()
    }

    /// Zero-copy view of the posting list for a categorical equality: record ids
    /// sorted ascending plus block-max skip metadata. `None` when the attribute has no
    /// index entry for the value.
    pub fn posting_list(&self, attribute: &str, value: &str) -> Option<&PostingList> {
        // A value whose normalized form was never interned anywhere in the process
        // cannot occur in any column, so the lookup can fail fast without allocating
        // a map key.
        let sym = intern::lookup(&crate::value::normalize_text(value))?;
        self.value_index(attribute).and_then(|index| index.get(sym))
    }

    /// The value directory of a categorical attribute (Type I / Type II): every
    /// distinct value with its posting list and document frequency. `None` for
    /// numeric or unknown attributes.
    pub fn value_index(&self, attribute: &str) -> Option<&ValueIndex> {
        self.primary
            .get(attribute)
            .or_else(|| self.secondary.get(attribute))
    }

    /// How many records hold numeric `attribute` in `[low, high]` — binary searches on
    /// the sorted index, no materialization. The executor uses this to decide between
    /// materializing a range's ids and streaming a lazy per-record filter.
    pub fn range_count(&self, attribute: &str, low: f64, high: f64) -> usize {
        self.numeric
            .get(attribute)
            .map_or(0, |index| index.range_count(low, high))
    }

    /// Records whose numeric `attribute` lies in `[low, high]`, via the sorted index
    /// (value ascending, newest first among equal values).
    pub fn lookup_range(&self, attribute: &str, low: f64, high: f64) -> Vec<RecordId> {
        self.numeric
            .get(attribute)
            .map_or_else(Vec::new, |index| index.range(low, high).collect())
    }

    /// The sorted range index of numeric `attribute` — what a superlative walks from
    /// its extreme.
    pub(crate) fn sorted_index(&self, attribute: &str) -> Option<&SortedIndex<RECORD_CHUNK>> {
        self.numeric.get(attribute)
    }

    /// Observed (min, max) of a numeric column — used as the "valid range" for the
    /// incomplete-question best guess when it is narrower than the schema range
    /// (Section 4.2.2: determined by the smallest/largest value under the column).
    pub fn observed_range(&self, attribute: &str) -> Option<(f64, f64)> {
        self.numeric.get(attribute)?.bounds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn car_schema() -> Schema {
        Schema::builder("cars")
            .type1("make")
            .type1("model")
            .type2("color")
            .type2("transmission")
            .type3("price", 500.0, 120_000.0, Some("usd"))
            .type3("year", 1985.0, 2011.0, None)
            .build()
            .unwrap()
    }

    fn car(make: &str, model: &str, color: &str, trans: &str, price: f64, year: f64) -> Record {
        Record::builder()
            .text("make", make)
            .text("model", model)
            .text("color", color)
            .text("transmission", trans)
            .number("price", price)
            .number("year", year)
            .build()
    }

    fn sample_table() -> Table {
        let mut t = Table::new(car_schema());
        t.insert(car("honda", "accord", "blue", "automatic", 6600.0, 2004.0))
            .unwrap();
        t.insert(car("honda", "accord", "gold", "manual", 16536.0, 2009.0))
            .unwrap();
        t.insert(car("toyota", "camry", "blue", "automatic", 8561.0, 2006.0))
            .unwrap();
        t.insert(car("ford", "focus", "blue", "manual", 6795.0, 2005.0))
            .unwrap();
        t
    }

    fn sorted_ids(t: &Table) -> Vec<RecordId> {
        t.iter().map(|(id, _)| id).collect()
    }

    /// How many records stand behind the substring index's candidate values.
    fn substring_records(t: &Table, attribute: &str, probe: &str) -> usize {
        let values = t.value_index(attribute).unwrap();
        t.substring_index()
            .substring_candidates(attribute, probe)
            .into_iter()
            .map(|slot| values.entry(slot).unwrap().1.len())
            .sum()
    }

    /// How many chunks (or leaves) of `after` are not the very allocation `before` holds.
    fn unshared<T>(before: &[Arc<T>], after: &[Arc<T>]) -> usize {
        let held = |a: &Arc<T>| before.iter().any(|b| Arc::ptr_eq(a, b));
        after.iter().filter(|a| !held(a)).count()
    }

    #[test]
    fn insert_validates_required_type1_values() {
        let mut t = Table::new(car_schema());
        let missing_model = Record::builder().text("make", "honda").build();
        let err = t.insert(missing_model).unwrap_err();
        assert!(matches!(err, DbError::MissingRequiredAttribute { .. }));
    }

    #[test]
    fn insert_validates_types_and_attributes() {
        let mut t = Table::new(car_schema());
        let bad_type = Record::builder()
            .text("make", "honda")
            .text("model", "accord")
            .text("price", "cheap")
            .build();
        assert!(matches!(
            t.insert(bad_type).unwrap_err(),
            DbError::TypeMismatch { .. }
        ));
        let unknown = Record::builder()
            .text("make", "honda")
            .text("model", "accord")
            .text("wheels", "4")
            .build();
        assert!(matches!(
            t.insert(unknown).unwrap_err(),
            DbError::UnknownAttribute { .. }
        ));
    }

    #[test]
    fn primary_and_secondary_lookups_use_indexes() {
        let t = sample_table();
        assert_eq!(t.lookup_eq("make", "Honda").len(), 2);
        assert_eq!(t.lookup_eq("model", "camry").len(), 1);
        assert_eq!(t.lookup_eq("color", "blue").len(), 3);
        assert_eq!(t.lookup_eq("color", "purple").len(), 0);
        assert_eq!(t.lookup_eq("nonexistent", "x").len(), 0);
    }

    #[test]
    fn range_lookup_is_inclusive_and_sorted() {
        let t = sample_table();
        let ids = t.lookup_range("price", 6600.0, 9000.0);
        assert_eq!(ids.len(), 3);
        let ids = t.lookup_range("price", 0.0, 100.0);
        assert!(ids.is_empty());
        let ids = t.lookup_range("year", 2006.0, 2011.0);
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn extreme_respects_candidate_set() {
        let t = sample_table();
        let price = |id| t.numeric_column("price").and_then(|c| c.value(id));
        let year = |id| t.numeric_column("year").and_then(|c| c.value(id));
        // The cheapest Honda, not the cheapest car: the step sees only its candidates.
        let mut hondas = t.lookup_eq("make", "honda");
        retain_extreme(&mut hondas, false, price);
        assert_eq!(hondas, vec![RecordId(0)]);
        assert_eq!(price(hondas[0]), Some(6600.0));
        let mut all = sorted_ids(&t);
        retain_extreme(&mut all, true, year);
        assert_eq!(all, vec![RecordId(1)]);
        assert_eq!(year(all[0]), Some(2009.0));
        // The record's own field resolves the same step, and no value clears the set.
        let mut via_record = t.lookup_eq("make", "honda");
        retain_extreme(&mut via_record, false, |id| {
            t.get(id).and_then(|r| r.get_number("price"))
        });
        assert_eq!(via_record, hondas);
        retain_extreme(&mut via_record, true, |_| None);
        assert!(via_record.is_empty());
        let mut none: Vec<RecordId> = Vec::new();
        retain_extreme(&mut none, false, price);
        assert!(none.is_empty());
    }

    proptest::proptest! {
        /// The range index ≡ a filter over the records, whatever they hold: duplicate
        /// values, NaN (stored, read back as missing, never in a range) and no value
        /// at all — by `lookup_range` (value order, newest first among equals),
        /// `range_count` and the superlative walk's entry order.
        #[test]
        fn range_index_matches_a_filter_over_the_records(
            cells in proptest::collection::vec(0u32..48, 1..300),
            bounds in proptest::collection::vec(0u32..44, 2..16),
        ) {
            let schema = Schema::builder("items")
                .type1("name")
                .type3("price", 0.0, 10.0, None)
                .build()
                .unwrap();
            let mut t = Table::new(schema);
            for &cell in &cells {
                let mut record = Record::builder().text("name", "x");
                match cell {
                    0..40 => record = record.number("price", f64::from(cell / 4)),
                    40..44 => record = record.number("price", f64::NAN),
                    _ => {}
                }
                t.insert(record.build()).unwrap();
            }
            let stored = |id: RecordId| t.get(id).and_then(|r| r.get_number("price"));
            // Every entry of the index, in index order, is a stored non-NaN value.
            let index: Vec<(f64, RecordId)> = t.sorted_index("price").unwrap().entries().collect();
            let mut want: Vec<(f64, RecordId)> = t
                .iter()
                .filter_map(|(id, _)| stored(id).filter(|v| !v.is_nan()).map(|v| (v, id)))
                .collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
            proptest::prop_assert_eq!(&index, &want);
            for pair in bounds.windows(2) {
                let (low, high) = (f64::from(pair[0]) / 4.0, f64::from(pair[1]) / 4.0);
                let inside: Vec<RecordId> = want
                    .iter()
                    .filter(|(v, _)| *v >= low && *v <= high)
                    .map(|(_, id)| *id)
                    .collect();
                let scanned = t
                    .iter()
                    .filter(|(id, _)| stored(*id).is_some_and(|v| v >= low && v <= high))
                    .count();
                proptest::prop_assert_eq!(inside.len(), scanned);
                proptest::prop_assert_eq!(t.lookup_range("price", low, high), inside);
                proptest::prop_assert_eq!(t.range_count("price", low, high), scanned);
            }
        }
    }

    #[test]
    fn observed_range_spans_the_column() {
        let t = sample_table();
        assert_eq!(t.observed_range("price"), Some((6600.0, 16536.0)));
        assert_eq!(t.observed_range("nonexistent"), None);
        assert_eq!(Table::new(car_schema()).observed_range("price"), None);
    }

    #[test]
    fn posting_lists_carry_block_max_metadata() {
        let mut t = Table::new(car_schema());
        for i in 0..(POSTING_BLOCK * 2 + 5) {
            t.insert(car(
                "honda",
                "accord",
                if i % 2 == 0 { "blue" } else { "gold" },
                "manual",
                5000.0 + i as f64,
                2000.0,
            ))
            .unwrap();
        }
        let list = t.posting_list("make", "honda").unwrap();
        assert_eq!(list.len(), POSTING_BLOCK * 2 + 5);
        assert_eq!(list.block_max().len(), 3);
        // Every block max is the last id of its block.
        for (b, max) in list.block_max().iter().enumerate() {
            let end = ((b + 1) * POSTING_BLOCK).min(list.len());
            assert_eq!(*max, list.ids()[end - 1]);
        }
        // A sparse list (every other record) keeps the same invariant.
        let blue = t.posting_list("color", "blue").unwrap();
        assert_eq!(blue.len(), POSTING_BLOCK + 3);
        assert_eq!(blue.block_max().len(), 2);
        assert_eq!(blue.block_max()[0], blue.ids()[POSTING_BLOCK - 1]);
        assert_eq!(
            *blue.block_max().last().unwrap(),
            *blue.ids().last().unwrap()
        );
        // `from_sorted` builds identical metadata.
        let rebuilt = PostingList::from_sorted(blue.ids().to_vec());
        assert_eq!(rebuilt.block_max(), blue.block_max());
        assert!(PostingList::from_sorted(Vec::new()).is_empty());
    }

    #[test]
    fn value_index_tracks_directory_order_and_doc_frequencies() {
        let t = sample_table();
        let makes = t.value_index("make").unwrap();
        // First-seen order: honda (id 0), toyota (id 2), ford (id 3).
        let names: Vec<String> = makes
            .entries()
            .map(|(sym, _)| intern::resolve(sym))
            .collect();
        assert_eq!(names, vec!["honda", "toyota", "ford"]);
        assert_eq!(makes.len(), 3);
        assert!(!makes.is_empty());
        // Doc frequencies match the posting lists, which match lookup_eq.
        for (sym, list) in makes.entries() {
            assert_eq!(makes.doc_frequency(sym), list.len());
            let value = intern::resolve(sym);
            assert_eq!(t.lookup_eq("make", &value), list.ids().to_vec());
        }
        assert_eq!(makes.doc_frequency(intern::intern("nonexistent-make")), 0);
        // Secondary (Type II) attributes carry a directory too; numeric ones do not.
        assert!(t.value_index("color").is_some());
        assert!(t.value_index("price").is_none());
        assert!(t.value_index("wheels").is_none());
        // An empty table has an empty (but present) directory per text attribute.
        let empty = Table::new(car_schema());
        assert!(empty.value_index("make").unwrap().is_empty());
    }

    #[test]
    fn generation_advances_only_on_successful_inserts() {
        let mut t = Table::new(car_schema());
        assert_eq!(t.generation(), 0);
        t.insert(car("honda", "accord", "blue", "automatic", 6600.0, 2004.0))
            .unwrap();
        assert_eq!(t.generation(), 1);
        // A rejected record leaves the generation untouched.
        assert!(t
            .insert(Record::builder().text("make", "honda").build())
            .is_err());
        assert_eq!(t.generation(), 1);
        t.insert(car("ford", "focus", "blue", "manual", 6795.0, 2005.0))
            .unwrap();
        assert_eq!(t.generation(), 2);
        // raise_generation never lowers.
        t.raise_generation(1);
        assert_eq!(t.generation(), 2);
        t.raise_generation(10);
        assert_eq!(t.generation(), 10);
    }

    #[test]
    fn substring_index_is_populated_on_insert() {
        let t = sample_table();
        // One candidate value (the index is over distinct values) standing for both accords.
        let cands = t.substring_index().substring_candidates("model", "cord");
        assert_eq!(cands, vec![0]);
        assert_eq!(substring_records(&t, "model", "cord"), 2);
    }

    #[test]
    fn len_iter_and_get_are_consistent() {
        let t = sample_table();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.iter().count(), 4);
        assert_eq!(t.get(RecordId(0)).unwrap().get_text("make"), Some("honda"));
        assert!(t.get(RecordId(99)).is_none());
        assert_eq!(t.name(), "cars");
    }

    #[test]
    fn from_records_rebuilds_ids_indexes_and_generation() {
        let original = sample_table();
        let records: Vec<Record> = original.iter().map(|(_, r)| r.clone()).collect();
        let rebuilt = Table::from_records(car_schema(), records, original.generation()).unwrap();

        assert_eq!(rebuilt.len(), original.len());
        assert_eq!(rebuilt.generation(), original.generation());
        // Record ids follow iteration order, so every record round-trips in place.
        for (id, record) in original.iter() {
            assert_eq!(rebuilt.get(id), Some(record));
        }
        // Indexes were rebuilt through the normal insert path.
        assert_eq!(substring_records(&rebuilt, "model", "cord"), 2);

        // A persisted generation above the insert count wins; one below it
        // (impossible in practice) is corrected up to the count.
        let records: Vec<Record> = original.iter().map(|(_, r)| r.clone()).collect();
        let raised = Table::from_records(car_schema(), records.clone(), 99).unwrap();
        assert_eq!(raised.generation(), 99);
        let floored = Table::from_records(car_schema(), records, 0).unwrap();
        assert_eq!(floored.generation(), original.len() as u64);

        // Invalid records surface the ordinary typed error.
        let bad = vec![Record::builder().text("make", "honda").build()];
        assert!(Table::from_records(car_schema(), bad, 1).is_err());
    }
    #[test]
    fn stems_are_stored_once_per_distinct_value() {
        let mut t = Table::new(car_schema());
        for color in ["dark blue", "gold", "dark blue"] {
            t.insert(car("honda", "accord", color, "manual", 5000.0, 2000.0))
                .unwrap();
        }
        let colors = t.value_index("color").unwrap();
        let stems = |v: &str| colors.stems(intern::intern(v)).map(<[Sym]>::to_vec);
        assert_eq!(
            stems("dark blue"),
            Some(vec![intern::intern("dark"), intern::intern("blue")])
        );
        assert_eq!(stems("gold"), Some(vec![intern::intern("gold")]));
        assert_eq!(stems("never-seen-color"), None);
        // Both "dark blue" records read the one directory entry through their symbol.
        let column = t.text_column("color").unwrap();
        assert_eq!(column.sym(RecordId(0)), column.sym(RecordId(2)));
        assert_eq!(colors.len(), 2);
    }

    /// A clone shares every chunk with its source, and an insert into either copies
    /// only what it writes: the tail chunk of each per-record column and the one leaf
    /// (two after a split) of each sorted index the new value lands in.
    #[test]
    fn insert_after_clone_copies_only_the_chunks_it_touches() {
        let row = |i: usize| {
            let color = if i.is_multiple_of(2) { "blue" } else { "gold" };
            car(
                "honda",
                "accord",
                color,
                "manual",
                5000.0 + i as f64,
                2000.0,
            )
        };
        let mut table = Table::new(car_schema());
        // Two sealed chunks and a tail; every sorted index has split once.
        for i in 0..2 * RECORD_CHUNK + 5 {
            table.insert(row(i)).unwrap();
        }
        // The second round fills the third chunk exactly, and splits a leaf of each
        // sorted index: ascending prices fill the last leaf, equal years the first.
        for (round, leaves_written) in [(0, 1), (1, 2)] {
            while round == 1 && table.len() < 3 * RECORD_CHUNK - 1 {
                table.insert(row(table.len())).unwrap();
            }
            let before = table.clone();
            let n = before.len();
            table.insert(row(n)).unwrap();

            let sealed = n / RECORD_CHUNK;
            let (old, new) = (before.records.chunks(), table.records.chunks());
            assert_eq!((old.len(), new.len()), (sealed + 1, sealed + 1));
            assert_eq!(unshared(old, new), 1);
            assert!(!Arc::ptr_eq(&old[sealed], &new[sealed]));
            for (name, col) in &table.text_cols {
                let (old, new) = (before.text_cols[name].syms.chunks(), col.syms.chunks());
                assert_eq!((unshared(old, new), new.len()), (1, sealed + 1), "{name}");
                assert!(!Arc::ptr_eq(&old[sealed], &new[sealed]), "{name}");
            }
            for (name, col) in &table.num_cols {
                let (old, new) = (before.num_cols[name].values.chunks(), col.values.chunks());
                assert_eq!((unshared(old, new), new.len()), (1, sealed + 1), "{name}");
                assert!(!Arc::ptr_eq(&old[sealed], &new[sealed]), "{name}");
            }
            for (name, index) in &table.numeric {
                let (old, new) = (before.numeric[name].leaves(), index.leaves());
                assert_eq!(new.len(), old.len() + leaves_written - 1, "{name}");
                assert_eq!(unshared(old, new), leaves_written, "{name}");
                assert_eq!(unshared(new, old), 1, "{name}");
            }
            // No value was seen for the first time: per-value state is shared outright.
            assert!(Arc::ptr_eq(&before.substring, &table.substring));

            // The clone is the table as it was.
            assert_eq!((before.len(), table.len()), (n, n + 1));
            assert_eq!(before.generation() + 1, table.generation());
            assert_eq!(before.posting_list("make", "honda").unwrap().len(), n);
            assert_eq!(table.posting_list("make", "honda").unwrap().len(), n + 1);
            assert!(before.get(RecordId(n as u32)).is_none());
            assert_eq!(before.range_count("year", 2000.0, 2000.0), n);
            assert_eq!(
                before.observed_range("price"),
                Some((5000.0, 4999.0 + n as f64))
            );
            assert_eq!(before.iter().count(), n);
        }
        assert_eq!(table.len(), 3 * RECORD_CHUNK);

        // A value seen for the first time writes the per-value state — of the table
        // that saw it only.
        let before = table.clone();
        table
            .insert(car("honda", "pilot", "blue", "manual", 1.0, 2000.0))
            .unwrap();
        assert!(!Arc::ptr_eq(&before.substring, &table.substring));
        assert!(before.posting_list("model", "pilot").is_none());
        assert_eq!(substring_records(&before, "model", "pil"), 0);
        assert_eq!(substring_records(&table, "model", "pil"), 1);
    }
}
