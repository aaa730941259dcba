//! Query executor implementing the paper's evaluation order.
//!
//! Section 4.3 requires that, for efficiency and correctness:
//!
//! 1. Type I conditions are evaluated first (primary index),
//! 2. Type II conditions next, on the records surviving step 1 (secondary index),
//! 3. Type III boundary conditions next, on the records surviving step 2,
//! 4. superlatives last, on the records surviving step 3.
//!
//! Superlatives-last is a *correctness* requirement ("cheapest Honda" must be the
//! cheapest among Hondas, not a Honda among the globally cheapest cars); the rest is a
//! performance ordering.
//!
//! # Execution model
//!
//! Conditions evaluate to **sorted id sequences**, not hash sets, and every boolean
//! operator is a **lazy cursor** over its operands' sequences ([`IdStream`]): building
//! one pulls at most the first id of each operand, and a consumer that stops pulling —
//! a full page of answers, a saturated top-k heap — never pays for the tail. Equality
//! conditions borrow their posting list straight from the table's index (zero copy —
//! lists are kept sorted by record id at insert time); conjunctions are a leapfrogging
//! intersection, disjunctions a k-way merge, `NOT` and negated conditions a
//! complement cursor. What still materializes one sorted vector when it is built:
//! **narrow numeric ranges** (value order re-sorted into id order; wide ranges are a
//! lazy per-record filter) and **superlatives** (the tie window of the extreme, found
//! by a walk of the sorted index, below).
//!
//! ## Galloping advance and block-max skipping
//!
//! Every stream supports [`IdStream::seek_ge`]: *yield the next id `≥ target`*.
//! Intersections advance their operands through `seek_ge` instead of one id at a time,
//! so the stream positioned on id `x` jumps straight to the first candidate `≥ x` in
//! the other operand. Seeks over cursors use **galloping** (exponential search from
//! the current position, then binary search inside the bracketed window), which costs
//! `O(log d)` for a jump of distance `d` — adaptive: nearly-aligned lists degrade to
//! the linear merge, heavily skewed lists cost the small side times a logarithm.
//! Posting-list cursors first gallop over the table's **per-block max-id metadata**
//! ([`addb::PostingList::block_max`](crate::table::PostingList::block_max), one entry
//! per 64 ids), so the ids of skipped blocks are never touched; only the single block
//! that can contain the target is binary-searched. Equality streams inside a
//! conjunction are additionally ordered **most-selective first** (shortest posting
//! list drives), which maximizes the skew the galloping exploits. The intersection
//! output is a set, so neither reordering nor skipping changes any result.
//!
//! The two other operators are built on the same primitive. A **union**
//! ([`IdStream::Union`]) is the k-way merge of [`ScoredUnion`] with the tag dropped: a
//! seek advances only the branches that are behind the target, each by its own
//! gallop. A **complement** ([`IdStream::Complement`], `universe ∖ excluded`) walks the
//! id space and consults the excluded stream's next id: a seek jumps the universe in
//! O(1) and the excluded stream by its own gallop / block-max skip, so a negated
//! conjunct leapfrogs like any other (a negated condition is the complement of its
//! *positive* index stream — exactly how [`Condition::matches_value`] defines
//! negation, records missing the attribute included). Both report an upper bound on
//! what they can still yield, so a complement — nearly the whole table — is ordered
//! last in a conjunction and a selective operand drives it.
//!
//! [`Executor::execute`] **pulls one page**: without a superlative it takes
//! `query.limit` ids off the stream and stops. Callers that need *all* matching ids
//! (the N−1 partial matcher) consume [`Executor::execute_stream`] and decide
//! themselves when to stop. Whole-stream drains go through [`IdStream::into_ids`] /
//! `for_each`, i.e. the specialized [`Iterator::fold`].
//!
//! ## Superlatives: a bounded walk of the sorted index
//!
//! A superlative applies last, over the records that pass every other condition. It
//! does not drain that stream to keep its extreme: the first superlative walks its
//! attribute's sorted range index from the extreme (cheapest first for a minimum),
//! tests each id against the WHERE clause compiled to column checks — a symbol
//! compare per text condition, a column read per numeric one — and stops at the first
//! value past [`SUPERLATIVE_TIE_WINDOW`](crate::SUPERLATIVE_TIE_WINDOW) of the first
//! match. The survivors come back in id order and further superlatives apply
//! [`retain_extreme`] to them. The walk is bounded by the stream's size estimate (an
//! upper bound on the ids it can yield): a conjunction's shortest operand drives its
//! drain, so the drain costs about that many steps, and a walk that has not closed
//! its window by then drains the stream and applies [`retain_extreme`] instead — a
//! superlative costs at most about twice the drain, whether its matches sit at the
//! extreme of the index or deep inside it. Both arms answer one [`retain_extreme`]
//! step over the matches, bit for bit.
//!
//! ## Scored unions
//!
//! The value-ordered (WAND-style) partial scorer additionally merges *tagged*
//! per-value posting streams through [`ScoredUnion`]: a k-way `seek_ge`-capable merge
//! whose yielded tag identifies the constituent — and therefore the pre-computed
//! score — an id came from. Because it exposes the same skip primitive, a union
//! leapfrogs against galloping conjunctions exactly like any other stream; see
//! `cqads::partial` for the traversal, its threshold pruning and the upper-bound
//! contract that makes the pruning lossless.

use crate::error::{DbError, DbResult};
use crate::query::{BoolExpr, Comparison, Condition, Query, Superlative, SuperlativeKind};
use crate::record::RecordId;
use crate::schema::AttrType;
use crate::table::{retain_extreme, tied, PostingList, Table, TextColumn, POSTING_BLOCK};
use crate::value::{normalize_text, Value};
use cqads_text::intern::{self, Sym};

/// Index of the first element of `xs` that is `>= target`, assuming `xs` ascending.
///
/// Exponential (galloping) search from the front: doubling probes bracket the answer
/// in `O(log d)` steps for an answer at distance `d`, then a binary search finishes
/// inside the bracket. Cheap when the answer is near (the common case when two
/// streams advance in lockstep), still logarithmic when it is far.
#[inline]
fn gallop_lower_bound(xs: &[RecordId], target: RecordId) -> usize {
    let n = xs.len();
    if n == 0 || xs[0] >= target {
        return 0;
    }
    // Invariant: xs[lo] < target.
    let mut lo = 0usize;
    let mut step = 1usize;
    while lo + step < n && xs[lo + step] < target {
        lo += step;
        step *= 2;
    }
    let upper = (lo + step).min(n);
    lo + 1 + xs[lo + 1..upper].partition_point(|&x| x < target)
}

/// Cursor over a table posting list with block-max skip metadata.
#[derive(Debug)]
pub struct PostingsCursor<'a> {
    list: &'a PostingList,
    pos: usize,
}

impl<'a> PostingsCursor<'a> {
    fn new(list: &'a PostingList) -> Self {
        PostingsCursor { list, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.list.len().saturating_sub(self.pos)
    }

    /// Yield the next id `>= target`, skipping whole blocks via the block-max array.
    fn seek_ge(&mut self, target: RecordId) -> Option<RecordId> {
        let ids = self.list.ids();
        if self.pos >= ids.len() {
            return None;
        }
        if ids[self.pos] >= target {
            // Lockstep fast path: the very next id already qualifies.
            let id = ids[self.pos];
            self.pos += 1;
            return Some(id);
        }
        // Gallop over block maxima to find the first block that can hold `target`;
        // the ids of every skipped block are never read.
        let block_max = self.list.block_max();
        let cur_block = self.pos / POSTING_BLOCK;
        let block = cur_block + gallop_lower_bound(&block_max[cur_block..], target);
        if block >= block_max.len() {
            self.pos = ids.len();
            return None;
        }
        // `target <= block_max[block]` (the block's last id), so the binary search
        // inside the block always lands on a qualifying id.
        let start = (block * POSTING_BLOCK).max(self.pos + 1);
        let end = ((block + 1) * POSTING_BLOCK).min(ids.len());
        let idx = start + ids[start..end].partition_point(|&x| x < target);
        debug_assert!(idx < end, "block max promised an id >= target");
        self.pos = idx + 1;
        Some(ids[idx])
    }
}

/// Cursor over materialized sorted ids (narrow ranges, superlative survivors).
#[derive(Debug)]
pub struct OwnedCursor {
    ids: Vec<RecordId>,
    pos: usize,
}

impl OwnedCursor {
    fn remaining(&self) -> usize {
        self.ids.len().saturating_sub(self.pos)
    }

    fn seek_ge(&mut self, target: RecordId) -> Option<RecordId> {
        let idx = self.pos + gallop_lower_bound(&self.ids[self.pos..], target);
        // A seek past the end leaves the cursor exhausted, like every other stream.
        self.pos = (idx + 1).min(self.ids.len());
        self.ids.get(idx).copied()
    }
}

/// Cursor over `universe ∖ excluded`: the ids of a range that another stream does
/// *not* yield (`NOT`, negated conditions).
#[derive(Debug)]
pub struct ComplementCursor<'a> {
    /// Ids not yet considered; `universe.start` is the next candidate.
    universe: std::ops::Range<u32>,
    excluded: Box<IdStream<'a>>,
    /// The smallest excluded id not yet passed (read ahead, like a [`ScoredUnion`]
    /// head); `None` once `excluded` has run out.
    head: Option<RecordId>,
}

impl ComplementCursor<'_> {
    /// Yield the next non-excluded id `>= target`. The universe jumps in O(1); the
    /// excluded stream is advanced only when it has fallen behind the candidate, by
    /// its own `seek_ge` (gallop / block-max skip), so excluded ids below `target`
    /// are never read.
    fn seek_ge(&mut self, target: RecordId) -> Option<RecordId> {
        let mut candidate = self.universe.start.max(target.0);
        while candidate < self.universe.end {
            if self.head.is_some_and(|head| head.0 < candidate) {
                self.head = self.excluded.seek_ge(RecordId(candidate));
            }
            if self.head != Some(RecordId(candidate)) {
                self.universe.start = candidate + 1;
                return Some(RecordId(candidate));
            }
            candidate += 1;
        }
        self.universe.start = self.universe.end;
        None
    }
}

/// A stream of strictly ascending record ids — the executor's streaming currency.
///
/// Equality conditions stream their posting list in place; composed streams merge
/// lazily, so a consumer that stops early (bounded top-k fill, early-exit checks)
/// never pays for the tail. All variants support [`IdStream::seek_ge`], so nested
/// intersections compose: an outer intersection seeking the whole subtree makes every
/// leaf cursor gallop.
///
/// ```
/// use addb::{IdStream, RecordId};
///
/// let evens = IdStream::from_sorted_ids((0..10).map(|i| RecordId(i * 2)).collect());
/// let tail = IdStream::from_sorted_ids((5..15).map(RecordId).collect());
/// let mut both = evens.intersect(tail);
/// assert_eq!(both.seek_ge(RecordId(0)), Some(RecordId(6)));  // first common id
/// assert_eq!(both.seek_ge(RecordId(11)), Some(RecordId(12))); // skip ahead
/// let rest: Vec<RecordId> = both.collect();                   // drain the remainder
/// assert_eq!(rest, vec![RecordId(14)]);
/// ```
#[derive(Debug)]
pub enum IdStream<'a> {
    /// No matches.
    Empty,
    /// Every record id in `[start, end)` (a `TRUE` condition, a complement's universe).
    All(std::ops::Range<u32>),
    /// Borrowed posting list with block-max skip metadata.
    Postings(PostingsCursor<'a>),
    /// Materialized sorted ids (narrow ranges, superlative survivors).
    Owned(OwnedCursor),
    /// Lazy intersection of two streams, advanced by leapfrogging
    /// [`IdStream::seek_ge`] (galloping + block-max skipping).
    Intersect(Box<IdStream<'a>>, Box<IdStream<'a>>),
    /// Per-candidate predicate over an inner stream (Type III boundaries applied to
    /// the records surviving the index-driven layers, per the paper's order — no
    /// range-sized id vector is ever materialized).
    Filter(Box<IdStream<'a>>, RangePredicate<'a>),
    /// Lazy union of any number of streams (`OR`): the k-way merge of
    /// [`ScoredUnion`], tag dropped.
    Union(ScoredUnion<'a>),
    /// Lazy complement within an id range (`NOT`, negated conditions).
    Complement(ComplementCursor<'a>),
}

/// Numeric range check against a record-id-indexed column.
#[derive(Debug)]
pub struct RangePredicate<'a> {
    column: Option<&'a crate::table::NumericColumn>,
    low: f64,
    high: f64,
}

impl RangePredicate<'_> {
    fn matches(&self, id: RecordId) -> bool {
        self.column
            .and_then(|c| c.value(id))
            .is_some_and(|v| v >= self.low && v <= self.high)
    }
}

impl Iterator for IdStream<'_> {
    type Item = RecordId;

    fn next(&mut self) -> Option<RecordId> {
        // Plain advance is a seek with the trivial bound: every cursor's fast path
        // makes this O(1) per element, exactly like a dedicated `next` would be.
        self.seek_ge(RecordId(0))
    }

    /// Bulk consumption (`for_each`, `count` and [`IdStream::into_ids`] funnel through
    /// `fold`; `collect` does **not** — `Vec::from_iter` pulls `next()` per element)
    /// bypasses the per-element `seek_ge` dispatch: nested filters are peeled into a
    /// flat predicate list first (no recursive fold, which would also make
    /// monomorphization diverge on the closure types), then the base stream runs as
    /// one tight loop — straight slice iteration for cursor tails, a counted loop for
    /// `TRUE` ranges. On the partial-match hot path most candidates come from single
    /// posting lists and wide-range filters, so this removes the dominant
    /// per-candidate cost. A union or complement has no slice to iterate: at the root
    /// it is drained by pulling, as an operand of a conjunction it is drained once
    /// into a vector (`FlatConjunction::absorb`).
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, RecordId) -> B,
    {
        if matches!(self, IdStream::Union(_) | IdStream::Complement(_)) {
            let mut acc = init;
            for id in self {
                acc = f(acc, id);
            }
            return acc;
        }
        let mut flat = FlatConjunction::default();
        flat.absorb(self);
        flat.run(init, &mut f)
    }
}

/// A galloping conjunction flattened out of an [`IdStream`] tree for bulk
/// consumption: sorted-id operands as raw slices, `TRUE` ranges reduced to one
/// `[lo, hi)` window, boundary filters as a flat predicate list. Running it is
/// one tight loop over the *shortest* operand — no per-element enum dispatch, no
/// recursive seeks — with every other operand advanced by slice galloping.
#[derive(Default)]
struct FlatConjunction<'a> {
    operands: Vec<FlatOperand<'a>>,
    predicates: Vec<RangePredicate<'a>>,
    lo: u32,
    hi: Option<u32>,
    empty: bool,
}

/// One sorted-id operand of a [`FlatConjunction`]; owned vectors are kept alive here
/// and borrowed as slices only once flattening is complete.
enum FlatOperand<'a> {
    Borrowed(&'a [RecordId]),
    Owned(Vec<RecordId>, usize),
}

impl FlatOperand<'_> {
    fn as_slice(&self) -> &[RecordId] {
        match self {
            FlatOperand::Borrowed(ids) => ids,
            FlatOperand::Owned(ids, pos) => &ids[(*pos).min(ids.len())..],
        }
    }
}

impl<'a> FlatConjunction<'a> {
    /// Flatten `stream` into this conjunction.
    fn absorb(&mut self, stream: IdStream<'a>) {
        match stream {
            IdStream::Empty => self.empty = true,
            IdStream::All(range) => {
                self.lo = self.lo.max(range.start);
                self.hi = Some(self.hi.map_or(range.end, |hi| hi.min(range.end)));
            }
            IdStream::Postings(cursor) => {
                self.operands.push(FlatOperand::Borrowed(
                    &cursor.list.ids()[cursor.pos.min(cursor.list.len())..],
                ));
            }
            IdStream::Owned(cursor) => {
                self.operands
                    .push(FlatOperand::Owned(cursor.ids, cursor.pos));
            }
            IdStream::Filter(inner, predicate) => {
                self.predicates.push(predicate);
                self.absorb(*inner);
            }
            IdStream::Intersect(a, b) => {
                self.absorb(*a);
                self.absorb(*b);
            }
            lazy @ (IdStream::Union(_) | IdStream::Complement(_)) => {
                self.operands.push(FlatOperand::Owned(lazy.into_ids(), 0));
            }
        }
    }

    /// Drive the flattened conjunction, folding every surviving id into `f`.
    fn run<B>(self, init: B, f: &mut impl FnMut(B, RecordId) -> B) -> B {
        let mut acc = init;
        if self.empty {
            return acc;
        }
        let (lo, hi) = (self.lo, self.hi);
        let mut slices: Vec<&[RecordId]> =
            self.operands.iter().map(FlatOperand::as_slice).collect();
        // Shortest operand drives: it bounds the work and maximizes the skew every
        // other operand gallops across.
        slices.sort_by_key(|s| s.len());
        let predicates = &self.predicates;
        macro_rules! emit {
            ($id:expr) => {
                let id = $id;
                if predicates.iter().all(|p| p.matches(id)) {
                    acc = f(acc, id);
                }
            };
        }
        match slices.split_first() {
            None => {
                // Pure range scan (a `TRUE` window, possibly filtered).
                let Some(hi) = hi else { return acc };
                for v in lo..hi {
                    emit!(RecordId(v));
                }
            }
            Some((driver, rest)) => {
                // Narrow the driver to the window once; gallop the rest per candidate.
                let start = driver.partition_point(|id| id.0 < lo);
                let end = hi.map_or(driver.len(), |hi| driver.partition_point(|id| id.0 < hi));
                let mut cursors = vec![0usize; rest.len()];
                'driver: for &id in &driver[start.min(end)..end] {
                    for (slice, cursor) in rest.iter().zip(cursors.iter_mut()) {
                        *cursor = hybrid_advance(slice, *cursor, id);
                        match slice.get(*cursor) {
                            Some(found) if *found == id => {}
                            Some(_) => continue 'driver,
                            None => break 'driver,
                        }
                    }
                    emit!(id);
                }
            }
        }
        acc
    }
}

impl<'a> IdStream<'a> {
    /// A stream over an already-sorted, deduplicated id vector.
    pub fn from_sorted_ids(ids: Vec<RecordId>) -> IdStream<'static> {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be ascending");
        IdStream::Owned(OwnedCursor { ids, pos: 0 })
    }

    /// A stream borrowing a table posting list (block-max skipping enabled).
    pub fn postings(list: &'a PostingList) -> IdStream<'a> {
        IdStream::Postings(PostingsCursor::new(list))
    }

    /// Yield the next id `>= target`, consuming it.
    ///
    /// This is the skip primitive the whole executor is built on: cursors gallop
    /// (posting lists additionally skip whole blocks via their block-max metadata),
    /// `All` jumps in O(1), intersections seek both operands, filters seek the inner
    /// stream and verify candidates forward, unions seek the branches that are
    /// behind, complements jump the universe and seek the excluded stream.
    /// `seek_ge(RecordId(0))` is a plain `next()`.
    pub fn seek_ge(&mut self, target: RecordId) -> Option<RecordId> {
        match self {
            IdStream::Empty => None,
            IdStream::All(range) => {
                range.start = range.start.max(target.0);
                if range.start < range.end {
                    let id = range.start;
                    range.start += 1;
                    Some(RecordId(id))
                } else {
                    None
                }
            }
            IdStream::Postings(cursor) => cursor.seek_ge(target),
            IdStream::Owned(cursor) => cursor.seek_ge(target),
            IdStream::Intersect(a, b) => {
                // Leapfrog: whichever operand is ahead sets the bar for the other.
                let mut x = a.seek_ge(target)?;
                loop {
                    let y = b.seek_ge(x)?;
                    if y == x {
                        return Some(x);
                    }
                    let x2 = a.seek_ge(y)?;
                    if x2 == y {
                        return Some(y);
                    }
                    x = x2;
                }
            }
            IdStream::Filter(inner, predicate) => {
                let mut id = inner.seek_ge(target)?;
                loop {
                    if predicate.matches(id) {
                        return Some(id);
                    }
                    id = inner.seek_ge(RecordId(0))?;
                }
            }
            IdStream::Union(union) => union.seek_ge(target).map(|(id, _)| id),
            IdStream::Complement(cursor) => cursor.seek_ge(target),
        }
    }

    /// Drain the whole stream into an ascending id vector — through the specialized
    /// [`Iterator::fold`], which `collect()` would bypass.
    pub fn into_ids(self) -> Vec<RecordId> {
        let mut ids = Vec::new();
        self.for_each(|id| ids.push(id));
        ids
    }

    /// Lazy union of `parts`; branches that are trivially empty are dropped, and a
    /// union of fewer than two streams is no union at all.
    fn union(mut parts: Vec<IdStream<'a>>) -> IdStream<'a> {
        parts.retain(|part| !part.is_trivially_empty());
        match parts.len() {
            0 => IdStream::Empty,
            1 => parts.remove(0),
            _ => IdStream::Union(ScoredUnion::new(parts)),
        }
    }

    /// Lazy complement: the ids of `universe` that `excluded` does not yield.
    fn complement(universe: std::ops::Range<u32>, mut excluded: IdStream<'a>) -> IdStream<'a> {
        match excluded.next() {
            None => IdStream::All(universe),
            head => IdStream::Complement(ComplementCursor {
                universe,
                excluded: Box::new(excluded),
                head,
            }),
        }
    }

    /// True when the stream can be proven empty without consuming it.
    ///
    /// Exact for cursors (including a fully-seeked cursor whose remaining tail is
    /// empty and a posting list with no ids); conservative for compositions: an
    /// intersection is trivially empty when either operand is, a filter when its
    /// inner stream is, a union when every branch has run out, a complement when its
    /// universe has.
    fn is_trivially_empty(&self) -> bool {
        self.len_estimate() == 0
    }

    /// Upper bound on how many ids the stream can still yield. Exact for leaves,
    /// `min` over intersections, the sum over a union's branches, the rest of the
    /// universe for a complement (which therefore sorts last) — used to order
    /// conjunctions most-selective first.
    fn len_estimate(&self) -> usize {
        match self {
            IdStream::Empty => 0,
            IdStream::All(r) => r.len(),
            IdStream::Postings(cursor) => cursor.remaining(),
            IdStream::Owned(cursor) => cursor.remaining(),
            IdStream::Intersect(a, b) => a.len_estimate().min(b.len_estimate()),
            IdStream::Filter(inner, _) => inner.len_estimate(),
            IdStream::Union(union) => union.len_estimate(),
            IdStream::Complement(cursor) => cursor.universe.len(),
        }
    }

    /// Lazy intersection of every operand, **shortest first**: the driver of the
    /// leapfrog sets the skew every other operand gallops across. The sort is stable,
    /// so equal estimates keep the given order and plans stay deterministic; the
    /// intersection is a set, so the order never changes what it yields. `None` for
    /// no operands (the caller's universe).
    pub fn intersect_all(mut operands: Vec<IdStream<'a>>) -> Option<IdStream<'a>> {
        operands.sort_by_key(IdStream::len_estimate);
        operands.into_iter().reduce(IdStream::intersect)
    }

    /// Lazy intersection (galloping advance); collapses to [`IdStream::Empty`] when
    /// either side is trivially empty.
    pub fn intersect(self, other: IdStream<'a>) -> IdStream<'a> {
        if self.is_trivially_empty() || other.is_trivially_empty() {
            return IdStream::Empty;
        }
        match (self, other) {
            // A `TRUE` range from 0 is the identity of conjunction when every id of
            // the other operand provably lies inside it.
            (IdStream::All(r), s) if r.start == 0 && max_possible_id_below(&s, r.end) => s,
            (s, IdStream::All(r)) if r.start == 0 && max_possible_id_below(&s, r.end) => s,
            (a, b) => IdStream::Intersect(Box::new(a), Box::new(b)),
        }
    }
}

/// A k-way merge over *tagged* sorted id streams: yields `(id, tag)` with ids
/// strictly ascending, where `tag` is the index of the constituent stream the id came
/// from. Built by the value-ordered (WAND-style) partial scorer to merge the
/// **surviving per-value posting streams** of a relaxed attribute — each constituent
/// carries the (pre-computed, exact) score of its value, so the consumer scores a
/// candidate by `tag` lookup instead of a matrix probe.
///
/// Like every [`IdStream`], it exposes [`ScoredUnion::seek_ge`], so it composes with
/// the galloping machinery: the partial matcher leapfrogs a union against the
/// conjunction stream of the remaining conditions, and each `seek_ge` lets every
/// constituent skip whole posting-list blocks via their block-max metadata.
///
/// Constituents drawn from one column's [`crate::table::ValueIndex`] are disjoint by
/// construction (a record holds one value per attribute). Should overlapping streams
/// ever be merged, a duplicate id is yielded **once**, with the smallest tag — tags
/// are assigned in descending score order, so the best score wins.
#[derive(Debug)]
pub struct ScoredUnion<'a> {
    branches: Vec<IdStream<'a>>,
    /// Min-heap over `(next undelivered id, tag)` of each non-exhausted branch.
    heads: std::collections::BinaryHeap<std::cmp::Reverse<(RecordId, u32)>>,
}

impl<'a> ScoredUnion<'a> {
    /// Merge `parts`; the tag of each yielded id is its stream's index in `parts`.
    pub fn new(parts: Vec<IdStream<'a>>) -> Self {
        let mut branches = parts;
        let mut heads = std::collections::BinaryHeap::with_capacity(branches.len());
        for (tag, branch) in branches.iter_mut().enumerate() {
            if let Some(id) = branch.seek_ge(RecordId(0)) {
                heads.push(std::cmp::Reverse((id, tag as u32)));
            }
        }
        ScoredUnion { branches, heads }
    }

    /// Yield the next `(id, tag)` with `id >= target`, consuming it. Constituents
    /// positioned before `target` are advanced with their own galloping `seek_ge`
    /// first, so skipped ids are never touched.
    pub fn seek_ge(&mut self, target: RecordId) -> Option<(RecordId, u32)> {
        loop {
            let std::cmp::Reverse((id, tag)) = self.heads.peek().copied()?;
            self.heads.pop();
            if id < target {
                // Behind the bar: gallop this branch forward and re-enter it.
                if let Some(next) = self.branches[tag as usize].seek_ge(target) {
                    self.heads.push(std::cmp::Reverse((next, tag)));
                }
                continue;
            }
            // Deliver `id`: advance its branch, and drain any other branch holding
            // the same id (duplicates collapse onto the smallest tag, popped first).
            if let Some(next) = self.branches[tag as usize].seek_ge(RecordId(0)) {
                self.heads.push(std::cmp::Reverse((next, tag)));
            }
            while let Some(&std::cmp::Reverse((dup, dup_tag))) = self.heads.peek() {
                if dup != id {
                    break;
                }
                self.heads.pop();
                if let Some(next) = self.branches[dup_tag as usize].seek_ge(RecordId(0)) {
                    self.heads.push(std::cmp::Reverse((next, dup_tag)));
                }
            }
            return Some((id, tag));
        }
    }

    /// True when every constituent is exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.heads.is_empty()
    }

    /// Upper bound on the ids still to come: each is a head or lies behind one in
    /// its branch. 0 exactly when the union is exhausted.
    fn len_estimate(&self) -> usize {
        if self.is_exhausted() {
            return 0;
        }
        self.branches
            .iter()
            .map(IdStream::len_estimate)
            .fold(self.heads.len(), usize::saturating_add)
    }
}

impl Iterator for ScoredUnion<'_> {
    type Item = (RecordId, u32);

    fn next(&mut self) -> Option<(RecordId, u32)> {
        self.seek_ge(RecordId(0))
    }
}

/// First index `>= cursor` whose element is `>= target`: a few linear probes first
/// (free when two lists advance in near-lockstep, the common case for similar-sized
/// operands), then a gallop for genuinely skewed jumps. Strictly an advance policy —
/// the returned index is always the exact lower bound.
#[inline]
fn hybrid_advance(slice: &[RecordId], mut cursor: usize, target: RecordId) -> usize {
    let mut probes = 0u32;
    while let Some(id) = slice.get(cursor) {
        if *id >= target {
            return cursor;
        }
        cursor += 1;
        probes += 1;
        if probes == 8 {
            return cursor + gallop_lower_bound(&slice[cursor..], target);
        }
    }
    cursor
}

/// Can every id the stream may yield be proven `< bound` without consuming it?
/// (Cursor tails know their last id; used for the conjunction-identity shortcut.)
fn max_possible_id_below(stream: &IdStream<'_>, bound: u32) -> bool {
    let below = |ids: &[RecordId]| ids.last().is_none_or(|last| last.0 < bound);
    match stream {
        IdStream::Empty => true,
        IdStream::All(r) => r.end <= bound,
        IdStream::Postings(cursor) => below(cursor.list.ids()),
        IdStream::Owned(cursor) => below(&cursor.ids),
        IdStream::Intersect(a, b) => {
            max_possible_id_below(a, bound) || max_possible_id_below(b, bound)
        }
        IdStream::Filter(inner, _) => max_possible_id_below(inner, bound),
        IdStream::Union(union) => union
            .branches
            .iter()
            .all(|branch| max_possible_id_below(branch, bound)),
        IdStream::Complement(cursor) => cursor.universe.end <= bound,
    }
}

/// One answer produced by the executor: the record id and whether it matched every
/// condition (exact) — partial answers are produced by the CQAds N−1 layer, not here.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// Identifier of the matching record.
    pub id: RecordId,
}

/// Executes [`Query`] statements against a single [`Table`].
#[derive(Debug, Clone, Copy)]
pub struct Executor<'a> {
    table: &'a Table,
}

impl<'a> Executor<'a> {
    /// Executor over `table` (paper-mandated evaluation order, indexes on).
    pub fn new(table: &'a Table) -> Self {
        Executor { table }
    }

    /// Run the query, returning at most `query.limit` answers in deterministic
    /// (record-id) order. Without a superlative the stream is pulled until the page
    /// is full and no further. With one, the first superlative walks its attribute's
    /// sorted index from the extreme and stops one tie window past the first match
    /// ([`Executor::execute_stream`]); the survivors are truncated to the page.
    pub fn execute(&self, query: &Query) -> DbResult<Vec<QueryAnswer>> {
        self.validate(query)?;
        if query.limit == 0 {
            return Ok(Vec::new());
        }
        let stream = self.stream_ordered(&query.expr)?;
        let ids: Vec<RecordId> = if query.superlatives.is_empty() {
            stream.take(query.limit).collect()
        } else {
            let mut ids = self.superlative_ids(query, stream);
            ids.truncate(query.limit);
            ids
        };
        Ok(ids.into_iter().map(|id| QueryAnswer { id }).collect())
    }

    /// Streaming execution: ascending record ids matching the WHERE expression and
    /// superlatives. `query.limit` is **not** applied — streaming consumers (the N−1
    /// partial matcher) decide themselves when to stop pulling.
    ///
    /// Without a superlative the stream is returned unpulled. With one, the matching
    /// extreme is found first: the attribute's sorted index is walked from the
    /// extreme, each id tested against the WHERE clause compiled to column checks,
    /// until one tie window past the first match. A walk longer than the stream's size
    /// estimate gives up and drains the stream instead (the drain costs about that
    /// much anyway). Either way the result is one
    /// [`retain_extreme`] step over the matches, re-streamed; any further superlative
    /// is a [`retain_extreme`] step over that window.
    pub fn execute_stream(&self, query: &Query) -> DbResult<IdStream<'a>> {
        self.validate(query)?;
        let stream = self.stream_ordered(&query.expr)?;
        if query.superlatives.is_empty() {
            Ok(stream)
        } else {
            Ok(IdStream::from_sorted_ids(
                self.superlative_ids(query, stream),
            ))
        }
    }

    /// Check `query` against the table without executing it: the table name, every
    /// attribute, empty `BETWEEN` ranges, numeric comparisons and superlatives on
    /// numeric attributes only. Every `execute*` entry point runs it first.
    pub fn validate(&self, query: &Query) -> DbResult<()> {
        if query.table != self.table.name() {
            return Err(DbError::UnknownTable(query.table.clone()));
        }
        for cond in query.expr.conditions() {
            let attr = self.table.schema().require(&cond.attribute)?;
            if let Comparison::Between(lo, hi) = cond.comparison {
                if lo > hi {
                    return Err(DbError::EmptyRange {
                        attribute: cond.attribute.clone(),
                        low: lo,
                        high: hi,
                    });
                }
            }
            if cond.comparison.is_numeric() && attr.attr_type != AttrType::TypeIII {
                return Err(DbError::InvalidQuery(format!(
                    "numeric comparison on categorical attribute `{}`",
                    cond.attribute
                )));
            }
        }
        for s in &query.superlatives {
            let attr = self.table.schema().require(&s.attribute)?;
            if attr.attr_type != AttrType::TypeIII {
                return Err(DbError::InvalidQuery(format!(
                    "superlative over non-numeric attribute `{}`",
                    s.attribute
                )));
            }
        }
        Ok(())
    }

    /// Evaluate the WHERE expression into a sorted id stream. For a pure conjunction,
    /// the Type I / Type II equality streams are intersected **most selective first**
    /// (shortest posting list drives the galloping leapfrog) — the paper's
    /// Type I → Type II order is a performance heuristic, and posting-list lengths are
    /// the exact statistic it approximates; the intersection result is identical
    /// either way. Type III boundaries still run after the equality layers as
    /// per-candidate filters (the paper's step 3). For arbitrary boolean expressions
    /// we recurse: OR is a lazy union of its operands' streams, NOT a lazy complement
    /// within the table's id space.
    fn stream_ordered(&self, expr: &BoolExpr) -> DbResult<IdStream<'a>> {
        match expr {
            BoolExpr::True => Ok(self.all()),
            BoolExpr::Cond(c) => Ok(self.stream_condition(c)),
            BoolExpr::Not(inner) => Ok(self.complement(self.stream_ordered(inner)?)),
            BoolExpr::Or(parts) => {
                let parts: DbResult<Vec<_>> =
                    parts.iter().map(|p| self.stream_ordered(p)).collect();
                Ok(IdStream::union(parts?))
            }
            BoolExpr::And(parts) => {
                // Partition leaf conditions by attribute type so boundaries run after
                // the index layers; non-leaf sub-expressions are applied last.
                let mut t1 = Vec::new();
                let mut t2 = Vec::new();
                let mut t3 = Vec::new();
                let mut complex = Vec::new();
                for p in parts {
                    match p {
                        BoolExpr::Cond(c) => {
                            match self.table.schema().require(&c.attribute)?.attr_type {
                                AttrType::TypeI => t1.push(c),
                                AttrType::TypeII => t2.push(c),
                                AttrType::TypeIII => t3.push(c),
                            }
                        }
                        other => complex.push(other),
                    }
                }
                let mut equality_streams: Vec<IdStream<'a>> = Vec::new();
                for c in t1.into_iter().chain(t2) {
                    let next = self.stream_condition(c);
                    if next.is_trivially_empty() {
                        return Ok(IdStream::Empty);
                    }
                    equality_streams.push(next);
                }
                let mut stream = IdStream::intersect_all(equality_streams);
                if stream.as_ref().is_some_and(IdStream::is_trivially_empty) {
                    return Ok(IdStream::Empty);
                }
                for c in t3 {
                    // Type III boundaries run on the records surviving the index-driven
                    // layers (the paper's step 3): when an equality stream exists, the
                    // boundary becomes a per-candidate column check instead of a
                    // materialized (and sorted) range-sized id vector.
                    let next = match (stream.take(), self.range_predicate(c)) {
                        (Some(inner), Some(predicate)) => {
                            IdStream::Filter(Box::new(inner), predicate)
                        }
                        (taken, _) => {
                            let next = self.stream_condition(c);
                            match taken {
                                Some(acc) => acc.intersect(next),
                                None => next,
                            }
                        }
                    };
                    stream = Some(next);
                    if stream.as_ref().is_some_and(IdStream::is_trivially_empty) {
                        return Ok(IdStream::Empty);
                    }
                }
                let mut acc = stream.unwrap_or_else(|| self.all());
                for sub in complex {
                    acc = acc.intersect(self.stream_ordered(sub)?);
                }
                Ok(acc)
            }
        }
    }

    /// The per-candidate form of a positive numeric condition, `None` for anything
    /// else (negated, text equality).
    fn range_predicate(&self, cond: &Condition) -> Option<RangePredicate<'a>> {
        if cond.negated {
            return None;
        }
        let (low, high) = numeric_bounds(&cond.comparison)?;
        Some(RangePredicate {
            column: self.table.numeric_column(&cond.attribute),
            low,
            high,
        })
    }

    /// Every record id of the table (`TRUE`, and the universe of a complement).
    fn all(&self) -> IdStream<'a> {
        IdStream::All(0..self.table.len() as u32)
    }

    /// The records of the table that `excluded` does not yield.
    fn complement(&self, excluded: IdStream<'a>) -> IdStream<'a> {
        IdStream::complement(0..self.table.len() as u32, excluded)
    }

    /// Evaluate one condition into a sorted id stream. A negated condition is the
    /// complement of its positive stream — [`Condition::matches_value`] defines
    /// negation as exactly that, so a record missing the attribute (in no positive
    /// stream) matches every negated condition on it.
    fn stream_condition(&self, cond: &Condition) -> IdStream<'a> {
        let positive = self.stream_comparison(cond);
        if cond.negated {
            self.complement(positive)
        } else {
            positive
        }
    }

    /// The records whose `cond.attribute` satisfies `cond.comparison` (the negation
    /// flag is [`Executor::stream_condition`]'s business), off the indexes. Text
    /// equality borrows its posting list, a wide numeric range filters the id space
    /// lazily; a narrow range materializes one sorted vector.
    fn stream_comparison(&self, cond: &Condition) -> IdStream<'a> {
        match &cond.comparison {
            Comparison::Eq(Value::Text(v)) => self
                .table
                .posting_list(&cond.attribute, v)
                .map(IdStream::postings)
                .unwrap_or(IdStream::Empty),
            numeric => {
                let Some((low, high)) = numeric_bounds(numeric) else {
                    return IdStream::Empty;
                };
                // A wide range (most of the table qualifies) is cheaper as a lazy
                // per-record filter over the id space than as a range-sized id vector
                // that must be collected *and re-sorted* from value order into id
                // order — and the lazy form costs nothing to build. Narrow ranges
                // still materialize: their sort is small and the resulting cursor
                // gallops. The id *set* is identical either way.
                let count = self.table.range_count(&cond.attribute, low, high);
                let wide = count.saturating_mul(4) >= self.table.len() && count > 256;
                if wide {
                    IdStream::Filter(
                        Box::new(self.all()),
                        RangePredicate {
                            column: self.table.numeric_column(&cond.attribute),
                            low,
                            high,
                        },
                    )
                } else {
                    let mut ids = self.table.lookup_range(&cond.attribute, low, high);
                    ids.sort_unstable();
                    IdStream::from_sorted_ids(ids)
                }
            }
        }
    }

    /// The ids of `stream` (the query's WHERE clause) that survive every superlative,
    /// ascending: the first through [`Executor::extreme_window`], each further one a
    /// [`retain_extreme`] step over the window.
    fn superlative_ids(&self, query: &Query, stream: IdStream<'a>) -> Vec<RecordId> {
        let Some((first, rest)) = query.superlatives.split_first() else {
            return stream.into_ids();
        };
        let mut ids = self.extreme_window(&query.expr, stream, first);
        for superlative in rest {
            self.retain_extreme(&mut ids, superlative);
        }
        ids
    }

    /// One superlative over the ids `stream` yields for `expr`, ascending — exactly
    /// [`retain_extreme`] over the drained stream (extreme among the matches holding
    /// the attribute, ties within the window survive, no holder leaves nothing), and
    /// filter-then-extreme by construction: the walk finds the extreme *among the
    /// matches*.
    ///
    /// The attribute's sorted index is walked from the extreme and each id tested
    /// with `expr` compiled to column checks ([`ColumnCheck`]); the walk ends at the
    /// first value past the tie window of the first match, or at the end of the index
    /// (a record without the value is in no superlative). It is bounded by the
    /// stream's [`IdStream::len_estimate`] (at least [`WALK_FLOOR`] entries): the
    /// drain that takes over when the window is still open costs about that many
    /// steps, since the shortest operand drives it, so a superlative costs at most
    /// about twice the drain however the matches lie in the index.
    fn extreme_window(
        &self,
        expr: &BoolExpr,
        stream: IdStream<'a>,
        superlative: &Superlative,
    ) -> Vec<RecordId> {
        let estimate = stream.len_estimate();
        if estimate == 0 {
            return Vec::new();
        }
        if let Some(window) = self.walk_extreme(expr, superlative, estimate.max(WALK_FLOOR)) {
            return window;
        }
        let mut ids = stream.into_ids();
        self.retain_extreme(&mut ids, superlative);
        ids
    }

    /// The walk of [`Executor::extreme_window`]: at most `budget` entries of the
    /// superlative's sorted index, `None` when the window is still open after them.
    fn walk_extreme(
        &self,
        expr: &BoolExpr,
        superlative: &Superlative,
        budget: usize,
    ) -> Option<Vec<RecordId>> {
        let index = self.table.sorted_index(&superlative.attribute)?;
        let check = self.compile_check(expr);
        let matches = |id| check.matches(id);
        match superlative.kind {
            SuperlativeKind::Min => walk_window(index.entries(), budget, matches),
            SuperlativeKind::Max => walk_window(index.entries().rev(), budget, matches),
        }
    }

    /// One [`retain_extreme`] step over ascending `ids`, values read off the table's
    /// numeric column.
    fn retain_extreme(&self, ids: &mut Vec<RecordId>, superlative: &Superlative) {
        let column = self.table.numeric_column(&superlative.attribute);
        let max = superlative.kind == SuperlativeKind::Max;
        retain_extreme(ids, max, |id| column.and_then(|c| c.value(id)));
    }

    /// `expr` compiled against the table's columns: the same records its index
    /// stream yields ([`Executor::stream_ordered`]), tested one id at a time.
    fn compile_check(&self, expr: &BoolExpr) -> ColumnCheck<'a> {
        match expr {
            BoolExpr::True => ColumnCheck::All(Vec::new()),
            BoolExpr::Cond(cond) => {
                let positive = match numeric_bounds(&cond.comparison) {
                    Some((low, high)) => ColumnCheck::Range(RangePredicate {
                        column: self.table.numeric_column(&cond.attribute),
                        low,
                        high,
                    }),
                    None => ColumnCheck::Text {
                        column: self.table.text_column(&cond.attribute),
                        sym: self.text_value(cond),
                    },
                };
                if cond.negated {
                    ColumnCheck::Not(Box::new(positive))
                } else {
                    positive
                }
            }
            BoolExpr::Not(inner) => ColumnCheck::Not(Box::new(self.compile_check(inner))),
            BoolExpr::And(parts) => {
                ColumnCheck::All(parts.iter().map(|p| self.compile_check(p)).collect())
            }
            BoolExpr::Or(parts) => {
                ColumnCheck::Any(parts.iter().map(|p| self.compile_check(p)).collect())
            }
        }
    }

    /// The interned value a text equality condition asks for, `None` for any other
    /// comparison or a value never interned (which no record holds).
    fn text_value(&self, cond: &Condition) -> Option<Sym> {
        match &cond.comparison {
            Comparison::Eq(Value::Text(v)) => intern::lookup(&normalize_text(v)),
            _ => None,
        }
    }
}

/// Entries of a sorted index walked per superlative at the least, however short the
/// candidate stream: below this a walk and a drain cost about the same.
const WALK_FLOOR: usize = 32;

/// One [`retain_extreme`] step by a walk: `entries` run from the extreme inward, and
/// the survivors are the ids that pass `matches` and tie the first one that does,
/// ascending. Ends at the first entry past that tie window — values are monotone
/// along the walk, so nothing after it ties. `None` when `budget` entries went by with
/// the window still open.
fn walk_window(
    entries: impl Iterator<Item = (f64, RecordId)>,
    budget: usize,
    mut matches: impl FnMut(RecordId) -> bool,
) -> Option<Vec<RecordId>> {
    let mut best: Option<f64> = None;
    let mut window = Vec::new();
    for (step, (value, id)) in entries.enumerate() {
        if best.is_some_and(|best| !tied(value, best)) {
            break;
        }
        if step == budget {
            return None;
        }
        if matches(id) {
            let best = *best.get_or_insert(value);
            if tied(value, best) {
                window.push(id);
            }
        }
    }
    window.sort_unstable();
    Some(window)
}

/// A WHERE clause compiled for testing one record id at a time against the table's
/// columns: a symbol compare per text condition, a column read per numeric one. It
/// holds for exactly the ids the clause's index stream yields; [`BoolExpr::matches`]
/// over the record is the definition both are tested against.
#[derive(Debug)]
enum ColumnCheck<'a> {
    /// The record's symbol is `sym` (no symbol, no match).
    Text {
        column: Option<&'a TextColumn>,
        sym: Option<Sym>,
    },
    /// The record's value lies in the range (no value, no match).
    Range(RangePredicate<'a>),
    /// Every operand holds (`TRUE` when there is none).
    All(Vec<ColumnCheck<'a>>),
    /// Some operand holds.
    Any(Vec<ColumnCheck<'a>>),
    /// The operand does not hold (`NOT`, negated conditions).
    Not(Box<ColumnCheck<'a>>),
}

impl ColumnCheck<'_> {
    fn matches(&self, id: RecordId) -> bool {
        match self {
            ColumnCheck::Text { column, sym } => {
                sym.is_some_and(|sym| column.and_then(|c| c.sym(id)) == Some(sym))
            }
            ColumnCheck::Range(range) => range.matches(id),
            ColumnCheck::All(parts) => parts.iter().all(|p| p.matches(id)),
            ColumnCheck::Any(parts) => parts.iter().any(|p| p.matches(id)),
            ColumnCheck::Not(inner) => !inner.matches(id),
        }
    }
}

/// Inclusive `[low, high]` bounds of a numeric comparison, `None` for text equality
/// — the one place a numeric condition is turned into a range, shared by the index
/// arm and the per-candidate filter, and exactly [`Comparison::matches`]: equality
/// is exact, and a strict bound ends at the neighbouring float.
fn numeric_bounds(comparison: &Comparison) -> Option<(f64, f64)> {
    Some(match comparison {
        Comparison::Eq(Value::Number(n)) => (*n, *n),
        Comparison::Lt(b) => (f64::NEG_INFINITY, b.next_down()),
        Comparison::Le(b) => (f64::NEG_INFINITY, *b),
        Comparison::Gt(b) => (b.next_up(), f64::INFINITY),
        Comparison::Ge(b) => (*b, f64::INFINITY),
        Comparison::Between(lo, hi) => (*lo, *hi),
        Comparison::Eq(Value::Text(_)) => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::schema::Schema;

    fn sample_table() -> Table {
        let schema = Schema::builder("cars")
            .type1("make")
            .type1("model")
            .type2("color")
            .type2("transmission")
            .type3("price", 500.0, 120_000.0, Some("usd"))
            .type3("year", 1985.0, 2011.0, None)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        let rows = [
            ("honda", "accord", "blue", "automatic", 6600.0, 2004.0),
            ("honda", "accord", "gold", "manual", 16536.0, 2009.0),
            ("honda", "civic", "red", "automatic", 4500.0, 2001.0),
            ("toyota", "camry", "blue", "automatic", 8561.0, 2006.0),
            ("toyota", "corolla", "silver", "manual", 3900.0, 1999.0),
            ("ford", "focus", "blue", "manual", 6795.0, 2005.0),
        ];
        for (make, model, color, trans, price, year) in rows {
            t.insert(
                Record::builder()
                    .text("make", make)
                    .text("model", model)
                    .text("color", color)
                    .text("transmission", trans)
                    .number("price", price)
                    .number("year", year)
                    .build(),
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn conjunction_follows_type_order_and_matches() {
        let t = sample_table();
        let q = Query::new("cars")
            .with_condition(Condition::eq("make", "honda"))
            .with_condition(Condition::eq("color", "blue"))
            .with_condition(Condition::new("price", Comparison::Lt(15_000.0)));
        let answers = Executor::new(&t).execute(&q).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(
            t.get(answers[0].id).unwrap().get_text("model"),
            Some("accord")
        );
    }

    #[test]
    fn cheapest_honda_is_evaluated_after_make() {
        let t = sample_table();
        // "cheapest honda": the cheapest car overall is the toyota corolla at 3900, so
        // evaluating the superlative first would lose all Hondas (Section 4.3).
        let q = Query::new("cars")
            .with_condition(Condition::eq("make", "honda"))
            .with_superlative(Superlative::min("price"));
        let answers = Executor::new(&t).execute(&q).unwrap();
        assert_eq!(answers.len(), 1);
        let r = t.get(answers[0].id).unwrap();
        assert_eq!(r.get_text("make"), Some("honda"));
        assert_eq!(r.get_number("price"), Some(4500.0));
    }

    #[test]
    fn or_and_not_expressions_evaluate_with_set_semantics() {
        let t = sample_table();
        // "Toyota Corolla or a silver not manual Honda Accord" simplified:
        let expr = BoolExpr::or(vec![
            BoolExpr::and(vec![
                BoolExpr::Cond(Condition::eq("make", "toyota")),
                BoolExpr::Cond(Condition::eq("model", "corolla")),
            ]),
            BoolExpr::and(vec![
                BoolExpr::Cond(Condition::eq("make", "honda")),
                BoolExpr::Cond(Condition::eq("model", "accord")),
                BoolExpr::Cond(Condition::eq("transmission", "manual").negated()),
            ]),
        ]);
        let q = Query::new("cars").with_expr(expr);
        let answers = Executor::new(&t).execute(&q).unwrap();
        let models: Vec<_> = answers
            .iter()
            .map(|a| t.get(a.id).unwrap().get_text("model").unwrap().to_string())
            .collect();
        assert!(models.contains(&"corolla".to_string()));
        assert!(models.contains(&"accord".to_string()));
        assert_eq!(answers.len(), 2); // only the automatic accord qualifies
    }

    #[test]
    fn between_conditions() {
        let t = sample_table();
        let q = Query::new("cars")
            .with_condition(Condition::new("price", Comparison::Between(4000.0, 7000.0)));
        assert_eq!(Executor::new(&t).execute(&q).unwrap().len(), 3);
    }

    #[test]
    fn empty_between_range_errors_like_rule_1c() {
        let t = sample_table();
        let q = Query::new("cars")
            .with_condition(Condition::new("price", Comparison::Between(9000.0, 2000.0)));
        assert!(matches!(
            Executor::new(&t).execute(&q).unwrap_err(),
            DbError::EmptyRange { .. }
        ));
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let t = sample_table();
        let q = Query::new("cars").with_condition(Condition::eq("wheels", "4"));
        assert!(matches!(
            Executor::new(&t).execute(&q).unwrap_err(),
            DbError::UnknownAttribute { .. }
        ));
        let q = Query::new("cars").with_condition(Condition::new("color", Comparison::Lt(3.0)));
        assert!(matches!(
            Executor::new(&t).execute(&q).unwrap_err(),
            DbError::InvalidQuery(_)
        ));
        let q = Query::new("cars").with_superlative(Superlative::min("color"));
        assert!(matches!(
            Executor::new(&t).execute(&q).unwrap_err(),
            DbError::InvalidQuery(_)
        ));
        let q = Query::new("boats");
        assert!(matches!(
            Executor::new(&t).execute(&q).unwrap_err(),
            DbError::UnknownTable(_)
        ));
    }

    #[test]
    fn limit_caps_answers_and_true_returns_everything() {
        let t = sample_table();
        let q = Query::new("cars").with_limit(3);
        assert_eq!(Executor::new(&t).execute(&q).unwrap().len(), 3);
        let q = Query::new("cars");
        assert_eq!(Executor::new(&t).execute(&q).unwrap().len(), 6);
    }

    #[test]
    fn index_and_scan_paths_agree() {
        let t = sample_table();
        // The negated condition is a complement cursor, the other two index arms.
        let q = Query::new("cars")
            .with_condition(Condition::eq("color", "blue"))
            .with_condition(Condition::eq("make", "ford").negated())
            .with_condition(Condition::new("price", Comparison::Lt(8000.0)));
        let executed: Vec<RecordId> = Executor::new(&t)
            .execute(&q)
            .unwrap()
            .iter()
            .map(|a| a.id)
            .collect();
        assert_eq!(executed, scan(&t, &q.expr));
        assert_eq!(executed, rec(&[0]));
    }

    // -----------------------------------------------------------------------
    // seek_ge / galloping / block-max edge cases
    // -----------------------------------------------------------------------

    fn rec(ids: &[u32]) -> Vec<RecordId> {
        ids.iter().copied().map(RecordId).collect()
    }

    /// The record-scan reference: every record `expr` matches, ascending.
    fn scan(table: &Table, expr: &BoolExpr) -> Vec<RecordId> {
        let matching = table.iter().filter(|(_, r)| expr.matches(r));
        matching.map(|(id, _)| id).collect()
    }

    #[test]
    fn gallop_lower_bound_agrees_with_partition_point() {
        let xs = rec(&[1, 3, 5, 7, 9, 40, 41, 100, 1000]);
        for target in 0..=1001u32 {
            let t = RecordId(target);
            assert_eq!(
                gallop_lower_bound(&xs, t),
                xs.partition_point(|&x| x < t),
                "target {target}"
            );
        }
        assert_eq!(gallop_lower_bound(&[], RecordId(5)), 0);
    }

    #[test]
    fn postings_cursor_seeks_across_blocks() {
        // Three full blocks plus a tail, with a gap the seek must jump over.
        let mut ids: Vec<RecordId> = (0..POSTING_BLOCK as u32 * 3).map(RecordId).collect();
        ids.extend((10_000..10_010).map(RecordId));
        let list = PostingList::from_sorted(ids.clone());
        let mut stream = IdStream::postings(&list);
        assert_eq!(stream.seek_ge(RecordId(0)), Some(RecordId(0)));
        // Jump into the middle of block 1.
        let mid = POSTING_BLOCK as u32 + 7;
        assert_eq!(stream.seek_ge(RecordId(mid)), Some(RecordId(mid)));
        // Jump over the gap: lands on the first tail id.
        assert_eq!(stream.seek_ge(RecordId(9_999)), Some(RecordId(10_000)));
        // Seeking past the end exhausts the stream, and it knows it is empty.
        assert_eq!(stream.seek_ge(RecordId(20_000)), None);
        assert!(stream.is_trivially_empty(), "all ids skipped => empty");
        assert_eq!(stream.next(), None);
    }

    #[test]
    fn single_block_and_empty_posting_lists_are_handled() {
        let single = PostingList::from_sorted(rec(&[4, 8, 15]));
        assert_eq!(single.block_max(), rec(&[15]).as_slice());
        let mut stream = IdStream::postings(&single);
        assert!(!stream.is_trivially_empty());
        assert_eq!(stream.seek_ge(RecordId(5)), Some(RecordId(8)));
        assert_eq!(stream.seek_ge(RecordId(16)), None);

        let empty = PostingList::from_sorted(Vec::new());
        assert!(empty.block_max().is_empty());
        let mut stream = IdStream::postings(&empty);
        assert!(stream.is_trivially_empty());
        assert_eq!(stream.seek_ge(RecordId(0)), None);
        assert_eq!(stream.next(), None);
    }

    #[test]
    fn trivial_emptiness_is_exact_for_leaves_and_conservative_for_compositions() {
        assert!(IdStream::Empty.is_trivially_empty());
        assert!(IdStream::All(3..3).is_trivially_empty());
        assert!(!IdStream::All(0..1).is_trivially_empty());
        assert!(IdStream::from_sorted_ids(Vec::new()).is_trivially_empty());
        // Intersecting with a trivially-empty stream collapses to Empty.
        let list = PostingList::from_sorted(rec(&[1, 2, 3]));
        let joined = IdStream::postings(&list).intersect(IdStream::Empty);
        assert!(matches!(joined, IdStream::Empty));
    }

    #[test]
    fn scored_union_merges_tagged_streams_in_id_order() {
        let a = PostingList::from_sorted(rec(&[1, 5, 9]));
        let b = PostingList::from_sorted(rec(&[2, 5, 40]));
        let c = PostingList::from_sorted(rec(&[0, 100]));
        let union = ScoredUnion::new(vec![
            IdStream::postings(&a),
            IdStream::postings(&b),
            IdStream::postings(&c),
        ]);
        let merged: Vec<(u32, u32)> = union.map(|(id, tag)| (id.0, tag)).collect();
        // Ascending ids; the duplicate id 5 collapses onto the smallest tag (0).
        assert_eq!(
            merged,
            vec![(0, 2), (1, 0), (2, 1), (5, 0), (9, 0), (40, 1), (100, 2)]
        );
    }

    #[test]
    fn scored_union_seek_ge_skips_and_exhausts() {
        let a = PostingList::from_sorted(rec(&[1, 5, 9, 300]));
        let b = PostingList::from_sorted(rec(&[2, 7, 200]));
        let mut union = ScoredUnion::new(vec![IdStream::postings(&a), IdStream::postings(&b)]);
        assert_eq!(union.seek_ge(RecordId(4)), Some((RecordId(5), 0)));
        assert_eq!(union.seek_ge(RecordId(6)), Some((RecordId(7), 1)));
        // Seeking past both tails leaves only the far ids.
        assert_eq!(union.seek_ge(RecordId(150)), Some((RecordId(200), 1)));
        assert!(!union.is_exhausted());
        assert_eq!(union.seek_ge(RecordId(301)), None);
        assert!(union.is_exhausted());
        assert_eq!(union.next(), None);

        // Empty constituents and an empty union are handled.
        let empty = PostingList::from_sorted(Vec::new());
        let mut union = ScoredUnion::new(vec![IdStream::postings(&empty)]);
        assert!(union.is_exhausted());
        assert_eq!(union.seek_ge(RecordId(0)), None);
        let mut union = ScoredUnion::new(Vec::new());
        assert_eq!(union.next(), None);
    }

    #[test]
    fn scored_union_matches_naive_union_of_disjoint_lists() {
        // The shape the WAND scorer builds: disjoint per-value posting lists.
        let lists: Vec<PostingList> = (0..5)
            .map(|k| PostingList::from_sorted((0..200u32).map(|i| RecordId(i * 5 + k)).collect()))
            .collect();
        let union = ScoredUnion::new(lists.iter().map(IdStream::postings).collect());
        let got: Vec<RecordId> = union.map(|(id, _)| id).collect();
        let mut expected: Vec<RecordId> = lists.iter().flat_map(|l| l.ids().to_vec()).collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn intersection_modes_and_orders_agree_everywhere() {
        let t = sample_table();
        let queries = [
            Query::new("cars")
                .with_condition(Condition::eq("make", "honda"))
                .with_condition(Condition::eq("color", "blue")),
            Query::new("cars")
                .with_condition(Condition::eq("color", "blue"))
                .with_condition(Condition::eq("transmission", "manual"))
                .with_condition(Condition::new("price", Comparison::Lt(10_000.0))),
            Query::new("cars")
                .with_condition(Condition::eq("make", "toyota"))
                .with_superlative(Superlative::min("price")),
            Query::new("cars").with_superlative(Superlative::max("year")),
            Query::new("cars").with_condition(Condition::eq("make", "nosuchmake")),
        ];
        // Reference: a brute-force filter over every record, then the extreme
        // survivors for the superlative queries.
        let brute_force = |q: &Query| -> Vec<RecordId> {
            let matching: Vec<(RecordId, &Record)> =
                t.iter().filter(|(_, r)| q.expr.matches(r)).collect();
            match q.superlatives.first() {
                None => matching.iter().map(|(id, _)| *id).collect(),
                Some(s) => {
                    let value = |r: &Record| r.get_number(&s.attribute).unwrap();
                    let values = matching.iter().map(|(_, r)| value(r));
                    let best = match s.kind {
                        SuperlativeKind::Min => values.fold(f64::INFINITY, f64::min),
                        SuperlativeKind::Max => values.fold(f64::NEG_INFINITY, f64::max),
                    };
                    matching
                        .iter()
                        .filter(|(_, r)| value(r) == best)
                        .map(|(id, _)| *id)
                        .collect()
                }
            }
        };
        let gallop = Executor::new(&t);
        for q in &queries {
            let expected = brute_force(q);
            let executed: Vec<RecordId> = gallop.execute(q).unwrap().iter().map(|a| a.id).collect();
            assert_eq!(executed, expected);
            let streamed: Vec<RecordId> = gallop.execute_stream(q).unwrap().collect();
            assert_eq!(streamed, expected);
        }
    }

    // -----------------------------------------------------------------------
    // Union and complement cursors
    // -----------------------------------------------------------------------

    /// `stream` yields exactly `want` — pulled one id at a time, drained through
    /// `fold`, drained as the lazy operand of a conjunction, and sought from every
    /// target — and its `len_estimate` never undercounts.
    fn assert_streams(make: impl Fn() -> IdStream<'static>, want: &[u32]) {
        let want = rec(want);
        assert!(make().len_estimate() >= want.len());
        assert_eq!(make().collect::<Vec<_>>(), want);
        assert_eq!(make().into_ids(), want);
        let conjunct = IdStream::Intersect(Box::new(IdStream::All(0..u32::MAX)), Box::new(make()));
        assert_eq!(conjunct.into_ids(), want);
        let mut pulled = make();
        for left in (1..=want.len()).rev() {
            assert!(pulled.len_estimate() >= left, "{pulled:?}");
            pulled.next();
        }
        assert_eq!(pulled.next(), None);
        for target in 0..want.last().map_or(3, |last| last.0 + 3) {
            let tail: Vec<RecordId> = want.iter().copied().filter(|id| id.0 >= target).collect();
            let mut stream = make();
            assert_eq!(stream.seek_ge(RecordId(target)), tail.first().copied());
            assert_eq!(
                stream.collect::<Vec<_>>(),
                tail.get(1..).unwrap_or_default()
            );
        }
    }

    fn ids(ids: &[u32]) -> IdStream<'static> {
        IdStream::from_sorted_ids(rec(ids))
    }

    #[test]
    fn complement_cursor_edges() {
        // Of nothing: the universe itself, not even a cursor.
        assert!(matches!(
            IdStream::complement(0..5, IdStream::Empty),
            IdStream::All(r) if r == (0..5)
        ));
        assert_streams(|| IdStream::complement(0..5, ids(&[])), &[0, 1, 2, 3, 4]);
        // Of everything: nothing, and it is known only once the universe is walked.
        assert_streams(|| IdStream::complement(0..5, IdStream::All(0..5)), &[]);
        let mut all_excluded = IdStream::complement(0..5, IdStream::All(0..5));
        assert!(!all_excluded.is_trivially_empty());
        assert_eq!(all_excluded.next(), None);
        assert!(all_excluded.is_trivially_empty());
        // Of a stream that ends before the universe does, with runs at either end.
        assert_streams(
            || IdStream::complement(0..10, ids(&[0, 1, 4, 6, 7])),
            &[2, 3, 5, 8, 9],
        );
        // Excluded ids outside the universe are ignored; an empty universe is empty.
        assert_streams(|| IdStream::complement(2..6, ids(&[0, 3, 9])), &[2, 4, 5]);
        assert_streams(|| IdStream::complement(4..4, ids(&[1])), &[]);
        assert!(IdStream::complement(4..4, ids(&[1])).is_trivially_empty());
        // Complements nest.
        assert_streams(
            || IdStream::complement(0..8, IdStream::complement(0..8, ids(&[1, 6]))),
            &[1, 6],
        );
    }

    #[test]
    fn union_cursor_edges() {
        assert!(matches!(IdStream::union(Vec::new()), IdStream::Empty));
        assert!(matches!(
            IdStream::union(vec![ids(&[]), IdStream::Empty, IdStream::All(3..3)]),
            IdStream::Empty
        ));
        // One live branch is that branch, not a merge of one.
        assert!(matches!(
            IdStream::union(vec![ids(&[]), ids(&[2, 4])]),
            IdStream::Owned(_)
        ));
        assert_streams(|| IdStream::union(vec![ids(&[2, 4])]), &[2, 4]);
        // Overlapping and identical branches yield each id once.
        assert_streams(
            || IdStream::union(vec![ids(&[1, 5, 9]), ids(&[2, 5, 40]), ids(&[0, 9])]),
            &[0, 1, 2, 5, 9, 40],
        );
        assert_streams(
            || IdStream::union(vec![ids(&[3, 7]), ids(&[3, 7]), ids(&[3, 7])]),
            &[3, 7],
        );
        // A union of lazy operands, and a lazy operand under a union.
        assert_streams(
            || {
                IdStream::union(vec![
                    IdStream::complement(0..6, ids(&[0, 1, 2, 3])),
                    ids(&[1]).intersect(IdStream::All(0..6)),
                ])
            },
            &[1, 4, 5],
        );
        // Exhausted exactly when the estimate says so.
        let mut union = IdStream::union(vec![ids(&[1]), ids(&[1, 2])]);
        assert_eq!(union.len_estimate(), 3);
        assert_eq!(union.by_ref().count(), 2);
        assert!(union.is_trivially_empty());
    }

    #[test]
    fn a_full_true_range_is_the_identity_of_intersection_with_lazy_operands() {
        let union = || IdStream::union(vec![ids(&[1, 5]), ids(&[2, 9])]);
        let complement = || IdStream::complement(0..10, ids(&[3]));
        // Every id either can yield lies below 10: `TRUE` drops out, on either side.
        assert!(matches!(
            IdStream::All(0..10).intersect(union()),
            IdStream::Union(_)
        ));
        assert!(matches!(
            union().intersect(IdStream::All(0..10)),
            IdStream::Union(_)
        ));
        assert!(matches!(
            IdStream::All(0..10).intersect(complement()),
            IdStream::Complement(_)
        ));
        assert!(matches!(
            complement().intersect(IdStream::All(0..10)),
            IdStream::Complement(_)
        ));
        // A range that cuts into them does not.
        for cut in [
            IdStream::All(0..9).intersect(union()),
            complement().intersect(IdStream::All(0..9)),
        ] {
            assert!(matches!(cut, IdStream::Intersect(..)), "{cut:?}");
        }
        assert_streams(|| IdStream::All(0..9).intersect(union()), &[1, 2, 5]);
        assert_streams(|| complement().intersect(IdStream::All(0..4)), &[0, 1, 2]);
    }

    /// Ids read off the leaf cursors of a stream built from text equalities only —
    /// where any materialized operand is a laziness bug.
    fn ids_read(stream: &IdStream<'_>) -> usize {
        match stream {
            IdStream::Empty => 0,
            IdStream::All(range) => range.start as usize,
            IdStream::Postings(cursor) => cursor.pos,
            IdStream::Owned(_) => panic!("materialized operand: {stream:?}"),
            IdStream::Intersect(a, b) => ids_read(a) + ids_read(b),
            IdStream::Filter(inner, _) => ids_read(inner),
            IdStream::Union(union) => union.branches.iter().map(ids_read).sum(),
            IdStream::Complement(cursor) => {
                cursor.universe.start as usize + ids_read(&cursor.excluded)
            }
        }
    }

    /// Laziness, asserted by count: pulling a page off OR / NOT / negated streams over
    /// a 120 000-record table reads a few dozen ids off the operand cursors, however
    /// long their posting lists are.
    #[test]
    fn a_page_of_or_not_and_negated_reads_a_page_of_postings() {
        let schema = Schema::builder("things")
            .type1("kind")
            .type2("tag")
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..120_000u32 {
            let record = Record::builder()
                .text("kind", format!("k{}", i % 3))
                .text("tag", format!("t{}", i % 5));
            t.insert(record.build()).unwrap();
        }
        let kind = |v: &str| BoolExpr::Cond(Condition::eq("kind", v));
        let tag = |v: &str| BoolExpr::Cond(Condition::eq("tag", v));
        let shapes = [
            BoolExpr::or(vec![kind("k0"), tag("t0")]),
            BoolExpr::Not(Box::new(kind("k0"))),
            BoolExpr::Cond(Condition::eq("kind", "k0").negated()),
            BoolExpr::or(vec![
                BoolExpr::and(vec![kind("k0"), BoolExpr::Not(Box::new(tag("t0")))]),
                tag("t1"),
            ]),
            BoolExpr::and(vec![
                kind("k1"),
                tag("t2"),
                BoolExpr::Not(Box::new(tag("t0"))),
            ]),
        ];
        let executor = Executor::new(&t);
        for expr in shapes {
            let page: Vec<RecordId> = scan(&t, &expr).into_iter().take(30).collect();
            assert_eq!(page.len(), 30, "{expr}");
            let mut stream = executor.stream_ordered(&expr).unwrap();
            let built = ids_read(&stream);
            assert!(built <= 16, "{expr}: building the stream read {built} ids");
            assert_eq!(stream.by_ref().take(30).collect::<Vec<_>>(), page, "{expr}");
            // Every operand advances to the page's last id at most: a handful of ids
            // per answer, never a posting list (>= 24 000 ids each here).
            let read = ids_read(&stream);
            let last = page[29].0 as usize;
            assert!(
                read <= 4 * (last + 2),
                "{expr}: a page to id {last} read {read} ids"
            );
            assert!(last < 500, "{expr}");
            // And `execute` is that pull.
            let query = Query::new("things").with_expr(expr.clone());
            let executed: Vec<RecordId> = executor
                .execute(&query)
                .unwrap()
                .iter()
                .map(|a| a.id)
                .collect();
            assert_eq!(executed, page, "{expr}");
        }
    }

    /// One definition of numeric equality: `attr = n` is exact in the index arm, in
    /// the per-candidate filter and in `Comparison::matches`, so the condition and its
    /// negation partition the records whatever lies a hair off `n`.
    #[test]
    fn numeric_equality_is_exact_and_its_negation_is_its_complement() {
        let schema = Schema::builder("items")
            .type1("name")
            .type3("price", 0.0, 10_000.0, None)
            .build()
            .unwrap();
        let n = 5000.0;
        let stored = [n, n + 5e-10, n - 5e-10, n + 2e-9, n - 2e-9];
        let mut t = Table::new(schema);
        for price in stored {
            t.insert(
                Record::builder()
                    .text("name", "x")
                    .number("price", price)
                    .build(),
            )
            .unwrap();
        }
        t.insert(Record::builder().text("name", "x").build())
            .unwrap(); // no price
        let run = |expr: BoolExpr| -> Vec<RecordId> {
            let query = Query::new("items").with_expr(expr);
            let found = Executor::new(&t).execute(&query).unwrap();
            found.iter().map(|a| a.id).collect()
        };
        let equal = Condition::eq_number("price", n);
        let named = BoolExpr::Cond(Condition::eq("name", "x"));
        for (cond, want) in [
            (equal.clone(), rec(&[0])),
            (equal.negated(), rec(&[1, 2, 3, 4, 5])),
        ] {
            let leaf = BoolExpr::Cond(cond);
            assert_eq!(scan(&t, &leaf), want, "{leaf}");
            // Alone (index arm) and behind an equality stream (per-candidate filter).
            assert_eq!(run(leaf.clone()), want, "{leaf}");
            assert_eq!(
                run(BoolExpr::and(vec![named.clone(), leaf.clone()])),
                want,
                "{leaf}"
            );
        }
        // Strict bounds end at the neighbouring float, on both sides of `n`.
        for (comparison, want) in [
            (Comparison::Lt(n), rec(&[2, 4])),
            (Comparison::Le(n), rec(&[0, 2, 4])),
            (Comparison::Gt(n), rec(&[1, 3])),
            (Comparison::Ge(n), rec(&[0, 1, 3])),
        ] {
            let leaf = BoolExpr::Cond(Condition::new("price", comparison));
            assert_eq!(scan(&t, &leaf), want, "{leaf}");
            assert_eq!(run(leaf.clone()), want, "{leaf}");
            assert_eq!(
                run(BoolExpr::and(vec![named.clone(), leaf.clone()])),
                want,
                "{leaf}"
            );
            let mut rest = rec(&[0, 1, 2, 3, 4, 5]);
            rest.retain(|id| !want.contains(id));
            assert_eq!(
                run(BoolExpr::Not(Box::new(leaf.clone()))),
                rest,
                "NOT {leaf}"
            );
        }
    }

    /// Both arms of a superlative, forced: a tie block at the extreme longer than the
    /// walk's budget (the stream is drained), and windows that close after a few
    /// entries or exactly at the budget (the walk answers). Minimum and maximum, a
    /// chain of two superlatives, ties a hair apart and an infinite extreme — every
    /// answer is the record scan's, one `retain_extreme` step per superlative.
    #[test]
    fn a_superlative_walks_the_index_or_drains_past_its_budget() {
        let schema = Schema::builder("items")
            .type1("name")
            .type3("price", 0.0, 1_000.0, None)
            .type3("year", 1985.0, 2011.0, None)
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        let mut add = |name: &str, price: f64, year: f64| {
            let record = Record::builder()
                .text("name", name)
                .number("price", price)
                .number("year", year);
            t.insert(record.build()).unwrap();
        };
        // 600 records tied at the cheapest price (a hair apart), "a" and "b" alternating.
        for i in 0..600 {
            let name = if i % 2 == 0 { "a" } else { "b" };
            add(
                name,
                100.0 + f64::from(i % 3) * 4e-10,
                1990.0 + f64::from(i % 7),
            );
        }
        // 40 "c" records above them, two of them tied at the top.
        for i in 0..40 {
            add("c", 200.0 + f64::from(i.min(38)), 2000.0 + f64::from(i % 5));
        }
        // An infinite extreme ties nothing, itself included.
        add("d", f64::INFINITY, 2000.0);
        add("d", 300.0, 2000.0);
        let name = |v: &str| BoolExpr::Cond(Condition::eq("name", v));
        let executor = Executor::new(&t);
        // (where, superlatives, whether the walk closes its window within budget)
        let cases = [
            // 300 matches spread over a 600-entry tie block: the window outruns the
            // estimate of 300 and the stream is drained.
            (name("a"), vec![Superlative::min("price")], false),
            (
                name("a"),
                vec![Superlative::min("price"), Superlative::max("year")],
                false,
            ),
            // 40 matches behind 600 entries that fail: the budget runs out before a hit.
            (name("c"), vec![Superlative::min("price")], false),
            // The top two tie and the third closes the window.
            (name("c"), vec![Superlative::max("price")], true),
            (
                name("c"),
                vec![Superlative::max("price"), Superlative::min("year")],
                true,
            ),
            // Every record of the block matches: the window closes at entry 600, the
            // last one the budget of 600 allows.
            (
                BoolExpr::or(vec![name("a"), name("b")]),
                vec![Superlative::min("price")],
                true,
            ),
            (
                BoolExpr::or(vec![name("a"), name("b")]),
                vec![Superlative::min("price"), Superlative::min("year")],
                true,
            ),
            (name("d"), vec![Superlative::max("price")], true),
            (name("d"), vec![Superlative::min("price")], false),
            (BoolExpr::True, vec![Superlative::max("year")], true),
        ];
        for (expr, superlatives, walks) in cases {
            let mut query = Query::new("items").with_expr(expr.clone());
            let mut want = scan(&t, &expr);
            for s in superlatives {
                retain_extreme(&mut want, s.kind == SuperlativeKind::Max, |id| {
                    t.get(id).and_then(|r| r.get_number(&s.attribute))
                });
                query = query.with_superlative(s);
            }
            let context = crate::sql::render(&query);
            let budget = executor
                .stream_ordered(&expr)
                .unwrap()
                .len_estimate()
                .max(WALK_FLOOR);
            let walked = executor.walk_extreme(&expr, &query.superlatives[0], budget);
            assert_eq!(walked.is_some(), walks, "{context}");
            let streamed: Vec<RecordId> = executor.execute_stream(&query).unwrap().collect();
            assert_eq!(streamed, want, "{context}");
            let page = executor.execute(&query.with_limit(usize::MAX)).unwrap();
            let page: Vec<RecordId> = page.iter().map(|a| a.id).collect();
            assert_eq!(page, want, "{context}");
        }
    }
}
