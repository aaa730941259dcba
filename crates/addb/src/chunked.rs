//! The two `Arc`-shared containers behind a [`Table`](crate::table::Table)'s
//! per-record state.
//!
//! A published snapshot shares its tables with the writer, so the first insert after
//! a reader has loaded works on a clone of the table. Both containers make that clone
//! a run of refcount bumps and make the insert copy only the chunk it lands in: every
//! other chunk stays shared between all snapshots for as long as the table lives.
//!
//! * [`ChunkedVec`] — what is stored per record id (the records themselves, a text
//!   column's value symbols, a numeric column's values): append-only, so only the
//!   tail chunk is ever written.
//! * [`SortedIndex`] — the `(value, id)` range index of a numeric column: sorted
//!   leaves, an insert rewrites the one leaf its value falls into.

use crate::record::RecordId;
use std::sync::Arc;

/// Unique access to a possibly shared chunk: in place when no clone holds it, else
/// on a copy. The copy is allocated at the chunk's full `capacity` — `Arc::make_mut`
/// alone would size it to the current length, and the push that follows would then
/// regrow it past what a sealed chunk needs.
fn chunk_mut<T: Clone>(chunk: &mut Arc<Vec<T>>, capacity: usize) -> &mut Vec<T> {
    if Arc::get_mut(chunk).is_none() {
        let mut copy = Vec::with_capacity(capacity);
        copy.extend_from_slice(chunk);
        *chunk = Arc::new(copy);
    }
    Arc::make_mut(chunk)
}

/// Append-only vector stored as `Arc`-shared chunks of `CHUNK` elements (a power of
/// two, so [`ChunkedVec::get`] is a shift and a mask). `clone` bumps one refcount per
/// chunk; `push` writes the tail chunk only, copying it first when a clone shares it.
/// A full ("sealed") chunk is never written again.
#[derive(Debug, Clone)]
pub(crate) struct ChunkedVec<T, const CHUNK: usize> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T, const CHUNK: usize> Default for ChunkedVec<T, CHUNK> {
    fn default() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone, const CHUNK: usize> ChunkedVec<T, CHUNK> {
    const SHIFT: u32 = {
        assert!(CHUNK.is_power_of_two(), "CHUNK must be a power of two");
        CHUNK.trailing_zeros()
    };

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn push(&mut self, value: T) {
        if self.len & (CHUNK - 1) == 0 {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        if let Some(tail) = self.chunks.last_mut() {
            chunk_mut(tail, CHUNK).push(value);
            self.len += 1;
        }
    }

    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        self.chunks
            .get(index >> Self::SHIFT)?
            .get(index & (CHUNK - 1))
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    #[cfg(test)]
    pub(crate) fn chunks(&self) -> &[Arc<Vec<T>>] {
        &self.chunks
    }
}

/// The range index of one numeric column: every `(value, id)` ordered by value
/// ascending and, among equal values, newest id first — the order repeated
/// `partition_point(v < value)` + `Vec::insert` gives when ids only grow — cut into
/// `Arc`-shared sorted leaves of fewer than `2 * CHUNK` entries. A leaf that fills up
/// splits in half, so an insert moves at most one leaf's entries (not the column's)
/// and a clone shares every leaf.
#[derive(Debug, Clone, Default)]
pub(crate) struct SortedIndex<const CHUNK: usize> {
    /// Never holds an empty leaf.
    leaves: Vec<Arc<Vec<(f64, RecordId)>>>,
}

impl<const CHUNK: usize> SortedIndex<CHUNK> {
    /// Where the entries satisfying `below` end, as `(leaf, offset in that leaf)`.
    /// `below` must hold for a prefix of the order (`v < x` or `v <= x`).
    fn seek(&self, below: impl Fn(f64) -> bool) -> (usize, usize) {
        let leaf = self
            .leaves
            .partition_point(|leaf| leaf.last().is_some_and(|(v, _)| below(*v)));
        let offset = self
            .leaves
            .get(leaf)
            .map_or(0, |leaf| leaf.partition_point(|(v, _)| below(*v)));
        (leaf, offset)
    }

    /// Add `(value, id)`; `id` must exceed every id already present.
    pub(crate) fn insert(&mut self, value: f64, id: RecordId) {
        if self.leaves.is_empty() {
            self.leaves.push(Arc::new(Vec::with_capacity(2 * CHUNK)));
        }
        let (mut at, mut offset) = self.seek(|v| v < value);
        if at == self.leaves.len() {
            // Above every entry: appended to the last leaf.
            at -= 1;
            offset = self.leaves[at].len();
        }
        let leaf = chunk_mut(&mut self.leaves[at], 2 * CHUNK);
        leaf.insert(offset, (value, id));
        if leaf.len() == 2 * CHUNK {
            let mut upper = Vec::with_capacity(2 * CHUNK);
            upper.extend(leaf.drain(CHUNK..));
            self.leaves.insert(at + 1, Arc::new(upper));
        }
    }

    /// How many entries have a value in `[low, high]`.
    pub(crate) fn range_count(&self, low: f64, high: f64) -> usize {
        let start = self.seek(|v| v < low);
        let end = self.seek(|v| v <= high);
        if end <= start {
            return 0;
        }
        let whole: usize = self.leaves[start.0..end.0].iter().map(|l| l.len()).sum();
        whole + end.1 - start.1
    }

    /// The ids whose value lies in `[low, high]`, in index order.
    pub(crate) fn range(&self, low: f64, high: f64) -> impl Iterator<Item = RecordId> + '_ {
        let (leaf, offset) = self.seek(|v| v < low);
        self.leaves[leaf..]
            .iter()
            .enumerate()
            .flat_map(move |(i, leaf)| &leaf[if i == 0 { offset } else { 0 }..])
            .take_while(move |(v, _)| *v <= high)
            .map(|(_, id)| *id)
    }

    /// Every `(value, id)` in index order; reversed, largest value first.
    pub(crate) fn entries(&self) -> impl DoubleEndedIterator<Item = (f64, RecordId)> + '_ {
        self.leaves.iter().flat_map(|leaf| leaf.iter().copied())
    }

    /// Smallest and largest value, `None` while empty.
    pub(crate) fn bounds(&self) -> Option<(f64, f64)> {
        let (low, _) = self.leaves.first()?.first()?;
        let (high, _) = self.leaves.last()?.last()?;
        Some((*low, *high))
    }

    #[cfg(test)]
    pub(crate) fn leaves(&self) -> &[Arc<Vec<(f64, RecordId)>>] {
        &self.leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    fn assert_reads_as(chunked: &ChunkedVec<u32, 4>, model: &[u32]) -> Result<(), TestCaseError> {
        prop_assert_eq!(chunked.len(), model.len());
        prop_assert_eq!(chunked.iter().copied().collect::<Vec<_>>(), model);
        for (i, expected) in model.iter().enumerate() {
            prop_assert_eq!(chunked.get(i), Some(expected));
        }
        prop_assert_eq!(chunked.get(model.len()), None);
        Ok(())
    }

    /// The layout the leaves replace: one flat vector, `partition_point` + `insert`.
    #[derive(Clone, Default)]
    struct FlatSorted(Vec<(f64, RecordId)>);

    impl FlatSorted {
        fn insert(&mut self, value: f64, id: RecordId) {
            let pos = self.0.partition_point(|(v, _)| *v < value);
            self.0.insert(pos, (value, id));
        }

        fn range_count(&self, low: f64, high: f64) -> usize {
            let start = self.0.partition_point(|(v, _)| *v < low);
            let end = self.0.partition_point(|(v, _)| *v <= high);
            end.saturating_sub(start)
        }

        fn lookup_range(&self, low: f64, high: f64) -> Vec<RecordId> {
            let start = self.0.partition_point(|(v, _)| *v < low);
            self.0[start..]
                .iter()
                .take_while(|(v, _)| *v <= high)
                .map(|(_, id)| *id)
                .collect()
        }

        fn observed_range(&self) -> Option<(f64, f64)> {
            Some((self.0.first()?.0, self.0.last()?.0))
        }
    }

    fn assert_reads_like(index: &SortedIndex<4>, model: &FlatSorted) -> Result<(), TestCaseError> {
        let entries: Vec<_> = index.leaves().iter().flat_map(|l| l.iter()).collect();
        prop_assert_eq!(entries, model.0.iter().collect::<Vec<_>>());
        prop_assert!(index.leaves().iter().all(|l| !l.is_empty() && l.len() < 8));
        prop_assert_eq!(index.bounds(), model.observed_range());
        // Every pair of bounds on, between and beyond the values in use — inverted
        // pairs included.
        let bounds: Vec<f64> = (-1..=12).map(|b| f64::from(b) / 2.0).collect();
        for &low in &bounds {
            for &high in &bounds {
                prop_assert_eq!(index.range_count(low, high), model.range_count(low, high));
                prop_assert_eq!(
                    index.range(low, high).collect::<Vec<_>>(),
                    model.lookup_range(low, high),
                    "[{}, {}]",
                    low,
                    high
                );
            }
        }
        Ok(())
    }

    #[test]
    fn empty_containers_read_as_empty() {
        let chunked = ChunkedVec::<u32, 4>::default();
        assert_eq!(
            (chunked.len(), chunked.get(0), chunked.iter().count()),
            (0, None, 0)
        );
        let index = SortedIndex::<4>::default();
        assert_eq!(index.bounds(), None);
        assert_eq!(index.range_count(f64::NEG_INFINITY, f64::INFINITY), 0);
        assert_eq!(index.range(f64::NEG_INFINITY, f64::INFINITY).count(), 0);
    }

    #[test]
    fn a_push_copies_a_shared_tail_and_nothing_else() {
        let mut chunked = ChunkedVec::<u32, 4>::default();
        (0..6).for_each(|i| chunked.push(i));
        let before = chunked.clone();
        chunked.push(6);
        assert!(Arc::ptr_eq(&before.chunks()[0], &chunked.chunks()[0]));
        assert!(!Arc::ptr_eq(&before.chunks()[1], &chunked.chunks()[1]));
        // Unshared again, the tail is written in place; a copy keeps a full chunk's room.
        let tail = Arc::as_ptr(&chunked.chunks()[1]);
        chunked.push(7);
        assert_eq!(Arc::as_ptr(&chunked.chunks()[1]), tail);
        assert_eq!(chunked.chunks()[1].capacity(), 4);
        assert_eq!(before.iter().count(), 6);
    }

    proptest! {
        /// `ChunkedVec` ≡ `Vec` under pushes interleaved with clones, and every clone
        /// keeps reading exactly the prefix it was taken at.
        #[test]
        fn chunked_vec_matches_vec_and_clones_keep_their_prefix(
            ops in prop::collection::vec(0u32..100, 0..80),
        ) {
            let mut chunked = ChunkedVec::<u32, 4>::default();
            let mut model = Vec::new();
            let mut clones = Vec::new();
            for op in ops {
                if op % 5 == 0 {
                    clones.push((chunked.clone(), model.len()));
                } else {
                    chunked.push(op);
                    model.push(op);
                }
                assert_reads_as(&chunked, &model)?;
            }
            for (clone, len) in &clones {
                assert_reads_as(clone, &model[..*len])?;
            }
        }

        /// The sorted leaves ≡ the flat sorted vector — same entry sequence (newest
        /// first among equal values), same answers from the three range readers —
        /// over duplicate-heavy values, across splits, with earlier clones untouched.
        #[test]
        fn sorted_leaves_match_the_flat_sorted_vector(
            ops in prop::collection::vec(0u32..24, 0..120),
        ) {
            let mut index = SortedIndex::<4>::default();
            let mut model = FlatSorted::default();
            let mut clones = Vec::new();
            for (i, op) in ops.into_iter().enumerate() {
                if op >= 20 {
                    clones.push((index.clone(), model.clone()));
                    continue;
                }
                // Six distinct values: leaves fill with duplicates and split inside runs.
                let value = f64::from(op % 6);
                index.insert(value, RecordId(i as u32));
                model.insert(value, RecordId(i as u32));
            }
            assert_reads_like(&index, &model)?;
            for (index, model) in &clones {
                assert_reads_like(index, model)?;
            }
        }
    }
}
