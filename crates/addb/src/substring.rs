//! Length-3 substring index.
//!
//! Section 4.5 of the paper: *"We have implemented a primary MySQL substring index of
//! length 3 on all the attributes of different ads domains ... Substring indexes are
//! shorter than their corresponding entire column values, require less disk storage,
//! and hold more keys in the cache memory for searching."*
//!
//! MySQL prefix indexes of length 3 map the first three characters of a column value to
//! the rows holding it. This module generalizes that slightly: every categorical value
//! is indexed both under its 3-character *prefix* (the MySQL behaviour) and under every
//! 3-character window (trigram), which is what the CQAds implementation needs for the
//! substring matching it uses "to speed up the process of retrieving answers" (item (iv)
//! in the introduction).
//!
//! The index is over the **distinct values** of an attribute, not over its records: a
//! key posts the *slots* of the values containing it, a slot being the value's position
//! in the attribute's value directory ([`crate::table::ValueIndex::entry`]), whose
//! posting list then names the records. Trigrams are a function of the value, an ads
//! column holds a few dozen distinct values under tens of thousands of records, and
//! the index is written only when a value is seen for the first time. Lookups return
//! candidate slots that still need to be verified against the full value, exactly as a
//! prefix index behaves.

use std::collections::HashMap;

/// Length of the indexed substring keys (the paper uses 3).
pub const SUBSTRING_KEY_LEN: usize = 3;

/// Inverted index from 3-character keys to value slots, per attribute. Slot lists are
/// ascending: slots are handed out in first-seen order and indexed once.
#[derive(Debug, Clone, Default)]
pub struct SubstringIndex {
    /// attribute -> trigram -> value slots
    map: HashMap<String, HashMap<String, Vec<u32>>>,
    /// attribute -> prefix (first 3 chars) -> value slots
    prefixes: HashMap<String, HashMap<String, Vec<u32>>>,
}

impl SubstringIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index a distinct categorical value of `attribute` under its directory `slot`
    /// (slots of one attribute must arrive in ascending order).
    pub fn insert(&mut self, attribute: &str, value: &str, slot: u32) {
        let attribute = attribute.to_lowercase();
        let value = value.to_lowercase();
        let post = |slots: &mut Vec<u32>| {
            debug_assert!(slots.last().is_none_or(|last| *last <= slot));
            // A value repeating a trigram ("aaaa") posts its slot once.
            if slots.last() != Some(&slot) {
                slots.push(slot);
            }
        };
        post(
            self.prefixes
                .entry(attribute.clone())
                .or_default()
                .entry(key_prefix(&value))
                .or_default(),
        );
        let grams = self.map.entry(attribute).or_default();
        for g in trigrams(&value) {
            post(grams.entry(g).or_default());
        }
    }

    /// Candidate values (ascending slots) of `attribute` that start with the same
    /// 3-character prefix as `value`. This mirrors a MySQL `INDEX (col(3))` lookup.
    pub fn prefix_candidates(&self, attribute: &str, value: &str) -> Vec<u32> {
        let value = value.to_lowercase();
        self.prefixes
            .get(&attribute.to_lowercase())
            .and_then(|m| m.get(&key_prefix(&value)))
            .cloned()
            .unwrap_or_default()
    }

    /// Candidate values (ascending slots) of `attribute` that share *all* trigrams of
    /// `value` (substring containment pre-filter). If the probe is shorter than 3
    /// characters the prefix map is used instead.
    pub fn substring_candidates(&self, attribute: &str, value: &str) -> Vec<u32> {
        let value = value.to_lowercase();
        let grams: Vec<String> = trigrams(&value).collect();
        if grams.is_empty() {
            return self.prefix_candidates(attribute, &value);
        }
        let Some(per_attr) = self.map.get(&attribute.to_lowercase()) else {
            return Vec::new();
        };
        let mut iter = grams.iter();
        let mut acc = match iter.next().and_then(|g| per_attr.get(g)) {
            Some(slots) => slots.clone(),
            None => return Vec::new(),
        };
        for g in iter {
            match per_attr.get(g) {
                Some(slots) => acc.retain(|slot| slots.binary_search(slot).is_ok()),
                None => return Vec::new(),
            }
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// Number of indexed attributes.
    pub fn attribute_count(&self) -> usize {
        self.map.len()
    }

    /// Total number of trigram postings (size accounting).
    pub fn posting_count(&self) -> usize {
        self.map
            .values()
            .flat_map(|m| m.values())
            .map(|s| s.len())
            .sum()
    }
}

fn key_prefix(value: &str) -> String {
    value.chars().take(SUBSTRING_KEY_LEN).collect()
}

/// Iterator over the 3-character windows of a value (whitespace included, matching how a
/// prefix index treats the raw column bytes).
fn trigrams(value: &str) -> impl Iterator<Item = String> + '_ {
    let chars: Vec<char> = value.chars().collect();
    let n = chars.len();
    (0..n.saturating_sub(SUBSTRING_KEY_LEN - 1)).map(move |i| {
        chars[i..(i + SUBSTRING_KEY_LEN).min(n)]
            .iter()
            .collect::<String>()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prefix_lookup_matches_first_three_chars() {
        let mut idx = SubstringIndex::new();
        idx.insert("model", "accord", 1);
        idx.insert("model", "accent", 2);
        idx.insert("model", "civic", 3);
        let c = idx.prefix_candidates("model", "accord");
        assert!(c.contains(&1) && c.contains(&2) && !c.contains(&3));
    }

    #[test]
    fn substring_lookup_requires_all_trigrams() {
        let mut idx = SubstringIndex::new();
        idx.insert("model", "accord", 1);
        idx.insert("model", "corolla", 2);
        // "cor" appears in both accord and corolla.
        let c = idx.substring_candidates("model", "cor");
        assert!(c.contains(&1) && c.contains(&2));
        // "coro" only in corolla.
        let c = idx.substring_candidates("model", "coro");
        assert!(!c.contains(&1) && c.contains(&2));
        // unrelated probe
        assert!(idx.substring_candidates("model", "mustang").is_empty());
    }

    #[test]
    fn short_probe_falls_back_to_prefix() {
        let mut idx = SubstringIndex::new();
        idx.insert("color", "red", 4);
        // Probe shorter than 3 characters: falls back to prefix map, which stores the
        // full first-3 key, so a 2-character probe matches nothing (same as MySQL).
        assert!(idx.substring_candidates("color", "re").is_empty());
        assert!(idx.substring_candidates("color", "red").contains(&4));
    }

    #[test]
    fn missing_attribute_returns_empty() {
        let idx = SubstringIndex::new();
        assert!(idx.prefix_candidates("model", "accord").is_empty());
        assert!(idx.substring_candidates("model", "accord").is_empty());
    }

    #[test]
    fn counts_reflect_inserts() {
        let mut idx = SubstringIndex::new();
        idx.insert("model", "accord", 1);
        idx.insert("color", "blue", 1);
        assert_eq!(idx.attribute_count(), 2);
        assert!(idx.posting_count() >= 4);
    }

    proptest! {
        /// Every value is findable via its own substring lookup (no false negatives).
        #[test]
        fn indexed_value_is_always_a_candidate(value in "[a-z]{3,12}", n in 0u32..100) {
            let mut idx = SubstringIndex::new();
            idx.insert("attr", &value, n);
            prop_assert!(idx.substring_candidates("attr", &value).contains(&n));
            prop_assert!(idx.prefix_candidates("attr", &value).contains(&n));
        }

        /// Substring candidates are a superset of exact matches for any probe that is a
        /// substring of the stored value.
        #[test]
        fn substring_probe_finds_container(value in "[a-z]{5,12}", start in 0usize..3, len in 3usize..5) {
            let mut idx = SubstringIndex::new();
            idx.insert("attr", &value, 1);
            let end = (start + len).min(value.len());
            if end > start && end - start >= 3 {
                let probe = &value[start..end];
                prop_assert!(idx.substring_candidates("attr", probe).contains(&1));
            }
        }
    }
}
