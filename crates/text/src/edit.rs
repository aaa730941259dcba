//! Levenshtein edit distance.
//!
//! The CQAds spelling corrector does not use it: it ranks alternative keywords by
//! `similar_text` percentage alone, and the first in trie order wins a tie. It is kept
//! as an independent check for tests, e.g. that a generated misspelling stays within
//! two edits of the word it came from.

/// Classic dynamic-programming Levenshtein distance (insertions, deletions,
/// substitutions all cost 1). Runs in `O(|a| * |b|)` time and `O(min(|a|, |b|))` space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr = vec![0usize; short.len() + 1];
    for (i, lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn textbook_examples() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn ads_typo_examples() {
        assert_eq!(levenshtein("accorr", "accord"), 1);
        assert_eq!(levenshtein("hondaaccord", "honda accord"), 1);
        assert!(levenshtein("accorr", "camry") > levenshtein("accorr", "accord"));
    }

    proptest! {
        #[test]
        fn distance_is_a_metric(a in "[a-z]{0,10}", b in "[a-z]{0,10}", c in "[a-z]{0,10}") {
            let ab = levenshtein(&a, &b);
            let ba = levenshtein(&b, &a);
            prop_assert_eq!(ab, ba); // symmetry
            prop_assert_eq!(levenshtein(&a, &a), 0); // identity
            // triangle inequality
            prop_assert!(levenshtein(&a, &c) <= ab + levenshtein(&b, &c));
        }

        #[test]
        fn bounded_by_longer_length(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            let d = levenshtein(&a, &b);
            prop_assert!(d <= a.len().max(b.len()));
            prop_assert!(d >= a.len().abs_diff(b.len()));
        }
    }
}
