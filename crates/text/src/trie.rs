//! Keyword trie (Sections 4.1.3, 4.1.4, 4.2.1).
//!
//! CQAds builds one trie per ads domain. Each node holds one character (its *value*);
//! the concatenation of the values along the path from the root is the node's *label*.
//! Nodes whose label is a recognized keyword carry an *identifier* — in this crate a
//! generic payload `T`, which the CQAds core instantiates with the tag from the
//! identifiers table (Table 1 of the paper).
//!
//! Three operations drive the question-processing pipeline:
//!
//! * [`Trie::lookup`] — exact keyword recognition (stand-alone keywords),
//! * [`Trie::longest_prefix`] — recognize a keyword that is a prefix of the remaining
//!   input, which is how missing spaces are repaired ("Hondaaccord" → "honda" +
//!   "accord", Section 4.2.1),
//! * [`Trie::alternatives_from`] — enumerate the keywords sharing the longest matched
//!   prefix with a misspelled word so that the spelling corrector can pick the one with
//!   the highest `similar_text` percentage.

use std::collections::BTreeMap;

/// A node in the trie. Children are keyed by character; a node may carry a payload if
/// its label is a recognized keyword.
#[derive(Debug, Clone)]
struct Node<T> {
    children: BTreeMap<char, Node<T>>,
    payload: Option<T>,
}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Node {
            children: BTreeMap::new(),
            payload: None,
        }
    }
}

/// A keyword trie with payloads of type `T` on recognized keywords.
#[derive(Debug, Clone)]
pub struct Trie<T> {
    root: Node<T>,
    len: usize,
}

impl<T> Default for Trie<T> {
    fn default() -> Self {
        Trie {
            root: Node::default(),
            len: 0,
        }
    }
}

/// Result of a longest-prefix walk.
#[derive(Debug, Clone, PartialEq)]
pub struct TrieMatch<'a, T> {
    /// The keyword that was matched (a prefix of the probe).
    pub keyword: String,
    /// Payload stored on the matched keyword.
    pub payload: &'a T,
    /// Number of characters of the probe that were consumed.
    pub consumed: usize,
}

impl<T> Trie<T> {
    /// Create an empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keywords stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no keyword is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a keyword with its payload. Keywords are stored lowercase. Re-inserting a
    /// keyword replaces its payload.
    pub fn insert(&mut self, keyword: &str, payload: T) {
        let keyword = keyword.to_lowercase();
        let mut node = &mut self.root;
        for ch in keyword.chars() {
            node = node.children.entry(ch).or_default();
        }
        if node.payload.is_none() {
            self.len += 1;
        }
        node.payload = Some(payload);
    }

    /// Exact lookup of a keyword.
    pub fn lookup(&self, keyword: &str) -> Option<&T> {
        let keyword = keyword.to_lowercase();
        let mut node = &self.root;
        for ch in keyword.chars() {
            node = node.children.get(&ch)?;
        }
        node.payload.as_ref()
    }

    /// True if `prefix` is the prefix of at least one stored keyword.
    pub fn has_prefix(&self, prefix: &str) -> bool {
        let prefix = prefix.to_lowercase();
        let mut node = &self.root;
        for ch in prefix.chars() {
            match node.children.get(&ch) {
                Some(n) => node = n,
                None => return false,
            }
        }
        true
    }

    /// Longest stored keyword that is a prefix of `probe`. Used to split run-together
    /// keywords: parsing "hondaaccord" first matches "honda" (consuming 5 characters)
    /// and the caller re-enters with the remainder "accord".
    pub fn longest_prefix<'a>(&'a self, probe: &str) -> Option<TrieMatch<'a, T>> {
        let probe = probe.to_lowercase();
        let mut node = &self.root;
        let mut best: Option<(usize, &T)> = None;
        let mut consumed = 0;
        for ch in probe.chars() {
            match node.children.get(&ch) {
                Some(next) => {
                    node = next;
                    consumed += 1;
                    if let Some(p) = &node.payload {
                        best = Some((consumed, p));
                    }
                }
                None => break,
            }
        }
        best.map(|(consumed, payload)| TrieMatch {
            keyword: probe.chars().take(consumed).collect(),
            payload,
            consumed,
        })
    }

    /// Depth (in characters) of the longest path of `probe` that exists in the trie,
    /// whether or not it ends at a keyword. This is "the current node in the trie where
    /// the misspelled word is encountered" of Section 4.2.1.
    pub fn matched_depth(&self, probe: &str) -> usize {
        let probe = probe.to_lowercase();
        let mut node = &self.root;
        let mut depth = 0;
        for ch in probe.chars() {
            match node.children.get(&ch) {
                Some(next) => {
                    node = next;
                    depth += 1;
                }
                None => break,
            }
        }
        depth
    }

    /// All keywords that start with the first `prefix_len` characters of `probe` —
    /// the "alternative keywords recognized by the trie, starting from the current node"
    /// that the spelling corrector compares against a misspelled word.
    pub fn alternatives_from(&self, probe: &str, prefix_len: usize) -> Vec<(String, &T)> {
        let probe = probe.to_lowercase();
        let prefix: String = probe.chars().take(prefix_len).collect();
        let mut node = &self.root;
        for ch in prefix.chars() {
            match node.children.get(&ch) {
                Some(next) => node = next,
                None => return Vec::new(),
            }
        }
        let mut out = Vec::new();
        collect(node, prefix, &mut out);
        out
    }

    /// All keywords stored in the trie with their payloads, in lexicographic order.
    pub fn keywords(&self) -> Vec<(String, &T)> {
        let mut out = Vec::new();
        collect(&self.root, String::new(), &mut out);
        out
    }

    /// Approximate memory footprint in bytes (node count × per-node overhead); the paper
    /// notes each domain trie stays under 50 MB.
    pub fn approx_size_bytes(&self) -> usize {
        fn count<T>(node: &Node<T>) -> usize {
            1 + node.children.values().map(count).sum::<usize>()
        }
        count(&self.root) * (std::mem::size_of::<char>() + 2 * std::mem::size_of::<usize>())
    }
}

fn collect<'a, T>(node: &'a Node<T>, label: String, out: &mut Vec<(String, &'a T)>) {
    if let Some(p) = &node.payload {
        out.push((label.clone(), p));
    }
    for (ch, child) in &node.children {
        let mut next = label.clone();
        next.push(*ch);
        collect(child, next, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn car_trie() -> Trie<&'static str> {
        let mut t = Trie::new();
        t.insert("honda", "make");
        t.insert("accord", "model");
        t.insert("civic", "model");
        t.insert("accent", "model");
        t.insert("automatic", "transmission");
        t.insert("auto", "transmission");
        t.insert("blue", "color");
        t
    }

    #[test]
    fn exact_lookup_and_len() {
        let t = car_trie();
        assert_eq!(t.len(), 7);
        assert!(!t.is_empty());
        assert_eq!(t.lookup("honda"), Some(&"make"));
        assert_eq!(t.lookup("HONDA"), Some(&"make"));
        assert_eq!(t.lookup("hond"), None);
        assert_eq!(t.lookup("mazda"), None);
        assert_eq!(Trie::<u8>::new().lookup("x"), None);
    }

    #[test]
    fn reinsert_replaces_payload_without_growing() {
        let mut t = car_trie();
        t.insert("blue", "colour");
        assert_eq!(t.len(), 7);
        assert_eq!(t.lookup("blue"), Some(&"colour"));
    }

    #[test]
    fn longest_prefix_splits_run_together_keywords() {
        let t = car_trie();
        // "hondaaccord" (missing space, Section 4.2.1)
        let m = t.longest_prefix("hondaaccord").unwrap();
        assert_eq!(m.keyword, "honda");
        assert_eq!(m.consumed, 5);
        assert_eq!(*m.payload, "make");
        let rest = &"hondaaccord"[m.consumed..];
        let m2 = t.longest_prefix(rest).unwrap();
        assert_eq!(m2.keyword, "accord");
        // Prefers the longest keyword: "automatic" over "auto".
        let m = t.longest_prefix("automatic transmission").unwrap();
        assert_eq!(m.keyword, "automatic");
        assert!(t.longest_prefix("zzz").is_none());
    }

    #[test]
    fn matched_depth_and_prefix_checks() {
        let t = car_trie();
        assert_eq!(t.matched_depth("accord"), 6);
        assert_eq!(t.matched_depth("accorr"), 5); // diverges at the final character
        assert_eq!(t.matched_depth("xyz"), 0);
        assert!(t.has_prefix("acc"));
        assert!(t.has_prefix(""));
        assert!(!t.has_prefix("xyz"));
    }

    #[test]
    fn alternatives_share_the_matched_prefix() {
        let t = car_trie();
        let depth = t.matched_depth("accorr");
        let alts = t.alternatives_from("accorr", depth);
        let words: Vec<_> = alts.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(words, vec!["accord"]);
        // From a shorter prefix both "accord" and "accent" are alternatives.
        let alts = t.alternatives_from("acc", 3);
        let words: Vec<_> = alts.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(words, vec!["accent", "accord"]);
        assert!(t.alternatives_from("zzz", 3).is_empty());
    }

    #[test]
    fn keywords_enumerates_everything_sorted() {
        let t = car_trie();
        let words: Vec<_> = t.keywords().into_iter().map(|(w, _)| w).collect();
        assert_eq!(
            words,
            vec![
                "accent",
                "accord",
                "auto",
                "automatic",
                "blue",
                "civic",
                "honda"
            ]
        );
        assert!(t.approx_size_bytes() > 0);
    }

    proptest! {
        #[test]
        fn inserted_keywords_are_always_found(words in proptest::collection::hash_set("[a-z]{1,10}", 1..20)) {
            let mut t = Trie::new();
            for (i, w) in words.iter().enumerate() {
                t.insert(w, i);
            }
            prop_assert_eq!(t.len(), words.len());
            for w in &words {
                prop_assert!(t.lookup(w).is_some());
                prop_assert!(t.has_prefix(w));
                let m = t.longest_prefix(w).unwrap();
                prop_assert!(m.consumed <= w.len());
            }
            let enumerated = t.keywords();
            prop_assert_eq!(enumerated.len(), words.len());
        }

        #[test]
        fn longest_prefix_consumes_at_most_probe_length(probe in "[a-z]{0,15}") {
            let t = car_trie();
            if let Some(m) = t.longest_prefix(&probe) {
                prop_assert!(m.consumed <= probe.len());
                prop_assert!(probe.starts_with(&m.keyword));
            }
        }
    }
}
