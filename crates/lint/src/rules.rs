//! The named rules and their per-line checks.
//!
//! Every rule is individually suppressible at a site with
//!
//! ```text
//! // lint: allow(rule-name) — why this site is exempt
//! ```
//!
//! on the offending line or the line above. The reason text after the
//! closing parenthesis is **required**: a bare `allow(...)` does not
//! suppress anything, so every exemption in the tree documents itself.

use crate::lexer::Line;
use std::fmt;

/// A workspace invariant the linter enforces. See each variant's doc for the
/// exact predicate; [`Rule::name`] is the string used in suppressions,
/// fixture markers and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `ordering-justification` — every `Ordering::Relaxed` / `Acquire` /
    /// `Release` / `AcqRel` use needs an adjacent `// ordering:` comment
    /// (same line or within the 4 lines above) arguing why that strength is
    /// sufficient. `SeqCst` needs no argument: it is the conservative default.
    OrderingJustification,
    /// `no-panic` — no `.unwrap()` / `.expect(…)` / `panic!` in non-test
    /// code of the serving hot paths (`crates/core`, `crates/storage`,
    /// `crates/addb`). Errors there must flow through `Result`.
    NoPanic,
    /// `wall-clock` — no `Instant::now` / `SystemTime::now` /
    /// `thread::sleep` outside the injectable-clock implementations: time a
    /// test cannot control is time a test cannot cover.
    WallClock,
    /// `answerset-quality` — every `AnswerSet { … }` literal must set its
    /// `quality` field (or build on another set with `..`): an answer whose
    /// quality is defaulted silently masquerades as complete.
    AnswersetQuality,
    /// `pub-atomic-field` — a `pub` atomic struct field is a concurrency
    /// protocol surface; it must carry a doc comment stating its protocol.
    PubAtomicField,
    /// `hot-path-lock` — no `.lock()` acquisition or `RwLock` use in the hot
    /// *read* path (the files serving `answer*` calls) without an adjacent
    /// `// lock:` comment (same line or within the 4 lines above) justifying
    /// the critical section's O(1) bound. Reads are supposed to go through
    /// the published snapshot (`ArcSwap`), never block on a writer's work —
    /// an unjustified lock here is how that invariant erodes.
    HotPathLock,
    /// `cross-shard-state` — in the answering-core and handle layers,
    /// mutable state visible beyond one call must go through the one blessed
    /// channel: snapshot publication. A `static` item declaration or a
    /// `Mutex::new(…)` / `RwLock::new(…)` construction there needs an
    /// adjacent `// shard:` comment (same line or within the 4 lines above)
    /// arguing why ad-hoc shared state does not break the per-snapshot
    /// consistency bracket.
    CrossShardState,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 7] = [
        Rule::OrderingJustification,
        Rule::NoPanic,
        Rule::WallClock,
        Rule::AnswersetQuality,
        Rule::PubAtomicField,
        Rule::HotPathLock,
        Rule::CrossShardState,
    ];

    /// The rule's kebab-case name, as used in `lint: allow(...)` and
    /// `//~ ERROR ...` markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::OrderingJustification => "ordering-justification",
            Rule::NoPanic => "no-panic",
            Rule::WallClock => "wall-clock",
            Rule::AnswersetQuality => "answerset-quality",
            Rule::PubAtomicField => "pub-atomic-field",
            Rule::HotPathLock => "hot-path-lock",
            Rule::CrossShardState => "cross-shard-state",
        }
    }

    /// Parse a rule name (exact match).
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at one source line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description of the specific site.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Is `pattern` present in `code` starting at a non-identifier boundary?
/// (Plain `contains` would let `dont_panic!` match `panic!`.)
fn matches_word(code: &str, pattern: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(pattern) {
        let at = from + pos;
        let boundary = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        from = at + pattern.len();
    }
    false
}

/// How many lines above a site an `// ordering:` justification may sit.
const ORDERING_LOOKBACK: usize = 4;

/// Check `ordering-justification` at line `idx`.
pub fn check_ordering(lines: &[Line], idx: usize) -> Option<String> {
    const NEEDS_ARGUMENT: [&str; 4] = [
        "Ordering::Relaxed",
        "Ordering::Acquire",
        "Ordering::Release",
        "Ordering::AcqRel",
    ];
    let used: Vec<&str> = NEEDS_ARGUMENT
        .iter()
        .filter(|p| lines[idx].code.contains(*p))
        .copied()
        .collect();
    if used.is_empty() {
        return None;
    }
    let justified = (idx.saturating_sub(ORDERING_LOOKBACK)..=idx)
        .any(|j| lines[j].comment.contains("ordering:"));
    if justified {
        return None;
    }
    Some(format!(
        "{} without an adjacent `// ordering:` justification",
        used.join(" and ")
    ))
}

/// Check `no-panic` at line `idx`.
pub fn check_no_panic(lines: &[Line], idx: usize) -> Option<String> {
    let code = &lines[idx].code;
    let hit = if code.contains(".unwrap()") {
        ".unwrap()"
    } else if code.contains(".expect(") {
        ".expect(…)"
    } else if matches_word(code, "panic!") {
        "panic!"
    } else {
        return None;
    };
    Some(format!(
        "{hit} on a serving hot path — return a Result instead"
    ))
}

/// Check `wall-clock` at line `idx`.
pub fn check_wall_clock(lines: &[Line], idx: usize) -> Option<String> {
    const SOURCES: [&str; 3] = ["Instant::now", "SystemTime::now", "thread::sleep"];
    let code = &lines[idx].code;
    SOURCES
        .iter()
        .find(|p| matches_word(code, p))
        .map(|hit| format!("{hit} outside an injectable-clock module"))
}

/// How many lines above a lock acquisition a `// lock:` justification may sit.
const LOCK_LOOKBACK: usize = 4;

/// Check `hot-path-lock` at line `idx`: a `.lock()` call or `RwLock` use
/// without an adjacent `// lock:` comment bounding the critical section.
pub fn check_hot_path_lock(lines: &[Line], idx: usize) -> Option<String> {
    let code = &lines[idx].code;
    let hit = if code.contains(".lock()") {
        ".lock()"
    } else if matches_word(code, "RwLock") {
        "RwLock"
    } else {
        return None;
    };
    let justified =
        (idx.saturating_sub(LOCK_LOOKBACK)..=idx).any(|j| lines[j].comment.contains("lock:"));
    if justified {
        return None;
    }
    Some(format!(
        "{hit} on the hot read path without an adjacent `// lock:` justification — \
         serve reads from the published snapshot, or argue the critical section is O(1)"
    ))
}

/// How many lines above a site a `// shard:` justification may sit.
const SHARD_LOOKBACK: usize = 4;

/// Does `code` declare a `static` item? The word must not be the `'static`
/// lifetime (the generic word-boundary check treats `'` as a boundary, so it
/// is excluded explicitly) and must be followed by whitespace, as in a
/// declaration — `static NAME: Type`.
fn declares_static_item(code: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find("static") {
        let at = from + pos;
        let before_ok = !code[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '\'');
        let after = &code[at + "static".len()..];
        let after_ok = after.chars().next().is_some_and(char::is_whitespace);
        if before_ok && after_ok {
            return true;
        }
        from = at + "static".len();
    }
    false
}

/// Check `cross-shard-state` at line `idx`: a `static` item declaration or a
/// `Mutex`/`RwLock` construction without an adjacent `// shard:` comment.
pub fn check_cross_shard_state(lines: &[Line], idx: usize) -> Option<String> {
    let code = &lines[idx].code;
    let hit = if declares_static_item(code) {
        "`static` item"
    } else if matches_word(code, "Mutex::new(") {
        "Mutex::new(…)"
    } else if matches_word(code, "RwLock::new(") {
        "RwLock::new(…)"
    } else {
        return None;
    };
    let justified =
        (idx.saturating_sub(SHARD_LOOKBACK)..=idx).any(|j| lines[j].comment.contains("shard:"));
    if justified {
        return None;
    }
    Some(format!(
        "{hit} creates ad-hoc cross-shard state — route coordination through \
         snapshot publication, or argue the site with `// shard:`"
    ))
}

/// Check `pub-atomic-field` at line `idx`: a `pub … : …Atomic…` field whose
/// preceding line carries no doc comment.
pub fn check_pub_atomic_field(lines: &[Line], idx: usize) -> Option<String> {
    let code = lines[idx].code.trim_start();
    let is_pub = code.starts_with("pub ") || code.starts_with("pub(");
    if !is_pub || code.contains("fn ") {
        return None;
    }
    // A field line: `pub name: Type,` — the type must be atomic.
    let colon = code.find(':')?;
    // Skip `pub(crate)`-style visibility paths (`::` inside the parens).
    let after_vis = code.find(')').map_or(0, |p| p + 1);
    if colon < after_vis {
        return None;
    }
    let ty = &code[colon + 1..];
    if !ty.contains("Atomic") {
        return None;
    }
    if lines[idx].has_doc_comment()
        || (idx > 0 && lines[idx - 1].has_doc_comment())
        || code.contains("#[doc")
    {
        return None;
    }
    Some("pub atomic field without a doc comment stating its protocol".to_string())
}

/// Check `answerset-quality` for a literal *opening* at line `idx`: scans
/// forward to the matching close brace and requires a `quality` field or a
/// `..` functional-update base inside.
pub fn check_answerset_quality(lines: &[Line], idx: usize) -> Option<String> {
    let code = &lines[idx].code;
    let at = find_answerset_literal(code)?;
    // The span starts at the literal's `{`.
    let open = code[at..].find('{').map(|p| at + p)?;
    let mut depth = 0i32;
    // Text of the literal at brace depth 1 only: fields of *this* literal,
    // not of anything nested inside a field value.
    let mut top = String::new();
    let mut col = open;
    for (j, line) in lines.iter().enumerate().skip(idx) {
        let body = if j == idx {
            &line.code[col..]
        } else {
            &line.code
        };
        for c in body.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return (!has_quality_field(&top))
                            .then(|| missing_quality_message().to_string());
                    }
                }
                _ if depth == 1 => top.push(c),
                _ => {}
            }
        }
        top.push('\n');
        col = 0;
    }
    // Unterminated literal (end of file) — flag it conservatively.
    (!has_quality_field(&top)).then(|| missing_quality_message().to_string())
}

fn has_quality_field(top: &str) -> bool {
    matches_word(top, "quality") || top.contains("..")
}

fn missing_quality_message() -> &'static str {
    "AnswerSet literal without an explicit `quality` field"
}

/// Position of an `AnswerSet {` literal in `code`, if one opens here.
/// Definitions (`struct AnswerSet`), paths (`AnswerSet::`) and mere type
/// mentions don't count.
fn find_answerset_literal(code: &str) -> Option<usize> {
    if code.contains("struct AnswerSet") || code.contains("impl AnswerSet") {
        return None;
    }
    let mut from = 0;
    while let Some(pos) = code[from..].find("AnswerSet") {
        let at = from + pos;
        let boundary = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':');
        let rest = &code[at + "AnswerSet".len()..];
        // `fn f(...) -> AnswerSet {` is a signature whose body happens to
        // open here, not a literal.
        let is_return_type = code[..at].trim_end().ends_with("->");
        if boundary && !is_return_type && rest.trim_start().starts_with('{') {
            return Some(at);
        }
        from = at + "AnswerSet".len();
    }
    None
}

/// Rules suppressed at line `idx` by `// lint: allow(rule) — reason`
/// comments on this line or the line above. Reason-less allows suppress
/// nothing.
pub fn suppressed_at(lines: &[Line], idx: usize) -> Vec<Rule> {
    let mut rules = Vec::new();
    for line in &lines[idx.saturating_sub(1)..=idx] {
        collect_allows(&line.comment, &mut rules);
    }
    rules
}

fn collect_allows(comment: &str, rules: &mut Vec<Rule>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        rest = &rest[pos + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else { return };
        let name = rest[..close].trim();
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '—', '-', '–', ':'])
            .trim();
        if reason.len() >= 3 {
            if let Some(rule) = Rule::from_name(name) {
                rules.push(rule);
            }
        }
        rest = &rest[close + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn ordering_requires_adjacent_justification() {
        let lines = lex("x.load(Ordering::Relaxed);");
        assert!(check_ordering(&lines, 0).is_some());
        let lines = lex("// ordering: counter, no sync needed\nx.load(Ordering::Relaxed);");
        assert!(check_ordering(&lines, 1).is_none());
        let lines = lex("x.load(Ordering::SeqCst);");
        assert!(check_ordering(&lines, 0).is_none());
    }

    #[test]
    fn no_panic_catches_the_three_forms_only() {
        for bad in ["a.unwrap();", "a.expect(\"m\");", "panic!(\"boom\")"] {
            assert!(check_no_panic(&lex(bad), 0).is_some(), "{bad}");
        }
        for ok in [
            "a.unwrap_or(0);",
            "should_panic!();",
            "a.expect_err(\"m\");",
        ] {
            assert!(check_no_panic(&lex(ok), 0).is_none(), "{ok}");
        }
    }

    #[test]
    fn suppression_requires_a_reason() {
        let lines = lex("a.unwrap(); // lint: allow(no-panic) — startup, config is static");
        assert_eq!(suppressed_at(&lines, 0), vec![Rule::NoPanic]);
        let lines = lex("a.unwrap(); // lint: allow(no-panic)");
        assert!(suppressed_at(&lines, 0).is_empty());
    }

    #[test]
    fn answerset_literal_needs_quality() {
        let src = "let s = AnswerSet {\n    domain,\n    answers,\n};";
        assert!(check_answerset_quality(&lex(src), 0).is_some());
        let src = "let s = AnswerSet {\n    quality: AnswerQuality::Complete,\n};";
        assert!(check_answerset_quality(&lex(src), 0).is_none());
        let src = "let s = AnswerSet { answers, ..base };";
        assert!(check_answerset_quality(&lex(src), 0).is_none());
        assert!(check_answerset_quality(&lex("pub struct AnswerSet {"), 0).is_none());
    }

    #[test]
    fn hot_path_lock_requires_adjacent_justification() {
        let lines = lex("let shard = self.shard(key).lock();");
        assert!(check_hot_path_lock(&lines, 0).is_some());
        let lines = lex("let map = RwLock::new(BTreeMap::new());");
        assert!(check_hot_path_lock(&lines, 0).is_some());
        // Same-line and lookback justifications both clear it.
        let lines = lex("let shard = self.shard(key).lock(); // lock: O(1) Arc clone");
        assert!(check_hot_path_lock(&lines, 0).is_none());
        let lines = lex("// lock: sharded stripe, O(1) critical section\nlet s = m.lock();");
        assert!(check_hot_path_lock(&lines, 1).is_none());
        // Identifier suffixes don't match the RwLock word.
        let lines = lex("let x = NotAnRwLock::new();");
        assert!(check_hot_path_lock(&lines, 0).is_none());
        // try_lock / lock_api idioms aren't the bare `.lock()` pattern.
        let lines = lex("let s = m.try_lock();");
        assert!(check_hot_path_lock(&lines, 0).is_none());
    }

    #[test]
    fn cross_shard_state_requires_adjacent_justification() {
        for bad in [
            "static ROUTES: AtomicU64 = AtomicU64::new(0);",
            "let registry = Mutex::new(Vec::new());",
            "let stripes = std::sync::RwLock::new(0u64);",
        ] {
            assert!(check_cross_shard_state(&lex(bad), 0).is_some(), "{bad}");
        }
        // `'static` lifetimes and mere type mentions are not shared state.
        for ok in [
            "fn label() -> &'static str { \"shard\" }",
            "fn take(m: &Mutex<u64>) {}",
            "let guard = m.lock();",
        ] {
            assert!(check_cross_shard_state(&lex(ok), 0).is_none(), "{ok}");
        }
        // Same-line and lookback `// shard:` justifications both clear it.
        let lines = lex("let t = Mutex::new(Bound::start()); // shard: one WAND threshold");
        assert!(check_cross_shard_state(&lines, 0).is_none());
        let lines =
            lex("// shard: stripes are per-shard, never cross-shard\nlet s = RwLock::new(0);");
        assert!(check_cross_shard_state(&lines, 1).is_none());
    }

    #[test]
    fn pub_atomic_field_needs_docs() {
        let src = "pub hits: AtomicU64,";
        assert!(check_pub_atomic_field(&lex(src), 0).is_some());
        let src = "/// Monotone hit counter; written with Relaxed.\npub hits: AtomicU64,";
        assert!(check_pub_atomic_field(&lex(src), 1).is_none());
        assert!(check_pub_atomic_field(&lex("hits: AtomicU64,"), 0).is_none());
        assert!(check_pub_atomic_field(&lex("pub fn hits() -> &AtomicU64 {"), 0).is_none());
    }
}
