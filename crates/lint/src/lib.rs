//! # cqads-lint — the workspace invariant linter
//!
//! A small, dependency-free static checker for the invariants this workspace
//! cares about but `rustc`/`clippy` cannot express: atomic-ordering
//! justifications, panic-free serving hot paths, injectable time, explicit
//! answer quality and documented atomic protocol surfaces. See [`Rule`] for
//! the rule catalogue and `crates/lint/fixtures/` for golden files each rule
//! must flag (the linter is self-tested against them).
//!
//! Entry points: [`lint_workspace`] walks the repo and applies each rule in
//! its path scope ([`rules_for_path`]); [`lint_fixture`] applies **every**
//! rule to one file (fixtures stand in for hot-path code wherever they
//! live); `cargo xtask lint` is the CLI over both.
//!
//! The checker is a hand-rolled lexer plus line rules — not a parser. It is
//! deliberately conservative: patterns inside strings/comments never match
//! ([`lexer`]), test code is exempted by a brace-tracking `#[cfg(test)]`
//! mask, and any false positive can be silenced *with a written reason* via
//! `// lint: allow(rule) — reason`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

pub use rules::{Rule, Violation};

use lexer::{lex, test_mask};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Which rules apply to a file, as decided by [`rules_for_path`].
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// Every rule — the fixture scope.
    pub fn all() -> Self {
        RuleSet {
            rules: Rule::ALL.to_vec(),
        }
    }

    /// No rules (file out of scope).
    pub fn empty() -> Self {
        RuleSet::default()
    }

    fn with(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Does this set contain `rule`?
    pub fn contains(&self, rule: Rule) -> bool {
        self.rules.contains(&rule)
    }

    /// Is this set empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// The rules that apply to a workspace-relative path.
///
/// * Everything under `crates/*/src` and the root `src/` is production code:
///   ordering justifications, wall-clock bans, answer-quality and
///   atomic-field docs apply.
/// * `no-panic` additionally applies on the serving hot paths —
///   `crates/core`, `crates/storage` and `crates/addb` sources.
/// * `hot-path-lock` additionally applies to the hot *read* path — the
///   `crates/core` files that serve `answer*` calls ([`HOT_READ_PATH`]):
///   reads there go through the published snapshot, so every residual lock
///   acquisition must justify its O(1) critical section with `// lock:`.
/// * `cross-shard-state` additionally applies to the sharding and handle
///   layers ([`CROSS_SHARD_SCOPE`]): cross-shard coordination goes through
///   a `SharedThreshold` or snapshot publication, so any `static` item or
///   `Mutex`/`RwLock` construction there must argue itself with `// shard:`.
/// * Test trees (`tests/`), examples, generated `target/`, vendored code
///   and the lint fixtures are out of scope; the `#[cfg(test)]` mask
///   exempts inline test modules inside scoped files.
pub fn rules_for_path(rel: &Path) -> RuleSet {
    let p = rel.to_string_lossy().replace('\\', "/");
    let out_of_scope = ["vendor/", "target/", "crates/lint/fixtures/"];
    if out_of_scope.iter().any(|d| p.starts_with(d)) || !p.ends_with(".rs") {
        return RuleSet::empty();
    }
    let in_crate_src = (p.starts_with("crates/") && p.contains("/src/")) || p.starts_with("src/");
    if !in_crate_src {
        return RuleSet::empty();
    }
    let mut set = RuleSet::empty()
        .with(Rule::OrderingJustification)
        .with(Rule::WallClock)
        .with(Rule::AnswersetQuality)
        .with(Rule::PubAtomicField);
    let hot_path = [
        "crates/core/src/",
        "crates/storage/src/",
        "crates/addb/src/",
    ];
    if hot_path.iter().any(|d| p.starts_with(d)) {
        set = set.with(Rule::NoPanic);
    }
    if HOT_READ_PATH.contains(&p.as_str()) {
        set = set.with(Rule::HotPathLock);
    }
    if CROSS_SHARD_SCOPE.contains(&p.as_str()) {
        set = set.with(Rule::CrossShardState);
    }
    set
}

/// The files on the hot *read* path: everything an `answer`/`answer_batch`
/// call touches between loading the published snapshot and returning. The
/// `hot-path-lock` rule holds these to the wait-free-reads invariant
/// (ARCHITECTURE.md #8) — any lock acquired here must argue its O(1) bound.
pub const HOT_READ_PATH: [&str; 7] = [
    "crates/core/src/cache.rs",
    "crates/core/src/handle.rs",
    "crates/core/src/partial.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/ranking.rs",
    "crates/core/src/resilience.rs",
    "crates/core/src/shard.rs",
];

/// The files where cross-shard mutable state can appear: the sharding layer
/// itself and the handle layer its scatter path is built on. The
/// `cross-shard-state` rule holds these to the sharded-serving invariant
/// (ARCHITECTURE.md #9) — coordination between shards goes through a
/// `SharedThreshold` or snapshot publication, and any ad-hoc `static` or
/// `Mutex`/`RwLock` construction must argue itself with `// shard:`.
pub const CROSS_SHARD_SCOPE: [&str; 2] = ["crates/core/src/handle.rs", "crates/core/src/shard.rs"];

/// Lint one file's source under a rule scope. `path` is only used for
/// reporting.
pub fn lint_source(path: &str, source: &str, scope: &RuleSet) -> Vec<Violation> {
    if scope.is_empty() {
        return Vec::new();
    }
    let lines = lex(source);
    let tests = test_mask(&lines);
    let mut out = Vec::new();
    for idx in 0..lines.len() {
        if tests[idx] || !lines[idx].has_code() {
            continue;
        }
        let suppressed = rules::suppressed_at(&lines, idx);
        let mut push = |rule: Rule, message: Option<String>| {
            if let Some(message) = message {
                if scope.contains(rule) && !suppressed.contains(&rule) {
                    out.push(Violation {
                        path: path.to_string(),
                        line: lines[idx].number,
                        rule,
                        message,
                    });
                }
            }
        };
        push(
            Rule::OrderingJustification,
            rules::check_ordering(&lines, idx),
        );
        push(Rule::NoPanic, rules::check_no_panic(&lines, idx));
        push(Rule::WallClock, rules::check_wall_clock(&lines, idx));
        push(
            Rule::AnswersetQuality,
            rules::check_answerset_quality(&lines, idx),
        );
        push(
            Rule::PubAtomicField,
            rules::check_pub_atomic_field(&lines, idx),
        );
        push(Rule::HotPathLock, rules::check_hot_path_lock(&lines, idx));
        push(
            Rule::CrossShardState,
            rules::check_cross_shard_state(&lines, idx),
        );
    }
    out
}

/// Lint a fixture (or any explicit file) with **every** rule; the
/// `#[cfg(test)]` mask still applies, path scoping does not.
pub fn lint_fixture(path: &str, source: &str) -> Vec<Violation> {
    lint_source(path, source, &RuleSet::all())
}

/// Walk the workspace rooted at `root` and lint every in-scope file.
/// Violations come back sorted by path then line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        let scope = rules_for_path(&rel);
        if scope.is_empty() {
            continue;
        }
        let source = std::fs::read_to_string(root.join(&rel))?;
        out.extend(lint_source(&rel.to_string_lossy(), &source, &scope));
    }
    Ok(out)
}

/// Directories never worth descending into.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "node_modules"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// An expectation parsed from a fixture `//~ ERROR rule-name` marker
/// (`//~^` points at the line above, one `^` per line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Expected {
    /// 1-based line the violation must be reported on.
    pub line: usize,
    /// The rule that must fire there.
    pub rule: Rule,
}

/// Parse a fixture's `//~ ERROR` markers into expectations.
///
/// # Panics
///
/// On a malformed marker (unknown rule name, missing `ERROR`) — fixtures are
/// part of the linter's own test suite, so a bad marker is a bug here.
pub fn expected_fixture_errors(source: &str) -> Vec<Expected> {
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        let marker = &line[pos + 3..];
        let carets = marker.chars().take_while(|&c| c == '^').count();
        let rest = marker[carets..].trim_start();
        let rest = rest
            .strip_prefix("ERROR")
            .unwrap_or_else(|| panic!("malformed fixture marker on line {}: {line}", idx + 1));
        let name = rest.split_whitespace().next().unwrap_or_default();
        let rule = Rule::from_name(name)
            .unwrap_or_else(|| panic!("unknown rule `{name}` in fixture marker: {line}"));
        out.push(Expected {
            line: idx + 1 - carets,
            rule,
        });
    }
    out
}

/// Compare a fixture's actual violations against its markers; `Err` holds a
/// human-readable diff. Both sides are treated as sets of `(line, rule)`.
pub fn verify_fixture(path: &str, source: &str) -> Result<usize, String> {
    let expected: BTreeSet<Expected> = expected_fixture_errors(source).into_iter().collect();
    let actual: BTreeSet<Expected> = lint_fixture(path, source)
        .iter()
        .map(|v| Expected {
            line: v.line,
            rule: v.rule,
        })
        .collect();
    if expected == actual {
        return Ok(actual.len());
    }
    let mut diff = String::new();
    for miss in expected.difference(&actual) {
        diff.push_str(&format!(
            "{path}:{}: expected [{}] but the linter stayed quiet\n",
            miss.line, miss.rule
        ));
    }
    for extra in actual.difference(&expected) {
        diff.push_str(&format!(
            "{path}:{}: unexpected [{}] (no //~ marker)\n",
            extra.line, extra.rule
        ));
    }
    Err(diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_matches_the_tree_layout() {
        assert!(rules_for_path(Path::new("crates/core/src/cache.rs")).contains(Rule::NoPanic));
        assert!(rules_for_path(Path::new("crates/core/src/cache.rs")).contains(Rule::HotPathLock));
        assert!(rules_for_path(Path::new("crates/core/src/handle.rs")).contains(Rule::HotPathLock));
        assert!(rules_for_path(Path::new("crates/core/src/shard.rs")).contains(Rule::HotPathLock));
        assert!(
            rules_for_path(Path::new("crates/core/src/shard.rs")).contains(Rule::CrossShardState)
        );
        assert!(
            rules_for_path(Path::new("crates/core/src/handle.rs")).contains(Rule::CrossShardState)
        );
        assert!(
            !rules_for_path(Path::new("crates/core/src/cache.rs")).contains(Rule::CrossShardState),
            "the serving cache is per-system state, not cross-shard coordination"
        );
        assert!(
            !rules_for_path(Path::new("crates/core/src/storage.rs")).contains(Rule::HotPathLock),
            "the write/recovery path may lock freely"
        );
        assert!(
            !rules_for_path(Path::new("crates/eval/src/main.rs")).contains(Rule::NoPanic),
            "eval is not a hot path"
        );
        assert!(rules_for_path(Path::new("crates/eval/src/main.rs")).contains(Rule::WallClock));
        assert!(rules_for_path(Path::new("tests/serving_cache.rs")).is_empty());
        assert!(rules_for_path(Path::new("vendor/miniloom/src/lib.rs")).is_empty());
        assert!(rules_for_path(Path::new("crates/lint/fixtures/no_panic.rs")).is_empty());
    }

    #[test]
    fn lint_source_respects_suppressions_and_test_mask() {
        let src = "\
fn hot() {
    let v = x.lock().unwrap();
}
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
";
        let scope = rules_for_path(Path::new("crates/core/src/foo.rs"));
        let violations = lint_source("foo.rs", src, &scope);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].line, 2);
        let suppressed = src.replace(
            "x.lock().unwrap();",
            "x.lock().unwrap(); // lint: allow(no-panic) — lock poisoning is fatal by design",
        );
        assert!(lint_source("foo.rs", &suppressed, &scope).is_empty());
    }

    #[test]
    fn fixture_markers_round_trip() {
        let src = "\
fn f() {
    a.unwrap(); //~ ERROR no-panic
    b.load(Ordering::Relaxed);
    //~^ ERROR ordering-justification
}
";
        let expected = expected_fixture_errors(src);
        assert_eq!(expected.len(), 2);
        assert_eq!(expected[0].line, 2);
        assert_eq!(expected[1].line, 3);
        verify_fixture("fixture.rs", src).expect("fixture should verify");
    }
}
