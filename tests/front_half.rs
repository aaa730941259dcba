//! The front half of an ask — tokenize, spell and missing-space repair, tagging,
//! shorthand resolution and classification — against hostile input, and the tagger's
//! shorthand resolution against the per-value scan it replaced.
//!
//! The fuzz properties drive every stage by hand (`tokenize` → `correct_word` /
//! `split_keywords` → `Tagger::tag` → `classify`) and then the whole pipeline
//! (`AnswerRequest::get`), over an eight-domain system with a trained classifier. The
//! inputs are long questions, arbitrary Unicode, shorthand storms, tie floods and
//! run-together keyword chains. Every stage must return without panicking, within a
//! generous time bound, and every ask must end in a typed error or an answer whose
//! quality says what it is.

use cqads_suite::classifier::LabelledDoc;
use cqads_suite::cqads::domain::toy_car_domain;
use cqads_suite::cqads::spell::{correct_word, split_keywords, Correction};
use cqads_suite::cqads::{
    Clock, CqadsError, CqadsSystem, DomainSpec, RealClock, TaggedToken, Tagger,
};
use cqads_suite::datagen::{all_blueprints, generate_questions, generate_table, QuestionMix};
use cqads_suite::querylog::TIMatrix;
use cqads_suite::text::{shorthand_related, tokenize};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::OnceLock;

/// One question's whole front half and ask, generously bounded: a regression to
/// exponential work in the recursion or the relaxations shows up as seconds, not
/// milliseconds, even in a debug build on a busy host.
const PER_QUESTION_MICROS: u64 = 5_000_000;

/// Every blueprint domain at 60 records, with a classifier trained on 40 plain
/// questions per domain.
fn system() -> &'static CqadsSystem {
    static SYSTEM: OnceLock<CqadsSystem> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let mut system = CqadsSystem::new();
        let mut docs = Vec::new();
        for bp in all_blueprints() {
            system.add_domain(
                bp.to_spec(),
                generate_table(&bp, 60, 91),
                TIMatrix::default(),
            );
            let table = system.database().table(bp.name).unwrap();
            for q in generate_questions(&bp, table, 40, 92, &QuestionMix::plain_only()) {
                docs.push(LabelledDoc::from_text(bp.name, &q.text));
            }
        }
        system.train_classifier(&docs);
        system
    })
}

/// The toy car domain and the eight blueprint domains, each with its tagger.
fn domains() -> &'static [(DomainSpec, Tagger)] {
    static DOMAINS: OnceLock<Vec<(DomainSpec, Tagger)>> = OnceLock::new();
    DOMAINS.get_or_init(|| {
        std::iter::once(toy_car_domain())
            .chain(all_blueprints().iter().map(|bp| bp.to_spec()))
            .map(|spec| {
                let tagger = Tagger::new(&spec);
                (spec, tagger)
            })
            .collect()
    })
}

/// A domain's known Type I values, then its Type II values.
fn known_values(spec: &DomainSpec) -> Vec<&String> {
    spec.type1_values
        .keys()
        .chain(spec.type2_values.keys())
        .collect()
}

/// Every known Type I/II value of every domain, deduplicated, in a fixed order.
fn all_values() -> &'static [String] {
    static VALUES: OnceLock<Vec<String>> = OnceLock::new();
    VALUES.get_or_init(|| {
        let mut values: Vec<String> = domains()
            .iter()
            .flat_map(|(spec, _)| known_values(spec))
            .cloned()
            .collect();
        values.sort();
        values.dedup();
        values
    })
}

/// The per-value scan `Tagger::match_shorthand` replaced, kept as its reference:
/// every Type I then Type II value, each re-canonicalized by `shorthand_related`
/// for every token; the shortest related value wins and the first wins a tie.
fn reference_match_shorthand(spec: &DomainSpec, token: &str) -> Option<TaggedToken> {
    let candidates = spec
        .type1_values
        .iter()
        .map(|(v, a)| (v.as_str(), a.as_str(), true))
        .chain(
            spec.type2_values
                .iter()
                .map(|(v, a)| (v.as_str(), a.as_str(), false)),
        );
    let mut best: Option<(&str, &str, bool)> = None;
    for (value, attribute, is_type1) in candidates {
        if !shorthand_related(token, value) {
            continue;
        }
        let better = match best {
            Some((current, _, _)) => value.len() < current.len(),
            None => true,
        };
        if better {
            best = Some((value, attribute, is_type1));
        }
    }
    best.map(|(value, attribute, is_type1)| TaggedToken::Value {
        attribute: attribute.to_string(),
        value: value.to_string(),
        is_type1,
    })
}

/// The forms a user writes a value in: plural, hyphenated, run together, spelled-out
/// or digit numbers, initials, consonant shorthand and prefix truncations.
fn written_forms(value: &str) -> Vec<String> {
    const NUMBERS: [(&str, &str); 5] = [
        ("2", "two"),
        ("4", "four"),
        ("1", "one"),
        ("3", "three"),
        ("10", "ten"),
    ];
    let words: Vec<&str> = value.split_whitespace().collect();
    let mut forms = vec![
        value.to_string(),
        format!("{value}s"),
        value.replace(' ', "-"),
        value.replace(' ', ""),
        format!("{}s", value.replace(' ', "-")),
        value.to_uppercase(),
        words.iter().filter_map(|w| w.chars().next()).collect(),
    ];
    if let [head, tail @ ..] = words.as_slice() {
        let consonants: String = tail
            .iter()
            .flat_map(|w| w.chars().filter(|c| !"aeiou".contains(*c)).take(2))
            .collect();
        forms.push(format!("{head}{consonants}"));
        forms.push(format!("{head} {consonants}"));
    }
    for (digit, word) in NUMBERS {
        if value.contains(digit) {
            forms.push(value.replacen(digit, word, 1));
        }
        if value.contains(word) {
            forms.push(value.replacen(word, digit, 1));
        }
    }
    let chars: Vec<char> = value.chars().collect();
    for keep in [1, 2, 3, 4, chars.len() / 2, chars.len().saturating_sub(1)] {
        if (1..chars.len()).contains(&keep) {
            forms.push(chars[..keep].iter().collect());
        }
    }
    forms
}

#[test]
fn shorthand_resolution_matches_the_per_value_scan_on_every_written_form() {
    let mut compared = 0usize;
    let mut resolved = 0usize;
    for (spec, tagger) in domains() {
        for value in known_values(spec) {
            for form in written_forms(value) {
                let expected = reference_match_shorthand(spec, &form);
                assert_eq!(
                    tagger.match_shorthand(&form),
                    expected,
                    "{form:?} in {}",
                    spec.name()
                );
                compared += 1;
                resolved += usize::from(expected.is_some());
            }
        }
    }
    // Both outcomes are exercised, in bulk.
    assert!(compared > 4_000, "{compared}");
    assert!(
        resolved > 1_000 && resolved < compared,
        "{resolved} of {compared}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated tokens, number words and odd separators resolve to the same value
    /// (or to none) as the per-value scan, in every domain.
    #[test]
    fn shorthand_resolution_matches_the_per_value_scan_on_generated_tokens(
        token in "([a-z0-9 -]{1,12}|(one|two|four|ten|zero)( |-)?[a-z]{1,7}s?|[a-z]{1,3}[0-9]{1,3}[a-z]{0,3})",
    ) {
        for (spec, tagger) in domains() {
            prop_assert_eq!(
                tagger.match_shorthand(&token),
                reference_match_shorthand(spec, &token),
                "{:?} in {}",
                token,
                spec.name()
            );
        }
    }
}

/// Run one question through every front-half stage by hand, then through the
/// whole pipeline, checking what each stage promises.
fn drive(question: &str) -> Result<(), TestCaseError> {
    let clock = RealClock::new();
    let sys = system();

    for token in tokenize(question) {
        prop_assert!(!token.text.is_empty());
        prop_assert_eq!(token.text.to_lowercase(), token.text.clone());
    }

    for (spec, tagger) in &domains()[1..] {
        let trie = tagger.trie();
        for token in tokenize(question) {
            let word = token.text.as_str();
            match correct_word(trie, word) {
                Correction::Exact(_) => prop_assert!(trie.lookup(word).is_some()),
                Correction::Split(parts) => {
                    prop_assert!(parts.len() > 1 && parts.len() <= 5, "{:?}", parts);
                    prop_assert_eq!(
                        parts.iter().map(|(w, _)| w.as_str()).collect::<String>(),
                        word
                    );
                }
                Correction::Replaced {
                    keyword, percent, ..
                } => {
                    prop_assert!(trie.lookup(&keyword).is_some());
                    prop_assert!((70.0..=100.0).contains(&percent), "{}", percent);
                }
                Correction::Unrecognized => {}
            }
            if let Some(parts) = split_keywords(trie, word, 0) {
                prop_assert!(parts.len() <= 5, "{:?}", parts);
                prop_assert_eq!(
                    parts.iter().map(|(w, _)| w.as_str()).collect::<String>(),
                    word
                );
                for (piece, _) in &parts {
                    prop_assert!(trie.lookup(piece).is_some());
                }
            }
        }

        let tagged = tagger.tag(question);
        for token in &tagged.tokens {
            if let TaggedToken::Value {
                attribute,
                value,
                is_type1,
            } = token
            {
                let values = if *is_type1 {
                    &spec.type1_values
                } else {
                    &spec.type2_values
                };
                prop_assert_eq!(
                    values.get(value),
                    Some(attribute),
                    "{:?} in {}",
                    value,
                    spec.name()
                );
            }
        }
    }

    let domain = sys
        .classify(question)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert!(
        sys.domain_spec(&domain).is_some(),
        "classified into {}",
        domain
    );

    for cached in [false, true] {
        let request = sys.ask(question);
        let outcome = if cached {
            request.get()
        } else {
            request.uncached().get()
        };
        match outcome {
            Ok(set) => {
                prop_assert_eq!(&set.domain, &domain);
                prop_assert!(set.answers.len() <= 30);
                prop_assert!(set.exact_count <= set.answers.len());
                prop_assert!(set.quality.is_complete(), "{:?}", set.quality);
            }
            Err(CqadsError::EmptyQuestion | CqadsError::ContradictoryRange { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error for {:?}: {}", question, other),
        }
    }
    let micros = clock.now_micros();
    prop_assert!(
        micros < PER_QUESTION_MICROS,
        "{:?} took {} µs",
        question,
        micros
    );
    Ok(())
}

/// `picks` indexes the value list; each pick becomes one of its written forms.
fn shorthand_storm(picks: &[usize]) -> String {
    let values = all_values();
    picks
        .iter()
        .map(|&p| {
            let forms = written_forms(&values[p % values.len()]);
            forms[(p / values.len()) % forms.len()].clone()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary Unicode: case-changing letters (İ, ǅ, Σ, ß), combining marks,
    /// non-breaking and ideographic spaces, emoji, CJK, punctuation and digits, mixed
    /// with known values.
    #[test]
    fn arbitrary_unicode_reaches_a_typed_outcome(
        text in "[a-zA-Z0-9 $,.?!'\"():;İıǅǄΣσςßẞﬁÉé\u{301}\u{307}\u{200d}\u{a0}\u{3000}\u{202e}🚗中文 -]{0,160}",
        picks in proptest::collection::vec(0usize..1_000_000, 0..6),
        codepoints in proptest::collection::vec(0u32..0x11_0000, 0..40),
    ) {
        let random: String = codepoints.iter().filter_map(|&c| char::from_u32(c)).collect();
        drive(&text)?;
        drive(&random)?;
        drive(&format!("{} {text} {random}", shorthand_storm(&picks)))?;
    }

    /// Shorthand storms: dozens of abbreviated, pluralized, hyphenated and
    /// number-word values in one question.
    #[test]
    fn shorthand_storms_reach_a_typed_outcome(
        picks in proptest::collection::vec(0usize..1_000_000, 1..48),
    ) {
        drive(&shorthand_storm(&picks))?;
    }

    /// Tie floods: one domain's values repeated and joined by "or" / "and" / "not"
    /// so that many conditions tie for every relaxation.
    #[test]
    fn tie_floods_reach_a_typed_outcome(
        domain in 1usize..9,
        picks in proptest::collection::vec(0usize..1_000, 1..40),
        glue in proptest::collection::vec("( |  | or | and | not | or not |, )", 1..8),
    ) {
        let values = known_values(&domains()[domain].0);
        let mut question = String::from("cheapest");
        for (i, &p) in picks.iter().enumerate() {
            question.push_str(&glue[i % glue.len()]);
            question.push_str(values[p % values.len()]);
        }
        drive(&question)?;
    }

    /// Run-together keyword chains of 2–9 values (some misspelled), which drive
    /// `split_keywords` through its depth bound and past it.
    #[test]
    fn run_together_chains_reach_a_typed_outcome(
        domain in 1usize..9,
        picks in proptest::collection::vec(0usize..1_000, 2..10),
        typo in 0usize..64,
    ) {
        let values = known_values(&domains()[domain].0);
        let mut chain: String = picks.iter().map(|&p| values[p % values.len()].replace(' ', "")).collect();
        if let Some((at, _)) = chain.char_indices().nth(typo) {
            chain.insert(at, 'x');
        }
        drive(&chain)?;
        drive(&format!("{chain} {chain} under 20k"))?;
    }

    /// Maximum-length questions: thousands of characters of values, numbers, glue
    /// and a run-together tail.
    #[test]
    fn long_questions_reach_a_typed_outcome(
        picks in proptest::collection::vec(0usize..1_000_000, 200..400),
        numbers in proptest::collection::vec(0u32..200_000, 0..40),
    ) {
        let mut question = shorthand_storm(&picks);
        for n in &numbers {
            question.push_str(&format!(" under ${n} or {n}k miles"));
        }
        question.push(' ');
        question.push_str(&shorthand_storm(&picks[..8]).replace(' ', ""));
        prop_assert!(question.len() > 1_000);
        drive(&question)?;
    }
}
