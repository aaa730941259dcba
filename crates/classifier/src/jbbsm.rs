//! Joint Beta-Binomial Sampling Model (JBBSM) Naive Bayes.
//!
//! The paper (Section 3) estimates `P(d | c)` with the JBBSM of Allison (2008), chosen
//! because it "considers the burstiness of a keyword, i.e., a keyword is more likely to
//! occur again in d if it has already appeared once in d" and "accounts for unseen
//! words".
//!
//! Implementation: for each class `c` and word `w` we model the count `k_w` of `w` in a
//! question of length `n` as a **beta-binomial** with parameters
//! `α_w = κ · p_w(c)` and `β_w = κ · (1 − p_w(c))`, where `p_w(c)` is the Laplace-
//! smoothed rate of `w` in class `c` and `κ` is a concentration (burstiness) parameter.
//! A small `κ` yields an over-dispersed, bursty distribution (the second occurrence of a
//! word is much cheaper than the first); `κ → ∞` degenerates to the multinomial model.
//! Words of the question are combined under the Naive Bayes independence assumption —
//! the "joint" sampling model — and unseen words are covered by the smoothing in
//! `p_w(c)`, so no test question receives zero probability.
//!
//! ## What is computed at training time
//!
//! A word's log-likelihood in a question is
//! `ln C(n, k) + ln B(k + α_w, n − k + β_w) − ln B(α_w, β_w)`. Of its parts, `α_w`,
//! `β_w` and `ln B(α_w, β_w)` depend only on the (class, word) pair, so the end of every
//! [`BetaBinomialNb::train`] call stores them for each class and vocabulary id (24 bytes
//! per pair). `p_w(c)` depends on the vocabulary size, so a second `train` rebuilds
//! the whole table. `ln C(n, k)` depends only on the question, so
//! [`BetaBinomialNb::scores`] evaluates it once per word rather than once per (class, word).
//! Per (class, word) that leaves `ln B(k + α_w, n − k + β_w)`: three `ln_gamma`s
//! instead of nine. Every operand is the same `f64` and the expression is summed in
//! the same order as when all of it was evaluated per question, so **the scores are
//! bit-identical** to that evaluation (a test compares them with `f64::to_bits`).

use crate::vocab::Vocabulary;
use crate::LabelledDoc;

/// Default burstiness (concentration) parameter. Chosen so that repeated keywords are
/// markedly cheaper than under the multinomial model, matching Allison's observation
/// that small concentrations fit question-length text best.
pub const DEFAULT_CONCENTRATION: f64 = 4.0;

/// Beta-binomial (JBBSM) Naive Bayes classifier.
#[derive(Debug, Clone, Default)]
pub struct BetaBinomialNb {
    vocab: Vocabulary,
    classes: Vec<String>,
    log_prior: Vec<f64>,
    /// per class: token id -> count.
    counts: Vec<Vec<u32>>,
    /// per class: total token count.
    totals: Vec<u64>,
    /// Concentration parameter κ.
    concentration: f64,
    /// Laplace smoothing used inside p_w(c).
    alpha: f64,
    /// Per class, one entry per vocabulary id (row-major by class, `vocab.len()` per
    /// row): the (class, word) part of the likelihood, rebuilt by every `train`.
    terms: Vec<BetaTerms>,
}

/// The parameters of one (class, word) beta-binomial and `ln B(α, β)`.
#[derive(Debug, Clone, Copy)]
struct BetaTerms {
    a: f64,
    b: f64,
    ln_beta_ab: f64,
}

impl BetaBinomialNb {
    /// Classifier with the default concentration and Laplace smoothing of 1.
    pub fn new() -> Self {
        BetaBinomialNb {
            concentration: DEFAULT_CONCENTRATION,
            alpha: 1.0,
            ..Default::default()
        }
    }

    /// Classifier with an explicit concentration parameter κ.
    pub fn with_concentration(concentration: f64) -> Self {
        BetaBinomialNb {
            concentration: concentration.max(1e-3),
            alpha: 1.0,
            ..Default::default()
        }
    }

    fn class_index(&mut self, label: &str) -> usize {
        if let Some(i) = self.classes.iter().position(|c| c == label) {
            return i;
        }
        self.classes.push(label.to_string());
        self.counts.push(Vec::new());
        self.totals.push(0);
        self.classes.len() - 1
    }

    /// Smoothed rate of token `id` in class `ci`.
    fn rate(&self, ci: usize, id: usize) -> f64 {
        let word_count = *self.counts[ci].get(id).unwrap_or(&0) as f64;
        let total = self.totals[ci] as f64;
        let v = self.vocab.len().max(1) as f64;
        (word_count + self.alpha) / (total + self.alpha * v)
    }

    /// The (class, word) terms of every class and vocabulary id.
    fn build_terms(&self) -> Vec<BetaTerms> {
        let words = self.vocab.len();
        (0..self.classes.len())
            .flat_map(|ci| (0..words).map(move |id| (ci, id)))
            .map(|(ci, id)| {
                let p = self.rate(ci, id);
                let a = self.concentration * p;
                let b = self.concentration * (1.0 - p);
                BetaTerms {
                    a,
                    b,
                    ln_beta_ab: ln_beta(a, b),
                }
            })
            .collect()
    }

    /// Log beta-binomial pmf `ln P(k | n, α, β)`.
    #[cfg(test)]
    fn log_beta_binomial(k: u32, n: u32, a: f64, b: f64) -> f64 {
        let k = f64::from(k);
        let n = f64::from(n);
        ln_choose(n, k) + ln_beta(k + a, n - k + b) - ln_beta(a, b)
    }

    /// Fit the classifier on labelled documents.
    pub fn train(&mut self, docs: &[LabelledDoc]) {
        let mut doc_counts: Vec<u64> = vec![0; self.classes.len()];
        for doc in docs {
            let ci = self.class_index(&doc.label);
            if doc_counts.len() < self.classes.len() {
                doc_counts.resize(self.classes.len(), 0);
            }
            doc_counts[ci] += 1;
            let vector = self.vocab.count_vector(&doc.tokens, false);
            let counts = &mut self.counts[ci];
            for (id, c) in vector {
                if counts.len() <= id {
                    counts.resize(id + 1, 0);
                }
                counts[id] += c;
                self.totals[ci] += u64::from(c);
            }
        }
        let total_docs: u64 = doc_counts.iter().sum();
        self.log_prior = doc_counts
            .iter()
            .map(|&c| ((c as f64 + 1.0) / (total_docs as f64 + self.classes.len() as f64)).ln())
            .collect();
        self.terms = self.build_terms();
    }

    /// Log-probability score of each class for the given token bag, ordered as
    /// [`BetaBinomialNb::classes`]. Higher is better.
    pub fn scores(&self, tokens: &[String]) -> Vec<f64> {
        let vector = self.vocab.count_vector_frozen(tokens);
        let n: u32 = vector.iter().map(|&(_, c)| c).sum();
        // The question's part of each word's term: (id, ln C(n, k), k, n − k).
        let words: Vec<(usize, f64, f64, f64)> = vector
            .iter()
            .map(|&(id, count)| {
                let k = f64::from(count);
                let n = f64::from(n.max(count));
                (id, ln_choose(n, k), k, n - k)
            })
            .collect();
        let row_len = self.vocab.len();
        (0..self.classes.len())
            .map(|ci| {
                let row = &self.terms[ci * row_len..(ci + 1) * row_len];
                let mut score = *self.log_prior.get(ci).unwrap_or(&0.0);
                for &(id, choose, k, rest) in &words {
                    let t = row[id];
                    score += choose + ln_beta(k + t.a, rest + t.b) - t.ln_beta_ab;
                }
                score
            })
            .collect()
    }

    /// Class labels known to the classifier, in score order.
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Predict the most likely class for the token bag (Equation 2 of the paper).
    // `#[inline]` on this and `classify_text`: the router calls them from another
    // crate once per routed ask, and without it they could not be inlined there.
    #[inline]
    pub fn classify(&self, tokens: &[String]) -> Option<String> {
        let scores = self.scores(tokens);
        let classes = self.classes();
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| classes[i].clone())
    }

    /// Convenience: classify a raw question string.
    #[inline]
    pub fn classify_text(&self, text: &str) -> Option<String> {
        let tokens: Vec<String> = text
            .split_whitespace()
            .map(cqads_text::normalize_token)
            .filter(|t| !t.is_empty())
            .collect();
        self.classify(&tokens)
    }
}

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9 coefficients).
/// Accurate to ~1e-13 for the positive arguments used here.
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural log of the beta function.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Natural log of the binomial coefficient `C(n, k)` for real-valued n, k.
pub fn ln_choose(n: f64, k: f64) -> f64 {
    if k < 0.0 || k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The evaluation `scores` replaced, kept as its reference: the question's count
    /// vector through the interning path, and every term of every (class, word) pair
    /// from scratch.
    fn reference_scores(bb: &BetaBinomialNb, tokens: &[String]) -> Vec<f64> {
        let vector = bb.vocab.clone().count_vector(tokens, true);
        let n: u32 = vector.iter().map(|&(_, c)| c).sum();
        (0..bb.classes.len())
            .map(|ci| {
                let mut score = *bb.log_prior.get(ci).unwrap_or(&0.0);
                for &(id, count) in &vector {
                    let p = bb.rate(ci, id);
                    let a = bb.concentration * p;
                    let b = bb.concentration * (1.0 - p);
                    score += BetaBinomialNb::log_beta_binomial(count, n.max(count), a, b);
                }
                score
            })
            .collect()
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    /// "<label> word word …" → a labelled document.
    fn doc(line: &str) -> LabelledDoc {
        let (label, text) = line.split_at(1);
        LabelledDoc::from_text(label, text)
    }

    fn tokens(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn scores_are_bit_identical_on_repeats_unseen_and_empty_questions() {
        let mut bb = BetaBinomialNb::new();
        bb.train(&[doc("a x x x y"), doc("a y z"), doc("b z z w w"), doc("c")]);
        for question in [
            "x x x x",
            "x y y z w w w",
            "unseen words only",
            "",
            "x unseen x",
        ] {
            let toks = tokens(question);
            assert_eq!(bits(&bb.scores(&toks)), bits(&reference_scores(&bb, &toks)));
        }
        // A second train that grows the vocabulary and adds a class: the table is
        // rebuilt, so no stale rate survives.
        bb.train(&[doc("d v v u"), doc("a new words x")]);
        assert_eq!(bb.classes().len(), 4);
        for question in ["x x v", "u new", "w"] {
            let toks = tokens(question);
            assert_eq!(bits(&bb.scores(&toks)), bits(&reference_scores(&bb, &toks)));
        }
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        assert!((ln_gamma(1.0) - 0.0).abs() < 1e-10);
        assert!((ln_gamma(2.0) - 0.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - (24.0f64).ln()).abs() < 1e-9); // Γ(5)=4!
        assert!((ln_gamma(0.5) - (std::f64::consts::PI.sqrt()).ln()).abs() < 1e-9);
    }

    #[test]
    fn beta_binomial_pmf_sums_to_one() {
        let n = 6u32;
        let (a, b) = (1.5, 3.0);
        let total: f64 = (0..=n)
            .map(|k| BetaBinomialNb::log_beta_binomial(k, n, a, b).exp())
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "pmf sums to {total}");
    }

    #[test]
    fn burstiness_makes_repeats_cheaper_than_multinomial() {
        // Under a bursty model, seeing a word twice given it appeared once should cost
        // less than twice the single-occurrence cost relative to the binomial.
        let n = 10u32;
        let p: f64 = 0.1;
        let kappa = 2.0;
        let (a, b) = (kappa * p, kappa * (1.0 - p));
        let bb1 = BetaBinomialNb::log_beta_binomial(1, n, a, b);
        let bb2 = BetaBinomialNb::log_beta_binomial(2, n, a, b);
        // binomial log pmf
        let binom = |k: u32| {
            ln_choose(f64::from(n), f64::from(k))
                + f64::from(k) * p.ln()
                + f64::from(n - k) * (1.0 - p).ln()
        };
        // Cost of the second occurrence (drop from k=1 to k=2) is smaller for the
        // beta-binomial than for the binomial.
        assert!(bb1 - bb2 < binom(1) - binom(2));
    }

    #[test]
    fn classifies_and_handles_unseen_words() {
        let docs = vec![
            LabelledDoc::from_text("cars", "honda accord blue automatic"),
            LabelledDoc::from_text("cars", "toyota camry mileage price"),
            LabelledDoc::from_text("jewellery", "gold necklace diamond ring"),
            LabelledDoc::from_text("jewellery", "silver bracelet gemstone"),
        ];
        let mut bb = BetaBinomialNb::new();
        bb.train(&docs);
        assert_eq!(bb.classify_text("blue honda").as_deref(), Some("cars"));
        assert_eq!(
            bb.classify_text("diamond ring gold").as_deref(),
            Some("jewellery")
        );
        // unseen words only: still returns some class with finite scores
        let toks: Vec<String> = ["zebra"].iter().map(|s| s.to_string()).collect();
        assert!(bb.scores(&toks).iter().all(|s| s.is_finite()));
        assert!(bb.classify(&toks).is_some());
    }

    #[test]
    fn concentration_extremes_still_classify() {
        let docs = vec![
            LabelledDoc::from_text("a", "x x x y"),
            LabelledDoc::from_text("b", "z z w w"),
        ];
        for kappa in [0.5, 4.0, 1000.0] {
            let mut bb = BetaBinomialNb::with_concentration(kappa);
            bb.train(&docs);
            assert_eq!(bb.classify_text("x y").as_deref(), Some("a"));
            assert_eq!(bb.classify_text("z w").as_deref(), Some("b"));
        }
    }

    proptest! {
        #[test]
        fn ln_choose_is_symmetric(n in 1u32..40, k in 0u32..40) {
            prop_assume!(k <= n);
            let a = ln_choose(f64::from(n), f64::from(k));
            let b = ln_choose(f64::from(n), f64::from(n - k));
            prop_assert!((a - b).abs() < 1e-8);
        }

        #[test]
        fn scores_are_finite_for_any_question(words in proptest::collection::vec("[a-z]{1,6}", 1..8)) {
            let docs = vec![
                LabelledDoc::from_text("cars", "honda accord blue"),
                LabelledDoc::from_text("jobs", "engineer salary java"),
            ];
            let mut bb = BetaBinomialNb::new();
            bb.train(&docs);
            let tokens: Vec<String> = words;
            for s in bb.scores(&tokens) {
                prop_assert!(s.is_finite());
            }
        }

        #[test]
        fn scores_are_bit_identical_to_the_per_question_evaluation(
            first in proptest::collection::vec("[abc]( [a-f]{1,2}){0,7}", 1..10),
            second in proptest::collection::vec("[bcd]( [d-i]{1,2}){0,7}", 0..6),
            questions in proptest::collection::vec("([a-k]{1,2}( [a-k]{1,2}){0,9}|)", 1..6),
            kappa in 0.01f64..50.0,
        ) {
            let mut bb = BetaBinomialNb::with_concentration(kappa);
            for corpus in [&first, &second] {
                let docs: Vec<LabelledDoc> = corpus.iter().map(|l| doc(l)).collect();
                bb.train(&docs);
                for question in &questions {
                    let toks = tokens(question);
                    prop_assert_eq!(bits(&bb.scores(&toks)), bits(&reference_scores(&bb, &toks)));
                }
            }
        }
    }
}
