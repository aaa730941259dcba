//! # cqads-classifier — Naive Bayes question classification with JBBSM
//!
//! Section 3 of the paper: CQAds routes every incoming question to one of the eight
//! ads domains with a Naive Bayes classifier whose class-conditional likelihood
//! `P(d | c)` is estimated with the *Joint Beta-Binomial Sampling Model* (JBBSM,
//! Allison 2008). JBBSM models the **burstiness** of keywords — a keyword that has
//! already occurred in a question is more likely to occur again — and accounts for
//! unseen words.
//!
//! The crate provides:
//!
//! * [`Vocabulary`] — the classifier's token ↔ id mapping,
//! * [`BetaBinomialNb`] — the JBBSM classifier: per-class, per-word beta-binomial
//!   likelihoods fitted by the method of moments,
//! * [`LabelledDoc`] — a training question with its domain label.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod jbbsm;
pub mod vocab;

pub use jbbsm::BetaBinomialNb;
pub use vocab::Vocabulary;

/// A labelled training document: a bag of tokens plus the name of its class (domain).
#[derive(Debug, Clone)]
pub struct LabelledDoc {
    /// Class label, e.g. `"cars"`.
    pub label: String,
    /// Tokens of the document (question), already lowercased.
    pub tokens: Vec<String>,
}

impl LabelledDoc {
    /// Build a labelled document from a raw text by whitespace tokenization.
    pub fn from_text(label: impl Into<String>, text: &str) -> Self {
        LabelledDoc {
            label: label.into(),
            tokens: text
                .split_whitespace()
                .map(cqads_text::normalize_token)
                .filter(|t| !t.is_empty())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_set() -> Vec<LabelledDoc> {
        vec![
            LabelledDoc::from_text("cars", "honda accord blue automatic low mileage"),
            LabelledDoc::from_text("cars", "cheapest toyota camry 2 door sedan"),
            LabelledDoc::from_text("cars", "red bmw leather seats under 20000"),
            LabelledDoc::from_text("jobs", "c++ software engineer salary remote"),
            LabelledDoc::from_text("jobs", "java developer position full time benefits"),
            LabelledDoc::from_text("jobs", "database administrator job salary 90000"),
        ]
    }

    #[test]
    fn jbbsm_learns_the_toy_split() {
        let mut bb = BetaBinomialNb::new();
        bb.train(&training_set());
        assert_eq!(
            bb.classify_text("blue honda automatic").as_deref(),
            Some("cars")
        );
        assert_eq!(
            bb.classify_text("software engineer salary").as_deref(),
            Some("jobs")
        );
    }

    #[test]
    fn labelled_doc_normalizes_tokens() {
        let d = LabelledDoc::from_text("cars", "Honda, Accord!");
        assert_eq!(d.tokens, vec!["honda", "accord"]);
        assert_eq!(d.label, "cars");
    }

    #[test]
    fn untrained_classifier_returns_none() {
        let bb = BetaBinomialNb::new();
        assert!(bb.classify_text("anything").is_none());
    }
}
