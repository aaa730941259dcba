//! # cqads-eval — evaluation harness for every table and figure of the paper
//!
//! The harness builds a full synthetic testbed ([`testbed::Testbed`]): eight ads
//! domains with generated ads tables, query logs, TI-matrices, a shared WS-matrix, a
//! trained JBBSM classifier and the 650-question workload. Each module under
//! [`experiments`] reproduces one table or figure:
//!
//! | module | paper result |
//! |--------|--------------|
//! | [`experiments::fig2_classification`] | Figure 2 — per-domain question-classification accuracy |
//! | [`experiments::sec53_exact_match`]   | Section 5.3 — exact-match precision / recall / F-measure |
//! | [`experiments::fig4_boolean`]        | Figures 3–4 — Boolean-interpretation accuracy |
//! | [`experiments::table2_partial`]      | Table 2 — top-5 ranked partially-matched answers |
//! | [`experiments::fig5_ranking`]        | Figure 5 — P@1 / P@5 / MRR of CQAds vs the four baselines |
//! | [`experiments::fig6_timing`]         | Figure 6 — average query-processing time per system |
//! | [`experiments::shorthand_accuracy`]  | Section 4.2.3 — shorthand-notation detection accuracy |
//! | [`experiments::survey_stats`]        | Section 5.1 — survey statistics |
//!
//! The `run_experiments` binary executes everything and prints paper-style reports;
//! the experiment tests pin what it prints on the seeded `--small` testbed, so the
//! paper's quality numbers gate tier-1.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod metrics;
pub mod testbed;

pub use metrics::{f_measure, mean_reciprocal_rank, precision_at_k, PrecisionRecall};
pub use testbed::{Testbed, TestbedConfig};
