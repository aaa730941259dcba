//! One module per table / figure of the paper's evaluation (Section 5).

pub mod fig2_classification;
pub mod fig4_boolean;
pub mod fig5_ranking;
pub mod fig6_timing;
pub mod sec53_exact_match;
pub mod shorthand_accuracy;
pub mod survey_stats;
pub mod table2_partial;

#[cfg(test)]
pub(crate) mod test_bed {
    //! A single small testbed shared by every experiment test, so the (seeded, but
    //! non-trivial) setup cost is paid once per test binary.
    //!
    //! The experiment tests pin the figures `run_experiments -- --small` prints on
    //! this testbed, each to within half of one of the questions behind it: a
    //! change that shifts the outcome of one question fails tier-1. A legitimate
    //! semantic change re-pins them, with a sentence in CHANGES.md saying why.
    use crate::testbed::{Testbed, TestbedConfig};
    use std::sync::OnceLock;

    pub fn shared() -> &'static Testbed {
        static BED: OnceLock<Testbed> = OnceLock::new();
        BED.get_or_init(|| Testbed::build(TestbedConfig::small()))
    }

    /// `value` is the seeded figure `pinned`, to within half of one of the
    /// `samples` (questions; survey votes for Figure 4) it averages over.
    pub fn assert_pinned(what: &str, value: f64, pinned: f64, samples: usize) {
        let tolerance = 0.5 / samples as f64;
        assert!(
            (value - pinned).abs() < tolerance,
            "{what} moved: {value:.4}, pinned {pinned:.4} ± {tolerance:.4}"
        );
    }
}
