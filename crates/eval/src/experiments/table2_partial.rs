//! Table 2 — top-5 ranked partially-matched answers to the running example
//! "Find Honda Accord blue less than 15,000 dollars".
//!
//! The paper's table shows, for each of the five answers, the record, its `Rank_Sim`
//! score and which similarity measure produced the score (TI_Sim on Make/Model,
//! Num_Sim on Price, Feat_Sim on Color). The absolute scores depend on the underlying
//! data; the reproduced *shape* is that answers relaxing the Type I identifier are
//! ranked by query-log similarity, price relaxations by numeric proximity and colour
//! relaxations by the word-correlation matrix.

use crate::testbed::Testbed;
use serde::Serialize;

/// The question of the running example.
pub const TABLE2_QUESTION: &str = "Find Honda Accord blue less than 15,000 dollars";

/// One row of Table 2.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Rank position (1-based).
    pub rank: usize,
    /// The Type I identifier of the answer (make/model or equivalent).
    pub identifier: String,
    /// The answer's price, if it has one.
    pub price: Option<f64>,
    /// The answer's colour, if it has one.
    pub color: Option<String>,
    /// `Rank_Sim` score.
    pub rank_sim: f64,
    /// The similarity measure that produced the score.
    pub measure: String,
}

/// Result of the Table 2 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Result {
    /// The question evaluated.
    pub question: String,
    /// Number of exact answers (usually zero — that is why partial matching kicks in).
    pub exact_answers: usize,
    /// The top-5 partially-matched rows.
    pub rows: Vec<Table2Row>,
}

impl Table2Result {
    /// Paper-style textual report.
    pub fn report(&self) -> String {
        let mut out = format!(
            "Table 2 — top-5 partially-matched answers to {:?} ({} exact answers)\n",
            self.question, self.exact_answers
        );
        for row in &self.rows {
            out.push_str(&format!(
                "  {} {:<28} price {:<9} color {:<8} Rank_Sim {:.2}  via {}\n",
                row.rank,
                row.identifier,
                row.price
                    .map(|p| format!("{p:.0}"))
                    .unwrap_or_else(|| "-".into()),
                row.color.clone().unwrap_or_else(|| "-".into()),
                row.rank_sim,
                row.measure
            ));
        }
        out
    }
}

/// Run the experiment.
pub fn run(bed: &Testbed) -> Table2Result {
    let set = bed
        .system
        .ask(TABLE2_QUESTION)
        .domain("cars")
        .uncached()
        .get()
        .expect("the running example interprets cleanly");
    let rows = set
        .partial()
        .iter()
        .take(5)
        .enumerate()
        .map(|(i, answer)| {
            let make = answer.record.get_text("make").unwrap_or("?");
            let model = answer.record.get_text("model").unwrap_or("?");
            Table2Row {
                rank: i + 1,
                identifier: format!("{make} {model}"),
                price: answer.record.get_number("price"),
                color: answer.record.get_text("color").map(str::to_string),
                rank_sim: answer.rank_sim,
                measure: answer.measure.to_string(),
            }
        })
        .collect();
    Table2Result {
        question: TABLE2_QUESTION.to_string(),
        exact_answers: set.exact_count,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_bed::shared;

    #[test]
    fn produces_five_ranked_rows_with_measures() {
        let result = run(shared());
        assert_eq!(result.exact_answers, 0);
        // The Table 2 mix on the seeded testbed: colour relaxations scored by the
        // word-correlation matrix first (a record without a colour scores the bare
        // N - 1), then price relaxations by numeric proximity.
        let pinned = [
            (2_850.0, Some("gold"), 3.009523574547877, "Feat_Sim"),
            (1_850.0, None, 3.0, "-"),
            (1_250.0, Some("yellow"), 3.0, "Feat_Sim"),
            (19_050.0, Some("yellow"), 2.949056603773585, "Num_Sim"),
            (21_300.0, Some("yellow"), 2.920754716981132, "Num_Sim"),
        ];
        assert_eq!(result.rows.len(), pinned.len());
        for (row, (price, color, rank_sim, measure)) in result.rows.iter().zip(pinned) {
            assert_eq!(row.identifier, "honda accord", "{row:?}");
            assert_eq!(row.price, Some(price), "{row:?}");
            assert_eq!(row.color.as_deref(), color, "{row:?}");
            assert!((row.rank_sim - rank_sim).abs() < 1e-9, "{row:?}");
            assert_eq!(row.measure, measure, "{row:?}");
        }
        assert!(result.report().contains("Rank_Sim"));
    }
}
