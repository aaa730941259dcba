//! Implicit-Boolean combination rules (Section 4.4.1).
//!
//! Given the condition sketches of one segment (an implicit conjunction), this module
//! builds the boolean expression the paper's rules prescribe:
//!
//! * **Rule 1** — numeric (Type III) conditions on the same attribute are merged:
//!   negated quantifiers are replaced by their complement (done during interpretation),
//!   several `<`/`≤` (or `>`/`≥`) bounds keep the tightest one, and a lower bound plus
//!   an upper bound combine into a BETWEEN; non-overlapping bounds terminate the
//!   evaluation with "search retrieved no results".
//! * **Rule 2 / 3** — consecutive Type II (and Type III) values: negated values are
//!   ANDed, non-negated *mutually exclusive* values (same attribute) are ORed, anything
//!   else is ANDed; the sub-expression is ANDed with the closest Type I value.
//! * **Rule 4** — segments each holding a Type I value are ORed together (performed by
//!   [`Interpretation::to_query`](crate::translate::Interpretation::to_query), which
//!   calls this function once per segment).
//!
//! Incomplete numeric conditions (attribute unknown) are expanded here into a union
//! over every Type III attribute whose valid range contains the value (Section 4.2.2).

use crate::domain::DomainSpec;
use crate::error::{CqadsError, CqadsResult};
use crate::identifiers::BoundaryOp;
use crate::translate::ConditionSketch;
use addb::{AttrType, BoolExpr, Comparison, Condition};
use std::collections::BTreeMap;

/// Combine the sketches of one segment into a boolean expression.
pub fn combine_conditions(
    sketches: &[ConditionSketch],
    spec: &DomainSpec,
) -> CqadsResult<BoolExpr> {
    let mut exprs: Vec<BoolExpr> = Vec::new();

    // --- Categorical conditions (Rules 2a/2b) -------------------------------------
    // Group by attribute, preserving first-seen order of attributes.
    let mut cat_order: Vec<String> = Vec::new();
    let mut cat_groups: BTreeMap<String, Vec<(&str, bool)>> = BTreeMap::new();
    for sketch in sketches {
        if let ConditionSketch::Categorical {
            attribute,
            value,
            negated,
            ..
        } = sketch
        {
            if !cat_groups.contains_key(attribute) {
                cat_order.push(attribute.clone());
            }
            cat_groups
                .entry(attribute.clone())
                .or_default()
                .push((value.as_str(), *negated));
        }
    }
    for attribute in &cat_order {
        let values = &cat_groups[attribute];
        let mut negated_parts: Vec<BoolExpr> = Vec::new();
        let mut positive_parts: Vec<BoolExpr> = Vec::new();
        for (value, negated) in values {
            let cond = Condition::eq(attribute.clone(), *value);
            if *negated {
                negated_parts.push(BoolExpr::Cond(cond.negated()));
            } else {
                positive_parts.push(BoolExpr::Cond(cond));
            }
        }
        // Mutually exclusive non-negated values of the same attribute are ORed
        // (Rule 2a: "blue, red Toyota" → blue OR red); a single value stays as-is.
        let positive = match positive_parts.pop() {
            None => None,
            Some(only) if positive_parts.is_empty() => Some(only),
            Some(last) => {
                positive_parts.push(last);
                Some(BoolExpr::or(positive_parts))
            }
        };
        // Negated values are ANDed together and with the positive part.
        let mut parts: Vec<BoolExpr> = Vec::new();
        if let Some(p) = positive {
            parts.push(p);
        }
        parts.extend(negated_parts);
        exprs.push(BoolExpr::and(parts));
    }

    // --- Numeric conditions (Rule 1) -----------------------------------------------
    // Resolve incomplete sketches first, then merge per attribute.
    let mut ranges: BTreeMap<String, RangeAccumulator> = BTreeMap::new();
    let mut incomplete_exprs: Vec<BoolExpr> = Vec::new();
    for sketch in sketches {
        let ConditionSketch::Numeric {
            attribute,
            op,
            value,
            value2,
            negated,
        } = sketch
        else {
            continue;
        };
        match attribute {
            Some(attr) => {
                ranges
                    .entry(attr.clone())
                    .or_default()
                    .add(*op, *value, *value2, *negated, attr)?;
            }
            None => {
                // Incomplete question: the value is a potential value of every numeric
                // attribute whose valid range contains it; union the possibilities.
                let candidates = spec.schema.numeric_candidates(*value);
                if candidates.is_empty() {
                    continue;
                }
                let mut alternatives = Vec::new();
                for cand in candidates {
                    let mut acc = RangeAccumulator::default();
                    acc.add(*op, *value, *value2, *negated, &cand.name)?;
                    alternatives.push(acc.into_expr(&cand.name));
                }
                incomplete_exprs.push(BoolExpr::or(alternatives));
            }
        }
    }
    for (attribute, acc) in ranges {
        acc.check(&attribute)?;
        exprs.push(acc.into_expr(&attribute));
    }
    exprs.extend(incomplete_exprs);

    // Validate attribute names against the schema early, so the error surfaces as a
    // CQAds interpretation problem rather than a deep executor failure.
    for sketch in sketches {
        if let Some(attr) = sketch.attribute() {
            let def = spec.schema.attribute(attr).ok_or_else(|| {
                CqadsError::Database(addb::DbError::UnknownAttribute {
                    table: spec.name().to_string(),
                    attribute: attr.to_string(),
                })
            })?;
            if sketch.is_numeric() && def.attr_type != AttrType::TypeIII {
                return Err(CqadsError::Database(addb::DbError::InvalidQuery(format!(
                    "numeric constraint on categorical attribute `{attr}`"
                ))));
            }
        }
    }

    Ok(BoolExpr::and(exprs))
}

/// Accumulates the numeric constraints on one attribute and emits the tightest
/// equivalent condition (Rule 1b/1c).
#[derive(Debug, Clone, Default)]
struct RangeAccumulator {
    /// Tightest lower bound and whether it is inclusive.
    low: Option<(f64, bool)>,
    /// Tightest upper bound and whether it is inclusive.
    high: Option<(f64, bool)>,
    /// Exact values requested (op `=`).
    equals: Vec<f64>,
    /// Negated exact values (op `≠`).
    not_equals: Vec<f64>,
}

impl RangeAccumulator {
    fn add(
        &mut self,
        op: BoundaryOp,
        value: f64,
        value2: Option<f64>,
        negated: bool,
        attribute: &str,
    ) -> CqadsResult<()> {
        // Negated boundaries were already complemented during interpretation (Rule 1a);
        // a negated equality becomes a ≠.
        match (op, negated) {
            (BoundaryOp::Eq, true) => self.not_equals.push(value),
            (BoundaryOp::Eq, false) => self.equals.push(value),
            (BoundaryOp::Lt, _) => self.tighten_high(value, false),
            (BoundaryOp::Le, _) => self.tighten_high(value, true),
            (BoundaryOp::Gt, _) => self.tighten_low(value, false),
            (BoundaryOp::Ge, _) => self.tighten_low(value, true),
            (BoundaryOp::Between, _) => {
                let hi = value2.unwrap_or(value);
                let (lo, hi) = if value <= hi {
                    (value, hi)
                } else {
                    (hi, value)
                };
                self.tighten_low(lo, true);
                self.tighten_high(hi, true);
            }
        }
        self.check(attribute)
    }

    fn tighten_low(&mut self, value: f64, inclusive: bool) {
        let better = match self.low {
            Some((current, _)) => value > current,
            None => true,
        };
        if better {
            self.low = Some((value, inclusive));
        }
    }

    fn tighten_high(&mut self, value: f64, inclusive: bool) {
        let better = match self.high {
            Some((current, _)) => value < current,
            None => true,
        };
        if better {
            self.high = Some((value, inclusive));
        }
    }

    /// Rule 1c: if the combined bounds do not overlap, the search retrieves no results.
    fn check(&self, attribute: &str) -> CqadsResult<()> {
        if let (Some((lo, _)), Some((hi, _))) = (self.low, self.high) {
            if lo > hi {
                return Err(CqadsError::ContradictoryRange {
                    attribute: attribute.to_string(),
                });
            }
        }
        Ok(())
    }

    fn into_expr(self, attribute: &str) -> BoolExpr {
        let mut parts: Vec<BoolExpr> = Vec::new();
        match (self.low, self.high) {
            (Some((lo, _)), Some((hi, _))) => parts.push(BoolExpr::Cond(Condition::new(
                attribute,
                Comparison::Between(lo, hi),
            ))),
            (Some((lo, inclusive)), None) => {
                let cmp = if inclusive {
                    Comparison::Ge(lo)
                } else {
                    Comparison::Gt(lo)
                };
                parts.push(BoolExpr::Cond(Condition::new(attribute, cmp)));
            }
            (None, Some((hi, inclusive))) => {
                let cmp = if inclusive {
                    Comparison::Le(hi)
                } else {
                    Comparison::Lt(hi)
                };
                parts.push(BoolExpr::Cond(Condition::new(attribute, cmp)));
            }
            (None, None) => {}
        }
        for v in self.equals {
            parts.push(BoolExpr::Cond(Condition::eq_number(attribute, v)));
        }
        for v in self.not_equals {
            parts.push(BoolExpr::Cond(Condition::eq_number(attribute, v).negated()));
        }
        BoolExpr::and(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::toy_car_domain;
    use crate::tagging::Tagger;
    use crate::translate::interpret;

    fn expr_for(question: &str) -> CqadsResult<BoolExpr> {
        let spec = toy_car_domain();
        let tagger = Tagger::new(&spec);
        let interpretation = interpret(&tagger.tag(question), &spec)?;
        combine_conditions(&interpretation.segments[0], &spec)
    }

    #[test]
    fn example_6_q1_bounds_merge_into_between() {
        // "Any car priced below $7000 and not less than $2000"
        let expr = expr_for("Any car priced below $7000 and not less than $2000").unwrap();
        let conds = expr.conditions();
        assert_eq!(conds.len(), 1);
        assert_eq!(conds[0].attribute, "price");
        assert_eq!(conds[0].comparison, Comparison::Between(2000.0, 7000.0));
    }

    #[test]
    fn example_6_q2_negated_type2_values_are_anded() {
        // "...a silver not manual not 2-dr Honda Accord" (single segment without the OR)
        let expr = expr_for("a silver not manual not 2-dr Honda Accord").unwrap();
        let rendered = expr.to_string();
        assert!(rendered.contains("color = 'silver'"));
        assert!(rendered.contains("NOT (transmission = 'manual')"));
        assert!(rendered.contains("NOT (doors = '2 door')"));
        assert!(rendered.contains("make = 'honda'"));
        assert!(rendered.contains("model = 'accord'"));
        assert!(!rendered.contains(" OR "));
    }

    #[test]
    fn mutually_exclusive_values_are_ored() {
        // "blue, red Toyota" — two colors cannot co-exist, so they are ORed (Rule 2a).
        let expr = expr_for("blue red toyota").unwrap();
        let rendered = expr.to_string();
        assert!(rendered.contains("(color = 'blue') OR (color = 'red')"));
        assert!(rendered.contains("make = 'toyota'"));
        // Q8-style: "black and grey cars" — the explicit AND between mutually exclusive
        // colors is evaluated as OR.
        let expr = expr_for("black and grey honda").unwrap();
        assert!(expr
            .to_string()
            .contains("(color = 'black') OR (color = 'grey')"));
    }

    #[test]
    fn contradictory_ranges_error_like_rule_1c() {
        let err = expr_for("car priced above $9000 and below $2000").unwrap_err();
        assert_eq!(
            err,
            CqadsError::ContradictoryRange {
                attribute: "price".into()
            }
        );
    }

    #[test]
    fn incomplete_numbers_expand_to_a_union_of_candidates() {
        // Example 3: "Honda accord less than 4000" — 4000 is a price or a mileage but
        // not a year.
        let expr = expr_for("Honda accord less than 4000").unwrap();
        let rendered = expr.to_string();
        assert!(rendered.contains("price < 4000"));
        assert!(rendered.contains("mileage < 4000"));
        assert!(!rendered.contains("year"));
        assert!(rendered.contains(" OR "));
        // "Honda accord 2000" — year, price or mileage.
        let expr = expr_for("Honda accord 2000").unwrap();
        let rendered = expr.to_string();
        assert!(rendered.contains("year = 2000"));
        assert!(rendered.contains("price = 2000"));
        assert!(rendered.contains("mileage = 2000"));
    }

    #[test]
    fn tightest_bounds_win_rule_1b() {
        // two upper bounds: keep the lower of the two
        let expr = expr_for("honda less than 9000 dollars and less than 6000 dollars").unwrap();
        let conds = expr.conditions();
        let price = conds.iter().find(|c| c.attribute == "price").unwrap();
        assert_eq!(price.comparison, Comparison::Lt(6000.0));
    }

    #[test]
    fn empty_segment_is_true() {
        let spec = toy_car_domain();
        let expr = combine_conditions(&[], &spec).unwrap();
        assert_eq!(expr, BoolExpr::True);
    }
}
