//! SQL-style query AST.
//!
//! CQAds translates a tagged natural-language question into a SQL statement whose WHERE
//! clause is a boolean combination of per-attribute selection conditions (Example 7 in
//! the paper), optionally followed by a superlative (`group by price` → cheapest). This
//! module models that statement:
//!
//! * [`Condition`] — one selection criterion on a single attribute: equality for Type I
//!   and Type II values, comparison / BETWEEN for Type III values, with optional
//!   negation (the NOT of the Boolean model).
//! * [`BoolExpr`] — AND/OR/NOT tree combining conditions, produced by the implicit
//!   Boolean rules of Section 4.4.1.
//! * [`Superlative`] — min/max request evaluated *after* every other condition
//!   (Section 4.3).
//! * [`Query`] — the full statement: target table, boolean expression, superlatives and
//!   an answer limit (30 by default).

use crate::record::Record;
use crate::value::Value;
use std::fmt;

/// Comparison operator for a single selection condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Comparison {
    /// Equality on a categorical or numeric value.
    Eq(Value),
    /// Strictly less than a numeric bound.
    Lt(f64),
    /// Less than or equal to a numeric bound.
    Le(f64),
    /// Strictly greater than a numeric bound.
    Gt(f64),
    /// Greater than or equal to a numeric bound.
    Ge(f64),
    /// Between two numeric bounds (inclusive), produced by Rule 1c of the Boolean model.
    Between(f64, f64),
}

impl Comparison {
    /// True if this comparison constrains a numeric (Type III) value.
    pub fn is_numeric(&self) -> bool {
        !matches!(self, Comparison::Eq(Value::Text(_)))
    }

    /// Evaluate the comparison against a stored value. Numeric equality is **exact**
    /// (`want == have`, no tolerance): that is what the executor's range index
    /// answers for `attr = n`, and a negated condition is the complement of the index
    /// answer, so a tolerance here would make `attr = n` and `NOT attr = n` both miss
    /// (or both keep) a value stored a hair off `n`.
    pub fn matches(&self, stored: &Value) -> bool {
        match (self, stored) {
            (Comparison::Eq(Value::Text(want)), Value::Text(have)) => want == have,
            (Comparison::Eq(Value::Number(want)), Value::Number(have)) => want == have,
            (Comparison::Lt(b), Value::Number(v)) => v < b,
            (Comparison::Le(b), Value::Number(v)) => v <= b,
            (Comparison::Gt(b), Value::Number(v)) => v > b,
            (Comparison::Ge(b), Value::Number(v)) => v >= b,
            (Comparison::Between(lo, hi), Value::Number(v)) => v >= lo && v <= hi,
            _ => false,
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Comparison::Eq(Value::Text(s)) => write!(f, "= '{s}'"),
            Comparison::Eq(number) => write!(f, "= {number}"),
            Comparison::Lt(b) => write!(f, "< {b}"),
            Comparison::Le(b) => write!(f, "<= {b}"),
            Comparison::Gt(b) => write!(f, "> {b}"),
            Comparison::Ge(b) => write!(f, ">= {b}"),
            Comparison::Between(lo, hi) => write!(f, "BETWEEN {lo} AND {hi}"),
        }
    }
}

/// One selection condition on a single attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// Attribute (column) the condition constrains.
    pub attribute: String,
    /// Comparison applied to the attribute value.
    pub comparison: Comparison,
    /// True if the condition is negated (NOT), e.g. "not a blue one".
    pub negated: bool,
}

impl Condition {
    /// Equality condition on a categorical value.
    pub fn eq(attribute: impl Into<String>, value: impl AsRef<str>) -> Self {
        Condition {
            attribute: attribute.into().to_lowercase(),
            comparison: Comparison::Eq(Value::text(value.as_ref())),
            negated: false,
        }
    }

    /// Equality condition on a numeric value.
    pub fn eq_number(attribute: impl Into<String>, value: f64) -> Self {
        Condition {
            attribute: attribute.into().to_lowercase(),
            comparison: Comparison::Eq(Value::number(value)),
            negated: false,
        }
    }

    /// Build a condition with an arbitrary comparison.
    pub fn new(attribute: impl Into<String>, comparison: Comparison) -> Self {
        Condition {
            attribute: attribute.into().to_lowercase(),
            comparison,
            negated: false,
        }
    }

    /// Negate this condition (Boolean NOT).
    pub fn negated(mut self) -> Self {
        self.negated = !self.negated;
        self
    }

    /// Evaluate the condition against a stored value. A missing value never matches a
    /// positive condition and always matches a negated one (the ad does not carry the
    /// excluded property).
    pub fn matches_value(&self, stored: Option<&Value>) -> bool {
        let base = match stored {
            Some(v) => self.comparison.matches(v),
            None => false,
        };
        if self.negated {
            !base
        } else {
            base
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "NOT ({} {})", self.attribute, self.comparison)
        } else {
            write!(f, "{} {}", self.attribute, self.comparison)
        }
    }
}

/// Boolean combination of selection conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolExpr {
    /// A single condition leaf.
    Cond(Condition),
    /// Conjunction of sub-expressions.
    And(Vec<BoolExpr>),
    /// Disjunction of sub-expressions.
    Or(Vec<BoolExpr>),
    /// Negation of a sub-expression.
    Not(Box<BoolExpr>),
    /// The always-true expression (a question with only superlatives, e.g. "cheapest").
    True,
}

impl BoolExpr {
    /// Conjunction helper that flattens nested ANDs and drops `True` operands.
    pub fn and(exprs: Vec<BoolExpr>) -> BoolExpr {
        let mut flat = Vec::new();
        for e in exprs {
            match e {
                BoolExpr::And(inner) => flat.extend(inner),
                BoolExpr::True => {}
                other => flat.push(other),
            }
        }
        match flat.pop() {
            None => BoolExpr::True,
            Some(only) if flat.is_empty() => only,
            Some(last) => {
                flat.push(last);
                BoolExpr::And(flat)
            }
        }
    }

    /// Disjunction helper that flattens nested ORs.
    pub fn or(exprs: Vec<BoolExpr>) -> BoolExpr {
        let mut flat = Vec::new();
        for e in exprs {
            match e {
                BoolExpr::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.pop() {
            None => BoolExpr::True,
            Some(only) if flat.is_empty() => only,
            Some(last) => {
                flat.push(last);
                BoolExpr::Or(flat)
            }
        }
    }

    /// All condition leaves in the expression, in left-to-right order.
    pub fn conditions(&self) -> Vec<&Condition> {
        let mut out = Vec::new();
        self.collect_conditions(&mut out);
        out
    }

    fn collect_conditions<'a>(&'a self, out: &mut Vec<&'a Condition>) {
        match self {
            BoolExpr::Cond(c) => out.push(c),
            BoolExpr::And(v) | BoolExpr::Or(v) => {
                for e in v {
                    e.collect_conditions(out);
                }
            }
            BoolExpr::Not(e) => e.collect_conditions(out),
            BoolExpr::True => {}
        }
    }

    /// Evaluate the expression against one record, leaf by leaf through
    /// [`Condition::matches_value`] — the record-scan definition of a query's
    /// semantics, which the executor's index-driven streams are tested against.
    pub fn matches(&self, record: &Record) -> bool {
        match self {
            BoolExpr::Cond(c) => c.matches_value(record.get(&c.attribute)),
            BoolExpr::And(v) => v.iter().all(|e| e.matches(record)),
            BoolExpr::Or(v) => v.iter().any(|e| e.matches(record)),
            BoolExpr::Not(e) => !e.matches(record),
            BoolExpr::True => true,
        }
    }

    /// Number of condition leaves (the `N` of the paper's N−1 strategy).
    pub fn condition_count(&self) -> usize {
        self.conditions().len()
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Cond(c) => write!(f, "{c}"),
            BoolExpr::And(v) => {
                let parts: Vec<String> = v.iter().map(|e| format!("({e})")).collect();
                write!(f, "{}", parts.join(" AND "))
            }
            BoolExpr::Or(v) => {
                let parts: Vec<String> = v.iter().map(|e| format!("({e})")).collect();
                write!(f, "{}", parts.join(" OR "))
            }
            BoolExpr::Not(e) => write!(f, "NOT ({e})"),
            BoolExpr::True => write!(f, "TRUE"),
        }
    }
}

/// Direction of a superlative request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuperlativeKind {
    /// Minimum value wins ("cheapest", "oldest").
    Min,
    /// Maximum value wins ("newest", "most expensive").
    Max,
}

/// A superlative evaluated after every other condition, as mandated by Section 4.3.
#[derive(Debug, Clone, PartialEq)]
pub struct Superlative {
    /// Numeric attribute the superlative ranges over ("price", "year").
    pub attribute: String,
    /// Whether the minimum or the maximum value is requested.
    pub kind: SuperlativeKind,
}

impl Superlative {
    /// Minimum-value superlative.
    pub fn min(attribute: impl Into<String>) -> Self {
        Superlative {
            attribute: attribute.into().to_lowercase(),
            kind: SuperlativeKind::Min,
        }
    }

    /// Maximum-value superlative.
    pub fn max(attribute: impl Into<String>) -> Self {
        Superlative {
            attribute: attribute.into().to_lowercase(),
            kind: SuperlativeKind::Max,
        }
    }
}

impl fmt::Display for Superlative {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SuperlativeKind::Min => write!(f, "group by {} ASC", self.attribute),
            SuperlativeKind::Max => write!(f, "group by {} DESC", self.attribute),
        }
    }
}

/// A complete query statement against one ads table.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Target table (ads domain) name.
    pub table: String,
    /// WHERE clause.
    pub expr: BoolExpr,
    /// Superlatives evaluated after the WHERE clause.
    pub superlatives: Vec<Superlative>,
    /// Maximum number of answers to return.
    pub limit: usize,
}

impl Query {
    /// New query against `table` with no conditions and the paper's 30-answer limit.
    pub fn new(table: impl Into<String>) -> Self {
        Query {
            table: table.into(),
            expr: BoolExpr::True,
            superlatives: Vec::new(),
            limit: crate::DEFAULT_ANSWER_LIMIT,
        }
    }

    /// AND a condition into the WHERE clause.
    pub fn with_condition(mut self, condition: Condition) -> Self {
        self.expr = BoolExpr::and(vec![self.expr, BoolExpr::Cond(condition)]);
        self
    }

    /// Replace the WHERE clause with an arbitrary boolean expression.
    pub fn with_expr(mut self, expr: BoolExpr) -> Self {
        self.expr = expr;
        self
    }

    /// Append a superlative.
    pub fn with_superlative(mut self, superlative: Superlative) -> Self {
        self.superlatives.push(superlative);
        self
    }

    /// Override the answer limit.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Number of selection conditions, counting each superlative as one condition (the
    /// paper's N when computing Rank_Sim includes every selection criterion).
    pub fn condition_count(&self) -> usize {
        self.expr.condition_count() + self.superlatives.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_matches_numeric_and_text() {
        assert!(Comparison::Eq(Value::text("blue")).matches(&Value::text("Blue")));
        assert!(Comparison::Lt(5000.0).matches(&Value::number(4999.0)));
        assert!(!Comparison::Lt(5000.0).matches(&Value::number(5000.0)));
        assert!(Comparison::Le(5000.0).matches(&Value::number(5000.0)));
        assert!(Comparison::Gt(2000.0).matches(&Value::number(2001.0)));
        assert!(Comparison::Ge(2000.0).matches(&Value::number(2000.0)));
        assert!(Comparison::Between(2000.0, 7000.0).matches(&Value::number(7000.0)));
        assert!(!Comparison::Between(2000.0, 7000.0).matches(&Value::number(7001.0)));
        // type mismatches never match
        assert!(!Comparison::Lt(5.0).matches(&Value::text("five")));
        assert!(!Comparison::Eq(Value::text("blue")).matches(&Value::number(1.0)));
    }

    #[test]
    fn negated_condition_inverts_and_missing_values_behave() {
        let c = Condition::eq("color", "blue");
        assert!(c.matches_value(Some(&Value::text("blue"))));
        assert!(!c.matches_value(Some(&Value::text("red"))));
        assert!(!c.matches_value(None));
        let n = c.negated();
        assert!(!n.matches_value(Some(&Value::text("blue"))));
        assert!(n.matches_value(Some(&Value::text("red"))));
        assert!(n.matches_value(None));
        // double negation restores the original
        let nn = n.negated();
        assert!(!nn.negated);
    }

    #[test]
    fn and_or_flatten_and_simplify() {
        let a = BoolExpr::Cond(Condition::eq("make", "honda"));
        let b = BoolExpr::Cond(Condition::eq("color", "blue"));
        let c = BoolExpr::Cond(Condition::eq("model", "accord"));
        let nested = BoolExpr::and(vec![a.clone(), BoolExpr::and(vec![b.clone(), c.clone()])]);
        assert!(matches!(&nested, BoolExpr::And(v) if v.len() == 3));
        let with_true = BoolExpr::and(vec![BoolExpr::True, a.clone()]);
        assert_eq!(with_true, a);
        assert_eq!(BoolExpr::and(vec![]), BoolExpr::True);
        let or = BoolExpr::or(vec![BoolExpr::or(vec![a.clone(), b.clone()]), c.clone()]);
        assert!(matches!(&or, BoolExpr::Or(v) if v.len() == 3));
        assert_eq!(BoolExpr::or(vec![b.clone()]), b);
    }

    #[test]
    fn conditions_are_collected_in_order() {
        let expr = BoolExpr::or(vec![
            BoolExpr::and(vec![
                BoolExpr::Cond(Condition::eq("make", "honda")),
                BoolExpr::Cond(Condition::eq("color", "blue")),
            ]),
            BoolExpr::Not(Box::new(BoolExpr::Cond(Condition::eq(
                "transmission",
                "manual",
            )))),
        ]);
        let attrs: Vec<_> = expr
            .conditions()
            .iter()
            .map(|c| c.attribute.clone())
            .collect();
        assert_eq!(attrs, vec!["make", "color", "transmission"]);
        assert_eq!(expr.condition_count(), 3);
    }

    #[test]
    fn query_builder_accumulates_parts() {
        let q = Query::new("cars")
            .with_condition(Condition::eq("make", "honda"))
            .with_condition(Condition::new("price", Comparison::Lt(15_000.0)))
            .with_superlative(Superlative::min("price"))
            .with_limit(10);
        assert_eq!(q.table, "cars");
        assert_eq!(q.limit, 10);
        assert_eq!(q.condition_count(), 3);
        assert_eq!(q.superlatives[0], Superlative::min("price"));
    }

    #[test]
    fn display_renders_sql_like_fragments() {
        let c = Condition::new("price", Comparison::Between(2000.0, 7000.0));
        assert_eq!(c.to_string(), "price BETWEEN 2000 AND 7000");
        let n = Condition::eq("color", "blue").negated();
        assert_eq!(n.to_string(), "NOT (color = 'blue')");
        assert_eq!(Superlative::max("year").to_string(), "group by year DESC");
        let expr = BoolExpr::or(vec![
            BoolExpr::Cond(Condition::eq("model", "focus")),
            BoolExpr::Cond(Condition::eq("model", "corolla")),
        ]);
        assert_eq!(expr.to_string(), "(model = 'focus') OR (model = 'corolla')");
        assert_eq!(BoolExpr::True.to_string(), "TRUE");
    }
}
