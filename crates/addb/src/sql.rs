//! Render a [`crate::query::Query`] as the SQL statement CQAds would ship to the
//! relational backend (the paper uses MySQL; Example 7 shows the nested
//! `SELECT ... WHERE Car_ID IN (...)` shape that this module reproduces).

use crate::query::{BoolExpr, Condition, Query, SuperlativeKind};

/// Render a full SQL statement in the nested-subquery style of the paper's Example 7.
///
/// Every leaf condition becomes its own `Car_ID IN (SELECT ...)` sub-query; the
/// sub-queries are combined with AND/OR/NOT following the boolean expression; a
/// superlative becomes an `ORDER BY ... LIMIT` suffix (the paper writes `group by`,
/// which its MySQL layer resolves the same way).
pub fn render(query: &Query) -> String {
    let table = &query.table;
    let id_col = format!("{}_id", singular(table));
    let mut sql = format!(
        "SELECT * FROM {table} WHERE {}",
        render_expr(&query.expr, table, &id_col)
    );
    for s in &query.superlatives {
        let dir = match s.kind {
            SuperlativeKind::Min => "ASC",
            SuperlativeKind::Max => "DESC",
        };
        sql.push_str(&format!(" ORDER BY {} {dir}", s.attribute));
    }
    sql.push_str(&format!(" LIMIT {}", query.limit));
    sql
}

fn render_expr(expr: &BoolExpr, table: &str, id_col: &str) -> String {
    match expr {
        BoolExpr::True => "1 = 1".to_string(),
        BoolExpr::Cond(c) => render_condition(c, table, id_col),
        BoolExpr::And(parts) => parts
            .iter()
            .map(|p| format!("({})", render_expr(p, table, id_col)))
            .collect::<Vec<_>>()
            .join(" AND "),
        BoolExpr::Or(parts) => parts
            .iter()
            .map(|p| format!("({})", render_expr(p, table, id_col)))
            .collect::<Vec<_>>()
            .join(" OR "),
        BoolExpr::Not(inner) => format!("NOT ({})", render_expr(inner, table, id_col)),
    }
}

fn render_condition(cond: &Condition, table: &str, id_col: &str) -> String {
    let sub = format!(
        "{id_col} IN (SELECT {id_col} FROM {table} C WHERE C.{} {})",
        cond.attribute, cond.comparison
    );
    if cond.negated {
        format!("NOT ({sub})")
    } else {
        sub
    }
}

fn singular(table: &str) -> &str {
    table.strip_suffix('s').unwrap_or(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Comparison, Condition, Query, Superlative};

    #[test]
    fn renders_example_7_shape() {
        // "Do you have automatic blue cars?"
        let q = Query::new("cars")
            .with_condition(Condition::eq("transmission", "automatic"))
            .with_condition(Condition::eq("color", "blue"));
        let sql = render(&q);
        assert!(sql.starts_with("SELECT * FROM cars WHERE"));
        assert!(sql
            .contains("car_id IN (SELECT car_id FROM cars C WHERE C.transmission = 'automatic')"));
        assert!(sql.contains("car_id IN (SELECT car_id FROM cars C WHERE C.color = 'blue')"));
        assert!(sql.contains(" AND "));
        assert!(sql.ends_with("LIMIT 30"));
    }

    #[test]
    fn renders_negation_ranges_and_superlatives() {
        let q = Query::new("cars")
            .with_condition(Condition::eq("color", "blue").negated())
            .with_condition(Condition::new("price", Comparison::Between(2000.0, 7000.0)))
            .with_superlative(Superlative::min("price"));
        let sql = render(&q);
        assert!(sql.contains("NOT (car_id IN"));
        assert!(sql.contains("C.price BETWEEN 2000 AND 7000"));
        assert!(sql.contains("ORDER BY price ASC"));
    }

    #[test]
    fn renders_or_of_subexpressions() {
        let expr = BoolExpr::or(vec![
            BoolExpr::Cond(Condition::eq("model", "focus")),
            BoolExpr::Cond(Condition::eq("model", "corolla")),
        ]);
        let q = Query::new("cars").with_expr(expr);
        assert!(render(&q).contains(") OR ("));
    }

    #[test]
    fn quotes_text_and_prints_numbers_bare() {
        let q = Query::new("cars")
            .with_condition(Condition::eq_number("price", 501.0))
            .with_condition(Condition::eq("make", "honda"));
        let sql = render(&q);
        assert!(sql.contains("C.price = 501)"), "{sql}");
        assert!(sql.contains("C.make = 'honda')"), "{sql}");
    }

    #[test]
    fn true_where_clause_and_limit() {
        let q = Query::new("cars").with_limit(5);
        assert!(render(&q).contains("WHERE 1 = 1"));
        assert!(render(&q).ends_with("LIMIT 5"));
    }
}
