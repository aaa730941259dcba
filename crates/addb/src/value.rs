//! Attribute values stored in advertisement records.
//!
//! The paper distinguishes categorical (alpha-numerical string) values used by Type I
//! and Type II attributes from quantitative values used by Type III attributes. A
//! [`Value`] covers both; all text is normalized to lowercase at construction time so
//! that keyword matching in the CQAds pipeline is case-insensitive, mirroring the way
//! the paper treats user questions ("BMW" and "bmw" identify the same make).

use std::cmp::Ordering;
use std::fmt;

/// A single attribute value inside an advertisement record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Categorical value (Type I / Type II attributes): stored lowercase.
    Text(String),
    /// Quantitative value (Type III attributes).
    Number(f64),
}

impl Value {
    /// Create a categorical value. The text is trimmed and lowercased.
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(normalize_text(s.as_ref()))
    }

    /// Create a quantitative value.
    pub fn number(n: f64) -> Self {
        Value::Number(n)
    }

    /// Return the categorical payload, if this is a text value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            Value::Number(_) => None,
        }
    }

    /// Return the numeric payload, if this is a number value.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Text(_) => None,
        }
    }

    /// True if this is a categorical (text) value.
    pub fn is_text(&self) -> bool {
        matches!(self, Value::Text(_))
    }

    /// True if this is a quantitative (numeric) value.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    /// Compare two values for ordering purposes. Numbers order numerically, text orders
    /// lexicographically; a number always sorts before text (this situation never
    /// arises for well-typed columns, but keeps the ordering total).
    pub fn partial_cmp_value(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Number(a), Value::Number(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Number(_), Value::Text(_)) => Ordering::Less,
            (Value::Text(_), Value::Number(_)) => Ordering::Greater,
        }
    }

    /// Human-readable type name used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Text(_) => "text",
            Value::Number(_) => "number",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => write!(f, "{s}"),
            Value::Number(n) => {
                if (n.fract()).abs() < f64::EPSILON {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::text(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::text(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Number(n as f64)
    }
}

/// Normalize categorical text: trim, lowercase and collapse internal whitespace runs to
/// a single space. CQAds performs the same normalization on question keywords before
/// matching them against the database.
pub fn normalize_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for ch in s.trim().chars() {
        if ch.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn text_is_normalized() {
        assert_eq!(
            Value::text("  Honda   Accord "),
            Value::Text("honda accord".into())
        );
        assert_eq!(Value::text("BMW"), Value::text("bmw"));
    }

    #[test]
    fn accessors_return_expected_variants() {
        let t = Value::text("blue");
        let n = Value::number(15_000.0);
        assert_eq!(t.as_text(), Some("blue"));
        assert_eq!(t.as_number(), None);
        assert_eq!(n.as_number(), Some(15_000.0));
        assert_eq!(n.as_text(), None);
        assert!(t.is_text() && !t.is_number());
        assert!(n.is_number() && !n.is_text());
    }

    #[test]
    fn display_formats_integers_without_fraction() {
        assert_eq!(Value::number(5000.0).to_string(), "5000");
        assert_eq!(Value::number(0.75).to_string(), "0.75");
        assert_eq!(Value::text("Red").to_string(), "red");
    }

    #[test]
    fn ordering_is_numeric_for_numbers() {
        assert_eq!(
            Value::number(2.0).partial_cmp_value(&Value::number(10.0)),
            Ordering::Less
        );
        assert_eq!(
            Value::text("accord").partial_cmp_value(&Value::text("camry")),
            Ordering::Less
        );
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from("Blue"), Value::text("blue"));
        assert_eq!(Value::from(2004_i64), Value::number(2004.0));
        assert_eq!(Value::from(3.5_f64), Value::number(3.5));
    }

    proptest! {
        #[test]
        fn normalize_is_idempotent(s in "[ a-zA-Z0-9]{0,40}") {
            let once = normalize_text(&s);
            let twice = normalize_text(&once);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn normalize_never_has_double_spaces(s in ".{0,60}") {
            let n = normalize_text(&s);
            prop_assert!(!n.contains("  "));
            prop_assert!(!n.starts_with(' '));
            prop_assert!(!n.ends_with(' '));
        }

        #[test]
        fn number_ordering_matches_f64(a in -1.0e6f64..1.0e6, b in -1.0e6f64..1.0e6) {
            let ord = Value::number(a).partial_cmp_value(&Value::number(b));
            prop_assert_eq!(ord, a.partial_cmp(&b).unwrap());
        }
    }
}
