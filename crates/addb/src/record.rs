//! Advertisement records (rows).
//!
//! A [`Record`] is a bag of attribute-name → [`Value`] pairs. Records are validated
//! against the table's [`Schema`](crate::schema::Schema) on insert: every Type I
//! attribute must be present (the paper calls these the *required* values that form the
//! ad's unique identifier) and value types must match the attribute category.

use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Stable identifier of a record within a table. Assigned by the table on insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u32);

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One advertisement: a mapping from attribute names to values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    fields: BTreeMap<String, Value>,
}

/// `attribute` as the keys are stored (lowercase), allocating only when lowercasing
/// changes it — field reads sit inside per-record scans and every insert.
fn key(attribute: &str) -> Cow<'_, str> {
    let unchanged = |c: char| {
        let mut lower = c.to_lowercase();
        lower.next() == Some(c) && lower.next().is_none()
    };
    if attribute.chars().all(unchanged) {
        Cow::Borrowed(attribute)
    } else {
        Cow::Owned(attribute.to_lowercase())
    }
}

impl Record {
    /// Start building a record.
    pub fn builder() -> RecordBuilder {
        RecordBuilder {
            record: Record::default(),
        }
    }

    /// Get the value stored for an attribute, if any.
    pub fn get(&self, attribute: &str) -> Option<&Value> {
        self.fields.get(key(attribute).as_ref())
    }

    /// Get the categorical value stored for an attribute, if it is text.
    pub fn get_text(&self, attribute: &str) -> Option<&str> {
        self.get(attribute).and_then(Value::as_text)
    }

    /// Get the numeric value stored for an attribute, if it is a number.
    pub fn get_number(&self, attribute: &str) -> Option<f64> {
        self.get(attribute).and_then(Value::as_number)
    }

    /// Set (or replace) an attribute value.
    pub fn set(&mut self, attribute: impl Into<String>, value: impl Into<Value>) {
        self.fields
            .insert(attribute.into().to_lowercase(), value.into());
    }

    /// True if the record carries a value for the attribute.
    pub fn has(&self, attribute: &str) -> bool {
        self.fields.contains_key(key(attribute).as_ref())
    }

    /// Iterate over `(attribute, value)` pairs in attribute-name order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of populated attributes.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if no attribute is populated.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Every categorical token in the record, useful for bag-of-words baselines
    /// (FAQFinder treats each ads record as a document).
    pub fn text_tokens(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for (_, v) in self.fields.iter() {
            if let Value::Text(s) = v {
                out.extend(s.split_whitespace());
            }
        }
        out
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        write!(f, "{{")?;
        for (k, v) in &self.fields {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Fluent builder for [`Record`].
#[derive(Debug, Clone, Default)]
pub struct RecordBuilder {
    record: Record,
}

impl RecordBuilder {
    /// Set a categorical attribute value.
    pub fn text(mut self, attribute: impl Into<String>, value: impl AsRef<str>) -> Self {
        self.record.set(attribute, Value::text(value.as_ref()));
        self
    }

    /// Set a quantitative attribute value.
    pub fn number(mut self, attribute: impl Into<String>, value: f64) -> Self {
        self.record.set(attribute, Value::number(value));
        self
    }

    /// Finish building.
    pub fn build(self) -> Record {
        self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_values() {
        let r = Record::builder()
            .text("Make", "Honda")
            .text("model", "Accord")
            .number("price", 6600.0)
            .build();
        assert_eq!(r.get_text("make"), Some("honda"));
        assert_eq!(r.get_text("MODEL"), Some("accord"));
        assert_eq!(r.get_number("price"), Some(6600.0));
        assert_eq!(r.get_number("make"), None);
        assert_eq!(r.len(), 3);
        assert!(r.has("price"));
        assert!(!r.has("color"));
    }

    #[test]
    fn lookups_ignore_the_case_of_the_attribute_name() {
        let r = Record::builder()
            .text("Stra\u{df}e", "hauptstrasse")
            .number("\u{1c5}emal", 3.0)
            .build();
        // As given when already lowercase, lowercased otherwise — uppercase, mixed
        // case and a titlecase letter (`\u{1c5}`, which is not `char::is_uppercase`).
        for name in ["stra\u{df}e", "STRA\u{df}E", "Stra\u{df}e"] {
            assert_eq!(r.get_text(name), Some("hauptstrasse"), "{name}");
            assert!(r.has(name), "{name}");
        }
        for name in ["\u{1c6}emal", "\u{1c5}emal", "\u{1c4}EMAL"] {
            assert_eq!(r.get_number(name), Some(3.0), "{name}");
            assert!(r.has(name), "{name}");
        }
        assert!(!r.has("strasse") && r.get("EMAL").is_none());
    }

    #[test]
    fn set_replaces_existing_value() {
        let mut r = Record::builder().text("color", "red").build();
        r.set("color", Value::text("blue"));
        assert_eq!(r.get_text("color"), Some("blue"));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn text_tokens_flatten_multi_word_values() {
        let r = Record::builder()
            .text("features", "power steering")
            .text("color", "blue")
            .number("price", 100.0)
            .build();
        let mut toks = r.text_tokens();
        toks.sort_unstable();
        assert_eq!(toks, vec!["blue", "power", "steering"]);
    }

    #[test]
    fn display_lists_fields() {
        let r = Record::builder()
            .text("make", "honda")
            .number("year", 2004.0)
            .build();
        let s = r.to_string();
        assert!(s.contains("make: honda"));
        assert!(s.contains("year: 2004"));
    }

    #[test]
    fn record_id_displays_with_hash() {
        assert_eq!(RecordId(7).to_string(), "#7");
    }

    #[test]
    fn empty_record_reports_empty() {
        let r = Record::default();
        assert!(r.is_empty());
        assert_eq!(r.fields().count(), 0);
    }
}
