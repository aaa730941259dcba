//! Relational schemas for ads domains.
//!
//! Every ads domain (Cars-for-Sale, CS Jobs, ...) is described by one [`Schema`]
//! enumerating its attributes and their paper-defined types:
//!
//! * [`AttrType::TypeI`] — required identifiers of the advertised product or service
//!   (car Make/Model, job Title). Primary-indexed.
//! * [`AttrType::TypeII`] — optional descriptive properties (Color, Transmission).
//!   Secondary-indexed.
//! * [`AttrType::TypeIII`] — quantitative attributes (Price, Year, Mileage) with a
//!   *valid value range*. The range plays two roles in the paper: it drives the "best
//!   guess" for incomplete questions (Section 4.2.2 — a bare `2000` could be a Year,
//!   Price or Mileage only if it falls inside the respective ranges) and it is the
//!   normalization factor of `Num_Sim` (Equation 4).

use crate::error::{DbError, DbResult};
use std::collections::HashMap;

/// The three attribute categories defined in Section 4.1.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// Required identifier of the advertised product (primary-indexed).
    TypeI,
    /// Descriptive property (secondary-indexed).
    TypeII,
    /// Quantitative attribute with a valid numeric range.
    TypeIII,
}

impl AttrType {
    /// Short label used in tagged-question displays, mirroring the paper's Example 2
    /// notation (`TI`, `TII`, `TIII`).
    pub fn label(&self) -> &'static str {
        match self {
            AttrType::TypeI => "TI",
            AttrType::TypeII => "TII",
            AttrType::TypeIII => "TIII",
        }
    }
}

/// Definition of one attribute (column) in an ads domain schema.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeDef {
    /// Column name, lowercase.
    pub name: String,
    /// Paper-defined attribute category.
    pub attr_type: AttrType,
    /// Valid numeric range for Type III attributes (`None` for Type I/II).
    pub range: Option<(f64, f64)>,
    /// Optional measurement unit keyword ("usd", "miles") — itself treated as a Type III
    /// attribute value by the identifiers table (Table 1).
    pub unit: Option<String>,
}

impl AttributeDef {
    /// Width of the valid range, the `Attribute_Value_Range` normalization factor of
    /// Equation 4. Returns `None` for categorical attributes.
    pub fn range_width(&self) -> Option<f64> {
        self.range.map(|(lo, hi)| (hi - lo).abs())
    }

    /// True if a numeric value falls inside this attribute's valid range (inclusive).
    /// Categorical attributes never contain numeric values.
    pub fn contains(&self, v: f64) -> bool {
        match self.range {
            Some((lo, hi)) => v >= lo && v <= hi,
            None => false,
        }
    }
}

/// Relational schema for a single ads domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Domain / table name (e.g. "cars").
    pub name: String,
    attributes: Vec<AttributeDef>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    /// Start building a schema for the named domain.
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder {
            name: name.into(),
            attributes: Vec::new(),
        }
    }

    /// All attribute definitions in declaration order.
    pub fn attributes(&self) -> &[AttributeDef] {
        &self.attributes
    }

    /// Look up an attribute by (lowercase) name.
    pub fn attribute(&self, name: &str) -> Option<&AttributeDef> {
        self.by_name
            .get(&name.to_lowercase())
            .map(|&i| &self.attributes[i])
    }

    /// Like [`Schema::attribute`] but producing the crate error type.
    pub fn require(&self, name: &str) -> DbResult<&AttributeDef> {
        self.attribute(name)
            .ok_or_else(|| DbError::UnknownAttribute {
                table: self.name.clone(),
                attribute: name.to_string(),
            })
    }

    /// Names of all Type I attributes (the primary-indexed identifier columns).
    pub fn type1_names(&self) -> Vec<&str> {
        self.of_type(AttrType::TypeI)
    }

    /// Names of all Type II attributes.
    pub fn type2_names(&self) -> Vec<&str> {
        self.of_type(AttrType::TypeII)
    }

    /// Names of all Type III attributes.
    pub fn type3_names(&self) -> Vec<&str> {
        self.of_type(AttrType::TypeIII)
    }

    fn of_type(&self, t: AttrType) -> Vec<&str> {
        self.attributes
            .iter()
            .filter(|a| a.attr_type == t)
            .map(|a| a.name.as_str())
            .collect()
    }

    /// Type III attributes whose valid range contains `v` — the candidate columns for an
    /// unlabeled numeric value in an incomplete question (Section 4.2.2, Example 3).
    pub fn numeric_candidates(&self, v: f64) -> Vec<&AttributeDef> {
        self.attributes
            .iter()
            .filter(|a| a.attr_type == AttrType::TypeIII && a.contains(v))
            .collect()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// True if the schema has no attributes (never the case for a valid schema).
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }
}

/// Incremental builder for [`Schema`].
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    name: String,
    attributes: Vec<AttributeDef>,
}

impl SchemaBuilder {
    /// Add a Type I (identifier, primary-indexed) attribute.
    pub fn type1(mut self, name: impl Into<String>) -> Self {
        self.attributes.push(AttributeDef {
            name: name.into().to_lowercase(),
            attr_type: AttrType::TypeI,
            range: None,
            unit: None,
        });
        self
    }

    /// Add a Type II (descriptive, secondary-indexed) attribute.
    pub fn type2(mut self, name: impl Into<String>) -> Self {
        self.attributes.push(AttributeDef {
            name: name.into().to_lowercase(),
            attr_type: AttrType::TypeII,
            range: None,
            unit: None,
        });
        self
    }

    /// Add a Type III (quantitative) attribute with its valid range and optional unit.
    pub fn type3(
        mut self,
        name: impl Into<String>,
        low: f64,
        high: f64,
        unit: Option<&str>,
    ) -> Self {
        self.attributes.push(AttributeDef {
            name: name.into().to_lowercase(),
            attr_type: AttrType::TypeIII,
            range: Some((low.min(high), low.max(high))),
            unit: unit.map(|u| u.to_lowercase()),
        });
        self
    }

    /// Finish building, validating that the schema is well-formed: at least one Type I
    /// attribute, no duplicate names, non-degenerate Type III ranges.
    pub fn build(self) -> DbResult<Schema> {
        if self.attributes.is_empty() {
            return Err(DbError::InvalidSchema(format!(
                "schema `{}` has no attributes",
                self.name
            )));
        }
        if !self
            .attributes
            .iter()
            .any(|a| a.attr_type == AttrType::TypeI)
        {
            return Err(DbError::InvalidSchema(format!(
                "schema `{}` has no Type I attribute; every ad must have a unique identifier",
                self.name
            )));
        }
        let mut by_name = HashMap::with_capacity(self.attributes.len());
        for (i, attr) in self.attributes.iter().enumerate() {
            if by_name.insert(attr.name.clone(), i).is_some() {
                return Err(DbError::InvalidSchema(format!(
                    "schema `{}` declares attribute `{}` twice",
                    self.name, attr.name
                )));
            }
            if let Some((lo, hi)) = attr.range {
                // NaN bounds must fail validation too, so compare via partial_cmp
                // rather than `hi <= lo`.
                if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
                    return Err(DbError::InvalidSchema(format!(
                        "attribute `{}` has a degenerate range [{lo}, {hi}]",
                        attr.name
                    )));
                }
            }
        }
        Ok(Schema {
            name: self.name,
            attributes: self.attributes,
            by_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn car_schema() -> Schema {
        Schema::builder("cars")
            .type1("make")
            .type1("model")
            .type2("color")
            .type2("transmission")
            .type3("price", 500.0, 120_000.0, Some("usd"))
            .type3("year", 1985.0, 2011.0, None)
            .type3("mileage", 0.0, 300_000.0, Some("miles"))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_expected_attribute_groups() {
        let s = car_schema();
        assert_eq!(s.type1_names(), vec!["make", "model"]);
        assert_eq!(s.type2_names(), vec!["color", "transmission"]);
        assert_eq!(s.type3_names(), vec!["price", "year", "mileage"]);
        assert_eq!(s.len(), 7);
        assert!(!s.is_empty());
    }

    #[test]
    fn attribute_lookup_is_case_insensitive() {
        let s = car_schema();
        assert!(s.attribute("Make").is_some());
        assert!(s.attribute("PRICE").is_some());
        assert!(s.attribute("wheels").is_none());
        assert!(s.require("wheels").is_err());
    }

    #[test]
    fn numeric_candidates_follow_ranges_like_example_3() {
        let s = car_schema();
        // 2000 is a valid year, price and mileage.
        let names: Vec<_> = s
            .numeric_candidates(2000.0)
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["price", "year", "mileage"]);
        // 4000 is not a valid year.
        let names: Vec<_> = s
            .numeric_candidates(4000.0)
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["price", "mileage"]);
        // 500000 is outside every range.
        assert!(s.numeric_candidates(500_000.0).is_empty());
    }

    #[test]
    fn range_width_is_num_sim_normalizer() {
        let s = car_schema();
        let year = s.attribute("year").unwrap();
        assert_eq!(year.range_width(), Some(2011.0 - 1985.0));
        assert_eq!(s.attribute("color").unwrap().range_width(), None);
    }

    #[test]
    fn schema_requires_type1_attribute() {
        let err = Schema::builder("bad").type2("color").build().unwrap_err();
        assert!(matches!(err, DbError::InvalidSchema(_)));
    }

    #[test]
    fn schema_rejects_duplicates_and_bad_ranges() {
        let err = Schema::builder("bad")
            .type1("make")
            .type1("make")
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidSchema(_)));
        let err = Schema::builder("bad")
            .type1("make")
            .type3("price", 10.0, 10.0, None)
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidSchema(_)));
        let err = Schema::builder("empty").build().unwrap_err();
        assert!(matches!(err, DbError::InvalidSchema(_)));
    }

    #[test]
    fn attr_type_labels_match_paper_notation() {
        assert_eq!(AttrType::TypeI.label(), "TI");
        assert_eq!(AttrType::TypeII.label(), "TII");
        assert_eq!(AttrType::TypeIII.label(), "TIII");
    }
}
