//! The identifiers table (Table 1 of the paper).
//!
//! Every keyword a trie can recognize carries an identifier describing its function in
//! the eventual SQL query: a Type I/II/III attribute value, a comparison operator, a
//! superlative ("group by …"), a boundary keyword, a negation or a Boolean operator.
//! This module defines the [`Tag`] payload stored in the trie and the *generic* keyword
//! entries that are the same for every ads domain (the domain-specific attribute values
//! are added by [`DomainSpec::build_trie`](crate::domain::DomainSpec::build_trie)).

use addb::SuperlativeKind;

/// Comparison role of a boundary keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryOp {
    /// `<` — "below", "under", "less than", "cheaper than", "fewer", "smaller".
    Lt,
    /// `<=` — "at most", "no more than", "up to".
    Le,
    /// `>` — "above", "over", "more than", "greater than", "higher than".
    Gt,
    /// `>=` — "at least", "no less than".
    Ge,
    /// `=` — "equal", "equals", "exactly".
    Eq,
    /// Range — "between", "within", "range".
    Between,
}

impl BoundaryOp {
    /// Complement used by Rule 1a when a boundary is negated ("not less than $2000" →
    /// "more than or equal to $2000").
    pub fn complement(self) -> BoundaryOp {
        match self {
            BoundaryOp::Lt => BoundaryOp::Ge,
            BoundaryOp::Le => BoundaryOp::Gt,
            BoundaryOp::Gt => BoundaryOp::Le,
            BoundaryOp::Ge => BoundaryOp::Lt,
            BoundaryOp::Eq => BoundaryOp::Eq,
            BoundaryOp::Between => BoundaryOp::Between,
        }
    }
}

/// Identifier assigned to a recognized keyword — the trie payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Tag {
    /// A Type I attribute value; the payload names the attribute ("make", "model").
    Type1Value {
        /// Attribute the value belongs to.
        attribute: String,
    },
    /// A Type II attribute value; the payload names the attribute ("color").
    Type2Value {
        /// Attribute the value belongs to.
        attribute: String,
    },
    /// A keyword naming a Type III attribute or its measurement unit ("price", "usd",
    /// "miles", "salary").
    Type3Attr {
        /// The numeric attribute referred to.
        attribute: String,
    },
    /// A complete superlative — carries its own attribute ("cheapest" → price, min).
    SuperlativeComplete {
        /// Attribute the superlative ranges over.
        attribute: String,
        /// Min or max.
        kind: SuperlativeKind,
    },
    /// A partial superlative — needs an attribute from context ("lowest", "max").
    SuperlativePartial {
        /// Min or max.
        kind: SuperlativeKind,
    },
    /// A complete boundary — carries its own attribute ("cheaper than" → price <).
    BoundaryComplete {
        /// Attribute the boundary constrains.
        attribute: String,
        /// Comparison direction.
        op: BoundaryOp,
    },
    /// A partial boundary — needs an attribute and value from context ("less than",
    /// "under", "between").
    BoundaryPartial {
        /// Comparison direction.
        op: BoundaryOp,
    },
    /// A negation keyword ("not", "no", "without", "except", ...).
    Negation,
    /// The Boolean OR keyword.
    Or,
    /// The Boolean AND keyword.
    And,
}

/// Generic keyword → tag entries shared by every ads domain, mirroring the
/// comparison / superlative / boundary / negation rows of Table 1. Domain-specific
/// superlatives ("cheapest" → price) are produced by
/// [`domain_superlatives`] because the target attribute names differ per domain.
pub fn generic_entries() -> Vec<(&'static str, Tag)> {
    use BoundaryOp::*;
    let mut entries: Vec<(&'static str, Tag)> = Vec::new();

    // Partial boundaries (Section 4.1.2): require an attribute and a value from context.
    for kw in [
        "less than",
        "lower than",
        "fewer than",
        "smaller than",
        "below",
        "under",
        "less",
    ] {
        entries.push((kw, Tag::BoundaryPartial { op: Lt }));
    }
    for kw in [
        "more than",
        "greater than",
        "higher than",
        "larger than",
        "bigger than",
        "above",
        "over",
        "more",
    ] {
        entries.push((kw, Tag::BoundaryPartial { op: Gt }));
    }
    for kw in ["at most", "no more than", "up to", "maximum of", "max of"] {
        entries.push((kw, Tag::BoundaryPartial { op: Le }));
    }
    for kw in [
        "at least",
        "no less than",
        "minimum of",
        "min of",
        "starting at",
    ] {
        entries.push((kw, Tag::BoundaryPartial { op: Ge }));
    }
    for kw in ["equal", "equals", "equal to", "exactly"] {
        entries.push((kw, Tag::BoundaryPartial { op: Eq }));
    }
    for kw in ["between", "within", "range", "from"] {
        entries.push((kw, Tag::BoundaryPartial { op: Between }));
    }

    // Partial superlatives: compare extreme values but need an attribute from context.
    for kw in ["lowest", "least", "fewest", "min", "minimum", "smallest"] {
        entries.push((
            kw,
            Tag::SuperlativePartial {
                kind: SuperlativeKind::Min,
            },
        ));
    }
    for kw in [
        "highest", "greatest", "most", "max", "maximum", "largest", "biggest",
    ] {
        entries.push((
            kw,
            Tag::SuperlativePartial {
                kind: SuperlativeKind::Max,
            },
        ));
    }

    // Negations (footnote 1, Section 4.4.1). Stemmed variants are matched by the
    // tagger, so listing the base forms is enough.
    for kw in [
        "not",
        "no",
        "without",
        "except",
        "excluding",
        "exclude",
        "remove",
        "nothing",
        "leave out",
        "dont",
        "don't",
    ] {
        entries.push((kw, Tag::Negation));
    }

    entries.push(("or", Tag::Or));
    entries.push(("and", Tag::And));
    entries
}

/// Domain-dependent superlative and boundary keywords. They are "complete" (Section
/// 4.1.2) because the keyword itself names the attribute: "cheapest" always refers to
/// the price-like attribute of the domain, "newest"/"oldest" to the year-like attribute.
///
/// * `price_attr` — the domain's cost attribute ("price", "salary", ...), if any.
/// * `year_attr` — the domain's recency attribute ("year"), if any.
pub fn domain_superlatives(
    price_attr: Option<&str>,
    year_attr: Option<&str>,
) -> Vec<(String, Tag)> {
    let mut entries = Vec::new();
    if let Some(price) = price_attr {
        for kw in [
            "cheapest",
            "inexpensive",
            "cheap",
            "lowest price",
            "most affordable",
        ] {
            entries.push((
                kw.to_string(),
                Tag::SuperlativeComplete {
                    attribute: price.to_string(),
                    kind: SuperlativeKind::Min,
                },
            ));
        }
        for kw in ["most expensive", "priciest"] {
            entries.push((
                kw.to_string(),
                Tag::SuperlativeComplete {
                    attribute: price.to_string(),
                    kind: SuperlativeKind::Max,
                },
            ));
        }
        for kw in ["cheaper than", "less expensive than", "cheaper"] {
            entries.push((
                kw.to_string(),
                Tag::BoundaryComplete {
                    attribute: price.to_string(),
                    op: BoundaryOp::Lt,
                },
            ));
        }
        for kw in ["more expensive than", "pricier than"] {
            entries.push((
                kw.to_string(),
                Tag::BoundaryComplete {
                    attribute: price.to_string(),
                    op: BoundaryOp::Gt,
                },
            ));
        }
    }
    if let Some(year) = year_attr {
        for kw in ["newest", "latest", "most recent"] {
            entries.push((
                kw.to_string(),
                Tag::SuperlativeComplete {
                    attribute: year.to_string(),
                    kind: SuperlativeKind::Max,
                },
            ));
        }
        for kw in ["oldest", "earliest"] {
            entries.push((
                kw.to_string(),
                Tag::SuperlativeComplete {
                    attribute: year.to_string(),
                    kind: SuperlativeKind::Min,
                },
            ));
        }
        for kw in ["newer than", "later than"] {
            entries.push((
                kw.to_string(),
                Tag::BoundaryComplete {
                    attribute: year.to_string(),
                    op: BoundaryOp::Gt,
                },
            ));
        }
        for kw in ["older than", "earlier than"] {
            entries.push((
                kw.to_string(),
                Tag::BoundaryComplete {
                    attribute: year.to_string(),
                    op: BoundaryOp::Lt,
                },
            ));
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_entries_cover_all_boundary_groups() {
        let entries = generic_entries();
        let find = |kw: &str| {
            entries
                .iter()
                .find(|(k, _)| *k == kw)
                .map(|(_, t)| t.clone())
        };
        assert_eq!(
            find("less than"),
            Some(Tag::BoundaryPartial { op: BoundaryOp::Lt })
        );
        assert_eq!(
            find("above"),
            Some(Tag::BoundaryPartial { op: BoundaryOp::Gt })
        );
        assert_eq!(
            find("between"),
            Some(Tag::BoundaryPartial {
                op: BoundaryOp::Between
            })
        );
        assert_eq!(
            find("at least"),
            Some(Tag::BoundaryPartial { op: BoundaryOp::Ge })
        );
        assert_eq!(find("not"), Some(Tag::Negation));
        assert_eq!(find("or"), Some(Tag::Or));
        assert!(matches!(
            find("lowest"),
            Some(Tag::SuperlativePartial { .. })
        ));
    }

    #[test]
    fn boundary_complement_matches_rule_1a() {
        assert_eq!(BoundaryOp::Lt.complement(), BoundaryOp::Ge);
        assert_eq!(BoundaryOp::Ge.complement(), BoundaryOp::Lt);
        assert_eq!(BoundaryOp::Gt.complement(), BoundaryOp::Le);
        assert_eq!(BoundaryOp::Le.complement(), BoundaryOp::Gt);
        assert_eq!(BoundaryOp::Eq.complement(), BoundaryOp::Eq);
        assert_eq!(BoundaryOp::Between.complement(), BoundaryOp::Between);
    }

    #[test]
    fn domain_superlatives_follow_table_1() {
        let entries = domain_superlatives(Some("price"), Some("year"));
        let find = |kw: &str| {
            entries
                .iter()
                .find(|(k, _)| k == kw)
                .map(|(_, t)| t.clone())
        };
        assert_eq!(
            find("cheapest"),
            Some(Tag::SuperlativeComplete {
                attribute: "price".into(),
                kind: SuperlativeKind::Min
            })
        );
        assert_eq!(
            find("newest"),
            Some(Tag::SuperlativeComplete {
                attribute: "year".into(),
                kind: SuperlativeKind::Max
            })
        );
        assert_eq!(
            find("older than"),
            Some(Tag::BoundaryComplete {
                attribute: "year".into(),
                op: BoundaryOp::Lt
            })
        );
        // Without a year attribute the year keywords disappear.
        let entries = domain_superlatives(Some("salary"), None);
        assert!(entries.iter().all(|(k, _)| !k.contains("newest")));
        assert!(entries.iter().any(|(k, _)| k == "cheapest"));
        assert!(domain_superlatives(None, None).is_empty());
    }

    #[test]
    fn no_duplicate_generic_keywords() {
        let entries = generic_entries();
        let mut kws: Vec<&str> = entries.iter().map(|(k, _)| *k).collect();
        let before = kws.len();
        kws.sort_unstable();
        kws.dedup();
        assert_eq!(before, kws.len());
    }
}
