//! The declarative criteria DSL and its executor.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use zeroed_features::pattern::{generalize, Level};
use zeroed_table::value::{is_missing, parse_numeric, tokenize};
use zeroed_table::Table;

/// The executable body of a criterion. Every variant answers the question
/// "does this cell value *satisfy* the check?" — `true` means the value looks
/// clean with respect to this criterion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Check {
    /// The value must not be missing (empty or a null placeholder).
    NotMissing,
    /// The value's character-class pattern (uppercase/lowercase/digit/symbol
    /// runs, as produced by `zeroed-features::pattern::generalize` at L3) must
    /// be one of the allowed templates.
    PatternTemplate {
        /// Allowed generalised patterns.
        allowed: HashSet<String>,
    },
    /// The value's length (in characters) must fall in `[min, max]`.
    LengthRange {
        /// Minimum length.
        min: usize,
        /// Maximum length.
        max: usize,
    },
    /// The value must parse as a number within `[min, max]`.
    NumericRange {
        /// Minimum value.
        min: f64,
        /// Maximum value.
        max: f64,
    },
    /// The value (case-insensitively) must belong to a fixed domain.
    Domain {
        /// Allowed values, lower-cased.
        allowed: HashSet<String>,
    },
    /// The value may only contain the listed character classes.
    Charset {
        /// Letters allowed.
        letters: bool,
        /// ASCII digits allowed.
        digits: bool,
        /// Whitespace allowed.
        whitespace: bool,
        /// Additional allowed symbol characters.
        symbols: Vec<char>,
    },
    /// The number of whitespace-separated tokens must fall in `[min, max]`.
    TokenCountRange {
        /// Minimum token count.
        min: usize,
        /// Maximum token count.
        max: usize,
    },
    /// Functional-dependency consistency: when the determinant column's value
    /// appears in `mapping`, this value must equal the mapped value
    /// (case-insensitive). Unknown determinants pass (the criterion cannot
    /// judge them).
    FdLookup {
        /// Index of the determinant column.
        determinant_col: usize,
        /// determinant value (lower-cased) → expected dependent value
        /// (lower-cased).
        mapping: HashMap<String, String>,
    },
    /// Cross-attribute keyword consistency (the paper's Hospital example):
    /// when the other column's value contains `trigger`, this value must
    /// contain `required`. Comparison is case-insensitive.
    CrossKeyword {
        /// Index of the other column.
        other_col: usize,
        /// `(trigger substring in other column, required substring here)`.
        pairs: Vec<(String, String)>,
    },
}

impl Check {
    /// Evaluates the check for cell `(row, col)` of `table`.
    pub fn evaluate(&self, table: &Table, row: usize, col: usize) -> bool {
        let value = table.cell(row, col);
        match self {
            Check::NotMissing => !is_missing(value),
            Check::PatternTemplate { allowed } => allowed.contains(&generalize(value, Level::L3)),
            Check::LengthRange { min, max } => {
                let len = value.chars().count();
                len >= *min && len <= *max
            }
            Check::NumericRange { min, max } => parse_numeric(value)
                .map(|x| x >= *min && x <= *max)
                .unwrap_or(false),
            Check::Domain { allowed } => allowed.contains(&value.trim().to_lowercase()),
            Check::Charset {
                letters,
                digits,
                whitespace,
                symbols,
            } => value.chars().all(|c| {
                (c.is_alphabetic() && *letters)
                    || (c.is_ascii_digit() && *digits)
                    || (c.is_whitespace() && *whitespace)
                    || symbols.contains(&c)
            }),
            Check::TokenCountRange { min, max } => {
                let n = tokenize(value).len();
                n >= *min && n <= *max
            }
            Check::FdLookup {
                determinant_col,
                mapping,
            } => {
                let det = table.cell(row, *determinant_col).trim().to_lowercase();
                match mapping.get(&det) {
                    Some(expected) => value.trim().to_lowercase() == *expected,
                    None => true,
                }
            }
            Check::CrossKeyword { other_col, pairs } => {
                let other = table.cell(row, *other_col).to_lowercase();
                let this = value.to_lowercase();
                for (trigger, required) in pairs {
                    if other.contains(trigger.as_str()) && !this.contains(required.as_str()) {
                        return false;
                    }
                }
                true
            }
        }
    }
}

/// A named error-checking criterion with its rationale (the "error reason" the
/// LLM articulated when generating it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Criterion {
    /// Identifier, e.g. `is_clean_zip_format`.
    pub name: String,
    /// Natural-language explanation of the error reason this check encodes.
    pub rationale: String,
    /// The executable check.
    pub check: Check,
}

impl Criterion {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, rationale: impl Into<String>, check: Check) -> Self {
        Self {
            name: name.into(),
            rationale: rationale.into(),
            check,
        }
    }

    /// Evaluates the criterion on one cell; `true` means "satisfied / looks
    /// clean".
    pub fn evaluate(&self, table: &Table, row: usize, col: usize) -> bool {
        self.check.evaluate(table, row, col)
    }
}

/// The criteria attached to one attribute.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CriteriaSet {
    /// Attribute (column) index the criteria apply to.
    pub column: usize,
    /// The criteria themselves.
    pub criteria: Vec<Criterion>,
}

impl CriteriaSet {
    /// Creates an empty set for a column.
    pub fn new(column: usize) -> Self {
        Self {
            column,
            criteria: Vec::new(),
        }
    }

    /// Number of criteria.
    pub fn len(&self) -> usize {
        self.criteria.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.criteria.is_empty()
    }

    /// Evaluates every criterion on one cell, returning the binary vector used
    /// as the error-reason-aware feature `f_cri(D[i,j])`.
    pub fn evaluate_cell(&self, table: &Table, row: usize) -> Vec<bool> {
        self.criteria
            .iter()
            .map(|c| c.evaluate(table, row, self.column))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            "t",
            vec!["MeasureCode".into(), "Condition".into(), "ZipCode".into()],
            vec![
                vec!["scip-card-2".into(), "surgical infection prevention".into(), "35233".into()],
                vec!["ami-card-3".into(), "heart attack".into(), "90210".into()],
                vec!["pn-card-5".into(), "heart attack".into(), "9021".into()],
                vec!["ami-card-3".into(), "".into(), "90x10".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn not_missing_and_domain() {
        let t = table();
        assert!(Check::NotMissing.evaluate(&t, 0, 1));
        assert!(!Check::NotMissing.evaluate(&t, 3, 1));
        let dom = Check::Domain {
            allowed: ["heart attack", "pneumonia", "surgical infection prevention"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        };
        assert!(dom.evaluate(&t, 1, 1));
        assert!(!dom.evaluate(&t, 3, 1));
    }

    #[test]
    fn pattern_length_numeric_charset() {
        let t = table();
        let zip_pattern = Check::PatternTemplate {
            allowed: [generalize("12345", Level::L3)].into_iter().collect(),
        };
        assert!(zip_pattern.evaluate(&t, 0, 2));
        assert!(!zip_pattern.evaluate(&t, 2, 2)); // too short
        assert!(!zip_pattern.evaluate(&t, 3, 2)); // contains a letter

        assert!(Check::LengthRange { min: 5, max: 5 }.evaluate(&t, 0, 2));
        assert!(!Check::LengthRange { min: 5, max: 5 }.evaluate(&t, 2, 2));

        assert!(Check::NumericRange { min: 0.0, max: 99999.0 }.evaluate(&t, 0, 2));
        assert!(!Check::NumericRange { min: 0.0, max: 99999.0 }.evaluate(&t, 3, 2));

        let digits_only = Check::Charset {
            letters: false,
            digits: true,
            whitespace: false,
            symbols: vec![],
        };
        assert!(digits_only.evaluate(&t, 0, 2));
        assert!(!digits_only.evaluate(&t, 3, 2));
    }

    #[test]
    fn token_count() {
        let t = table();
        assert!(Check::TokenCountRange { min: 2, max: 4 }.evaluate(&t, 1, 1));
        assert!(!Check::TokenCountRange { min: 2, max: 4 }.evaluate(&t, 3, 1));
    }

    #[test]
    fn fd_lookup_and_cross_keyword() {
        let t = table();
        let mut mapping = HashMap::new();
        mapping.insert("scip-card-2".to_string(), "surgical infection prevention".to_string());
        mapping.insert("ami-card-3".to_string(), "heart attack".to_string());
        let fd = Check::FdLookup {
            determinant_col: 0,
            mapping,
        };
        assert!(fd.evaluate(&t, 0, 1));
        assert!(fd.evaluate(&t, 1, 1));
        assert!(fd.evaluate(&t, 2, 1)); // unknown determinant passes
        assert!(!fd.evaluate(&t, 3, 1)); // empty condition for ami

        // Mirrors the paper's Fig. 4 Hospital criterion.
        let cross = Check::CrossKeyword {
            other_col: 0,
            pairs: vec![
                ("scip".into(), "surgical infection prevention".into()),
                ("ami".into(), "heart attack".into()),
                ("pn".into(), "pneumonia".into()),
            ],
        };
        assert!(cross.evaluate(&t, 0, 1));
        assert!(cross.evaluate(&t, 1, 1));
        assert!(!cross.evaluate(&t, 2, 1)); // pn code but "heart attack" condition
    }

    #[test]
    fn criteria_set_evaluates_all() {
        let t = table();
        let mut set = CriteriaSet::new(2);
        assert!(set.is_empty());
        set.criteria.push(Criterion::new(
            "is_clean_not_missing",
            "zip codes must be present",
            Check::NotMissing,
        ));
        set.criteria.push(Criterion::new(
            "is_clean_five_digits",
            "US zip codes are exactly five digits",
            Check::LengthRange { min: 5, max: 5 },
        ));
        assert_eq!(set.len(), 2);
        assert_eq!(set.evaluate_cell(&t, 0), vec![true, true]);
        assert_eq!(set.evaluate_cell(&t, 2), vec![true, false]);
    }

    #[test]
    fn l3_pattern_examples() {
        // Templates are L3 patterns, so case runs count: "DOe123." matches
        // "U[2]u[1]D[3]S[1]" and "DOE123." does not.
        let check = Check::PatternTemplate {
            allowed: ["U[2]u[1]D[3]S[1]".to_string()].into_iter().collect(),
        };
        let t = Table::new(
            "t",
            vec!["v".into()],
            vec![vec!["DOe123.".into()], vec!["DOE123.".into()]],
        )
        .unwrap();
        assert!(check.evaluate(&t, 0, 0));
        assert!(!check.evaluate(&t, 1, 0));
    }
}
