//! The predicate language of Table 1.
//!
//! A predicate is a boolean-valued function over a cell, parameterised by
//! constants. Predicates are typed: a predicate evaluates to `false` on
//! cells of any other type, which is how Cornet rules avoid the type errors
//! the paper's introduction describes (numeric comparison on text columns).
//!
//! | Numeric              | Datetime                   | Text              |
//! |----------------------|----------------------------|-------------------|
//! | `greater(c, n)`      | `greater(c, n, d)`         | `equals(c, s)`    |
//! | `greaterEquals(c,n)` | `greaterEquals(c, n, d)`   | `contains(c, s)`  |
//! | `less(c, n)`         | `less(c, n, d)`            | `startsWith(c,s)` |
//! | `lessEquals(c, n)`   | `lessEquals(c, n, d)`      | `endsWith(c, s)`  |
//! | `between(c, n1, n2)` | `between(c, n1, n2, d)`    |                   |
//!
//! The datetime argument `d` selects the compared date part: day, month,
//! year or weekday. Text matching is case-insensitive, matching Excel's
//! conditional-formatting semantics (`SEARCH`, `Text Contains`, …).

use cornet_table::{CellValue, DataType, Date};
use std::fmt;

/// Ordering comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `>`
    Greater,
    /// `>=`
    GreaterEquals,
    /// `<`
    Less,
    /// `<=`
    LessEquals,
}

impl CmpOp {
    /// Applies the comparison.
    pub fn apply<T: PartialOrd>(self, lhs: T, rhs: T) -> bool {
        match self {
            CmpOp::Greater => lhs > rhs,
            CmpOp::GreaterEquals => lhs >= rhs,
            CmpOp::Less => lhs < rhs,
            CmpOp::LessEquals => lhs <= rhs,
        }
    }

    /// Surface name used in rule display (`GreaterThan`, …).
    pub fn name(self) -> &'static str {
        match self {
            CmpOp::Greater => "GreaterThan",
            CmpOp::GreaterEquals => "GreaterThanOrEqual",
            CmpOp::Less => "LessThan",
            CmpOp::LessEquals => "LessThanOrEqual",
        }
    }
}

/// Text matching operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TextOp {
    /// Case-insensitive equality.
    Equals,
    /// Case-insensitive substring containment.
    Contains,
    /// Case-insensitive prefix match.
    StartsWith,
    /// Case-insensitive suffix match.
    EndsWith,
}

impl TextOp {
    /// Applies the operator to a cell text and a pattern that were both
    /// lowercased whole with `str::to_lowercase`, which is where the
    /// case-insensitivity comes from. The operator's only definition,
    /// shared by [`Predicate::eval`] and predicate generation.
    pub(crate) fn matches(self, lowered: &str, lowered_pattern: &str) -> bool {
        match self {
            TextOp::Equals => lowered == lowered_pattern,
            TextOp::Contains => lowered.contains(lowered_pattern),
            TextOp::StartsWith => lowered.starts_with(lowered_pattern),
            TextOp::EndsWith => lowered.ends_with(lowered_pattern),
        }
    }

    /// Surface name used in rule display.
    pub fn name(self) -> &'static str {
        match self {
            TextOp::Equals => "TextEquals",
            TextOp::Contains => "TextContains",
            TextOp::StartsWith => "TextStartsWith",
            TextOp::EndsWith => "TextEndsWith",
        }
    }
}

/// The date part compared by datetime predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatePart {
    /// Day of month, 1–31.
    Day,
    /// Month, 1–12.
    Month,
    /// Calendar year.
    Year,
    /// ISO weekday, Monday = 1 … Sunday = 7.
    Weekday,
}

impl DatePart {
    /// Extracts the part's numeric value from a date.
    pub fn extract(self, date: Date) -> i64 {
        match self {
            DatePart::Day => date.day() as i64,
            DatePart::Month => date.month() as i64,
            DatePart::Year => date.year() as i64,
            DatePart::Weekday => date.weekday().number(),
        }
    }

    /// Surface name used in rule display.
    pub fn name(self) -> &'static str {
        match self {
            DatePart::Day => "day",
            DatePart::Month => "month",
            DatePart::Year => "year",
            DatePart::Weekday => "weekday",
        }
    }

    /// All parts, in display order.
    pub fn all() -> [DatePart; 4] {
        [
            DatePart::Day,
            DatePart::Month,
            DatePart::Year,
            DatePart::Weekday,
        ]
    }
}

/// The kind of a predicate, used as a categorical ranking feature
/// ("predicate used", §3.4) and for dedup preference ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredicateKind {
    /// `greater`
    Greater,
    /// `greaterEquals`
    GreaterEquals,
    /// `less`
    Less,
    /// `lessEquals`
    LessEquals,
    /// `between`
    Between,
    /// `equals`
    Equals,
    /// `contains`
    Contains,
    /// `startsWith`
    StartsWith,
    /// `endsWith`
    EndsWith,
}

impl PredicateKind {
    /// Number of distinct kinds (size of the one-hot ranking feature).
    pub const COUNT: usize = 9;

    /// Dense index for one-hot encodings.
    pub fn index(self) -> usize {
        match self {
            PredicateKind::Greater => 0,
            PredicateKind::GreaterEquals => 1,
            PredicateKind::Less => 2,
            PredicateKind::LessEquals => 3,
            PredicateKind::Between => 4,
            PredicateKind::Equals => 5,
            PredicateKind::Contains => 6,
            PredicateKind::StartsWith => 7,
            PredicateKind::EndsWith => 8,
        }
    }
}

/// A concretised predicate (Table 1 instantiated with constants per
/// Table 2).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Numeric comparison against a constant.
    NumCmp {
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare against.
        n: f64,
    },
    /// Numeric range check, inclusive on both ends (Excel's "between").
    NumBetween {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Datetime comparison on a date part.
    DateCmp {
        /// Comparison operator.
        op: CmpOp,
        /// Compared date part.
        part: DatePart,
        /// Constant part value (e.g. month number).
        n: i64,
    },
    /// Datetime range check on a date part, inclusive.
    DateBetween {
        /// Compared date part.
        part: DatePart,
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Text match.
    Text {
        /// Matching operator.
        op: TextOp,
        /// Pattern (matched case-insensitively).
        pattern: String,
    },
}

impl Predicate {
    /// Evaluates the predicate on a cell. Cells of a different type (and
    /// empty cells) never match.
    pub fn eval(&self, cell: &CellValue) -> bool {
        match self {
            Predicate::NumCmp { .. } | Predicate::NumBetween { .. } => {
                cell.as_number().is_some_and(|v| self.eval_number(v))
            }
            Predicate::DateCmp { part, .. } | Predicate::DateBetween { part, .. } => cell
                .as_date()
                .is_some_and(|d| self.eval_date_part(part.extract(d))),
            Predicate::Text { op, pattern } => cell
                .as_text()
                .is_some_and(|s| op.matches(&s.to_lowercase(), &pattern.to_lowercase())),
        }
    }

    /// Evaluates a numeric predicate on a number; `false` for predicates of
    /// any other type.
    pub(crate) fn eval_number(&self, v: f64) -> bool {
        match *self {
            Predicate::NumCmp { op, n } => op.apply(v, n),
            Predicate::NumBetween { lo, hi } => v >= lo && v <= hi,
            _ => false,
        }
    }

    /// Evaluates a datetime predicate on the value of its date part
    /// (`part.extract(date)`); `false` for predicates of any other type.
    pub(crate) fn eval_date_part(&self, v: i64) -> bool {
        match *self {
            Predicate::DateCmp { op, n, .. } => op.apply(v, n),
            Predicate::DateBetween { lo, hi, .. } => v >= lo && v <= hi,
            _ => false,
        }
    }

    /// The data type this predicate applies to.
    pub fn data_type(&self) -> DataType {
        match self {
            Predicate::NumCmp { .. } | Predicate::NumBetween { .. } => DataType::Number,
            Predicate::DateCmp { .. } | Predicate::DateBetween { .. } => DataType::Date,
            Predicate::Text { .. } => DataType::Text,
        }
    }

    /// The predicate kind (ranking feature / dedup ordering).
    pub fn kind(&self) -> PredicateKind {
        match self {
            Predicate::NumCmp { op, .. } | Predicate::DateCmp { op, .. } => match op {
                CmpOp::Greater => PredicateKind::Greater,
                CmpOp::GreaterEquals => PredicateKind::GreaterEquals,
                CmpOp::Less => PredicateKind::Less,
                CmpOp::LessEquals => PredicateKind::LessEquals,
            },
            Predicate::NumBetween { .. } | Predicate::DateBetween { .. } => PredicateKind::Between,
            Predicate::Text { op, .. } => match op {
                TextOp::Equals => PredicateKind::Equals,
                TextOp::Contains => PredicateKind::Contains,
                TextOp::StartsWith => PredicateKind::StartsWith,
                TextOp::EndsWith => PredicateKind::EndsWith,
            },
        }
    }

    /// Number of constant arguments (the ranker's "number of arguments").
    pub fn arg_count(&self) -> usize {
        match self {
            Predicate::NumCmp { .. } => 1,
            Predicate::NumBetween { .. } => 2,
            // The date-part selector counts as an argument, per Table 1.
            Predicate::DateCmp { .. } => 2,
            Predicate::DateBetween { .. } => 3,
            Predicate::Text { .. } => 1,
        }
    }

    /// Mean display length of the constant arguments (ranking feature).
    pub fn mean_arg_len(&self) -> f64 {
        let lens: Vec<usize> = match self {
            Predicate::NumCmp { n, .. } => vec![display_num(*n).len()],
            Predicate::NumBetween { lo, hi } => {
                vec![display_num(*lo).len(), display_num(*hi).len()]
            }
            Predicate::DateCmp { part, n, .. } => vec![part.name().len(), n.to_string().len()],
            Predicate::DateBetween { part, lo, hi } => vec![
                part.name().len(),
                lo.to_string().len(),
                hi.to_string().len(),
            ],
            Predicate::Text { pattern, .. } => vec![pattern.len()],
        };
        lens.iter().sum::<usize>() as f64 / lens.len() as f64
    }

    /// Paper-style token length: one token for the predicate name plus one
    /// per constant argument (§5.4: `GreaterThan(10)` has length 2).
    pub fn token_length(&self) -> usize {
        1 + self.arg_count()
    }

    /// Appends the predicate's token stream (name token, then one token per
    /// argument) to `out`. Tokens are emitted structurally — never by
    /// re-parsing the `Display` form — so argument values containing commas
    /// or quotes stay single tokens. Names match the `Display` surface
    /// (`GreaterThan`, `TextContains`, `Equal` for degenerate ranges, …).
    pub fn push_tokens(&self, out: &mut Vec<String>) {
        match self {
            Predicate::NumCmp { op, n } => {
                out.push(op.name().to_string());
                out.push(display_num(*n));
            }
            Predicate::NumBetween { lo, hi } if lo == hi => {
                out.push("Equal".to_string());
                out.push(display_num(*lo));
            }
            Predicate::NumBetween { lo, hi } => {
                out.push("Between".to_string());
                out.push(display_num(*lo));
                out.push(display_num(*hi));
            }
            Predicate::DateCmp { op, part, n } => {
                out.push(format!("Date{}", op.name()));
                out.push(part.name().to_string());
                out.push(n.to_string());
            }
            Predicate::DateBetween { part, lo, hi } => {
                out.push("DateBetween".to_string());
                out.push(part.name().to_string());
                out.push(lo.to_string());
                out.push(hi.to_string());
            }
            Predicate::Text { op, pattern } => {
                out.push(op.name().to_string());
                out.push(pattern.clone());
            }
        }
    }
}

/// Formats a number the way rules display them (no trailing `.0`).
pub(crate) fn display_num(n: f64) -> String {
    cornet_table::value::format_number(n)
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::NumCmp { op, n } => write!(f, "{}({})", op.name(), display_num(*n)),
            // Degenerate ranges are numeric equality, displayed like the
            // paper's Table 7 (`OR(Equal(0),Equal(1))`).
            Predicate::NumBetween { lo, hi } if lo == hi => {
                write!(f, "Equal({})", display_num(*lo))
            }
            Predicate::NumBetween { lo, hi } => {
                write!(f, "Between({},{})", display_num(*lo), display_num(*hi))
            }
            Predicate::DateCmp { op, part, n } => {
                write!(f, "Date{}({},{})", op.name(), part.name(), n)
            }
            Predicate::DateBetween { part, lo, hi } => {
                write!(f, "DateBetween({},{},{})", part.name(), lo, hi)
            }
            Predicate::Text { op, pattern } => {
                write!(f, "{}(\"{}\")", op.name(), pattern.replace('"', "\"\""))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: &str) -> CellValue {
        CellValue::from(s)
    }

    #[test]
    fn numeric_predicates() {
        let gt = Predicate::NumCmp {
            op: CmpOp::Greater,
            n: 10.0,
        };
        assert!(gt.eval(&CellValue::Number(11.0)));
        assert!(!gt.eval(&CellValue::Number(10.0)));
        assert!(!gt.eval(&text("11"))); // type mismatch: text never matches
        assert!(!gt.eval(&CellValue::Empty));

        let between = Predicate::NumBetween { lo: 1.0, hi: 5.0 };
        assert!(between.eval(&CellValue::Number(1.0)));
        assert!(between.eval(&CellValue::Number(5.0)));
        assert!(!between.eval(&CellValue::Number(5.5)));
    }

    #[test]
    fn text_predicates_case_insensitive() {
        let starts = Predicate::Text {
            op: TextOp::StartsWith,
            pattern: "RW".into(),
        };
        assert!(starts.eval(&text("RW-187")));
        assert!(starts.eval(&text("rw-187")));
        assert!(!starts.eval(&text("TW-224")));
        assert!(!starts.eval(&CellValue::Number(1.0)));

        let eq = Predicate::Text {
            op: TextOp::Equals,
            pattern: "OK".into(),
        };
        assert!(eq.eval(&text("ok")));
        assert!(!eq.eval(&text("okay")));

        let contains = Predicate::Text {
            op: TextOp::Contains,
            pattern: "pass".into(),
        };
        assert!(contains.eval(&text("All Passed")));

        let ends = Predicate::Text {
            op: TextOp::EndsWith,
            pattern: "T".into(),
        };
        assert!(ends.eval(&text("RW-131-T")));
        assert!(!ends.eval(&text("RW-187")));
    }

    #[test]
    fn date_predicates() {
        // Paper Table 1: greater(c, 2, month) matches dates in March or
        // later for any year.
        let d = Predicate::DateCmp {
            op: CmpOp::Greater,
            part: DatePart::Month,
            n: 2,
        };
        let march = CellValue::Date(Date::from_ymd(2020, 3, 15).unwrap());
        let feb = CellValue::Date(Date::from_ymd(2021, 2, 15).unwrap());
        assert!(d.eval(&march));
        assert!(!d.eval(&feb));
        assert!(!d.eval(&text("2020-03-15")));

        let wd = Predicate::DateCmp {
            op: CmpOp::GreaterEquals,
            part: DatePart::Weekday,
            n: 6,
        };
        let saturday = CellValue::Date(Date::from_ymd(2022, 12, 3).unwrap());
        let monday = CellValue::Date(Date::from_ymd(2022, 12, 5).unwrap());
        assert!(wd.eval(&saturday));
        assert!(!wd.eval(&monday));

        let between = Predicate::DateBetween {
            part: DatePart::Year,
            lo: 2019,
            hi: 2021,
        };
        assert!(between.eval(&CellValue::Date(Date::from_ymd(2020, 6, 1).unwrap())));
        assert!(!between.eval(&CellValue::Date(Date::from_ymd(2022, 6, 1).unwrap())));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Predicate::NumCmp {
                op: CmpOp::Greater,
                n: 10.0
            }
            .to_string(),
            "GreaterThan(10)"
        );
        assert_eq!(
            Predicate::Text {
                op: TextOp::StartsWith,
                pattern: "Dr".into()
            }
            .to_string(),
            "TextStartsWith(\"Dr\")"
        );
        assert_eq!(
            Predicate::DateCmp {
                op: CmpOp::Less,
                part: DatePart::Month,
                n: 6
            }
            .to_string(),
            "DateLessThan(month,6)"
        );
        assert_eq!(
            Predicate::NumBetween { lo: 1.5, hi: 2.0 }.to_string(),
            "Between(1.5,2)"
        );
    }

    #[test]
    fn metadata() {
        let p = Predicate::NumBetween { lo: 1.0, hi: 10.0 };
        assert_eq!(p.arg_count(), 2);
        assert_eq!(p.token_length(), 3);
        assert_eq!(p.kind(), PredicateKind::Between);
        assert_eq!(p.data_type(), DataType::Number);
        let t = Predicate::Text {
            op: TextOp::Contains,
            pattern: "abcd".into(),
        };
        assert_eq!(t.mean_arg_len(), 4.0);
        assert_eq!(t.kind().index(), 6);
    }

    #[test]
    fn push_tokens_is_structural() {
        let mut tokens = Vec::new();
        Predicate::NumCmp {
            op: CmpOp::Greater,
            n: 10.0,
        }
        .push_tokens(&mut tokens);
        assert_eq!(tokens, ["GreaterThan", "10"]);

        tokens.clear();
        Predicate::NumBetween { lo: 3.0, hi: 3.0 }.push_tokens(&mut tokens);
        assert_eq!(tokens, ["Equal", "3"]);

        tokens.clear();
        Predicate::DateCmp {
            op: CmpOp::Less,
            part: DatePart::Month,
            n: 6,
        }
        .push_tokens(&mut tokens);
        assert_eq!(tokens, ["DateLessThan", "month", "6"]);

        // A comma inside a text pattern stays one token — the display form
        // `TextContains("a,b")` would split it.
        tokens.clear();
        Predicate::Text {
            op: TextOp::Contains,
            pattern: "a,b".into(),
        }
        .push_tokens(&mut tokens);
        assert_eq!(tokens, ["TextContains", "a,b"]);
    }

    #[test]
    fn kind_indices_are_dense_and_unique() {
        let kinds = [
            PredicateKind::Greater,
            PredicateKind::GreaterEquals,
            PredicateKind::Less,
            PredicateKind::LessEquals,
            PredicateKind::Between,
            PredicateKind::Equals,
            PredicateKind::Contains,
            PredicateKind::StartsWith,
            PredicateKind::EndsWith,
        ];
        let mut seen = [false; PredicateKind::COUNT];
        for k in kinds {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
