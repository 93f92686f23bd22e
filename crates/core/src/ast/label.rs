//! Label expressions (§4.1).
//!
//! Inside a node or edge pattern, the part after `:` is a *label
//! expression*: individual labels combined with conjunction `&`, disjunction
//! `|`, negation `!`, grouping parentheses, and the wildcard `%` that matches
//! any label. `(:!%)` therefore matches elements that have no labels at all.

use std::collections::BTreeSet;
use std::fmt;

/// A boolean combination of labels evaluated against an element's label set.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LabelExpr {
    /// `%` — true iff the element has at least one label.
    Wildcard,
    /// A single label, true iff it is a member of `λ(element)`.
    Label(String),
    /// `!e`
    Not(Box<LabelExpr>),
    /// `e & e`
    And(Box<LabelExpr>, Box<LabelExpr>),
    /// `e | e`
    Or(Box<LabelExpr>, Box<LabelExpr>),
}

impl LabelExpr {
    /// A single-label expression.
    pub fn label(name: impl Into<String>) -> LabelExpr {
        LabelExpr::Label(name.into())
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> LabelExpr {
        LabelExpr::Not(Box::new(self))
    }

    /// Conjunction.
    pub fn and(self, other: LabelExpr) -> LabelExpr {
        LabelExpr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: LabelExpr) -> LabelExpr {
        LabelExpr::Or(Box::new(self), Box::new(other))
    }

    /// Evaluates the expression against an element's label set.
    pub fn matches(&self, labels: &BTreeSet<String>) -> bool {
        match self {
            LabelExpr::Wildcard => !labels.is_empty(),
            LabelExpr::Label(l) => labels.contains(l),
            LabelExpr::Not(e) => !e.matches(labels),
            LabelExpr::And(a, b) => a.matches(labels) && b.matches(labels),
            LabelExpr::Or(a, b) => a.matches(labels) || b.matches(labels),
        }
    }

    fn precedence(&self) -> u8 {
        match self {
            LabelExpr::Or(..) => 0,
            LabelExpr::And(..) => 1,
            LabelExpr::Not(..) => 2,
            LabelExpr::Wildcard | LabelExpr::Label(_) => 3,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent: u8) -> fmt::Result {
        let me = self.precedence();
        if me < parent {
            write!(f, "(")?;
        }
        match self {
            LabelExpr::Wildcard => write!(f, "%")?,
            LabelExpr::Label(l) => write!(f, "{l}")?,
            LabelExpr::Not(e) => {
                write!(f, "!")?;
                e.fmt_prec(f, 3)?;
            }
            LabelExpr::And(a, b) => {
                a.fmt_prec(f, 1)?;
                write!(f, "&")?;
                b.fmt_prec(f, 2)?;
            }
            LabelExpr::Or(a, b) => {
                a.fmt_prec(f, 0)?;
                write!(f, "|")?;
                b.fmt_prec(f, 1)?;
            }
        }
        if me < parent {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for LabelExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(labels: &[&str]) -> BTreeSet<String> {
        labels.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn single_label() {
        let e = LabelExpr::label("Account");
        assert!(e.matches(&set(&["Account"])));
        assert!(e.matches(&set(&["Account", "Blocked"])));
        assert!(!e.matches(&set(&["IP"])));
        assert!(!e.matches(&set(&[])));
    }

    #[test]
    fn disjunction_account_or_ip() {
        // MATCH (x:Account|IP) from §4.1.
        let e = LabelExpr::label("Account").or(LabelExpr::label("IP"));
        assert!(e.matches(&set(&["Account"])));
        assert!(e.matches(&set(&["IP"])));
        assert!(!e.matches(&set(&["Phone"])));
    }

    #[test]
    fn conjunction_city_and_country() {
        let e = LabelExpr::label("City").and(LabelExpr::label("Country"));
        assert!(e.matches(&set(&["City", "Country"])));
        assert!(!e.matches(&set(&["Country"])));
    }

    #[test]
    fn wildcard_and_unlabeled() {
        // (:!%) matches nodes with no labels (§4.1).
        let unlabeled = LabelExpr::Wildcard.not();
        assert!(unlabeled.matches(&set(&[])));
        assert!(!unlabeled.matches(&set(&["Account"])));
        assert!(LabelExpr::Wildcard.matches(&set(&["anything"])));
        assert!(!LabelExpr::Wildcard.matches(&set(&[])));
    }

    #[test]
    fn nested_negation() {
        let e = LabelExpr::label("A").or(LabelExpr::label("B")).not();
        assert!(e.matches(&set(&["C"])));
        assert!(!e.matches(&set(&["A", "C"])));
    }

    #[test]
    fn display_respects_precedence() {
        let e = LabelExpr::label("A")
            .or(LabelExpr::label("B"))
            .and(LabelExpr::label("C").not());
        assert_eq!(e.to_string(), "(A|B)&!C");
        let f = LabelExpr::label("A").or(LabelExpr::label("B").and(LabelExpr::label("C")));
        assert_eq!(f.to_string(), "A|B&C");
    }
}
