//! The expression language used in `WHERE` clauses (§4.1, §4.4, §4.7).
//!
//! Expressions appear in three positions with different powers:
//!
//! * inside element patterns (`(x:Account WHERE x.isBlocked='no')`) —
//!   *prefilters* over singleton references;
//! * inside parenthesized path patterns — per-iteration prefilters;
//! * in the final `WHERE` after `MATCH` — *postfilters*, which may aggregate
//!   group variables (`SUM(t.amount) > 10M`).
//!
//! Evaluation follows SQL-style three-valued logic: accessing a property an
//! element lacks yields `NULL`, comparisons involving `NULL` are *unknown*,
//! and a filter keeps a row only when its condition is definitely true.

use std::fmt;

use property_graph::Value;

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an [`Ordering`](std::cmp::Ordering).
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less | Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less | Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater | Equal)
        )
    }
}

/// Binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (unknown on division by zero)
    Div,
}

/// Aggregate functions over group variables (§4.4, §5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(...)`
    Count,
    /// `SUM(...)`
    Sum,
    /// `AVG(...)`
    Avg,
    /// `MIN(...)`
    Min,
    /// `MAX(...)`
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        write!(f, "{s}")
    }
}

/// The argument of an aggregate.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AggArg {
    /// `COUNT(e)` — counts bindings of the variable.
    Var(String),
    /// `COUNT(e.*)` — the paper's §5.3 form; also counts bindings.
    VarStar(String),
    /// `SUM(t.amount)` — aggregates a property over the group.
    Property(String, String),
}

impl AggArg {
    /// The group variable the aggregate ranges over.
    pub fn var(&self) -> &str {
        match self {
            AggArg::Var(v) | AggArg::VarStar(v) | AggArg::Property(v, _) => v,
        }
    }
}

/// A scalar expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A literal value such as `'no'`, `5M`, or `TRUE`.
    Literal(Value),
    /// A `$name` query parameter: a placeholder for a value supplied at
    /// execute time (see [`crate::Params`]). Parameters keep the query
    /// text a reusable *skeleton* — one prepared plan serves every
    /// binding — which is what makes plan caching effective under
    /// parameterized traffic.
    Parameter(String),
    /// A bare element variable reference (`x`), used in element equality
    /// (GQL permits `p = q`), `SAME`, and `ALL_DIFFERENT`.
    Var(String),
    /// Property access `x.owner`.
    Property(String, String),
    /// `NOT e`
    Not(Box<Expr>),
    /// `e AND e`
    And(Box<Expr>, Box<Expr>),
    /// `e OR e`
    Or(Box<Expr>, Box<Expr>),
    /// Comparison `e <op> e`.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic `e <op> e`.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// `e IS NULL` / `e IS NOT NULL`.
    IsNull(Box<Expr>, bool),
    /// `e IS DIRECTED` (§4.7): true iff the edge bound to the variable is
    /// directed.
    IsDirected(String),
    /// `s IS SOURCE OF e` (§4.7).
    IsSourceOf {
        /// The node variable tested.
        node: String,
        /// The edge variable tested against.
        edge: String,
    },
    /// `d IS DESTINATION OF e` (§4.7).
    IsDestinationOf {
        /// The node variable tested.
        node: String,
        /// The edge variable tested against.
        edge: String,
    },
    /// `SAME(p, q, ...)` (§4.7): all references bound to the same element.
    Same(Vec<String>),
    /// `ALL_DIFFERENT(p, q, ...)` (§4.7): pairwise distinct elements.
    AllDifferent(Vec<String>),
    /// Aggregate over a group variable; `distinct` implements
    /// `COUNT(DISTINCT e)`.
    Aggregate {
        /// The aggregate function applied.
        func: AggFunc,
        /// What it ranges over (variable, `v.*`, or property).
        arg: AggArg,
        /// `COUNT(DISTINCT e)`-style deduplication before aggregating.
        distinct: bool,
    },
    /// `EXISTS { pattern }` — true when the subpattern has at least one
    /// match agreeing with the enclosing row on shared variables. The §3
    /// Cypher capability ("testing for the presence or absence of a path
    /// relative to an element specified in a match"); only allowed in the
    /// final `WHERE` postfilter.
    Exists(Box<crate::ast::GraphPattern>),
}

impl Expr {
    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Property access shorthand.
    pub fn prop(var: impl Into<String>, key: impl Into<String>) -> Expr {
        Expr::Property(var.into(), key.into())
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Comparison shorthand.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp(op, Box::new(lhs), Box::new(rhs))
    }

    /// Equality shorthand.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, self, rhs)
    }

    /// Visits `self` and then every sub-expression, pre-order and left to
    /// right. An `EXISTS` subquery is a leaf: its pattern is a
    /// [`GraphPattern`](crate::ast::GraphPattern), with its own scope.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Not(e) | Expr::IsNull(e, _) => e.walk(f),
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Literal(_)
            | Expr::Parameter(_)
            | Expr::Var(_)
            | Expr::Property(..)
            | Expr::IsDirected(_)
            | Expr::IsSourceOf { .. }
            | Expr::IsDestinationOf { .. }
            | Expr::Same(_)
            | Expr::AllDifferent(_)
            | Expr::Aggregate { .. }
            | Expr::Exists(_) => {}
        }
    }

    /// Walks all variable references in the expression, passing whether
    /// each occurs inside an aggregate.
    pub fn visit_vars<'a>(&'a self, f: &mut impl FnMut(&'a str, bool)) {
        self.walk(&mut |e| match e {
            Expr::Var(v) | Expr::Property(v, _) | Expr::IsDirected(v) => f(v, false),
            Expr::IsSourceOf { node, edge } | Expr::IsDestinationOf { node, edge } => {
                f(node, false);
                f(edge, false);
            }
            Expr::Same(vs) | Expr::AllDifferent(vs) => vs.iter().for_each(|v| f(v, false)),
            Expr::Aggregate { arg, .. } => f(arg.var(), true),
            // EXISTS correlates implicitly by name; its variables live in
            // the subquery's own scope.
            _ => {}
        });
    }

    /// All aggregates contained in the expression.
    pub fn aggregates(&self) -> Vec<(&AggFunc, &AggArg)> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Aggregate { func, arg, .. } = e {
                out.push((func, arg));
            }
        });
        out
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

impl Expr {
    /// True when the expression re-parses as a primary or self-bracketed
    /// term, so it can appear as a comparison or arithmetic operand
    /// without extra parentheses.
    fn is_operand_safe(&self) -> bool {
        matches!(
            self,
            Expr::Literal(_)
                | Expr::Parameter(_)
                | Expr::Var(_)
                | Expr::Property(..)
                | Expr::Aggregate { .. }
                | Expr::Same(_)
                | Expr::AllDifferent(_)
                | Expr::Arith(..)
                | Expr::And(..)
                | Expr::Or(..)
        )
    }
}

/// Prints `e`, parenthesizing predicate-level forms that would otherwise
/// be unparseable as operands (e.g. `x = NOT y`).
struct Operand<'a>(&'a Expr);

impl fmt::Display for Operand<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_operand_safe() {
            write!(f, "{}", self.0)
        } else {
            write!(f, "({})", self.0)
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Parameter(name) => write!(f, "${name}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Property(v, p) => write!(f, "{v}.{p}"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Cmp(op, a, b) => write!(f, "{}{op}{}", Operand(a), Operand(b)),
            Expr::Arith(op, a, b) => write!(f, "({}{op}{})", Operand(a), Operand(b)),
            Expr::IsNull(e, true) => write!(f, "{} IS NULL", Operand(e)),
            Expr::IsNull(e, false) => write!(f, "{} IS NOT NULL", Operand(e)),
            Expr::IsDirected(e) => write!(f, "{e} IS DIRECTED"),
            Expr::IsSourceOf { node, edge } => write!(f, "{node} IS SOURCE OF {edge}"),
            Expr::IsDestinationOf { node, edge } => {
                write!(f, "{node} IS DESTINATION OF {edge}")
            }
            Expr::Same(vs) => write!(f, "SAME({})", vs.join(", ")),
            Expr::AllDifferent(vs) => write!(f, "ALL_DIFFERENT({})", vs.join(", ")),
            Expr::Exists(gp) => write!(f, "EXISTS {{ {gp} }}"),
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => {
                write!(f, "{func}(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                match arg {
                    AggArg::Var(v) => write!(f, "{v}")?,
                    AggArg::VarStar(v) => write!(f, "{v}.*")?,
                    AggArg::Property(v, p) => write!(f, "{v}.{p}")?,
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_semantics() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.test(Equal));
        assert!(!CmpOp::Eq.test(Less));
        assert!(CmpOp::Ne.test(Greater));
        assert!(CmpOp::Le.test(Equal));
        assert!(CmpOp::Le.test(Less));
        assert!(!CmpOp::Lt.test(Equal));
        assert!(CmpOp::Ge.test(Greater));
    }

    #[test]
    fn display_roundtrippable_forms() {
        let e = Expr::prop("x", "isBlocked").eq(Expr::lit("no"));
        assert_eq!(e.to_string(), "x.isBlocked='no'");
        let agg = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: AggArg::Property("t".into(), "amount".into()),
            distinct: false,
        };
        assert_eq!(agg.to_string(), "SUM(t.amount)");
        let c = Expr::Aggregate {
            func: AggFunc::Count,
            arg: AggArg::VarStar("e".into()),
            distinct: false,
        };
        assert_eq!(c.to_string(), "COUNT(e.*)");
    }

    #[test]
    fn visit_vars_flags_aggregated_references() {
        let e = Expr::prop("x", "a").eq(Expr::lit(1)).and(Expr::Aggregate {
            func: AggFunc::Sum,
            arg: AggArg::Property("t".into(), "amount".into()),
            distinct: false,
        });
        let mut seen = Vec::new();
        e.visit_vars(&mut |v, agg| seen.push((v.to_owned(), agg)));
        assert_eq!(seen, vec![("x".to_owned(), false), ("t".to_owned(), true)]);
    }

    #[test]
    fn walk_is_pre_order_and_stops_at_exists() {
        // NOT (x.a IS NULL) AND ((1 + $p) = y OR EXISTS { (z) WHERE z.b = 2 })
        let exists = crate::ast::GraphPattern {
            paths: vec![crate::ast::PathPatternExpr::plain(
                crate::ast::PathPattern::Node(crate::ast::NodePattern::var("z")),
            )],
            where_clause: Some(Expr::prop("z", "b").eq(Expr::lit(2))),
        };
        let sum = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::lit(1)),
            Box::new(Expr::Parameter("p".into())),
        );
        let e = Expr::IsNull(Box::new(Expr::prop("x", "a")), true)
            .not()
            .and(
                sum.eq(Expr::Var("y".into()))
                    .or(Expr::Exists(Box::new(exists))),
            );
        let mut seen = Vec::new();
        e.walk(&mut |e| {
            seen.push(match e {
                Expr::And(..) => "and",
                Expr::Not(_) => "not",
                Expr::IsNull(..) => "is null",
                Expr::Property(..) => "x.a",
                Expr::Or(..) => "or",
                Expr::Cmp(..) => "cmp",
                Expr::Arith(..) => "arith",
                Expr::Literal(_) => "1",
                Expr::Parameter(_) => "$p",
                Expr::Var(_) => "y",
                Expr::Exists(_) => "exists",
                _ => "other",
            })
        });
        assert_eq!(
            seen,
            ["and", "not", "is null", "x.a", "or", "cmp", "arith", "1", "$p", "y", "exists"]
        );
    }

    #[test]
    fn aggregates_are_collected_through_arithmetic() {
        // COUNT(e.*)/(COUNT(e.*)+1) > 1 from §5.3.
        let count = || Expr::Aggregate {
            func: AggFunc::Count,
            arg: AggArg::VarStar("e".into()),
            distinct: false,
        };
        let e = Expr::cmp(
            CmpOp::Gt,
            Expr::Arith(
                ArithOp::Div,
                Box::new(count()),
                Box::new(Expr::Arith(
                    ArithOp::Add,
                    Box::new(count()),
                    Box::new(Expr::lit(1)),
                )),
            ),
            Expr::lit(1),
        );
        assert_eq!(e.aggregates().len(), 2);
    }
}
