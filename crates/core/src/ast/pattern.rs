//! Pattern AST: node patterns, edge patterns, path patterns, and graph
//! patterns (§4), plus the restrictors and selectors of §5.

use std::fmt;

use super::expr::Expr;
use super::label::LabelExpr;
use property_graph::Traversal;

/// Edge orientation restrictions — the seven rows of Figure 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `<-[spec]-` / `<-`
    Left,
    /// `~[spec]~` / `~`
    Undirected,
    /// `-[spec]->` / `->`
    Right,
    /// `<~[spec]~` / `<~`
    LeftOrUndirected,
    /// `~[spec]~>` / `~>`
    UndirectedOrRight,
    /// `<-[spec]->` / `<->`
    LeftOrRight,
    /// `-[spec]-` / `-`
    Any,
}

impl Direction {
    /// Whether a concrete traversal of an edge satisfies this orientation.
    ///
    /// `Traversal::Forward` means the walk follows a directed edge from its
    /// source (the pattern's *right*-pointing case when read left to right);
    /// `Backward` is the left-pointing case.
    pub fn permits(self, t: Traversal) -> bool {
        match self {
            Direction::Left => t == Traversal::Backward,
            Direction::Undirected => t == Traversal::Undirected,
            Direction::Right => t == Traversal::Forward,
            Direction::LeftOrUndirected => {
                matches!(t, Traversal::Backward | Traversal::Undirected)
            }
            Direction::UndirectedOrRight => {
                matches!(t, Traversal::Undirected | Traversal::Forward)
            }
            Direction::LeftOrRight => matches!(t, Traversal::Backward | Traversal::Forward),
            Direction::Any => true,
        }
    }

    /// The orientation with left and right swapped — used when a pattern is
    /// traversed in reverse.
    pub fn reversed(self) -> Direction {
        match self {
            Direction::Left => Direction::Right,
            Direction::Right => Direction::Left,
            Direction::LeftOrUndirected => Direction::UndirectedOrRight,
            Direction::UndirectedOrRight => Direction::LeftOrUndirected,
            d => d,
        }
    }

    /// All seven orientations, in Figure 5 order.
    pub const ALL: [Direction; 7] = [
        Direction::Left,
        Direction::Undirected,
        Direction::Right,
        Direction::LeftOrUndirected,
        Direction::UndirectedOrRight,
        Direction::LeftOrRight,
        Direction::Any,
    ];
}

/// A node pattern `( var : labelExpr WHERE cond )`; each part is optional,
/// so `()` is the simplest node pattern (§4.1).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct NodePattern {
    /// The variable the node binds to, if named.
    pub var: Option<String>,
    /// The label expression the node must satisfy.
    pub label: Option<LabelExpr>,
    /// The `WHERE` prefilter inside the parentheses.
    pub predicate: Option<Expr>,
}

/// An edge pattern with an orientation from Figure 5 and an optional
/// `var : labelExpr WHERE cond` spec.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EdgePattern {
    /// The variable the edge binds to, if named.
    pub var: Option<String>,
    /// The label expression the edge must satisfy.
    pub label: Option<LabelExpr>,
    /// The `WHERE` prefilter inside the brackets.
    pub predicate: Option<Expr>,
    /// The Figure 5 orientation.
    pub direction: Direction,
}

impl NodePattern {
    /// `()`.
    pub fn any() -> NodePattern {
        NodePattern::default()
    }

    /// `(var)`.
    pub fn var(name: impl Into<String>) -> NodePattern {
        NodePattern {
            var: Some(name.into()),
            ..Default::default()
        }
    }

    /// Adds a label expression.
    pub fn with_label(mut self, l: LabelExpr) -> NodePattern {
        self.label = Some(l);
        self
    }

    /// Adds a `WHERE` prefilter.
    pub fn with_predicate(mut self, e: Expr) -> NodePattern {
        self.predicate = Some(e);
        self
    }

    /// True when the pattern has no variable, label, or predicate.
    pub fn is_trivial(&self) -> bool {
        self.var.is_none() && self.label.is_none() && self.predicate.is_none()
    }
}

impl EdgePattern {
    /// An unconstrained edge pattern in the given orientation.
    pub fn any(direction: Direction) -> EdgePattern {
        EdgePattern {
            var: None,
            label: None,
            predicate: None,
            direction,
        }
    }

    /// Sets the variable.
    pub fn with_var(mut self, name: impl Into<String>) -> EdgePattern {
        self.var = Some(name.into());
        self
    }

    /// Adds a label expression.
    pub fn with_label(mut self, l: LabelExpr) -> EdgePattern {
        self.label = Some(l);
        self
    }

    /// Adds a `WHERE` prefilter.
    pub fn with_predicate(mut self, e: Expr) -> EdgePattern {
        self.predicate = Some(e);
        self
    }
}

/// A repetition quantifier (Figure 6). `{m,}` has `max = None`; `*` is
/// `{0,}` and `+` is `{1,}` after normalization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Quantifier {
    /// Minimum iterations.
    pub min: u32,
    /// Maximum iterations; `None` means unbounded.
    pub max: Option<u32>,
}

impl Quantifier {
    /// `{m,n}` / `{m,}`.
    pub fn range(min: u32, max: Option<u32>) -> Quantifier {
        Quantifier { min, max }
    }

    /// `*` ≡ `{0,}`.
    pub fn star() -> Quantifier {
        Quantifier { min: 0, max: None }
    }

    /// `+` ≡ `{1,}`.
    pub fn plus() -> Quantifier {
        Quantifier { min: 1, max: None }
    }

    /// True when the upper bound is unbounded — the §5 finiteness machinery
    /// applies to exactly these quantifiers.
    pub fn is_unbounded(&self) -> bool {
        self.max.is_none()
    }
}

/// Restrictors (Figure 7): path predicates under which only finitely many
/// paths exist in any graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Restrictor {
    /// No repeated edges.
    Trail,
    /// No repeated nodes.
    Acyclic,
    /// No repeated nodes, except the first and last may coincide.
    Simple,
}

/// Selectors (Figure 8): per-endpoint-partition selection of finitely many
/// paths, applied after restrictors.
///
/// The `CHEAPEST` variants implement the §7.1 language opportunity
/// ("cheapest path search, by adding weights to edges"): the cost of a
/// path is the sum of a numeric edge property over its edges (edges
/// lacking the property cost 1).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Selector {
    /// `ANY SHORTEST` — one shortest path per partition (non-deterministic).
    AnyShortest,
    /// `ALL SHORTEST` — every minimal-length path per partition
    /// (deterministic).
    AllShortest,
    /// `ANY` — one arbitrary path per partition.
    Any,
    /// `ANY k` — k arbitrary paths per partition.
    AnyK(u32),
    /// `SHORTEST k` — the k shortest paths per partition.
    ShortestK(u32),
    /// `SHORTEST k GROUP` — all paths in the first k length groups per
    /// partition (deterministic).
    ShortestKGroup(u32),
    /// `ANY CHEAPEST(prop)` — one minimum-cost path per partition (§7.1
    /// language opportunity; non-deterministic under cost ties).
    AnyCheapest {
        /// The numeric edge property summed as the path cost.
        weight: String,
    },
    /// `CHEAPEST k (prop)` — the k cheapest paths per partition.
    CheapestK {
        /// How many paths to keep per partition.
        k: u32,
        /// The numeric edge property summed as the path cost.
        weight: String,
    },
}

impl Selector {
    /// Whether the paper classifies the selector as deterministic (Fig. 8).
    pub fn is_deterministic(&self) -> bool {
        matches!(self, Selector::AllShortest | Selector::ShortestKGroup(_))
    }

    /// Whether the selector alone guarantees termination for unbounded
    /// quantifiers (§5). Length-based selectors do; cost-based ones do
    /// not (arbitrarily long paths can be arbitrarily cheap), so they
    /// additionally require a restrictor or bounded quantifiers.
    pub fn covers_termination(&self) -> bool {
        !matches!(
            self,
            Selector::AnyCheapest { .. } | Selector::CheapestK { .. }
        )
    }
}

/// A path pattern (§4.2–§4.6).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PathPattern {
    /// A node pattern `(x:Label WHERE ...)`.
    Node(NodePattern),
    /// An edge pattern `-[e:Label WHERE ...]->` in any orientation.
    Edge(EdgePattern),
    /// Concatenation of factors, e.g. `(x)-[e]->(y)`.
    Concat(Vec<PathPattern>),
    /// A parenthesized path pattern `[ RESTRICTOR? inner WHERE cond? ]`,
    /// possibly quantified from outside.
    Paren {
        /// The restrictor scoped to this parenthesized subpattern.
        restrictor: Option<Restrictor>,
        /// The enclosed pattern.
        inner: Box<PathPattern>,
        /// The per-iteration `WHERE` prefilter.
        predicate: Option<Expr>,
    },
    /// `inner { m, n }` — inner is an edge pattern or parenthesized path
    /// pattern; all variables inside are exposed as group variables.
    Quantified {
        /// The repeated body.
        inner: Box<PathPattern>,
        /// The repetition bounds.
        quantifier: Quantifier,
    },
    /// `inner ?` — like `{0,1}` but singletons inside stay *conditional
    /// singletons* rather than groups (§4.6).
    Questioned(Box<PathPattern>),
    /// Path pattern union `a | b` — set semantics (§4.5).
    Union(Vec<PathPattern>),
    /// Multiset alternation `a |+| b` — multiset semantics (§4.5).
    Alternation(Vec<PathPattern>),
}

impl PathPattern {
    /// Concatenates factors, flattening nested concatenations.
    pub fn concat(parts: Vec<PathPattern>) -> PathPattern {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                PathPattern::Concat(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().unwrap()
        } else {
            PathPattern::Concat(flat)
        }
    }

    /// Wraps in a quantifier.
    pub fn quantified(self, q: Quantifier) -> PathPattern {
        PathPattern::Quantified {
            inner: Box::new(self),
            quantifier: q,
        }
    }

    /// Wraps in brackets.
    pub fn paren(self) -> PathPattern {
        PathPattern::Paren {
            restrictor: None,
            inner: Box::new(self),
            predicate: None,
        }
    }

    /// Visits `self` and then its sub-patterns, pre-order and left to
    /// right. When `f` returns `false` for a pattern, its sub-patterns are
    /// skipped. Predicates are not visited; [`Expr::walk`] walks those.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a PathPattern) -> bool) {
        if !f(self) {
            return;
        }
        match self {
            PathPattern::Node(_) | PathPattern::Edge(_) => {}
            PathPattern::Concat(parts)
            | PathPattern::Union(parts)
            | PathPattern::Alternation(parts) => parts.iter().for_each(|p| p.walk(f)),
            PathPattern::Paren { inner, .. }
            | PathPattern::Quantified { inner, .. }
            | PathPattern::Questioned(inner) => inner.walk(f),
        }
    }
}

/// One comma-separated operand of `MATCH`: an optional selector, optional
/// restrictor, optional path variable, and the pattern body.
///
/// `MATCH ALL SHORTEST TRAIL p = (a)-[t:Transfer]->*(b)` has all four.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PathPatternExpr {
    /// The Figure 8 selector, if any.
    pub selector: Option<Selector>,
    /// The Figure 7 restrictor, if any.
    pub restrictor: Option<Restrictor>,
    /// The `p = ...` path variable, if declared.
    pub path_var: Option<String>,
    /// The pattern body.
    pub pattern: PathPattern,
}

impl PathPatternExpr {
    /// A bare pattern with no selector, restrictor, or path variable.
    pub fn plain(pattern: PathPattern) -> PathPatternExpr {
        PathPatternExpr {
            selector: None,
            restrictor: None,
            path_var: None,
            pattern,
        }
    }
}

/// A full graph pattern: the comma-separated list of path patterns after
/// `MATCH`, plus the optional final `WHERE` postfilter (§4.3, §6.6).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GraphPattern {
    /// The comma-separated path patterns.
    pub paths: Vec<PathPatternExpr>,
    /// The final `WHERE` postfilter, if any.
    pub where_clause: Option<Expr>,
}

impl GraphPattern {
    /// A single-path graph pattern without a postfilter.
    pub fn single(pattern: PathPattern) -> GraphPattern {
        GraphPattern {
            paths: vec![PathPatternExpr::plain(pattern)],
            where_clause: None,
        }
    }
}

impl fmt::Display for Restrictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Restrictor::Trail => "TRAIL",
            Restrictor::Acyclic => "ACYCLIC",
            Restrictor::Simple => "SIMPLE",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Selector::AnyShortest => write!(f, "ANY SHORTEST"),
            Selector::AllShortest => write!(f, "ALL SHORTEST"),
            Selector::Any => write!(f, "ANY"),
            Selector::AnyK(k) => write!(f, "ANY {k}"),
            Selector::ShortestK(k) => write!(f, "SHORTEST {k}"),
            Selector::ShortestKGroup(k) => write!(f, "SHORTEST {k} GROUP"),
            Selector::AnyCheapest { weight } => write!(f, "ANY CHEAPEST({weight})"),
            Selector::CheapestK { k, weight } => write!(f, "CHEAPEST {k} ({weight})"),
        }
    }
}

impl fmt::Display for Quantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min, self.max) {
            (0, None) => write!(f, "*"),
            (1, None) => write!(f, "+"),
            (m, None) => write!(f, "{{{m},}}"),
            (m, Some(n)) => write!(f, "{{{m},{n}}}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_permits_matches_figure5() {
        use Traversal::*;
        // Row by row: (orientation, forward, backward, undirected).
        let rows = [
            (Direction::Left, false, true, false),
            (Direction::Undirected, false, false, true),
            (Direction::Right, true, false, false),
            (Direction::LeftOrUndirected, false, true, true),
            (Direction::UndirectedOrRight, true, false, true),
            (Direction::LeftOrRight, true, true, false),
            (Direction::Any, true, true, true),
        ];
        for (d, fw, bw, un) in rows {
            assert_eq!(d.permits(Forward), fw, "{d:?} forward");
            assert_eq!(d.permits(Backward), bw, "{d:?} backward");
            assert_eq!(d.permits(Undirected), un, "{d:?} undirected");
        }
    }

    #[test]
    fn direction_reversal_is_involutive() {
        for d in Direction::ALL {
            assert_eq!(d.reversed().reversed(), d);
        }
        assert_eq!(Direction::Left.reversed(), Direction::Right);
        assert_eq!(
            Direction::LeftOrUndirected.reversed(),
            Direction::UndirectedOrRight
        );
        assert_eq!(Direction::Any.reversed(), Direction::Any);
    }

    #[test]
    fn quantifier_sugar() {
        assert_eq!(Quantifier::star(), Quantifier::range(0, None));
        assert_eq!(Quantifier::plus(), Quantifier::range(1, None));
        assert!(Quantifier::plus().is_unbounded());
        assert!(!Quantifier::range(2, Some(5)).is_unbounded());
        assert_eq!(Quantifier::star().to_string(), "*");
        assert_eq!(Quantifier::plus().to_string(), "+");
        assert_eq!(Quantifier::range(2, Some(5)).to_string(), "{2,5}");
        assert_eq!(Quantifier::range(3, None).to_string(), "{3,}");
    }

    #[test]
    fn selector_determinism_matches_figure8() {
        assert!(Selector::AllShortest.is_deterministic());
        assert!(Selector::ShortestKGroup(2).is_deterministic());
        assert!(!Selector::AnyShortest.is_deterministic());
        assert!(!Selector::Any.is_deterministic());
        assert!(!Selector::AnyK(3).is_deterministic());
        assert!(!Selector::ShortestK(3).is_deterministic());
    }

    #[test]
    fn concat_flattens() {
        let n = || PathPattern::Node(NodePattern::any());
        let c = PathPattern::concat(vec![PathPattern::concat(vec![n(), n()]), n()]);
        match c {
            PathPattern::Concat(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected concat, got {other:?}"),
        }
        // A single part collapses to itself.
        assert_eq!(PathPattern::concat(vec![n()]), n());
    }

    #[test]
    fn walk_is_pre_order_and_skips_refused_subtrees() {
        let n = |v: &str| PathPattern::Node(NodePattern::var(v));
        let e = |v: &str| PathPattern::Edge(EdgePattern::any(Direction::Right).with_var(v));
        // (a) [(b)-[e]->(c)]{1,2} ((d) | (f)?) ((g) |+| [-[h]->]+)
        let p = PathPattern::Concat(vec![
            n("a"),
            PathPattern::concat(vec![n("b"), e("e"), n("c")])
                .paren()
                .quantified(Quantifier::range(1, Some(2))),
            PathPattern::Union(vec![n("d"), PathPattern::Questioned(Box::new(n("f")))]),
            PathPattern::Alternation(vec![n("g"), e("h").paren().quantified(Quantifier::plus())]),
        ]);
        let visit = |skip_bounded: bool| {
            let mut seen = Vec::new();
            p.walk(&mut |p| {
                seen.push(match p {
                    PathPattern::Node(x) => x.var.clone().unwrap(),
                    PathPattern::Edge(x) => format!("-{}-", x.var.as_deref().unwrap()),
                    PathPattern::Concat(_) => "concat".to_owned(),
                    PathPattern::Paren { .. } => "paren".to_owned(),
                    PathPattern::Quantified { quantifier, .. } => quantifier.to_string(),
                    PathPattern::Questioned(_) => "?".to_owned(),
                    PathPattern::Union(_) => "|".to_owned(),
                    PathPattern::Alternation(_) => "|+|".to_owned(),
                });
                !(skip_bounded
                    && matches!(p, PathPattern::Quantified { quantifier, .. } if !quantifier.is_unbounded()))
            });
            seen
        };
        assert_eq!(
            visit(false),
            [
                "concat", "a", "{1,2}", "paren", "concat", "b", "-e-", "c", "|", "d", "?", "f",
                "|+|", "g", "+", "paren", "-h-"
            ]
        );
        assert_eq!(
            visit(true),
            ["concat", "a", "{1,2}", "|", "d", "?", "f", "|+|", "g", "+", "paren", "-h-"]
        );
    }

    #[test]
    fn node_pattern_builders() {
        let p = NodePattern::var("x")
            .with_label(LabelExpr::label("Account"))
            .with_predicate(Expr::prop("x", "isBlocked").eq(Expr::lit("no")));
        assert_eq!(p.var.as_deref(), Some("x"));
        assert!(!p.is_trivial());
        assert!(NodePattern::any().is_trivial());
    }
}
