//! Static analysis of graph patterns.
//!
//! Before evaluation, every GPML pattern passes through this module, which
//! implements the paper's compile-time discipline:
//!
//! * **Variable classification** (§4.4, §4.6): every variable is a node,
//!   edge, or path variable, and is an *unconditional singleton*, a
//!   *conditional singleton* (declared under `?` or in only some branches
//!   of a union/alternation), or a *group* variable (declared under a
//!   quantifier — including bounded ones such as `{0,1}`).
//! * **Join discipline**: implicit equi-joins are permitted only on
//!   unconditional singletons; joins on conditional singletons are
//!   rejected (§4.6), and group variables may not be redeclared outside
//!   their quantifier or in another path pattern.
//! * **Termination** (§5): every unbounded quantifier must be within the
//!   scope of a restrictor or a selector.
//! * **Unbounded aggregates** (§5.3): a *prefilter* (a `WHERE` inside an
//!   element pattern or parenthesized path pattern) may not aggregate a
//!   group variable that is still effectively unbounded at that point —
//!   selectors do not help, because prefilters run before selection.
//! * **Reference sanity**: predicates may only mention declared variables;
//!   group variables must be referenced through aggregates once a
//!   quantifier has been crossed; `SAME`/`ALL_DIFFERENT` require
//!   unconditional singletons (§4.7); a variable cannot be both a node and
//!   an edge variable; path variables must not collide.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Expr, GraphPattern, PathPattern, PathPatternExpr, Selector};
use crate::error::{Error, Result};
use crate::normalize::is_anonymous;

/// What sort of element a variable binds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarKind {
    /// Binds a node.
    Node,
    /// Binds an edge.
    Edge,
    /// Binds a whole path (a `p = ...` path variable).
    Path,
}

/// The §4.4/§4.6 classification of a variable reference target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarClass {
    /// Bound exactly once in every match of its path pattern.
    Singleton,
    /// Bound in some matches only (`?`, or a strict subset of union
    /// branches); implicit equi-joins on these are illegal.
    ConditionalSingleton,
    /// Declared under a quantifier; binds to a list of elements and must
    /// be referenced through an aggregate once the quantifier is crossed.
    Group,
}

/// Everything the engines need to know about one variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VarInfo {
    /// What sort of element the variable binds.
    pub kind: VarKind,
    /// Its singleton/conditional/group classification.
    pub class: VarClass,
}

/// The result of analyzing a graph pattern.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Analysis {
    vars: BTreeMap<String, VarInfo>,
}

impl Analysis {
    /// Info for one variable, if declared anywhere in the pattern.
    pub fn var(&self, name: &str) -> Option<VarInfo> {
        self.vars.get(name).copied()
    }

    /// Iterates over all declared variables.
    pub fn vars(&self) -> impl Iterator<Item = (&str, VarInfo)> {
        self.vars.iter().map(|(n, i)| (n.as_str(), *i))
    }

    /// True if `name` is declared as a group variable.
    pub fn is_group(&self, name: &str) -> bool {
        matches!(
            self.var(name),
            Some(VarInfo {
                class: VarClass::Group,
                ..
            })
        )
    }
}

/// One element-pattern occurrence of a variable.
#[derive(Clone, Debug)]
struct Site {
    path_idx: usize,
    kind: VarKind,
    /// Innermost enclosing quantifier id, if any.
    quant: Option<u32>,
    /// Ids of all enclosing quantifiers, outermost first.
    quant_stack: Vec<u32>,
    /// Innermost enclosing `?` or partial-union construct id, if any.
    cond: Option<u32>,
}

/// A predicate with enough context to judge its references.
#[derive(Clone, Debug)]
struct PredicateSite {
    expr: Expr,
    /// Enclosing quantifier ids at the predicate's location.
    quant_stack: Vec<u32>,
    /// True for prefilters (element or paren `WHERE`); false for the final
    /// `WHERE` postfilter.
    prefilter: bool,
}

#[derive(Clone, Debug)]
struct QuantInfo {
    /// True when the quantifier has no upper bound.
    unbounded: bool,
    /// True when a restrictor (path-head or enclosing paren) covers it.
    restricted: bool,
    /// True when a selector or restrictor covers it (termination, §5).
    covered: bool,
    rendered: String,
}

#[derive(Default)]
struct Collector {
    sites: Vec<(String, Site)>,
    predicates: Vec<PredicateSite>,
    quants: BTreeMap<u32, QuantInfo>,
    next_construct: u32,
}

/// Walk context, cheap to clone at branch points.
#[derive(Clone)]
struct Ctx {
    path_idx: usize,
    quant_stack: Vec<u32>,
    cond: Option<u32>,
    /// Termination coverage: selector or restrictor in scope.
    covered: bool,
    /// Restrictor (only) in scope — what makes groups effectively bounded
    /// for §5.3.
    restricted: bool,
}

impl Collector {
    fn fresh(&mut self) -> u32 {
        self.next_construct += 1;
        self.next_construct
    }

    fn walk(&mut self, p: &PathPattern, ctx: &Ctx) {
        match p {
            PathPattern::Node(n) => {
                if let Some(v) = &n.var {
                    self.site(v, VarKind::Node, ctx);
                }
                if let Some(pred) = &n.predicate {
                    self.predicates.push(PredicateSite {
                        expr: pred.clone(),
                        quant_stack: ctx.quant_stack.clone(),
                        prefilter: true,
                    });
                }
            }
            PathPattern::Edge(e) => {
                if let Some(v) = &e.var {
                    self.site(v, VarKind::Edge, ctx);
                }
                if let Some(pred) = &e.predicate {
                    self.predicates.push(PredicateSite {
                        expr: pred.clone(),
                        quant_stack: ctx.quant_stack.clone(),
                        prefilter: true,
                    });
                }
            }
            PathPattern::Concat(parts) => {
                for part in parts {
                    self.walk(part, ctx);
                }
            }
            PathPattern::Paren {
                restrictor,
                inner,
                predicate,
            } => {
                let mut inner_ctx = ctx.clone();
                if restrictor.is_some() {
                    inner_ctx.covered = true;
                    inner_ctx.restricted = true;
                }
                self.walk(inner, &inner_ctx);
                if let Some(pred) = predicate {
                    self.predicates.push(PredicateSite {
                        expr: pred.clone(),
                        quant_stack: ctx.quant_stack.clone(),
                        prefilter: true,
                    });
                }
            }
            PathPattern::Quantified { inner, quantifier } => {
                let id = self.fresh();
                self.quants.insert(
                    id,
                    QuantInfo {
                        unbounded: quantifier.is_unbounded(),
                        restricted: ctx.restricted,
                        covered: ctx.covered,
                        rendered: quantifier.to_string(),
                    },
                );
                let mut inner_ctx = ctx.clone();
                inner_ctx.quant_stack.push(id);
                self.walk(inner, &inner_ctx);
            }
            PathPattern::Questioned(inner) => {
                let id = self.fresh();
                let mut inner_ctx = ctx.clone();
                inner_ctx.cond = Some(id);
                self.walk(inner, &inner_ctx);
            }
            PathPattern::Union(branches) | PathPattern::Alternation(branches) => {
                // A variable declared in only some branches is conditional;
                // `guaranteed` (below) detects that. Here we record the
                // construct so conditional sites can share a scope.
                let id = self.fresh();
                for b in branches {
                    let mut inner_ctx = ctx.clone();
                    inner_ctx.cond = Some(id);
                    self.walk(b, &inner_ctx);
                }
            }
        }
    }

    fn site(&mut self, var: &str, kind: VarKind, ctx: &Ctx) {
        self.sites.push((
            var.to_owned(),
            Site {
                path_idx: ctx.path_idx,
                kind,
                quant: ctx.quant_stack.last().copied(),
                quant_stack: ctx.quant_stack.clone(),
                cond: ctx.cond,
            },
        ));
    }
}

/// Variables bound in *every* match of `p` (used to tell conditional from
/// unconditional singletons).
fn guaranteed(p: &PathPattern) -> BTreeSet<String> {
    match p {
        PathPattern::Node(n) => n.var.iter().cloned().collect(),
        PathPattern::Edge(e) => e.var.iter().cloned().collect(),
        PathPattern::Concat(parts) => {
            let mut out = BTreeSet::new();
            for part in parts {
                out.extend(guaranteed(part));
            }
            out
        }
        PathPattern::Paren { inner, .. } => guaranteed(inner),
        PathPattern::Quantified { inner, quantifier } => {
            if quantifier.min >= 1 {
                guaranteed(inner)
            } else {
                BTreeSet::new()
            }
        }
        PathPattern::Questioned(_) => BTreeSet::new(),
        PathPattern::Union(branches) | PathPattern::Alternation(branches) => {
            let mut iter = branches.iter().map(guaranteed);
            let first = iter.next().unwrap_or_default();
            iter.fold(first, |acc, b| acc.intersection(&b).cloned().collect())
        }
    }
}

/// Analyzes a graph pattern, returning variable classifications or the
/// first static error. Engines call this before evaluating; hosts (GQL,
/// SQL/PGQ) call it to validate queries and learn result shapes.
pub fn analyze(pattern: &GraphPattern) -> Result<Analysis> {
    let mut collector = Collector::default();
    let mut guaranteed_by_path: Vec<BTreeSet<String>> = Vec::new();
    let mut path_vars: Vec<(usize, String)> = Vec::new();

    for (idx, expr) in pattern.paths.iter().enumerate() {
        let PathPatternExpr {
            selector,
            restrictor,
            path_var,
            pattern: p,
        } = expr;
        let ctx = Ctx {
            path_idx: idx,
            quant_stack: Vec::new(),
            cond: None,
            covered: selector.as_ref().is_some_and(Selector::covers_termination)
                || restrictor.is_some(),
            restricted: restrictor.is_some(),
        };
        collector.walk(p, &ctx);
        guaranteed_by_path.push(guaranteed(p));
        if let Some(v) = path_var {
            path_vars.push((idx, v.clone()));
        }
    }

    // -- Termination (§5): unbounded quantifier must be covered. ----------
    for info in collector.quants.values() {
        if info.unbounded && !info.covered {
            return Err(Error::UnboundedQuantifier {
                quantifier: info.rendered.clone(),
            });
        }
    }

    // -- Per-variable classification and join discipline. -----------------
    let mut sites_by_var: BTreeMap<&str, Vec<&Site>> = BTreeMap::new();
    for (name, site) in &collector.sites {
        sites_by_var.entry(name.as_str()).or_default().push(site);
    }

    let mut vars: BTreeMap<String, VarInfo> = BTreeMap::new();
    for (name, sites) in &sites_by_var {
        // Kind consistency.
        let kind = sites[0].kind;
        if sites.iter().any(|s| s.kind != kind) {
            return Err(Error::KindConflict {
                var: (*name).to_owned(),
            });
        }

        let any_group = sites.iter().any(|s| s.quant.is_some());
        let class = if any_group {
            // Group variables: every site must sit under the same innermost
            // quantifier, in the same path pattern.
            let q0 = sites[0].quant;
            if sites.iter().any(|s| s.quant != q0)
                || sites.iter().any(|s| s.path_idx != sites[0].path_idx)
            {
                return Err(Error::GroupJoin {
                    var: (*name).to_owned(),
                });
            }
            VarClass::Group
        } else {
            // A declaration is *conditional* when the path pattern it
            // appears in does not guarantee a binding (a strict subset of
            // union branches, or under `?`).
            let conditional_somewhere = sites
                .iter()
                .any(|s| !guaranteed_by_path[s.path_idx].contains(*name));
            if conditional_somewhere {
                // Implicit equi-joins on conditional singletons are
                // forbidden (§4.6): all sites must live inside one
                // conditional construct of one path pattern.
                let spans_paths = sites.iter().any(|s| s.path_idx != sites[0].path_idx);
                let c0 = sites[0].cond;
                let same_construct = c0.is_some() && sites.iter().all(|s| s.cond == c0);
                if sites.len() > 1 && (spans_paths || !same_construct) {
                    return Err(Error::ConditionalJoin {
                        var: (*name).to_owned(),
                    });
                }
                VarClass::ConditionalSingleton
            } else {
                VarClass::Singleton
            }
        };
        vars.insert((*name).to_owned(), VarInfo { kind, class });
    }

    // -- Path variables. ---------------------------------------------------
    let mut seen_paths = BTreeSet::new();
    for (_, v) in &path_vars {
        if vars.contains_key(v) || !seen_paths.insert(v.clone()) {
            return Err(Error::PathVarConflict { var: v.clone() });
        }
    }
    for (_, v) in &path_vars {
        vars.insert(
            v.clone(),
            VarInfo {
                kind: VarKind::Path,
                class: VarClass::Singleton,
            },
        );
    }

    // -- Predicate reference checks. ----------------------------------------
    let site_of = |v: &str| sites_by_var.get(v).map(|s| s[0]);
    let check_refs = |site: &PredicateSite| -> Result<()> {
        let mut err = None;
        site.expr.visit_vars(&mut |v, in_agg| {
            if err.is_some() || is_anonymous(v) {
                return;
            }
            let Some(info) = vars.get(v) else {
                err = Some(Error::UnknownVariable { var: v.to_owned() });
                return;
            };
            if info.kind == VarKind::Path {
                // Path variables are only consumed by hosts (RETURN /
                // COLUMNS), not by predicates, in this GPML subset.
                err = Some(Error::Unsupported(format!(
                    "path variable {v} referenced in a predicate"
                )));
                return;
            }
            let decl = site_of(v).expect("declared var has a site");
            // Does this reference cross the variable's quantifier?
            let crosses = decl.quant.is_some() && !site.quant_stack.contains(&decl.quant.unwrap());
            if !in_agg {
                if crosses {
                    err = Some(Error::GroupAsSingleton { var: v.to_owned() });
                }
            } else if crosses && site.prefilter {
                // §5.3: a prefilter aggregate sees the group as unbounded
                // unless every crossed quantifier is bounded or inside a
                // restrictor. Selectors do not help prefilters.
                let crossed_unbounded = decl
                    .quant_stack
                    .iter()
                    .filter(|q| !site.quant_stack.contains(q))
                    .any(|q| {
                        let info = &collector.quants[q];
                        info.unbounded && !info.restricted
                    });
                if crossed_unbounded {
                    err = Some(Error::UnboundedAggregate { var: v.to_owned() });
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        // SAME / ALL_DIFFERENT need unconditional singletons (§4.7).
        let mut element_tests = Vec::new();
        collect_element_tests(&site.expr, &mut element_tests);
        for v in element_tests {
            match vars.get(v) {
                Some(VarInfo {
                    class: VarClass::Singleton,
                    ..
                }) => {}
                Some(_) => return Err(Error::ConditionalElementTest { var: v.to_owned() }),
                None => return Err(Error::UnknownVariable { var: v.to_owned() }),
            }
        }
        Ok(())
    };

    for site in &collector.predicates {
        // EXISTS runs a correlated subquery; prefilters cannot host one
        // (they run mid-search, before the row exists).
        let mut subs = Vec::new();
        collect_exists(&site.expr, &mut subs);
        if !subs.is_empty() {
            return Err(Error::Unsupported(
                "EXISTS is only supported in the final WHERE".to_owned(),
            ));
        }
        check_refs(site)?;
    }
    if let Some(post) = &pattern.where_clause {
        // Subqueries must be well-formed (and terminating) on their own.
        let mut subs = Vec::new();
        collect_exists(post, &mut subs);
        for sub in subs {
            analyze(sub)?;
        }
        check_refs(&PredicateSite {
            expr: post.clone(),
            quant_stack: Vec::new(),
            prefilter: false,
        })?;
    }

    Ok(Analysis { vars })
}

/// Collects all `EXISTS` subqueries in `e`.
pub(crate) fn collect_exists<'a>(e: &'a Expr, out: &mut Vec<&'a GraphPattern>) {
    e.walk(&mut |e| {
        if let Expr::Exists(gp) = e {
            out.push(gp);
        }
    });
}

/// Collects the arguments of all `SAME`/`ALL_DIFFERENT` calls in `e`.
fn collect_element_tests<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
    e.walk(&mut |e| {
        if let Expr::Same(vs) | Expr::AllDifferent(vs) = e {
            out.extend(vs.iter().map(String::as_str));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn node(v: &str) -> PathPattern {
        PathPattern::Node(NodePattern::var(v))
    }

    fn edge(v: &str) -> PathPattern {
        PathPattern::Edge(EdgePattern::any(Direction::Right).with_var(v))
    }

    fn seq(parts: Vec<PathPattern>) -> PathPattern {
        PathPattern::concat(parts)
    }

    fn single(p: PathPattern) -> GraphPattern {
        GraphPattern::single(p)
    }

    #[test]
    fn simple_singletons() {
        let g = single(seq(vec![node("x"), edge("e"), node("y")]));
        let a = analyze(&g).unwrap();
        assert_eq!(
            a.var("x"),
            Some(VarInfo {
                kind: VarKind::Node,
                class: VarClass::Singleton
            })
        );
        assert_eq!(a.var("e").unwrap().kind, VarKind::Edge);
        assert!(a.var("zzz").is_none());
    }

    #[test]
    fn quantified_variables_are_groups() {
        // (a) [()-[t]->()]{2,5} (b)
        let body = seq(vec![node("i"), edge("t"), node("j")]).paren();
        let g = single(seq(vec![
            node("a"),
            body.quantified(Quantifier::range(2, Some(5))),
            node("b"),
        ]));
        let a = analyze(&g).unwrap();
        assert_eq!(a.var("t").unwrap().class, VarClass::Group);
        assert_eq!(a.var("i").unwrap().class, VarClass::Group);
        assert_eq!(a.var("a").unwrap().class, VarClass::Singleton);
        assert!(a.is_group("t"));
    }

    #[test]
    fn zero_one_quantifier_still_groups_but_question_mark_is_conditional() {
        // {0,1} exposes variables as group; `?` as conditional singletons (§4.6).
        let q = single(seq(vec![
            node("x"),
            seq(vec![edge("e"), node("y")])
                .paren()
                .quantified(Quantifier::range(0, Some(1))),
        ]));
        let a = analyze(&q).unwrap();
        assert_eq!(a.var("y").unwrap().class, VarClass::Group);

        let qm = single(seq(vec![
            node("x"),
            PathPattern::Questioned(Box::new(seq(vec![edge("e"), node("y")]).paren())),
        ]));
        let a = analyze(&qm).unwrap();
        assert_eq!(a.var("y").unwrap().class, VarClass::ConditionalSingleton);
        assert_eq!(a.var("x").unwrap().class, VarClass::Singleton);
    }

    #[test]
    fn union_makes_partial_variables_conditional() {
        // [(x)->(y)] | [(x)->(z)] — x unconditional, y/z conditional (§4.6).
        let b1 = seq(vec![node("x"), edge("e1"), node("y")]).paren();
        let b2 = seq(vec![node("x"), edge("e2"), node("z")]).paren();
        let g = single(PathPattern::Union(vec![b1, b2]));
        let a = analyze(&g).unwrap();
        assert_eq!(a.var("x").unwrap().class, VarClass::Singleton);
        assert_eq!(a.var("y").unwrap().class, VarClass::ConditionalSingleton);
        assert_eq!(a.var("z").unwrap().class, VarClass::ConditionalSingleton);
    }

    #[test]
    fn conditional_join_rejected() {
        // MATCH [(x)->(y)] | [(x)->(z)], (y)->(w) is illegal (§4.6).
        let b1 = seq(vec![node("x"), edge("e1"), node("y")]).paren();
        let b2 = seq(vec![node("x"), edge("e2"), node("z")]).paren();
        let g = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(PathPattern::Union(vec![b1, b2])),
                PathPatternExpr::plain(seq(vec![node("y"), edge("e3"), node("w")])),
            ],
            where_clause: None,
        };
        assert_eq!(analyze(&g), Err(Error::ConditionalJoin { var: "y".into() }));
    }

    #[test]
    fn unbounded_quantifier_requires_restrictor_or_selector() {
        let body = seq(vec![node("i"), edge("t"), node("j")]).paren();
        let star = seq(vec![
            node("a"),
            body.quantified(Quantifier::star()),
            node("b"),
        ]);

        // Bare: rejected.
        assert!(matches!(
            analyze(&single(star.clone())),
            Err(Error::UnboundedQuantifier { .. })
        ));
        // With a restrictor: accepted.
        let with_restrictor = GraphPattern {
            paths: vec![PathPatternExpr {
                selector: None,
                restrictor: Some(Restrictor::Trail),
                path_var: None,
                pattern: star.clone(),
            }],
            where_clause: None,
        };
        assert!(analyze(&with_restrictor).is_ok());
        // With a selector: accepted.
        let with_selector = GraphPattern {
            paths: vec![PathPatternExpr {
                selector: Some(Selector::AnyShortest),
                restrictor: None,
                path_var: None,
                pattern: star,
            }],
            where_clause: None,
        };
        assert!(analyze(&with_selector).is_ok());
    }

    #[test]
    fn paren_restrictor_covers_inner_quantifier() {
        // [TRAIL (x)-[e]->*(y)] — restrictor at paren head covers `*`.
        let inner = seq(vec![
            node("x"),
            edge("e").quantified(Quantifier::star()),
            node("y"),
        ]);
        let covered = PathPattern::Paren {
            restrictor: Some(Restrictor::Trail),
            inner: Box::new(inner),
            predicate: None,
        };
        assert!(analyze(&single(covered)).is_ok());
    }

    #[test]
    fn prefilter_aggregate_over_unbounded_group_rejected() {
        // ALL SHORTEST [(x)-[e]->*(y) WHERE COUNT(e.*) > 1] — rejected (§5.3):
        // the selector does not bound the group seen by a prefilter.
        let agg = Expr::Aggregate {
            func: AggFunc::Count,
            arg: AggArg::VarStar("e".into()),
            distinct: false,
        };
        let inner = seq(vec![
            node("x"),
            edge("e").quantified(Quantifier::star()),
            node("y"),
        ]);
        let paren = PathPattern::Paren {
            restrictor: None,
            inner: Box::new(inner.clone()),
            predicate: Some(Expr::cmp(CmpOp::Gt, agg.clone(), Expr::lit(1))),
        };
        let g = GraphPattern {
            paths: vec![PathPatternExpr {
                selector: Some(Selector::AllShortest),
                restrictor: None,
                path_var: None,
                pattern: paren,
            }],
            where_clause: None,
        };
        assert_eq!(
            analyze(&g),
            Err(Error::UnboundedAggregate { var: "e".into() })
        );

        // Same aggregate as a postfilter: accepted (§5.3).
        let g = GraphPattern {
            paths: vec![PathPatternExpr {
                selector: Some(Selector::AllShortest),
                restrictor: None,
                path_var: None,
                pattern: inner.clone(),
            }],
            where_clause: Some(Expr::cmp(CmpOp::Gt, agg.clone(), Expr::lit(1))),
        };
        assert!(analyze(&g).is_ok());

        // Restrictor inside the paren: accepted (§5.3).
        let paren = PathPattern::Paren {
            restrictor: Some(Restrictor::Trail),
            inner: Box::new(inner),
            predicate: Some(Expr::cmp(CmpOp::Gt, agg, Expr::lit(1))),
        };
        let g = GraphPattern {
            paths: vec![PathPatternExpr {
                selector: Some(Selector::AllShortest),
                restrictor: None,
                path_var: None,
                pattern: paren,
            }],
            where_clause: None,
        };
        assert!(analyze(&g).is_ok());
    }

    #[test]
    fn group_variable_as_singleton_in_postfilter_rejected() {
        let body = seq(vec![node("i"), edge("t"), node("j")]).paren();
        let g = GraphPattern {
            paths: vec![PathPatternExpr::plain(seq(vec![
                node("a"),
                body.quantified(Quantifier::range(1, Some(3))),
                node("b"),
            ]))],
            where_clause: Some(
                Expr::prop("t", "amount").eq(Expr::lit(5)), // t is a group
            ),
        };
        assert_eq!(
            analyze(&g),
            Err(Error::GroupAsSingleton { var: "t".into() })
        );
    }

    #[test]
    fn singleton_reference_inside_own_quantifier_ok() {
        // [()-[t]->() WHERE t.amount>1M]{2,5} — t referenced as singleton
        // within its own iteration (§4.4).
        let body = PathPattern::Paren {
            restrictor: None,
            inner: Box::new(seq(vec![node("i"), edge("t"), node("j")])),
            predicate: Some(Expr::cmp(
                CmpOp::Gt,
                Expr::prop("t", "amount"),
                Expr::lit(1_000_000),
            )),
        };
        let g = single(seq(vec![
            node("a"),
            body.quantified(Quantifier::range(2, Some(5))),
            node("b"),
        ]));
        assert!(analyze(&g).is_ok());
    }

    #[test]
    fn parameters_are_not_variable_references() {
        // `$min` needs no declaration; the variable discipline still
        // applies to the real references around it.
        let g = GraphPattern {
            paths: vec![PathPatternExpr::plain(seq(vec![
                node("x"),
                edge("e"),
                node("y"),
            ]))],
            where_clause: Some(Expr::cmp(
                CmpOp::Gt,
                Expr::prop("x", "w"),
                Expr::Parameter("min".into()),
            )),
        };
        let a = analyze(&g).unwrap();
        assert!(a.var("min").is_none(), "parameters are not variables");
        // An undeclared *variable* beside a parameter is still caught.
        let bad = GraphPattern {
            paths: g.paths.clone(),
            where_clause: Some(Expr::cmp(
                CmpOp::Gt,
                Expr::prop("ghost", "w"),
                Expr::Parameter("min".into()),
            )),
        };
        assert_eq!(
            analyze(&bad),
            Err(Error::UnknownVariable {
                var: "ghost".into()
            })
        );
    }

    #[test]
    fn kind_conflict_rejected() {
        let g = single(seq(vec![node("x"), edge("x"), node("y")]));
        assert_eq!(analyze(&g), Err(Error::KindConflict { var: "x".into() }));
    }

    #[test]
    fn unknown_variable_in_predicate_rejected() {
        let g = GraphPattern {
            paths: vec![PathPatternExpr::plain(seq(vec![
                node("x"),
                edge("e"),
                node("y"),
            ]))],
            where_clause: Some(Expr::prop("ghost", "a").eq(Expr::lit(1))),
        };
        assert_eq!(
            analyze(&g),
            Err(Error::UnknownVariable {
                var: "ghost".into()
            })
        );
    }

    #[test]
    fn same_requires_unconditional_singletons() {
        let b1 = seq(vec![node("x"), edge("e1"), node("y")]).paren();
        let b2 = seq(vec![node("x"), edge("e2"), node("z")]).paren();
        let g = GraphPattern {
            paths: vec![PathPatternExpr::plain(PathPattern::Union(vec![b1, b2]))],
            where_clause: Some(Expr::Same(vec!["x".into(), "y".into()])),
        };
        assert_eq!(
            analyze(&g),
            Err(Error::ConditionalElementTest { var: "y".into() })
        );
    }

    #[test]
    fn path_variable_registered_and_conflicts_detected() {
        let g = GraphPattern {
            paths: vec![PathPatternExpr {
                selector: None,
                restrictor: None,
                path_var: Some("p".into()),
                pattern: seq(vec![node("x"), edge("e"), node("y")]),
            }],
            where_clause: None,
        };
        let a = analyze(&g).unwrap();
        assert_eq!(a.var("p").unwrap().kind, VarKind::Path);

        let clash = GraphPattern {
            paths: vec![PathPatternExpr {
                selector: None,
                restrictor: None,
                path_var: Some("x".into()),
                pattern: seq(vec![node("x"), edge("e"), node("y")]),
            }],
            where_clause: None,
        };
        assert_eq!(
            analyze(&clash),
            Err(Error::PathVarConflict { var: "x".into() })
        );
    }

    #[test]
    fn group_join_across_path_patterns_rejected() {
        let body = seq(vec![node("i"), edge("t"), node("j")]).paren();
        let g = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(seq(vec![
                    node("a"),
                    body.clone().quantified(Quantifier::range(1, Some(2))),
                    node("b"),
                ])),
                PathPatternExpr::plain(seq(vec![node("c"), edge("t"), node("d")])),
            ],
            where_clause: None,
        };
        assert_eq!(analyze(&g), Err(Error::GroupJoin { var: "t".into() }));
    }

    #[test]
    fn cross_pattern_singleton_join_allowed() {
        // The §4.3 style: (s)-[..]-(), (s)-[t..]->() — s joins.
        let g = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(seq(vec![node("s"), edge("e1"), node("x")])),
                PathPatternExpr::plain(seq(vec![node("s"), edge("e2"), node("y")])),
            ],
            where_clause: None,
        };
        let a = analyze(&g).unwrap();
        assert_eq!(a.var("s").unwrap().class, VarClass::Singleton);
    }
}
