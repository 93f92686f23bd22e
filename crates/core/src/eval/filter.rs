//! Expression evaluation under SQL-style three-valued logic.
//!
//! A predicate keeps a match only when it evaluates to *definitely true*.
//! Accessing a property an element lacks — or any property of an unbound
//! conditional singleton — yields `NULL`; comparisons involving `NULL` are
//! *unknown*; `AND`/`OR`/`NOT` follow Kleene logic. This is what makes the
//! §4.6 question-mark example behave as the paper describes: when the
//! optional pattern part does not match, `p.isBlocked='yes'` is unknown,
//! so the other disjunct must hold.
//!
//! Every predicate reads its variables and parameters through one
//! [`Scope`], which each evaluation site builds in place over what it
//! already holds: the interpreter's run state, the kernel's one element
//! and start node, the joined row of the final `WHERE` and of the host
//! projections, and the baseline's rigid-pattern binding. Lookups borrow;
//! nothing is cloned to evaluate a predicate. Only the final `WHERE`
//! supplies [`Scope::exists`], running the plan's prepared `EXISTS`
//! subplans; everywhere else an `EXISTS` is unknown (analysis admits it
//! only in the final `WHERE`).

use std::borrow::Cow;

use property_graph::{EdgeId, ElementId, NodeId, PropertyGraph, Value};

use crate::ast::{AggArg, AggFunc, ArithOp, CmpOp, Expr, GraphPattern};
use crate::binding::BoundValue;
use crate::params::Params;

/// What a predicate can see: variable bindings, `$name` parameters and,
/// in the final `WHERE` only, `EXISTS` subqueries.
pub(crate) struct Scope<'a> {
    /// The binding of a variable, if any.
    pub(crate) vars: &'a dyn Fn(&str) -> Option<&'a BoundValue>,
    /// The execution's parameter bindings. Bind-time validation has
    /// checked them for completeness, so a missing one (`NULL`, hence
    /// *unknown*) never reaches a predicate through the plan executor.
    pub(crate) params: &'a Params,
    /// Evaluates an `EXISTS { pattern }` subquery against the row in
    /// scope; without one, `EXISTS` is *unknown*.
    pub(crate) exists: Option<&'a Subquery<'a>>,
}

/// An `EXISTS` hook: the truth of a subquery against the row in scope.
pub(crate) type Subquery<'a> = dyn Fn(&GraphPattern) -> Option<bool> + 'a;

impl<'a> Scope<'a> {
    /// A scope without `EXISTS` support.
    pub(crate) fn new(
        vars: &'a dyn Fn(&str) -> Option<&'a BoundValue>,
        params: &'a Params,
    ) -> Scope<'a> {
        Scope {
            vars,
            params,
            exists: None,
        }
    }
}

/// Three-valued truth of `expr` in `scope`: `Some(true)`, `Some(false)`,
/// or `None` for *unknown*.
pub(crate) fn truth(graph: &PropertyGraph, scope: &Scope, expr: &Expr) -> Option<bool> {
    match expr {
        Expr::Not(e) => truth(graph, scope, e).map(|b| !b),
        Expr::And(a, b) => match (truth(graph, scope, a), truth(graph, scope, b)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Expr::Or(a, b) => match (truth(graph, scope, a), truth(graph, scope, b)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Expr::Cmp(op, a, b) => cmp(graph, scope, *op, a, b),
        Expr::IsNull(e, want_null) => {
            let v = operand(graph, scope, e);
            Some(v.is_null() == *want_null)
        }
        Expr::IsDirected(var) => match element(scope, var) {
            Some(ElementId::Edge(e)) => Some(graph.edge(e).endpoints.is_directed()),
            _ => None,
        },
        Expr::IsSourceOf { node, edge } => endpoint_test(graph, scope, node, edge, true),
        Expr::IsDestinationOf { node, edge } => endpoint_test(graph, scope, node, edge, false),
        Expr::Same(vars) => {
            let els: Option<Vec<_>> = vars.iter().map(|v| element(scope, v)).collect();
            let els = els?;
            Some(els.windows(2).all(|w| w[0] == w[1]))
        }
        Expr::AllDifferent(vars) => {
            let els: Option<Vec<_>> = vars.iter().map(|v| element(scope, v)).collect();
            let els = els?;
            Some((0..els.len()).all(|i| (i + 1..els.len()).all(|j| els[i] != els[j])))
        }
        Expr::Exists(gp) => scope.exists.and_then(|exists| exists(gp)),
        // Anything else is a value expression; interpret its value as a
        // truth value (booleans only).
        other => operand(graph, scope, other).truth(),
    }
}

/// Evaluates `expr` to a scalar [`Value`]; failures surface as `Null`.
pub(crate) fn eval(graph: &PropertyGraph, scope: &Scope, expr: &Expr) -> Value {
    match expr {
        Expr::Literal(_) | Expr::Property(..) | Expr::Parameter(_) => {
            operand(graph, scope, expr).into_owned()
        }
        Expr::Var(_) => Value::Null, // bare element refs have no scalar value
        Expr::Arith(op, a, b) => {
            let a = operand(graph, scope, a);
            let b = operand(graph, scope, b);
            let r = match op {
                ArithOp::Add => a.add(&b),
                ArithOp::Sub => a.subtract(&b),
                ArithOp::Mul => a.multiply(&b),
                ArithOp::Div => a.divide(&b),
            };
            r.unwrap_or(Value::Null)
        }
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => aggregate(graph, scope, *func, arg, *distinct),
        // Predicates used in value position yield their truth value.
        other => match truth(graph, scope, other) {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        },
    }
}

/// The value of an operand: literals, properties and parameters borrowed
/// from the expression, the graph and the scope, anything else evaluated.
fn operand<'a, 's: 'a>(
    graph: &'a PropertyGraph,
    scope: &Scope<'s>,
    expr: &'a Expr,
) -> Cow<'a, Value> {
    const NULL: &Value = &Value::Null;
    match expr {
        Expr::Literal(v) => Cow::Borrowed(v),
        Expr::Property(var, key) => Cow::Borrowed(match element(scope, var) {
            Some(el) => graph.property(el, key),
            None => NULL,
        }),
        Expr::Parameter(name) => Cow::Borrowed(scope.params.get(name).unwrap_or(NULL)),
        other => Cow::Owned(eval(graph, scope, other)),
    }
}

/// The element bound to `var`, when it is a singleton element binding.
fn element(scope: &Scope, var: &str) -> Option<ElementId> {
    (scope.vars)(var).and_then(BoundValue::as_element)
}

fn endpoint_test(
    graph: &PropertyGraph,
    scope: &Scope,
    node: &str,
    edge: &str,
    want_source: bool,
) -> Option<bool> {
    let n = match element(scope, node)? {
        ElementId::Node(n) => n,
        ElementId::Edge(_) => return None,
    };
    let e = match element(scope, edge)? {
        ElementId::Edge(e) => e,
        ElementId::Node(_) => return None,
    };
    match graph.edge(e).endpoints {
        property_graph::Endpoints::Directed { src, dst } => {
            Some(if want_source { src == n } else { dst == n })
        }
        // Undirected edges have no source or destination.
        property_graph::Endpoints::Undirected(..) => Some(false),
    }
}

fn cmp(graph: &PropertyGraph, scope: &Scope, op: CmpOp, a: &Expr, b: &Expr) -> Option<bool> {
    // GQL permits equality tests on element references (`p = q`, §4.7).
    if let (Expr::Var(va), Expr::Var(vb)) = (a, b) {
        let (ea, eb) = (element(scope, va)?, element(scope, vb)?);
        return match op {
            CmpOp::Eq => Some(ea == eb),
            CmpOp::Ne => Some(ea != eb),
            _ => None,
        };
    }
    let va = operand(graph, scope, a);
    let vb = operand(graph, scope, b);
    va.sql_compare(&vb).map(|ord| op.test(ord))
}

/// The group of elements an aggregate argument ranges over, borrowed
/// from the scope: a group binding as-is, a singleton as a one-element
/// group, an unbound variable as the empty group.
fn agg_elements<'a>(scope: &Scope<'a>, var: &str) -> impl Iterator<Item = ElementId> + 'a {
    let (nodes, edges): (&[NodeId], &[EdgeId]) = match (scope.vars)(var) {
        Some(BoundValue::NodeGroup(ns)) => (ns, &[]),
        Some(BoundValue::EdgeGroup(es)) => (&[], es),
        Some(BoundValue::Node(n)) => (std::slice::from_ref(n), &[]),
        Some(BoundValue::Edge(e)) => (&[], std::slice::from_ref(e)),
        _ => (&[], &[]),
    };
    let nodes = nodes.iter().map(|&n| ElementId::Node(n));
    nodes.chain(edges.iter().map(|&e| ElementId::Edge(e)))
}

fn aggregate(
    graph: &PropertyGraph,
    scope: &Scope,
    func: AggFunc,
    arg: &AggArg,
    distinct: bool,
) -> Value {
    match arg {
        AggArg::Var(v) | AggArg::VarStar(v) => {
            // COUNT(e) / COUNT(e.*): count group members; other aggregates
            // over bare elements are meaningless and yield NULL.
            let count = if distinct {
                let mut els: Vec<ElementId> = agg_elements(scope, v).collect();
                els.sort();
                els.dedup();
                els.len()
            } else {
                agg_elements(scope, v).count()
            };
            match func {
                AggFunc::Count => Value::Int(count as i64),
                _ => Value::Null,
            }
        }
        AggArg::Property(v, key) => {
            // SQL semantics: NULL property values do not contribute.
            let mut vals: Vec<&Value> = agg_elements(scope, v)
                .map(|el| graph.property(el, key))
                .filter(|v| !v.is_null())
                .collect();
            if distinct {
                vals.sort();
                vals.dedup();
            }
            match func {
                AggFunc::Count => Value::Int(vals.len() as i64),
                AggFunc::Min => vals.into_iter().min().cloned().unwrap_or(Value::Null),
                AggFunc::Max => vals.into_iter().max().cloned().unwrap_or(Value::Null),
                AggFunc::Sum => vals
                    .iter()
                    .try_fold(None::<Value>, |acc, v| match acc {
                        None => Some(Some((*v).clone())),
                        Some(a) => a.add(v).map(Some),
                    })
                    .flatten()
                    .unwrap_or(Value::Null),
                AggFunc::Avg => {
                    if vals.is_empty() {
                        return Value::Null;
                    }
                    let n = vals.len() as f64;
                    let sum: Option<f64> = vals.iter().map(|v| v.as_f64()).sum();
                    match sum {
                        Some(s) => Value::Float(s / n),
                        None => Value::Null,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use property_graph::{Endpoints, PropertyGraph};
    use std::collections::BTreeMap;

    /// The tests' variable bindings (`.0`) and parameters (`.1`).
    struct Vars(BTreeMap<String, BoundValue>, Params);

    /// [`super::truth`] in a scope over `vars`.
    fn truth(g: &PropertyGraph, vars: &Vars, e: &Expr) -> Option<bool> {
        super::truth(g, &Scope::new(&|v| vars.0.get(v), &vars.1), e)
    }

    /// [`super::eval`] in a scope over `vars`.
    fn eval(g: &PropertyGraph, vars: &Vars, e: &Expr) -> Value {
        super::eval(g, &Scope::new(&|v| vars.0.get(v), &vars.1), e)
    }

    fn setup() -> (PropertyGraph, Vars) {
        let mut g = PropertyGraph::new();
        let a = g.add_node(
            "a1",
            ["Account"],
            [
                ("owner", Value::str("Scott")),
                ("isBlocked", Value::str("no")),
            ],
        );
        let b = g.add_node("a2", ["Account"], [("owner", Value::str("Aretha"))]);
        let t1 = g.add_edge(
            "t1",
            Endpoints::directed(a, b),
            ["Transfer"],
            [("amount", Value::Int(8_000_000))],
        );
        let t2 = g.add_edge(
            "t2",
            Endpoints::directed(b, a),
            ["Transfer"],
            [("amount", Value::Int(10_000_000))],
        );
        let h = g.add_edge("hp", Endpoints::undirected(a, b), ["hasPhone"], []);
        let mut env = BTreeMap::new();
        env.insert("x".to_owned(), BoundValue::Node(a));
        env.insert("y".to_owned(), BoundValue::Node(b));
        env.insert("e".to_owned(), BoundValue::Edge(t1));
        env.insert("u".to_owned(), BoundValue::Edge(h));
        env.insert("ts".to_owned(), BoundValue::EdgeGroup(vec![t1, t2]));
        (g, Vars(env, Params::new()))
    }

    #[test]
    fn property_comparison() {
        let (g, env) = setup();
        let e = Expr::prop("x", "owner").eq(Expr::lit("Scott"));
        assert_eq!(truth(&g, &env, &e), Some(true));
        let e = Expr::prop("y", "isBlocked").eq(Expr::lit("no"));
        // a2 lacks isBlocked → NULL → unknown.
        assert_eq!(truth(&g, &env, &e), None);
    }

    /// The three-valued result of every comparison operator over
    /// borrowed literal and property operands and an owned parameter:
    /// numbers compare across `Int` and `Float`, strings by code point,
    /// and NULL, a missing property, an unbound variable or a missing
    /// parameter make every comparison unknown.
    #[test]
    fn comparisons_are_three_valued() {
        let (g, mut env) = setup();
        env.1.set("n", Value::Float(8e6));
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let results = |a: Expr, b: Expr| -> Vec<Option<bool>> {
            (ops.iter())
                .map(|&op| truth(&g, &env, &Expr::cmp(op, a.clone(), b.clone())))
                .collect()
        };
        let (t, f) = (Some(true), Some(false));
        let amount = || Expr::prop("e", "amount");
        // Int property vs Float literal and parameter: 8e6 = 8_000_000.
        assert_eq!(results(amount(), Expr::lit(8e6)), [t, f, f, t, f, t]);
        assert_eq!(
            results(amount(), Expr::Parameter("n".into())),
            [t, f, f, t, f, t]
        );
        assert_eq!(results(Expr::lit(7.5), amount()), [f, t, t, t, f, f]);
        // Strings order by code point: "Aretha" < "Scott" < "a".
        let owner = |v: &str| Expr::prop(v, "owner");
        assert_eq!(results(owner("y"), owner("x")), [f, t, t, t, f, f]);
        assert_eq!(results(owner("x"), Expr::lit("a")), [f, t, t, t, f, f]);
        assert_eq!(results(owner("x"), Expr::lit("Scott")), [t, f, f, t, f, t]);
        // Unknown on every operator.
        let unknown = [None; 6];
        assert_eq!(
            results(Expr::lit(Value::Null), Expr::lit(Value::Null)),
            unknown
        );
        assert_eq!(results(owner("x"), Expr::lit(Value::Null)), unknown);
        assert_eq!(
            results(Expr::prop("y", "isBlocked"), Expr::lit("no")),
            unknown
        );
        assert_eq!(results(Expr::prop("ghost", "owner"), owner("x")), unknown);
        assert_eq!(
            results(amount(), Expr::Parameter("missing".into())),
            unknown
        );
        // Incomparable types are unknown too.
        assert_eq!(results(owner("x"), amount()), unknown);
    }

    #[test]
    fn unbound_variable_yields_unknown() {
        let (g, env) = setup();
        let e = Expr::prop("ghost", "a").eq(Expr::lit(1));
        assert_eq!(truth(&g, &env, &e), None);
        // Kleene OR rescues it.
        let rescued = e.or(Expr::lit(true));
        assert_eq!(truth(&g, &env, &rescued), Some(true));
    }

    #[test]
    fn kleene_three_valued_logic() {
        let (g, env) = setup();
        let unknown = Expr::prop("y", "isBlocked").eq(Expr::lit("no"));
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        assert_eq!(
            truth(&g, &env, &unknown.clone().and(f.clone())),
            Some(false)
        );
        assert_eq!(truth(&g, &env, &unknown.clone().and(t.clone())), None);
        assert_eq!(truth(&g, &env, &unknown.clone().or(t)), Some(true));
        assert_eq!(truth(&g, &env, &unknown.clone().or(f)), None);
        assert_eq!(truth(&g, &env, &unknown.not()), None);
    }

    #[test]
    fn is_null_is_two_valued() {
        let (g, env) = setup();
        let e = Expr::IsNull(Box::new(Expr::prop("y", "isBlocked")), true);
        assert_eq!(truth(&g, &env, &e), Some(true));
        let e = Expr::IsNull(Box::new(Expr::prop("x", "isBlocked")), true);
        assert_eq!(truth(&g, &env, &e), Some(false));
        let e = Expr::IsNull(Box::new(Expr::prop("x", "isBlocked")), false);
        assert_eq!(truth(&g, &env, &e), Some(true));
    }

    #[test]
    fn graphical_predicates() {
        let (g, env) = setup();
        assert_eq!(truth(&g, &env, &Expr::IsDirected("e".into())), Some(true));
        assert_eq!(truth(&g, &env, &Expr::IsDirected("u".into())), Some(false));
        let src = Expr::IsSourceOf {
            node: "x".into(),
            edge: "e".into(),
        };
        assert_eq!(truth(&g, &env, &src), Some(true));
        let dst = Expr::IsDestinationOf {
            node: "x".into(),
            edge: "e".into(),
        };
        assert_eq!(truth(&g, &env, &dst), Some(false));
        // Undirected edges have neither source nor destination.
        let u = Expr::IsSourceOf {
            node: "x".into(),
            edge: "u".into(),
        };
        assert_eq!(truth(&g, &env, &u), Some(false));
    }

    #[test]
    fn same_and_all_different() {
        let (g, env) = setup();
        assert_eq!(
            truth(&g, &env, &Expr::Same(vec!["x".into(), "x".into()])),
            Some(true)
        );
        assert_eq!(
            truth(&g, &env, &Expr::Same(vec!["x".into(), "y".into()])),
            Some(false)
        );
        assert_eq!(
            truth(&g, &env, &Expr::AllDifferent(vec!["x".into(), "y".into()])),
            Some(true)
        );
        assert_eq!(
            truth(
                &g,
                &env,
                &Expr::AllDifferent(vec!["x".into(), "y".into(), "x".into()])
            ),
            Some(false)
        );
    }

    #[test]
    fn element_equality_like_gql() {
        let (g, env) = setup();
        let eq = Expr::cmp(CmpOp::Eq, Expr::Var("x".into()), Expr::Var("x".into()));
        assert_eq!(truth(&g, &env, &eq), Some(true));
        let ne = Expr::cmp(CmpOp::Ne, Expr::Var("x".into()), Expr::Var("y".into()));
        assert_eq!(truth(&g, &env, &ne), Some(true));
        // Ordering element refs is unknown.
        let lt = Expr::cmp(CmpOp::Lt, Expr::Var("x".into()), Expr::Var("y".into()));
        assert_eq!(truth(&g, &env, &lt), None);
    }

    #[test]
    fn aggregates_over_groups() {
        let (g, env) = setup();
        let count = Expr::Aggregate {
            func: AggFunc::Count,
            arg: AggArg::Var("ts".into()),
            distinct: false,
        };
        assert_eq!(eval(&g, &env, &count), Value::Int(2));
        let sum = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: AggArg::Property("ts".into(), "amount".into()),
            distinct: false,
        };
        assert_eq!(eval(&g, &env, &sum), Value::Int(18_000_000));
        let avg = Expr::Aggregate {
            func: AggFunc::Avg,
            arg: AggArg::Property("ts".into(), "amount".into()),
            distinct: false,
        };
        assert_eq!(eval(&g, &env, &avg), Value::Float(9_000_000.0));
        let min = Expr::Aggregate {
            func: AggFunc::Min,
            arg: AggArg::Property("ts".into(), "amount".into()),
            distinct: false,
        };
        assert_eq!(eval(&g, &env, &min), Value::Int(8_000_000));
        let max = Expr::Aggregate {
            func: AggFunc::Max,
            arg: AggArg::Property("ts".into(), "amount".into()),
            distinct: false,
        };
        assert_eq!(eval(&g, &env, &max), Value::Int(10_000_000));
    }

    #[test]
    fn count_distinct_and_star() {
        let (g, mut env) = setup();
        let dup = match env.0.get("ts").unwrap() {
            BoundValue::EdgeGroup(es) => {
                let mut es = es.clone();
                es.push(es[0]);
                BoundValue::EdgeGroup(es)
            }
            _ => unreachable!(),
        };
        env.0.insert("ts".to_owned(), dup);
        let count = |distinct| Expr::Aggregate {
            func: AggFunc::Count,
            arg: AggArg::VarStar("ts".into()),
            distinct,
        };
        assert_eq!(eval(&g, &env, &count(false)), Value::Int(3));
        assert_eq!(eval(&g, &env, &count(true)), Value::Int(2));
        // WHERE COUNT(e) = COUNT(DISTINCT e) — PGQL's repeated-edge filter.
        let filter = Expr::cmp(CmpOp::Eq, count(false), count(true));
        assert_eq!(truth(&g, &env, &filter), Some(false));
    }

    #[test]
    fn aggregates_over_empty_groups() {
        let (g, env) = setup();
        let agg = |func| Expr::Aggregate {
            func,
            arg: AggArg::Property("nothing".into(), "amount".into()),
            distinct: false,
        };
        assert_eq!(eval(&g, &env, &agg(AggFunc::Count)), Value::Int(0));
        assert_eq!(eval(&g, &env, &agg(AggFunc::Sum)), Value::Null);
        assert_eq!(eval(&g, &env, &agg(AggFunc::Avg)), Value::Null);
        assert_eq!(eval(&g, &env, &agg(AggFunc::Min)), Value::Null);
    }

    #[test]
    fn arithmetic_expressions() {
        let (g, env) = setup();
        // 5.3's COUNT(e.*)/(COUNT(e.*)+1) > 1 with the group bound: 2/3 > 1 is false.
        let count = || Expr::Aggregate {
            func: AggFunc::Count,
            arg: AggArg::VarStar("ts".into()),
            distinct: false,
        };
        let quotient = Expr::Arith(
            ArithOp::Div,
            Box::new(count()),
            Box::new(Expr::Arith(
                ArithOp::Add,
                Box::new(count()),
                Box::new(Expr::lit(1)),
            )),
        );
        let e = Expr::cmp(CmpOp::Gt, quotient, Expr::lit(1));
        assert_eq!(truth(&g, &env, &e), Some(false));
        // Division by zero is NULL → unknown.
        let div0 = Expr::Arith(ArithOp::Div, Box::new(Expr::lit(1)), Box::new(Expr::lit(0)));
        assert_eq!(eval(&g, &env, &div0), Value::Null);
    }
}
