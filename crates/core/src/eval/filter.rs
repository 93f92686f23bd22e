//! Expression evaluation under SQL-style three-valued logic.
//!
//! A predicate keeps a match only when it evaluates to *definitely true*.
//! Accessing a property an element lacks — or any property of an unbound
//! conditional singleton — yields `NULL`; comparisons involving `NULL` are
//! *unknown*; `AND`/`OR`/`NOT` follow Kleene logic. This is what makes the
//! §4.6 question-mark example behave as the paper describes: when the
//! optional pattern part does not match, `p.isBlocked='yes'` is unknown,
//! so the other disjunct must hold.

use std::borrow::Cow;

use property_graph::{ElementId, PropertyGraph, Value};

use crate::ast::{AggArg, AggFunc, ArithOp, CmpOp, Expr, GraphPattern};
use crate::binding::BoundValue;

/// A variable-lookup environment: the matcher supplies its frame stack,
/// the post-filter supplies the joined row.
pub trait Env {
    /// The binding of `var`, if any.
    fn lookup(&self, var: &str) -> Option<BoundValue>;

    /// Evaluates an `EXISTS { pattern }` subquery relative to this
    /// environment. The default (`None` = unknown) is used by contexts
    /// that cannot run subqueries — static analysis restricts `EXISTS`
    /// to the final `WHERE`, whose environment overrides this.
    fn exists(&self, pattern: &GraphPattern) -> Option<bool> {
        let _ = pattern;
        None
    }

    /// The value bound to the `$name` query parameter, if any. The
    /// default (`None`, evaluating to `NULL` → *unknown*) is used by
    /// environments without parameter support; execution environments of
    /// parameterized plans override it with the caller's
    /// [`Params`](crate::Params) — which bind-time validation has already
    /// checked for completeness, so a `None` never reaches a filter
    /// through the plan executor.
    fn param(&self, name: &str) -> Option<Value> {
        let _ = name;
        None
    }
}

impl<F> Env for F
where
    F: Fn(&str) -> Option<BoundValue>,
{
    fn lookup(&self, var: &str) -> Option<BoundValue> {
        self(var)
    }
}

/// Three-valued truth of `expr` under `env`: `Some(true)`, `Some(false)`,
/// or `None` for *unknown*.
pub fn truth(graph: &PropertyGraph, env: &dyn Env, expr: &Expr) -> Option<bool> {
    match expr {
        Expr::Not(e) => truth(graph, env, e).map(|b| !b),
        Expr::And(a, b) => match (truth(graph, env, a), truth(graph, env, b)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Expr::Or(a, b) => match (truth(graph, env, a), truth(graph, env, b)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Expr::Cmp(op, a, b) => cmp(graph, env, *op, a, b),
        Expr::IsNull(e, want_null) => {
            let v = eval(graph, env, e);
            Some(v.is_null() == *want_null)
        }
        Expr::IsDirected(var) => match element(env, var) {
            Some(ElementId::Edge(e)) => Some(graph.edge(e).endpoints.is_directed()),
            _ => None,
        },
        Expr::IsSourceOf { node, edge } => endpoint_test(graph, env, node, edge, true),
        Expr::IsDestinationOf { node, edge } => endpoint_test(graph, env, node, edge, false),
        Expr::Same(vars) => {
            let els: Option<Vec<_>> = vars.iter().map(|v| element(env, v)).collect();
            let els = els?;
            Some(els.windows(2).all(|w| w[0] == w[1]))
        }
        Expr::AllDifferent(vars) => {
            let els: Option<Vec<_>> = vars.iter().map(|v| element(env, v)).collect();
            let els = els?;
            Some((0..els.len()).all(|i| (i + 1..els.len()).all(|j| els[i] != els[j])))
        }
        Expr::Exists(gp) => env.exists(gp),
        // Anything else is a value expression; interpret its value as a
        // truth value (booleans only).
        other => eval(graph, env, other).truth(),
    }
}

/// Evaluates `expr` to a scalar [`Value`]; failures surface as `Null`.
pub fn eval(graph: &PropertyGraph, env: &dyn Env, expr: &Expr) -> Value {
    match expr {
        Expr::Literal(_) | Expr::Property(..) => operand(graph, env, expr).into_owned(),
        Expr::Parameter(name) => env.param(name).unwrap_or(Value::Null),
        Expr::Var(_) => Value::Null, // bare element refs have no scalar value
        Expr::Arith(op, a, b) => {
            let a = operand(graph, env, a);
            let b = operand(graph, env, b);
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
        } => aggregate(graph, env, *func, arg, *distinct),
        // Predicates used in value position yield their truth value.
        other => match truth(graph, env, other) {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        },
    }
}

/// The value of an operand: literals and properties borrowed from the
/// expression and the graph, anything else evaluated.
fn operand<'a>(graph: &'a PropertyGraph, env: &dyn Env, expr: &'a Expr) -> Cow<'a, Value> {
    const NULL: &Value = &Value::Null;
    match expr {
        Expr::Literal(v) => Cow::Borrowed(v),
        Expr::Property(var, key) => Cow::Borrowed(match element(env, var) {
            Some(el) => graph.property(el, key),
            None => NULL,
        }),
        other => Cow::Owned(eval(graph, env, other)),
    }
}

/// The element bound to `var`, when it is a singleton element binding.
fn element(env: &dyn Env, var: &str) -> Option<ElementId> {
    env.lookup(var).and_then(|v| v.as_element())
}

fn endpoint_test(
    graph: &PropertyGraph,
    env: &dyn Env,
    node: &str,
    edge: &str,
    want_source: bool,
) -> Option<bool> {
    let n = match element(env, node)? {
        ElementId::Node(n) => n,
        ElementId::Edge(_) => return None,
    };
    let e = match element(env, edge)? {
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

fn cmp(graph: &PropertyGraph, env: &dyn Env, op: CmpOp, a: &Expr, b: &Expr) -> Option<bool> {
    // GQL permits equality tests on element references (`p = q`, §4.7).
    if let (Expr::Var(va), Expr::Var(vb)) = (a, b) {
        let (ea, eb) = (element(env, va)?, element(env, vb)?);
        return match op {
            CmpOp::Eq => Some(ea == eb),
            CmpOp::Ne => Some(ea != eb),
            _ => None,
        };
    }
    let va = operand(graph, env, a);
    let vb = operand(graph, env, b);
    va.sql_compare(&vb).map(|ord| op.test(ord))
}

/// The group of elements an aggregate argument ranges over: a group
/// binding as-is, a singleton as a one-element group, an unbound variable
/// as the empty group.
fn agg_elements(env: &dyn Env, var: &str) -> Vec<ElementId> {
    match env.lookup(var) {
        Some(BoundValue::NodeGroup(ns)) => ns.into_iter().map(ElementId::Node).collect(),
        Some(BoundValue::EdgeGroup(es)) => es.into_iter().map(ElementId::Edge).collect(),
        Some(BoundValue::Node(n)) => vec![ElementId::Node(n)],
        Some(BoundValue::Edge(e)) => vec![ElementId::Edge(e)],
        _ => Vec::new(),
    }
}

fn aggregate(
    graph: &PropertyGraph,
    env: &dyn Env,
    func: AggFunc,
    arg: &AggArg,
    distinct: bool,
) -> Value {
    match arg {
        AggArg::Var(v) | AggArg::VarStar(v) => {
            // COUNT(e) / COUNT(e.*): count group members; other aggregates
            // over bare elements are meaningless and yield NULL.
            let mut els = agg_elements(env, v);
            if distinct {
                els.sort();
                els.dedup();
            }
            match func {
                AggFunc::Count => Value::Int(els.len() as i64),
                _ => Value::Null,
            }
        }
        AggArg::Property(v, key) => {
            // SQL semantics: NULL property values do not contribute.
            let mut vals: Vec<Value> = agg_elements(env, v)
                .into_iter()
                .map(|el| graph.property(el, key).clone())
                .filter(|v| !v.is_null())
                .collect();
            if distinct {
                vals.sort();
                vals.dedup();
            }
            match func {
                AggFunc::Count => Value::Int(vals.len() as i64),
                AggFunc::Min => vals.into_iter().min().unwrap_or(Value::Null),
                AggFunc::Max => vals.into_iter().max().unwrap_or(Value::Null),
                AggFunc::Sum => vals
                    .iter()
                    .try_fold(None::<Value>, |acc, v| match acc {
                        None => Some(Some(v.clone())),
                        Some(a) => a.add(v).map(Some),
                    })
                    .flatten()
                    .unwrap_or(Value::Null),
                AggFunc::Avg => {
                    if vals.is_empty() {
                        return Value::Null;
                    }
                    let n = vals.len() as f64;
                    let sum: Option<f64> = vals.iter().map(Value::as_f64).sum();
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

    struct MapEnv(BTreeMap<String, BoundValue>);

    impl Env for MapEnv {
        fn lookup(&self, var: &str) -> Option<BoundValue> {
            self.0.get(var).cloned()
        }
    }

    fn setup() -> (PropertyGraph, MapEnv) {
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
        (g, MapEnv(env))
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
        struct ParamEnv(MapEnv);
        impl Env for ParamEnv {
            fn lookup(&self, var: &str) -> Option<BoundValue> {
                self.0.lookup(var)
            }
            fn param(&self, name: &str) -> Option<Value> {
                (name == "n").then_some(Value::Float(8e6))
            }
        }
        let (g, env) = setup();
        let env = ParamEnv(env);
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
