//! Property tests: the production engine — one-shot `evaluate`, a
//! *reused* `PreparedQuery`, parallel execution, bound parameters, and
//! deserialized plans — computes the same reduced, deduplicated, selected
//! binding sets as the §6 spec-literal baseline on random graphs and
//! random patterns. The baseline is the one differential oracle.

use std::collections::BTreeMap;

use proptest::prelude::*;

mod common;
use common::{chain_pattern, quantified_pattern, union_pattern};

use gpml_suite::core::ast::*;
use gpml_suite::core::binding::{BoundValue, MatchRow};
use gpml_suite::core::eval::{evaluate, EvalOptions, MatchIso, MatchMode};
use gpml_suite::core::plan::prepare;
use gpml_suite::core::{baseline, GraphPattern};
use gpml_suite::datagen::small_mixed;
use property_graph::{EdgeId, Path, PropertyGraph};

fn opts() -> EvalOptions {
    EvalOptions {
        max_matches: 200_000,
        ..EvalOptions::default()
    }
}

fn sorted(ms: gpml_suite::core::MatchSet) -> Vec<MatchRow> {
    let mut rows = ms.rows;
    rows.sort();
    rows
}

fn check_agreement(g: &PropertyGraph, pattern: &GraphPattern) {
    let a = evaluate(g, pattern, &opts());
    let b = baseline::evaluate(g, pattern, &opts());

    // Three-way: a PreparedQuery executed twice must (a) reject exactly
    // when one-shot evaluation rejects statically, (b) agree with the
    // one-shot result, and (c) be unaffected by its own reuse.
    match prepare(pattern, &opts()) {
        Ok(prepared) => {
            let first = prepared.execute(g);
            let second = prepared.execute(g);
            match (&first, &second) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(
                        x, y,
                        "re-executing a PreparedQuery changed its result on {pattern}"
                    )
                }
                (Err(_), Err(_)) => {}
                _ => panic!("PreparedQuery reuse changed success on {pattern}"),
            }
            match (&a, &first) {
                (Ok(x), Ok(y)) => assert_eq!(
                    sorted(x.clone()),
                    sorted(y.clone()),
                    "one-shot evaluate and PreparedQuery disagree on {pattern}"
                ),
                (Err(_), Err(_)) => {}
                _ => panic!("one-shot evaluate and PreparedQuery split on {pattern}"),
            }
        }
        Err(_) => assert!(
            a.is_err(),
            "prepare rejected what evaluate accepted: {pattern}"
        ),
    }

    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(
                sorted(x),
                sorted(y),
                "engines disagree on {pattern} over {} nodes/{} edges",
                g.node_count(),
                g.edge_count()
            );
        }
        // Static rejections must agree; resource limits may differ.
        (Err(ea), Err(_eb)) => {
            let _ = ea;
        }
        (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
            // The baseline may exhaust its rigid-pattern budget where the
            // engine succeeds; that is the one tolerated asymmetry.
            assert!(
                matches!(e, gpml_suite::core::Error::LimitExceeded { .. }),
                "one-sided failure on {pattern}: {e}"
            );
        }
    }
}

/// `pattern` with GSQL's default spelled out: every path pattern that has
/// an unbounded quantifier and neither selector nor restrictor gets an
/// explicit `ALL SHORTEST` (§3). The baseline knows only GPML semantics,
/// so this is how it checks [`MatchMode::GsqlDefault`].
fn with_explicit_all_shortest(pattern: &GraphPattern) -> GraphPattern {
    fn has_unbounded(p: &PathPattern) -> bool {
        match p {
            PathPattern::Node(_) | PathPattern::Edge(_) => false,
            PathPattern::Concat(parts) => parts.iter().any(has_unbounded),
            // A restrictor inside the paren already bounds its subtree.
            PathPattern::Paren {
                restrictor, inner, ..
            } => restrictor.is_none() && has_unbounded(inner),
            PathPattern::Quantified { inner, quantifier } => {
                quantifier.is_unbounded() || has_unbounded(inner)
            }
            PathPattern::Questioned(inner) => has_unbounded(inner),
            PathPattern::Union(bs) | PathPattern::Alternation(bs) => bs.iter().any(has_unbounded),
        }
    }
    let mut out = pattern.clone();
    for p in &mut out.paths {
        if p.selector.is_none() && p.restrictor.is_none() && has_unbounded(&p.pattern) {
            p.selector = Some(Selector::AllShortest);
        }
    }
    out
}

/// The baseline's answer under SPARQL endpoint semantics
/// ([`MatchMode::EndpointOnly`]), collapsed here from GPML results: each
/// path pattern keeps one representative binding per (start, end) pair —
/// the least reduced binding, with only its singleton variables — and the
/// representatives are then joined on shared variables (edge-isomorphism
/// included). Covers patterns without selectors or multiset alternation,
/// whose representative order the rows alone cannot reproduce.
fn baseline_endpoint_rows(
    g: &PropertyGraph,
    pattern: &GraphPattern,
    iso: MatchIso,
) -> gpml_suite::core::Result<Vec<MatchRow>> {
    assert!(
        pattern.where_clause.is_none(),
        "postfilters are not collapsed"
    );
    let mut rows: Vec<(BTreeMap<String, BoundValue>, Vec<EdgeId>)> =
        vec![(BTreeMap::new(), Vec::new())];
    for (i, expr) in pattern.paths.iter().enumerate() {
        assert!(expr.selector.is_none(), "selectors are not collapsed");
        // A path variable exposes each binding's walk.
        let path_var = format!("stage{i}_walk");
        let single = GraphPattern {
            paths: vec![PathPatternExpr {
                path_var: Some(path_var.clone()),
                ..expr.clone()
            }],
            where_clause: None,
        };
        let mut bindings: Vec<(Path, BTreeMap<String, BoundValue>)> =
            baseline::evaluate(g, &single, &opts())?
                .rows
                .into_iter()
                .map(|mut row| {
                    let Some(BoundValue::Path(walk)) = row.values.remove(&path_var) else {
                        panic!("the walk variable is bound on every row");
                    };
                    (walk, row.values)
                })
                .collect();
        bindings.sort();
        let mut seen = std::collections::BTreeSet::new();
        bindings.retain(|(walk, _)| seen.insert((walk.start(), walk.end())));
        for (_, vars) in &mut bindings {
            vars.retain(|_, v| v.is_singleton());
        }

        let mut next = Vec::new();
        for (row, used) in &rows {
            for (walk, vars) in &bindings {
                if iso == MatchIso::EdgeIsomorphic
                    && (!walk.is_trail() || walk.edges().iter().any(|e| used.contains(e)))
                {
                    continue;
                }
                if vars
                    .iter()
                    .any(|(k, v)| row.get(k).is_some_and(|bound| bound != v))
                {
                    continue;
                }
                let mut merged = row.clone();
                merged.extend(vars.clone());
                if let Some(pv) = &expr.path_var {
                    merged.insert(pv.clone(), BoundValue::Path(walk.clone()));
                }
                let mut used = used.clone();
                used.extend_from_slice(walk.edges());
                next.push((merged, used));
            }
        }
        rows = next;
    }
    let mut out: Vec<MatchRow> = rows
        .into_iter()
        .map(|(values, _)| MatchRow { values })
        .collect();
    out.sort();
    Ok(out)
}

/// The baseline's rows for `pattern` under `mode`, sorted.
fn baseline_rows(
    g: &PropertyGraph,
    pattern: &GraphPattern,
    mode: MatchMode,
    iso: MatchIso,
) -> gpml_suite::core::Result<Vec<MatchRow>> {
    let options = EvalOptions {
        isomorphism: iso,
        ..opts()
    };
    match mode {
        MatchMode::Gpml => baseline::evaluate(g, pattern, &options).map(sorted),
        MatchMode::GsqlDefault => {
            baseline::evaluate(g, &with_explicit_all_shortest(pattern), &options).map(sorted)
        }
        MatchMode::EndpointOnly => baseline_endpoint_rows(g, pattern, iso),
    }
}

/// Compares the engine under one (threads, mode, isomorphism) combination
/// — cost-chosen stage order, hash joins, semi-join pushdown, and (for
/// `threads >= 2`) the parallel executor all in play — against the
/// baseline: identical acceptance and identical row sets.
fn check_baseline_agreement(
    g: &PropertyGraph,
    pattern: &GraphPattern,
    threads: usize,
    mode: MatchMode,
    iso: MatchIso,
) {
    let options = EvalOptions {
        threads,
        mode,
        isomorphism: iso,
        ..opts()
    };
    let engine = evaluate(g, pattern, &options).map(sorted);
    match (engine, baseline_rows(g, pattern, mode, iso)) {
        (Ok(x), Ok(y)) => assert_eq!(
            x, y,
            "engine and baseline disagree on {pattern} \
             (threads {threads}, mode {mode:?}, iso {iso:?})"
        ),
        (Err(_), Err(_)) => {}
        (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
            // The baseline may exhaust its rigid-pattern budget where the
            // engine succeeds, and a skipped or filtered stage never hits
            // a limit its unfiltered search would; static rejections must
            // agree.
            assert!(
                matches!(e, gpml_suite::core::Error::LimitExceeded { .. }),
                "one-sided static failure on {pattern}: {e}"
            );
        }
    }
}

/// One `PreparedQuery`, many graphs: executions must be independent (no
/// state leaks between graphs) and each must match a fresh evaluation.
#[test]
fn prepared_query_is_independent_across_graphs() {
    // (s)-[e]->(m)-[f]->(t): sensitive to topology, joins included.
    let pattern = GraphPattern {
        paths: vec![
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("s")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e")),
                PathPattern::Node(NodePattern::var("m")),
            ])),
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("m")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("f")),
                PathPattern::Node(NodePattern::var("t")),
            ])),
        ],
        where_clause: None,
    };
    let prepared = prepare(&pattern, &opts()).unwrap();
    let graphs: Vec<PropertyGraph> = (0..6).map(|s| small_mixed(s, 5, 8)).collect();

    // Interleave executions across all graphs, twice over, and check each
    // against a fresh one-shot evaluation of the same pattern.
    let expected: Vec<_> = graphs
        .iter()
        .map(|g| sorted(evaluate(g, &pattern, &opts()).unwrap()))
        .collect();
    for round in 0..2 {
        for (g, want) in graphs.iter().zip(&expected) {
            let got = sorted(prepared.execute(g).unwrap());
            assert_eq!(&got, want, "round {round}: prepared execution diverged");
        }
    }
}

/// The GQL host's prepared statements reuse one plan across catalogs.
#[test]
fn gql_prepared_statement_reuses_across_graphs() {
    use gpml_suite::gql::Session;
    let mut session = Session::new();
    session.register("small", gpml_suite::datagen::chain(2));
    session.register("big", gpml_suite::datagen::chain(6));
    let q = session
        .prepare("MATCH (a:Account)-[t:Transfer]->(b) RETURN a.owner AS o ORDER BY o")
        .unwrap();
    let small = session.execute_prepared("small", &q).unwrap();
    let big = session.execute_prepared("big", &q).unwrap();
    assert_eq!(small.len(), 2);
    assert_eq!(big.len(), 6);
    // Replaying against the first graph after the second: unchanged.
    assert_eq!(session.execute_prepared("small", &q).unwrap(), small);
}

/// Compares parallel execution (`threads >= 2`) against the sequential
/// path (`threads = 1`) under one (mode, isomorphism) combination. The
/// contract is stricter than set equality: the *same rows in the same
/// order* (partition results are spliced deterministically and stages
/// merge in the same cost order), so plain `assert_eq!` on the result.
fn check_parallel_agreement(
    g: &PropertyGraph,
    pattern: &GraphPattern,
    threads: usize,
    mode: MatchMode,
    iso: MatchIso,
) {
    let sequential = EvalOptions {
        threads: 1,
        mode,
        isomorphism: iso,
        ..opts()
    };
    let parallel = EvalOptions {
        threads,
        ..sequential.clone()
    };
    let a = evaluate(g, pattern, &sequential);
    let b = evaluate(g, pattern, &parallel);
    match (a, b) {
        (Ok(x), Ok(y)) => assert_eq!(
            x, y,
            "parallel (threads={threads}) diverged from sequential on {pattern} \
             (mode {mode:?}, iso {iso:?})"
        ),
        (Err(_), Err(_)) => {}
        (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
            // Frontier limits are enforced per partition, so the success
            // boundary of resource-limited searches may shift; static
            // rejections must agree exactly.
            assert!(
                matches!(e, gpml_suite::core::Error::LimitExceeded { .. }),
                "one-sided static failure on {pattern}: {e}"
            );
        }
    }
}

/// Holds the flat transition-array interpreter — with semi-join filters
/// pushed wherever the cost model chooses — to both references left: the
/// baseline (which never filters) for the row set, and the sequential run
/// for row order when `threads >= 2`.
fn check_exact_agreement(
    g: &PropertyGraph,
    pattern: &GraphPattern,
    threads: usize,
    mode: MatchMode,
    iso: MatchIso,
) {
    check_baseline_agreement(g, pattern, threads, mode, iso);
    if threads >= 2 {
        check_parallel_agreement(g, pattern, threads, mode, iso);
    }
}

/// The two non-GPML modes against the baseline on shapes the random
/// corpus rarely or never produces: walks through an anonymous middle
/// node, and a join on a variable interior to one stage (where the
/// endpoint collapse drops rows and its choice of representative decides
/// which survive the join); and an unbounded quantifier with no cover,
/// which only GSQL's implicit `ALL SHORTEST` admits.
#[test]
fn non_gpml_modes_agree_with_the_baseline() {
    let queries = [
        "MATCH (x)->()->(z)",
        "MATCH (x)-[e]->(m), (m)->()->(z)",
        "MATCH (x)->(m)->(z), (m)-[f]->(w)",
        "MATCH (x)-[e]->+(z)",
    ];
    let mut collapsed_something = false;
    for query in queries {
        let gp = gpml_suite::parser::parse(query).unwrap();
        for seed in 0..12u64 {
            let g = small_mixed(seed, 5, 8);
            for mode in [MatchMode::EndpointOnly, MatchMode::GsqlDefault] {
                for iso in [MatchIso::Homomorphism, MatchIso::EdgeIsomorphic] {
                    check_baseline_agreement(&g, &gp, 1, mode, iso);
                }
            }
            let gpml = baseline::evaluate(&g, &gp, &opts());
            let endpoint = baseline_endpoint_rows(&g, &gp, MatchIso::Homomorphism);
            if let (Ok(gpml), Ok(endpoint)) = (gpml, endpoint) {
                collapsed_something |= sorted(gpml) != endpoint;
            }
        }
    }
    assert!(collapsed_something, "no case exercised the collapse");
}

/// An early stage that matches nothing drains the join before later
/// stages run. The executor then derives an *empty* semi-join key set
/// for the next stage — the regression guarded here is that this early
/// exit stays clean (no panic, no rows, no publishing into finished
/// slots) on the sequential path and every parallel path.
#[test]
fn semi_join_filters_survive_early_exit_on_an_empty_stage() {
    // (x:Missing)-[e]->(m), (m)-[f]->(t): nothing is labeled Missing.
    let gp = GraphPattern {
        paths: vec![
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("x").with_label(LabelExpr::label("Missing"))),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e")),
                PathPattern::Node(NodePattern::var("m")),
            ])),
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("m")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("f")),
                PathPattern::Node(NodePattern::var("t")),
            ])),
        ],
        where_clause: None,
    };
    for seed in 0..4u64 {
        let g = small_mixed(seed, 6, 10);
        for threads in [1usize, 2, 4] {
            let options = EvalOptions { threads, ..opts() };
            let r = evaluate(&g, &gp, &options).unwrap();
            assert!(
                r.rows.is_empty(),
                "empty stage produced rows (seed {seed}, threads {threads})"
            );
            check_baseline_agreement(&g, &gp, threads, MatchMode::Gpml, MatchIso::Homomorphism);
        }
    }
}

/// Early exit by `max_matches` while filters are mid-publication: once
/// the parallel sink stops merging, no further filter slots may be
/// written, and whatever was produced (or the limit error) must match
/// the sequential filtered run bit-for-bit.
#[test]
fn semi_join_filters_respect_the_match_limit() {
    let gp = GraphPattern {
        paths: vec![
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("s")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e")),
                PathPattern::Node(NodePattern::var("m")),
            ])),
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("m")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("f")),
                PathPattern::Node(NodePattern::var("t")),
            ])),
        ],
        where_clause: None,
    };
    for seed in 0..4u64 {
        let g = small_mixed(seed, 6, 10);
        for max_matches in [1usize, 3, 10] {
            let sequential = EvalOptions {
                threads: 1,
                max_matches,
                ..EvalOptions::default()
            };
            let want = evaluate(&g, &gp, &sequential);
            for threads in [2usize, 4] {
                let parallel = EvalOptions {
                    threads,
                    ..sequential.clone()
                };
                let got = evaluate(&g, &gp, &parallel);
                match (&want, &got) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x, y, "limit {max_matches}, threads {threads}, seed {seed}")
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!(
                        "success split under limit {max_matches} (seed {seed}, \
                         threads {threads}): {:?} vs {:?}",
                        a.as_ref().map(|r| r.len()),
                        b.as_ref().map(|r| r.len())
                    ),
                }
            }
        }
    }
}

/// Parameter bindings steer predicate selectivity, which steers the
/// semi-join decisions — estimates treat bound parameters like
/// literals. One prepared skeleton, re-bound across the selectivity
/// range, must agree with the baseline on the literal query for every
/// binding.
#[test]
fn semi_join_agrees_with_parameterized_queries_across_bindings() {
    use gpml_suite::core::Params;

    // (s)-[e WHERE e.w >= threshold]->(m), (m)-[f]->(t2): the threshold
    // sweeps the edge weights, from everything-matches down to
    // nothing-matches.
    let pattern = |threshold: Expr| GraphPattern {
        paths: vec![
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("s")),
                PathPattern::Edge(EdgePattern {
                    var: Some("e".into()),
                    label: None,
                    predicate: Some(Expr::cmp(CmpOp::Ge, Expr::prop("e", "w"), threshold)),
                    direction: Direction::Right,
                }),
                PathPattern::Node(NodePattern::var("m")),
            ])),
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("m")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("f")),
                PathPattern::Node(NodePattern::var("t2")),
            ])),
        ],
        where_clause: None,
    };
    let skeleton = prepare(&pattern(Expr::Parameter("t".into())), &opts()).unwrap();
    for seed in 0..4u64 {
        let g = small_mixed(seed, 6, 10);
        for t in -1i64..=5 {
            let bound = skeleton
                .execute_with(&g, &Params::new().with("t", t))
                .unwrap();
            let want = baseline::evaluate(&g, &pattern(Expr::lit(t)), &opts()).unwrap();
            assert_eq!(
                sorted(bound),
                sorted(want),
                "binding t={t} diverged on seed {seed}"
            );
        }
    }
}

/// Lifts every literal inside the predicates of `gp` into a fresh `$p{i}`
/// parameter, returning the skeleton and the bindings that restore the
/// original constants. The pair (skeleton + bindings) must behave exactly
/// like the literal query.
fn lift_literals(gp: &GraphPattern) -> (GraphPattern, gpml_suite::core::Params) {
    use gpml_suite::core::Params;

    fn lift_expr(e: &Expr, params: &mut Params, counter: &mut usize) -> Expr {
        match e {
            Expr::Literal(v) => {
                let name = format!("p{counter}");
                *counter += 1;
                params.set(name.clone(), v.clone());
                Expr::Parameter(name)
            }
            Expr::Not(i) => Expr::Not(Box::new(lift_expr(i, params, counter))),
            Expr::IsNull(i, want) => Expr::IsNull(Box::new(lift_expr(i, params, counter)), *want),
            Expr::And(a, b) => Expr::And(
                Box::new(lift_expr(a, params, counter)),
                Box::new(lift_expr(b, params, counter)),
            ),
            Expr::Or(a, b) => Expr::Or(
                Box::new(lift_expr(a, params, counter)),
                Box::new(lift_expr(b, params, counter)),
            ),
            Expr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(lift_expr(a, params, counter)),
                Box::new(lift_expr(b, params, counter)),
            ),
            Expr::Arith(op, a, b) => Expr::Arith(
                *op,
                Box::new(lift_expr(a, params, counter)),
                Box::new(lift_expr(b, params, counter)),
            ),
            other => other.clone(),
        }
    }

    fn lift_path(p: &PathPattern, params: &mut Params, counter: &mut usize) -> PathPattern {
        match p {
            PathPattern::Node(n) => {
                let mut n = n.clone();
                n.predicate = n.predicate.as_ref().map(|e| lift_expr(e, params, counter));
                PathPattern::Node(n)
            }
            PathPattern::Edge(e) => {
                let mut e = e.clone();
                e.predicate = e.predicate.as_ref().map(|x| lift_expr(x, params, counter));
                PathPattern::Edge(e)
            }
            PathPattern::Concat(parts) => PathPattern::Concat(
                parts
                    .iter()
                    .map(|x| lift_path(x, params, counter))
                    .collect(),
            ),
            PathPattern::Paren {
                restrictor,
                inner,
                predicate,
            } => PathPattern::Paren {
                restrictor: *restrictor,
                inner: Box::new(lift_path(inner, params, counter)),
                predicate: predicate.as_ref().map(|e| lift_expr(e, params, counter)),
            },
            PathPattern::Quantified { inner, quantifier } => PathPattern::Quantified {
                inner: Box::new(lift_path(inner, params, counter)),
                quantifier: *quantifier,
            },
            PathPattern::Questioned(inner) => {
                PathPattern::Questioned(Box::new(lift_path(inner, params, counter)))
            }
            PathPattern::Union(bs) => {
                PathPattern::Union(bs.iter().map(|x| lift_path(x, params, counter)).collect())
            }
            PathPattern::Alternation(bs) => {
                PathPattern::Alternation(bs.iter().map(|x| lift_path(x, params, counter)).collect())
            }
        }
    }

    let mut params = Params::new();
    let mut counter = 0usize;
    let lifted = GraphPattern {
        paths: gp
            .paths
            .iter()
            .map(|p| PathPatternExpr {
                selector: p.selector.clone(),
                restrictor: p.restrictor,
                path_var: p.path_var.clone(),
                pattern: lift_path(&p.pattern, &mut params, &mut counter),
            })
            .collect(),
        where_clause: gp
            .where_clause
            .as_ref()
            .map(|e| lift_expr(e, &mut params, &mut counter)),
    };
    (lifted, params)
}

/// A parameterized skeleton executed with bound `Params` must be
/// *bit-for-bit* identical (same rows, same order) to the same query with
/// the literals inlined: same plan shape, same cost decisions (bound
/// parameters are estimated like literals), same execution.
fn check_parameterized_agreement(
    g: &PropertyGraph,
    gp: &GraphPattern,
    threads: usize,
    mode: MatchMode,
    iso: MatchIso,
) {
    let options = EvalOptions {
        threads,
        mode,
        isomorphism: iso,
        ..opts()
    };
    let (skeleton, params) = lift_literals(gp);
    let literal = prepare(gp, &options);
    let parameterized = prepare(&skeleton, &options);
    match (literal, parameterized) {
        (Ok(lq), Ok(pq)) => match (lq.execute(g), pq.execute_with(g, &params)) {
            (Ok(a), Ok(b)) => assert_eq!(
                a, b,
                "bound params diverged from inlined literals on {gp} \
                 (threads {threads}, mode {mode:?}, iso {iso:?}, params {params})"
            ),
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "literal/parameterized success split on {gp}: {:?} vs {:?}",
                a.map(|r| r.len()),
                b.map(|r| r.len())
            ),
        },
        (Err(_), Err(_)) => {}
        _ => panic!("prepare acceptance split on {gp}"),
    }
}

/// Index probes cover only the value types whose query equality is
/// structural (strings, booleans). Everything else must fall back to a
/// scan and still return exactly the scan's rows: `Int(2) = Float(2.0)`
/// holds under query equality, `= NULL` is never true, and a parameter
/// bound to an integer probes nothing.
#[test]
fn unindexed_equalities_return_exactly_the_scans_rows() {
    use gpml_suite::core::plan::StartSet;
    use gpml_suite::core::Params;
    use gpml_suite::graph::Value;

    let mut g = PropertyGraph::new();
    let values = [
        Value::Int(2),
        Value::Float(2.0),
        Value::str("2"),
        Value::Bool(true),
        Value::Int(3),
    ];
    for (i, v) in values.into_iter().enumerate() {
        g.add_node(&format!("a{i}"), ["A"], [("n", v), ("k", Value::str("s"))]);
    }
    g.add_node("b0", ["B"], [("n", Value::Int(2))]);
    let parse = |q: &str| gpml_suite::parser::parse(q).expect("parses");
    let start_of = |gp: &GraphPattern, params: &Params| {
        let q = prepare(gp, &opts()).unwrap();
        q.cost_report_with(&g, params).steps[0].start.clone()
    };
    let rows = |gp: &GraphPattern, params: &Params| {
        sorted(
            prepare(gp, &opts())
                .unwrap()
                .execute_with(&g, params)
                .unwrap(),
        )
    };
    let scan = |gp: &GraphPattern| sorted(baseline::evaluate(&g, gp, &opts()).unwrap());

    let float = parse("MATCH (x:A WHERE x.n = 2.0)");
    assert!(matches!(
        start_of(&float, &Params::new()),
        StartSet::Label { .. }
    ));
    assert_eq!(rows(&float, &Params::new()), scan(&float));
    assert_eq!(scan(&float).len(), 2, "Int(2) and Float(2.0)");

    let null = parse("MATCH (x:A WHERE x.k = NULL)");
    assert!(matches!(
        start_of(&null, &Params::new()),
        StartSet::Label { .. }
    ));
    assert_eq!(rows(&null, &Params::new()), scan(&null));
    assert!(scan(&null).is_empty());

    let param = parse("MATCH (x:A WHERE x.n = $v)");
    let int = Params::new().with("v", 2);
    assert!(matches!(start_of(&param, &int), StartSet::Label { .. }));
    let literal = parse("MATCH (x:A WHERE x.n = 2)");
    assert_eq!(rows(&param, &int), scan(&literal));
    assert_eq!(scan(&literal).len(), 2);

    // The indexed types do probe, and agree with the scan too.
    let string = parse("MATCH (x:A WHERE x.n = '2' AND x.k = 's')");
    assert!(matches!(
        start_of(&string, &Params::new()),
        StartSet::Index { nodes: 1, .. }
    ));
    assert_eq!(rows(&string, &Params::new()), scan(&string));
    let boolean = parse("MATCH (x:A WHERE x.n = $v)");
    let yes = Params::new().with("v", true);
    assert!(matches!(
        start_of(&boolean, &yes),
        StartSet::Index { nodes: 1, .. }
    ));
    assert_eq!(
        rows(&boolean, &yes),
        scan(&parse("MATCH (x:A WHERE x.n = true)"))
    );
}

/// The benchmark's `point_lookup` statement starts from its one indexed
/// account: one node expanded and a handful of instructions, at 200 and
/// at 20 000 accounts alike, sequential or parallel.
#[test]
fn point_lookup_expands_one_node_at_any_scale() {
    use gpml_suite::core::eval::ExecProfile;
    use gpml_suite::core::Params;
    use gpml_suite::datagen::{transfer_network, TransferNetworkConfig};

    let gp = gpml_suite::parser::parse(
        "MATCH (x:Account WHERE x.owner=$owner)-[t:Transfer]->(y:Account)",
    )
    .expect("parses");
    let params = Params::new().with("owner", "owner7");
    for accounts in [200, 20_000] {
        let g = transfer_network(TransferNetworkConfig {
            accounts,
            transfers: 3 * accounts,
            seed: 1,
            ..TransferNetworkConfig::default()
        });
        for threads in [1, 2] {
            let q = prepare(&gp, &EvalOptions { threads, ..opts() }).unwrap();
            let profile = ExecProfile::new(q.plan().stage_count());
            let got = q.execute_with_profile(&g, &params, &profile).unwrap();
            assert!(!got.is_empty());
            let (nodes, _, _, instrs, _) = profile.totals();
            assert_eq!(nodes, 1, "{accounts} accounts, threads {threads}");
            assert!(
                instrs < 60,
                "{instrs} instrs at {accounts} accounts, threads {threads}"
            );
        }
    }
}

/// The parallel executor merges stages in the one cost-chosen order the
/// sequential executor uses (start sets included in the price), so row
/// *order* matches too. Small random graphs rarely produce enough rows
/// on both sides of a join for a different merge order to show, so this
/// sweeps denser graphs where the chosen order is not declaration order.
#[test]
fn parallel_execution_keeps_the_sequential_stage_order() {
    let gp = gpml_suite::parser::parse("MATCH (x:A)-[e]->(y), (y:B)-[f]->(z:A)").expect("parses");
    let mut reordered_with_rows = 0;
    for seed in 0..24u64 {
        let g = small_mixed(seed, 8, 20);
        let run = |threads| evaluate(&g, &gp, &EvalOptions { threads, ..opts() }).unwrap();
        let sequential = run(1);
        let order = prepare(&gp, &opts()).unwrap().cost_report(&g).order();
        if order != [0, 1] && sequential.len() > 2 {
            reordered_with_rows += 1;
        }
        for threads in [2, 4] {
            assert_eq!(run(threads), sequential, "seed {seed}, threads {threads}");
        }
    }
    assert!(
        reordered_with_rows > 0,
        "no seed exercised a reordered join"
    );
}

/// `threads = 1` must stay on the sequential executor and behave exactly
/// like the pre-parallelism engine; `threads = 0` (auto) must agree too.
#[test]
fn threads_one_is_the_sequential_regression_guard() {
    let pattern = GraphPattern {
        paths: vec![
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("s")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e")),
                PathPattern::Node(NodePattern::var("m")),
            ])),
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("m")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("f")),
                PathPattern::Node(NodePattern::var("t")),
            ])),
        ],
        where_clause: None,
    };
    for seed in 0..8u64 {
        let g = small_mixed(seed, 6, 10);
        let default = evaluate(&g, &pattern, &opts()).unwrap();
        let one = evaluate(
            &g,
            &pattern,
            &EvalOptions {
                threads: 1,
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(
            one, default,
            "threads=1 diverged from default on seed {seed}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn chains_agree(seed in 0u64..500, p in chain_pattern()) {
        let g = small_mixed(seed, 5, 8);
        check_agreement(&g, &GraphPattern::single(p));
    }

    #[test]
    fn quantified_patterns_agree(
        seed in 0u64..500,
        (restrictor, selector, pattern) in quantified_pattern(),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![PathPatternExpr { selector, restrictor, path_var: None, pattern }],
            where_clause: None,
        };
        check_agreement(&g, &gp);
    }

    #[test]
    fn unions_agree(seed in 0u64..500, p in union_pattern()) {
        let g = small_mixed(seed, 5, 7);
        check_agreement(&g, &GraphPattern::single(p));
    }

    #[test]
    fn multi_pattern_joins_agree(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(p1),
                PathPatternExpr::plain(p2),
            ],
            where_clause: None,
        };
        check_agreement(&g, &gp);
    }

    #[test]
    fn cost_based_execution_agrees_across_modes(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
        p3 in chain_pattern(),
        mode in proptest::sample::select(vec![
            MatchMode::Gpml,
            MatchMode::EndpointOnly,
            MatchMode::GsqlDefault,
        ]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(p1),
                PathPatternExpr::plain(p2),
                PathPatternExpr::plain(p3),
            ],
            where_clause: None,
        };
        check_baseline_agreement(&g, &gp, 0, mode, iso);
    }

    #[test]
    fn cost_based_quantified_patterns_agree(
        seed in 0u64..500,
        (restrictor, selector, pattern) in quantified_pattern(),
        p2 in chain_pattern(),
        threads in proptest::sample::select(vec![1usize, 2, 4]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr { selector, restrictor, path_var: Some("p".into()), pattern },
                PathPatternExpr::plain(p2),
            ],
            where_clause: None,
        };
        check_baseline_agreement(&g, &gp, threads, MatchMode::Gpml, iso);
    }

    #[test]
    fn parallel_execution_is_bit_for_bit_sequential(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
        threads in proptest::sample::select(vec![2usize, 4, 8]),
        mode in proptest::sample::select(vec![
            MatchMode::Gpml,
            MatchMode::EndpointOnly,
            MatchMode::GsqlDefault,
        ]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 5, 8);
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(p1),
                PathPatternExpr::plain(p2),
            ],
            where_clause: None,
        };
        check_parallel_agreement(&g, &gp, threads, mode, iso);
    }

    #[test]
    fn parallel_quantified_patterns_are_bit_for_bit_sequential(
        seed in 0u64..500,
        (restrictor, selector, pattern) in quantified_pattern(),
        threads in proptest::sample::select(vec![2usize, 4, 8]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![PathPatternExpr { selector, restrictor, path_var: Some("p".into()), pattern }],
            where_clause: None,
        };
        check_parallel_agreement(&g, &gp, threads, MatchMode::Gpml, iso);
    }

    #[test]
    fn semi_join_filtered_execution_agrees_with_baseline(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
        threads in proptest::sample::select(vec![1usize, 2, 4]),
        mode in proptest::sample::select(vec![
            MatchMode::Gpml,
            MatchMode::EndpointOnly,
            MatchMode::GsqlDefault,
        ]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 5, 8);
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(p1),
                PathPatternExpr::plain(p2),
            ],
            where_clause: None,
        };
        check_exact_agreement(&g, &gp, threads, mode, iso);
    }

    #[test]
    fn parameterized_chains_match_inlined_literals(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
        threads in proptest::sample::select(vec![1usize, 2]),
        mode in proptest::sample::select(vec![
            MatchMode::Gpml,
            MatchMode::EndpointOnly,
            MatchMode::GsqlDefault,
        ]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 5, 8);
        let gp = GraphPattern {
            paths: vec![PathPatternExpr::plain(p1), PathPatternExpr::plain(p2)],
            where_clause: None,
        };
        check_parameterized_agreement(&g, &gp, threads, mode, iso);
    }

    #[test]
    fn parameterized_quantified_patterns_match_inlined_literals(
        seed in 0u64..500,
        (restrictor, selector, pattern) in quantified_pattern(),
        threads in proptest::sample::select(vec![1usize, 2]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![PathPatternExpr { selector, restrictor, path_var: None, pattern }],
            where_clause: None,
        };
        check_parameterized_agreement(&g, &gp, threads, MatchMode::Gpml, iso);
    }

    #[test]
    fn flat_interpreter_agrees_with_baseline(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
        threads in proptest::sample::select(vec![1usize, 2, 4]),
        mode in proptest::sample::select(vec![
            MatchMode::Gpml,
            MatchMode::EndpointOnly,
            MatchMode::GsqlDefault,
        ]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 5, 8);
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(p1),
                PathPatternExpr::plain(p2),
            ],
            where_clause: None,
        };
        check_exact_agreement(&g, &gp, threads, mode, iso);
    }

    #[test]
    fn flat_interpreter_quantified_agrees_with_baseline(
        seed in 0u64..500,
        (restrictor, selector, pattern) in quantified_pattern(),
        threads in proptest::sample::select(vec![1usize, 2, 4]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![PathPatternExpr { selector, restrictor, path_var: Some("p".into()), pattern }],
            where_clause: None,
        };
        check_exact_agreement(&g, &gp, threads, MatchMode::Gpml, iso);
    }

    #[test]
    fn question_mark_agrees(seed in 0u64..500, n in 0usize..5) {
        let g = small_mixed(seed, 5, 8);
        // (x) [-[e]->(y)]? with varying start labels.
        let labels = ["A", "B", "T", "U", "A"];
        let pattern = PathPattern::concat(vec![
            PathPattern::Node(
                NodePattern::var("x").with_label(LabelExpr::label(labels[n])),
            ),
            PathPattern::Questioned(Box::new(
                PathPattern::concat(vec![
                    PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e")),
                    PathPattern::Node(NodePattern::var("y")),
                ])
                .paren(),
            )),
        ]);
        check_agreement(&g, &GraphPattern::single(pattern));
    }
}
