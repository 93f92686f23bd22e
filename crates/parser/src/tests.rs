//! Parser tests: golden tests for every Figure 5 row, the paper's queries
//! verbatim, and printer/parser round-trip properties.

use super::*;
use proptest::prelude::*;

fn parse_one(input: &str) -> PathPattern {
    let g = parse_pattern(input).expect(input);
    assert_eq!(g.paths.len(), 1, "{input}");
    g.paths.into_iter().next().unwrap().pattern
}

// ---------------------------------------------------------------------------
// Figure 5: edge patterns
// ---------------------------------------------------------------------------

#[test]
fn figure5_full_forms() {
    let cases = [
        ("(a)<-[e]-(b)", Direction::Left),
        ("(a)~[e]~(b)", Direction::Undirected),
        ("(a)-[e]->(b)", Direction::Right),
        ("(a)<~[e]~(b)", Direction::LeftOrUndirected),
        ("(a)~[e]~>(b)", Direction::UndirectedOrRight),
        ("(a)<-[e]->(b)", Direction::LeftOrRight),
        ("(a)-[e]-(b)", Direction::Any),
    ];
    for (input, direction) in cases {
        let p = parse_one(input);
        let PathPattern::Concat(parts) = p else {
            panic!("{input}")
        };
        let PathPattern::Edge(e) = &parts[1] else {
            panic!("{input}")
        };
        assert_eq!(e.direction, direction, "{input}");
        assert_eq!(e.var.as_deref(), Some("e"), "{input}");
    }
}

#[test]
fn figure5_abbreviations() {
    let cases = [
        ("(a)<-(b)", Direction::Left),
        ("(a)~(b)", Direction::Undirected),
        ("(a)->(b)", Direction::Right),
        ("(a)<~(b)", Direction::LeftOrUndirected),
        ("(a)~>(b)", Direction::UndirectedOrRight),
        ("(a)<->(b)", Direction::LeftOrRight),
        ("(a)-(b)", Direction::Any),
    ];
    for (input, direction) in cases {
        let p = parse_one(input);
        let PathPattern::Concat(parts) = p else {
            panic!("{input}")
        };
        let PathPattern::Edge(e) = &parts[1] else {
            panic!("{input}")
        };
        assert_eq!(e.direction, direction, "{input}");
        assert!(e.var.is_none(), "{input}");
    }
}

#[test]
fn edge_spec_with_label_and_where() {
    let p = parse_one("-[e:Transfer WHERE e.amount>5M]->");
    let PathPattern::Edge(e) = p else { panic!() };
    assert_eq!(e.var.as_deref(), Some("e"));
    assert_eq!(e.label, Some(LabelExpr::label("Transfer")));
    assert_eq!(
        e.predicate,
        Some(Expr::cmp(
            CmpOp::Gt,
            Expr::prop("e", "amount"),
            Expr::lit(5_000_000)
        ))
    );
}

// ---------------------------------------------------------------------------
// Node patterns & label expressions (§4.1)
// ---------------------------------------------------------------------------

#[test]
fn node_patterns() {
    assert_eq!(parse_one("()"), PathPattern::Node(NodePattern::any()));
    assert_eq!(parse_one("(x)"), PathPattern::Node(NodePattern::var("x")));
    let p = parse_one("(x:Account WHERE x.isBlocked='no')");
    let PathPattern::Node(n) = p else { panic!() };
    assert_eq!(n.var.as_deref(), Some("x"));
    assert_eq!(n.label, Some(LabelExpr::label("Account")));
    assert_eq!(
        n.predicate,
        Some(Expr::prop("x", "isBlocked").eq(Expr::lit("no")))
    );
}

#[test]
fn label_expressions() {
    let p = parse_one("(x:Account|IP)");
    let PathPattern::Node(n) = p else { panic!() };
    assert_eq!(
        n.label,
        Some(LabelExpr::label("Account").or(LabelExpr::label("IP")))
    );

    // (:!%) matches unlabeled nodes (§4.1).
    let p = parse_one("(:!%)");
    let PathPattern::Node(n) = p else { panic!() };
    assert_eq!(n.label, Some(LabelExpr::Wildcard.not()));
    assert!(n.var.is_none());

    let p = parse_one("(x:(City|Country)&!Blocked)");
    let PathPattern::Node(n) = p else { panic!() };
    assert_eq!(
        n.label,
        Some(
            LabelExpr::label("City")
                .or(LabelExpr::label("Country"))
                .and(LabelExpr::label("Blocked").not())
        )
    );
}

#[test]
fn cypher_property_maps_get_a_helpful_error() {
    let err = parse_pattern("(a:Account {isBlocked:'no'})").unwrap_err();
    assert!(err.message.contains("Cypher"), "{err}");
}

// ---------------------------------------------------------------------------
// Quantifiers (Figure 6) and `?`
// ---------------------------------------------------------------------------

#[test]
fn quantifier_forms() {
    let q = |input: &str| {
        let p = parse_one(input);
        let PathPattern::Concat(parts) = p else {
            panic!("{input}")
        };
        let PathPattern::Quantified { quantifier, .. } = &parts[1] else {
            panic!("{input}")
        };
        *quantifier
    };
    assert_eq!(q("(a)-[:T]->{2,5}(b)"), Quantifier::range(2, Some(5)));
    assert_eq!(q("(a)-[:T]->{3,}(b)"), Quantifier::range(3, None));
    assert_eq!(q("(a)-[:T]->{4}(b)"), Quantifier::range(4, Some(4)));
    assert_eq!(q("(a)-[:T]->*(b)"), Quantifier::star());
    assert_eq!(q("(a)-[:T]->+(b)"), Quantifier::plus());
}

#[test]
fn question_mark_is_not_a_quantifier() {
    let p = parse_one("(x)[->(y)]?");
    let PathPattern::Concat(parts) = p else {
        panic!()
    };
    assert!(matches!(parts[1], PathPattern::Questioned(_)));
}

#[test]
fn parenthesized_pattern_with_restrictor_and_where() {
    let p = parse_one("[TRAIL (x)-[e]->*(y) WHERE COUNT(e.*)>1]");
    let PathPattern::Paren {
        restrictor,
        predicate,
        ..
    } = p
    else {
        panic!()
    };
    assert_eq!(restrictor, Some(Restrictor::Trail));
    assert!(predicate.is_some());
}

// ---------------------------------------------------------------------------
// Selectors & restrictors at the path head (Figures 7–8)
// ---------------------------------------------------------------------------

#[test]
fn selector_forms() {
    let sel = |input: &str| parse_pattern(input).unwrap().paths[0].selector.clone();
    assert_eq!(sel("ANY SHORTEST (a)->*(b)"), Some(Selector::AnyShortest));
    assert_eq!(sel("ALL SHORTEST (a)->*(b)"), Some(Selector::AllShortest));
    assert_eq!(sel("ANY (a)->*(b)"), Some(Selector::Any));
    assert_eq!(sel("ANY 3 (a)->*(b)"), Some(Selector::AnyK(3)));
    assert_eq!(sel("SHORTEST 2 (a)->*(b)"), Some(Selector::ShortestK(2)));
    assert_eq!(
        sel("SHORTEST 2 GROUP (a)->*(b)"),
        Some(Selector::ShortestKGroup(2))
    );
    assert_eq!(sel("(a)->(b)"), None);
}

#[test]
fn selector_and_restrictor_combine() {
    let g = parse_pattern("ALL SHORTEST TRAIL p = (a)-[t:Transfer]->*(b)").unwrap();
    let pe = &g.paths[0];
    assert_eq!(pe.selector, Some(Selector::AllShortest));
    assert_eq!(pe.restrictor, Some(Restrictor::Trail));
    assert_eq!(pe.path_var.as_deref(), Some("p"));
}

// ---------------------------------------------------------------------------
// Union & alternation (§4.5)
// ---------------------------------------------------------------------------

#[test]
fn union_and_alternation() {
    let p = parse_one("(c:City) | (c:Country)");
    assert!(matches!(p, PathPattern::Union(ref b) if b.len() == 2));
    let p = parse_one("(c:City) |+| (c:Country)");
    assert!(matches!(p, PathPattern::Alternation(ref b) if b.len() == 2));
    let err = parse_pattern("(a) | (b) |+| (c)").unwrap_err();
    assert!(err.message.contains("bracketing"));
}

#[test]
fn overlapping_quantifier_union_from_section45() {
    let p = parse_one("->{1,5} | ->{3,7}");
    let PathPattern::Union(branches) = p else {
        panic!()
    };
    assert_eq!(branches.len(), 2);
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

#[test]
fn numeric_suffixes() {
    assert_eq!(parse_expr("5M").unwrap(), Expr::lit(5_000_000));
    assert_eq!(parse_expr("10m").unwrap(), Expr::lit(10_000_000));
    assert_eq!(parse_expr("2K").unwrap(), Expr::lit(2_000));
    assert_eq!(parse_expr("3B").unwrap(), Expr::lit(3_000_000_000i64));
    assert_eq!(parse_expr("1.5M").unwrap(), Expr::lit(1_500_000));
    assert_eq!(parse_expr("0.5").unwrap(), Expr::lit(0.5));
    assert_eq!(parse_expr("42").unwrap(), Expr::lit(42));
}

#[test]
fn string_escapes() {
    assert_eq!(
        parse_expr("'Ankh-Morpork'").unwrap(),
        Expr::lit("Ankh-Morpork")
    );
    assert_eq!(parse_expr("'it''s'").unwrap(), Expr::lit("it's"));
}

#[test]
fn boolean_precedence() {
    // NOT binds tighter than AND, AND tighter than OR.
    let e = parse_expr("NOT a.x=1 AND b.y=2 OR c.z=3").unwrap();
    let Expr::Or(lhs, _) = e else { panic!() };
    let Expr::And(not_part, _) = *lhs else {
        panic!()
    };
    assert!(matches!(*not_part, Expr::Not(_)));
}

#[test]
fn comparison_operators() {
    for (s, op) in [
        ("=", CmpOp::Eq),
        ("<>", CmpOp::Ne),
        ("!=", CmpOp::Ne),
        ("<", CmpOp::Lt),
        ("<=", CmpOp::Le),
        (">", CmpOp::Gt),
        (">=", CmpOp::Ge),
    ] {
        let e = parse_expr(&format!("a.x {s} 1")).unwrap();
        assert!(matches!(e, Expr::Cmp(o, ..) if o == op), "{s}");
    }
}

#[test]
fn is_predicates() {
    assert_eq!(
        parse_expr("e IS DIRECTED").unwrap(),
        Expr::IsDirected("e".into())
    );
    assert_eq!(
        parse_expr("s IS SOURCE OF e").unwrap(),
        Expr::IsSourceOf {
            node: "s".into(),
            edge: "e".into()
        }
    );
    assert_eq!(
        parse_expr("d IS DESTINATION OF e").unwrap(),
        Expr::IsDestinationOf {
            node: "d".into(),
            edge: "e".into()
        }
    );
    assert_eq!(
        parse_expr("a.x IS NULL").unwrap(),
        Expr::IsNull(Box::new(Expr::prop("a", "x")), true)
    );
    assert_eq!(
        parse_expr("a.x IS NOT NULL").unwrap(),
        Expr::IsNull(Box::new(Expr::prop("a", "x")), false)
    );
}

#[test]
fn element_tests_and_aggregates() {
    assert_eq!(
        parse_expr("SAME(p, q, r)").unwrap(),
        Expr::Same(vec!["p".into(), "q".into(), "r".into()])
    );
    assert_eq!(
        parse_expr("ALL_DIFFERENT(p, q)").unwrap(),
        Expr::AllDifferent(vec!["p".into(), "q".into()])
    );
    assert_eq!(
        parse_expr("SUM(t.amount)").unwrap(),
        Expr::Aggregate {
            func: AggFunc::Sum,
            arg: AggArg::Property("t".into(), "amount".into()),
            distinct: false,
        }
    );
    assert_eq!(
        parse_expr("COUNT(e.*)").unwrap(),
        Expr::Aggregate {
            func: AggFunc::Count,
            arg: AggArg::VarStar("e".into()),
            distinct: false,
        }
    );
    assert_eq!(
        parse_expr("COUNT(DISTINCT e)").unwrap(),
        Expr::Aggregate {
            func: AggFunc::Count,
            arg: AggArg::Var("e".into()),
            distinct: true,
        }
    );
    // PGQL's repeated-edge filter parses as one comparison.
    let e = parse_expr("COUNT(e) = COUNT(DISTINCT e)").unwrap();
    assert!(matches!(e, Expr::Cmp(CmpOp::Eq, ..)));
}

#[test]
fn arithmetic_in_predicates() {
    // §5.3: COUNT(e.*)/(COUNT(e.*)+1) > 1
    let e = parse_expr("COUNT(e.*)/(COUNT(e.*)+1) > 1").unwrap();
    let Expr::Cmp(CmpOp::Gt, lhs, _) = e else {
        panic!()
    };
    assert!(matches!(*lhs, Expr::Arith(ArithOp::Div, ..)));
}

// ---------------------------------------------------------------------------
// Paper queries verbatim
// ---------------------------------------------------------------------------

#[test]
fn paper_queries_parse_verbatim() {
    let queries = [
        // §4 basics.
        "MATCH (x:Account WHERE x.isBlocked='no')",
        "MATCH -[e:Transfer WHERE e.amount>5M]->",
        "MATCH (x)",
        "MATCH (x:Account)",
        "MATCH (x:Account) WHERE x.isBlocked='no'",
        "MATCH ()",
        "MATCH (x)-[:Transfer]->()-[:isLocatedIn]->(y)",
        "MATCH -[e]->",
        "MATCH ~[e]~",
        "MATCH (x)-[e]->(y)",
        "MATCH (y WHERE y.owner='Aretha')<-[e:Transfer]-(x)",
        "MATCH (s)-[e]->(m)-[f]->(t)",
        "MATCH (p:Phone WHERE p.isBlocked='yes') ~[e:hasPhone]~ (a1:Account) \
         -[t:Transfer WHERE t.amount>1M]->(a2)",
        "MATCH (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s)",
        "MATCH p = (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s)",
        "MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->\
         (d:Account)~[:hasPhone]~(p)",
        // §4.3 graph patterns.
        "MATCH (p:Phone WHERE p.isBlocked='yes')~[:hasPhone]~(s:Account), \
         (s)-[t:Transfer WHERE t.amount>1M]->()",
        "MATCH (s:Account)-[:signInWithIP]-(), \
         (s)-[t:Transfer WHERE t.amount>1M]->(), \
         (s)~[:hasPhone]~(p:Phone WHERE p.isBlocked='yes')",
        // §4.4 quantifiers.
        "MATCH (a:Account)-[:Transfer]->{2,5}(b:Account)",
        "MATCH [(a:Account)-[:Transfer]->(b:Account) WHERE a.owner=b.owner]{2,5}",
        "MATCH (a:Account) [()-[t:Transfer]->() WHERE t.amount>1M]{2,5} (b:Account)",
        "MATCH (a:Account) [()-[t:Transfer]->() WHERE t.amount>1M]{2,5} (b:Account) \
         WHERE SUM(t.amount)>10M",
        // §4.5 union & alternation.
        "MATCH (c:City) | (c:Country)",
        "MATCH (c:City) |+| (c:Country)",
        "MATCH ->{1,5} | ->{3,7}",
        "MATCH ->{1,7}",
        // §4.6 conditional variables.
        "MATCH [(x)->(y)] | [(x)->(z)]",
        "MATCH (x) [->(y)]?",
        "MATCH [(x:Account)-[:Transfer]->(y:Account WHERE y.isBlocked='yes')] | \
         [(x:Account)-[:Transfer]->()-[:hasPhone]-(p WHERE p.isBlocked='yes')]",
        "MATCH (x:Account)-[:Transfer]->(y:Account) [-(:hasPhone)-(p)]? \
         WHERE y.isBlocked='yes' OR p.isBlocked='yes'",
        // §5 termination.
        "MATCH p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')",
        "MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*\
         (b WHERE b.owner='Aretha')",
        "MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')-[t:Transfer]->*\
         (b WHERE b.owner='Aretha')",
        "MATCH ALL SHORTEST TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*\
         (b WHERE b.owner='Aretha')-[r:Transfer]->*(c WHERE c.owner='Mike')",
        "MATCH (p:Account WHERE p.owner='Natalia')->{1,10}\
         (q:Account WHERE q.owner='Mike')->{1,10}(r:Account WHERE r.owner='Scott')",
        "MATCH ALL SHORTEST (p:Account WHERE p.owner='Scott')->+\
         (q:Account WHERE q.isBlocked='yes')->+(r:Account WHERE r.owner='Charles')",
        "MATCH ALL SHORTEST (p:Account WHERE p.owner='Scott')->+(q:Account)->+\
         (r:Account WHERE r.owner='Charles') WHERE q.isBlocked='yes'",
        // §5.3 aggregates of unbounded variables.
        "MATCH ALL SHORTEST [ (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1)>1 ]",
        "MATCH ALL SHORTEST (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1",
        "MATCH ALL SHORTEST [ TRAIL (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1 ]",
        // §6 running example.
        "MATCH TRAIL (a WHERE a.owner='Jay') [-[b:Transfer WHERE b.amount>5M]->]+ \
         (a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]",
        "MATCH TRAIL (a WHERE a.owner='Jay') [-[b:Transfer WHERE b.amount>5M]->]+ \
         (a)-[:isLocatedIn]->(c:City|Country)",
        "MATCH ALL SHORTEST (a WHERE a.owner='Jay') \
         [-[b:Transfer WHERE b.amount>5M]->]+ \
         (a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]",
        "MATCH (a) [-[:isLocatedIn]->(c:City) |+| -[:isLocatedIn]->(c:Country)]",
    ];
    for q in queries {
        parse(q).unwrap_or_else(|e| panic!("{q}\n{e}"));
    }
}

#[test]
fn multiple_path_patterns_and_final_where() {
    let g = parse(
        "MATCH (x:Account)-[:isLocatedIn]->(g:City)<-[:isLocatedIn]-(y:Account), \
         ANY (x)-[e:Transfer]->+(y) \
         WHERE x.isBlocked='no' AND y.isBlocked='yes' AND g.name='Ankh-Morpork'",
    )
    .unwrap();
    assert_eq!(g.paths.len(), 2);
    assert_eq!(g.paths[1].selector, Some(Selector::Any));
    assert!(g.where_clause.is_some());
}

#[test]
fn parameters_parse_in_every_predicate_position() {
    // Element prefilter.
    let p = parse_one("(x WHERE x.owner = $owner)");
    let PathPattern::Node(n) = p else { panic!() };
    assert_eq!(
        n.predicate,
        Some(Expr::prop("x", "owner").eq(Expr::Parameter("owner".into())))
    );
    // Paren prefilter and final WHERE.
    let g = parse(
        "MATCH (a) [()-[t:Transfer WHERE t.amount > $min]->()]{1,3} (b) \
         WHERE SUM(t.amount) > $total",
    )
    .unwrap();
    assert!(g.where_clause.unwrap().to_string().contains("$total"));
    // Arithmetic and standalone expressions.
    assert_eq!(
        parse_expr("$min + 1").unwrap(),
        Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::Parameter("min".into())),
            Box::new(Expr::lit(1)),
        )
    );
    // Display round-trips.
    let e = parse_expr("x.w >= $min").unwrap();
    assert_eq!(e.to_string(), "x.w>=$min");
    assert_eq!(parse_expr(&e.to_string()).unwrap(), e);
}

#[test]
fn parameter_names_share_the_identifier_shape() {
    // Reserved words are fine as parameter names — separate namespace.
    assert_eq!(
        parse_expr("$count").unwrap(),
        Expr::Parameter("count".into())
    );
    // A bare `$` is an error, not a panic — and the name must be
    // byte-adjacent: a stray `$` never swallows the next token.
    assert!(parse_expr("$").is_err());
    assert!(parse_expr("$ 1").is_err());
    assert!(parse_expr("$ min").is_err());
    assert!(parse_expr("x.w >= $\nmin").is_err());
    assert!(parse_expr("x = $").is_err());
}

#[test]
fn parse_errors_carry_position() {
    let err = parse("MATCH (x").unwrap_err();
    assert!(err.pos >= 8, "{err:?}");
    let err = parse("MATCH ").unwrap_err();
    assert!(err.message.contains("expected"));
    let err = parse("(x)").unwrap_err();
    assert!(err.message.contains("MATCH"));
    assert!(parse("MATCH (x) extra").is_err());
}

#[test]
fn host_can_continue_after_pattern() {
    // The GQL host parses `MATCH <pattern> RETURN ...` by reusing Parser.
    let mut p = Parser::new("MATCH (x:Account) RETURN x.owner");
    p.expect_kw("MATCH").unwrap();
    let _pattern = p.parse_graph_pattern().unwrap();
    assert!(p.eat_kw("RETURN"));
    assert_eq!(p.rest().trim(), "x.owner");
}

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

/// Identifier strategy: short, lower-case, never reserved. Reserved-ness
/// is checked by asking the parser itself.
fn ident_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,3}".prop_filter("reserved", |s| matches!(parse_expr(s), Ok(Expr::Var(_))))
}

fn label_strategy() -> impl Strategy<Value = LabelExpr> {
    let leaf = prop_oneof![
        ident_strategy().prop_map(LabelExpr::Label),
        Just(LabelExpr::Wildcard),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| e.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.or(b)),
        ]
    })
}

fn value_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0i64..100).prop_map(Expr::lit),
        "[a-z]{1,4}".prop_map(Expr::lit),
        Just(Expr::lit(true)),
        Just(Expr::Literal(Value::Null)),
    ]
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (ident_strategy(), ident_strategy()).prop_map(|(v, p)| Expr::prop(v, p)),
        value_strategy(),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::cmp(CmpOp::Eq, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|e| e.not()),
            inner.prop_map(|e| Expr::IsNull(Box::new(e), true)),
        ]
    })
}

fn node_strategy() -> impl Strategy<Value = NodePattern> {
    (
        proptest::option::of(ident_strategy()),
        proptest::option::of(label_strategy()),
        proptest::option::of(expr_strategy()),
    )
        .prop_map(|(var, label, predicate)| NodePattern {
            var,
            label,
            predicate,
        })
}

fn edge_strategy() -> impl Strategy<Value = EdgePattern> {
    (
        proptest::option::of(ident_strategy()),
        proptest::option::of(label_strategy()),
        proptest::option::of(expr_strategy()),
        proptest::sample::select(Direction::ALL.to_vec()),
    )
        .prop_map(|(var, label, predicate, direction)| EdgePattern {
            var,
            label,
            predicate,
            direction,
        })
}

// ---------------------------------------------------------------------------
// Host projection clauses
// ---------------------------------------------------------------------------

#[test]
fn return_clause_fills_one_projection() {
    let mut p = Parser::new(
        "DISTINCT x.owner AS o, COUNT(e), y ORDER BY o DESC, y ASC, t.k SKIP 1 LIMIT 2",
    );
    let proj = p.parse_return().unwrap();
    assert!(p.at_eof());
    let aliases: Vec<&str> = proj.items.iter().map(|(_, a)| a.as_str()).collect();
    assert_eq!(aliases, ["o", "COUNT(e)", "y"]);
    // An alias key sorts by its item's expression; other keys stay as written.
    let keys: Vec<(String, bool)> = proj
        .order
        .iter()
        .map(|(e, asc)| (e.to_string(), *asc))
        .collect();
    assert_eq!(
        keys,
        [
            ("x.owner".into(), false),
            ("y".into(), true),
            ("t.k".into(), true)
        ]
    );
    assert!(proj.distinct);
    assert_eq!((proj.skip, proj.limit), (Some(1), Some(2)));
}

#[test]
fn counts_are_non_negative_integer_literals() {
    for (clause, at, got) in [("x LIMIT y", 8, "y"), ("x SKIP  1.5", 8, "1.5")] {
        let err = Parser::new(clause).parse_return().unwrap_err();
        assert_eq!(err.pos, at, "{clause}");
        assert_eq!(
            err.message,
            format!("expected a count, got {got}"),
            "{clause}"
        );
    }
}

fn quantifier_strategy() -> impl Strategy<Value = Quantifier> {
    prop_oneof![
        Just(Quantifier::star()),
        Just(Quantifier::plus()),
        (0u32..4, 1u32..5).prop_map(|(m, span)| Quantifier::range(m, Some(m + span))),
        (1u32..4).prop_map(|m| Quantifier::range(m, None)),
    ]
}

/// A nested union printed inline inside another union would mix `|` and
/// `|+|`; bracket it so the printed form is unambiguous.
fn bracket_unions(p: PathPattern) -> PathPattern {
    match p {
        PathPattern::Union(_) | PathPattern::Alternation(_) => PathPattern::Paren {
            restrictor: None,
            inner: Box::new(p),
            predicate: None,
        },
        other => other,
    }
}

/// A path pattern whose printed form re-parses to the same tree: unions
/// appear only at top level or bracketed, and every quantified factor is
/// an edge or a bracketed pattern.
fn path_strategy() -> impl Strategy<Value = PathPattern> {
    let atom = prop_oneof![
        node_strategy().prop_map(PathPattern::Node),
        edge_strategy().prop_map(PathPattern::Edge),
    ];
    atom.prop_recursive(3, 24, 4, |inner| {
        let seq = proptest::collection::vec(inner.clone(), 1..4).prop_map(PathPattern::concat);
        prop_oneof![
            seq.clone(),
            (
                proptest::option::of(proptest::sample::select(vec![
                    Restrictor::Trail,
                    Restrictor::Acyclic,
                    Restrictor::Simple,
                ])),
                seq.clone(),
                proptest::option::of(expr_strategy()),
            )
                .prop_map(|(restrictor, inner, predicate)| PathPattern::Paren {
                    restrictor,
                    inner: Box::new(inner),
                    predicate,
                }),
            (seq.clone(), quantifier_strategy()).prop_map(|(s, q)| {
                PathPattern::Paren {
                    restrictor: None,
                    inner: Box::new(s),
                    predicate: None,
                }
                .quantified(q)
            }),
            proptest::collection::vec(seq.clone(), 2..4)
                .prop_map(|bs| PathPattern::Union(bs.into_iter().map(bracket_unions).collect())),
            proptest::collection::vec(seq, 2..4).prop_map(|bs| {
                PathPattern::Alternation(bs.into_iter().map(bracket_unions).collect())
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The printer's output is a fixpoint: parse(print(p)) prints
    /// identically.
    #[test]
    fn printer_parser_fixpoint(p in path_strategy()) {
        let printed = GraphPattern::single(p).to_string();
        let reparsed = parse_pattern(&printed)
            .unwrap_or_else(|e| panic!("{printed}\n{e}"));
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    /// Expressions round-trip exactly.
    #[test]
    fn expr_roundtrip(e in expr_strategy()) {
        let printed = e.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("{printed}\n{err}"));
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    /// Labels round-trip exactly (precedence-aware printing).
    #[test]
    fn label_roundtrip(l in label_strategy()) {
        let printed = format!("(x:{l})");
        let reparsed = parse_pattern(&printed).unwrap();
        let PathPattern::Node(n) = &reparsed.paths[0].pattern else {
            panic!("{printed}")
        };
        prop_assert_eq!(n.label.as_ref().unwrap(), &l);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parser never panics: arbitrary input (including non-ASCII)
    /// yields `Ok` or a positioned error, never a slice-boundary crash.
    #[test]
    fn parser_never_panics_on_garbage(s in "\\PC{0,60}") {
        let _ = parse(&s);
        let _ = parse_pattern(&s);
        let _ = parse_expr(&s);
    }

    /// Mutated valid queries never panic either (they may or may not
    /// still parse).
    #[test]
    fn parser_survives_mutations(idx in 0usize..8, pos in 0usize..60, c in proptest::char::any()) {
        let queries = [
            "MATCH (x:Account WHERE x.isBlocked='no')",
            "MATCH -[e:Transfer WHERE e.amount>5M]->",
            "MATCH TRAIL p = (a)-[t:Transfer]->*(b)",
            "MATCH (a) [()-[t]->() WHERE t.w>1M]{2,5} (b) WHERE SUM(t.w)>10M",
            "MATCH (c:City) |+| (c:Country)",
            "MATCH ALL SHORTEST [ TRAIL (x)-[e]->*(y) WHERE COUNT(e.*)>1 ]",
            "MATCH (x) [->(y)]?",
            "MATCH ANY CHEAPEST(w) TRAIL (x)-[e]->*(y)",
        ];
        let q = queries[idx];
        let mut chars: Vec<char> = q.chars().collect();
        if pos < chars.len() {
            chars[pos] = c;
        }
        let mutated: String = chars.into_iter().collect();
        let _ = parse(&mutated);
    }
}
